import random

import pytest

from wirtlab import fpgroups
from wirtlab.fpgroups import artin_letters
from wirtlab.words import (
    Word, alternating_factors, format_word, free_reduce, invert, product,
)


def random_word(rng, d, length):
    letters = [rng.randint(1, d) * rng.choice((1, -1)) for _ in range(length)]
    return Word(letters)


def test_free_reduction_cancels_inverse_pairs():
    w = Word([1, 2, -2, -1])
    assert w == Word()
    assert not w


@pytest.mark.parametrize("letter", [0, True, 1.0, (1, 1)])
def test_words_refuse_letters_that_are_not_nonzero_ints(letter):
    with pytest.raises(ValueError, match="a letter must be a nonzero int"):
        Word([1, letter])


@pytest.mark.parametrize("i", [0, -1])
def test_gen_refuses_indices_below_one(i):
    with pytest.raises(ValueError, match=r"^generator indices start at 1, got %d$" % i):
        Word.gen(i)


def test_group_laws_hold_on_random_words():
    rng = random.Random(20240817)
    for _ in range(300):
        a = random_word(rng, 4, rng.randint(0, 8))
        b = random_word(rng, 4, rng.randint(0, 8))
        c = random_word(rng, 4, rng.randint(0, 8))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == Word()
        assert a.inverse().inverse() == a
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_products_and_inverses_equal_full_reduction():
    rng = random.Random(36)
    for _ in range(300):
        a = random_word(rng, 3, rng.randint(0, 10))
        b = random_word(rng, 3, rng.randint(0, 10))
        assert (a * b).letters == free_reduce(a.letters + b.letters)
        assert a.inverse().letters == free_reduce(-x for x in reversed(a.letters))
        assert (a * a.inverse()).letters == ()


def test_powers_and_conjugation():
    x = Word.gen(1)
    y = Word.gen(2)
    assert x ** 3 == Word([1] * 3)
    assert x ** -2 == (x ** 2).inverse()
    assert x ** 0 == Word()
    assert Word.gen(3, 0) == Word()
    assert Word.gen(3, -2) == Word([-3, -3])
    assert x.conjugated_by(y) == y.inverse() * x * y


def test_substitute_is_a_homomorphism():
    rng = random.Random(7)
    images = {1: Word([2, -3]), 2: Word.gen(3), 3: Word([-1])}
    for _ in range(100):
        a = random_word(rng, 3, 6)
        b = random_word(rng, 3, 6)
        assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
        assert a.inverse().substitute(images) == a.substitute(images).inverse()


def test_cyclic_reduction_strips_conjugating_prefix():
    x, y = Word.gen(1), Word.gen(2)
    w = (x * y * x.inverse()).cyclically_reduced()
    assert w == y


def test_alternating_products():
    x, y = Word.gen(1), Word.gen(2)
    assert product(*alternating_factors(x.letters, y.letters, 3)) == (x * y * x).letters
    assert product(*alternating_factors(y.letters, x.letters, 4)) == (y * x * y * x).letters
    # the factors are reduced, and only their seams cancel
    assert product(*alternating_factors((1, 2), (-2, 3), 3)) == (1, 3, 1, 2)
    assert product(*alternating_factors((1,), (2,), 0)) == ()


def test_product_equals_free_reduction_of_the_concatenated_runs():
    # the x3 run cancels whole, and the last run keeps cancelling through
    # the x2 x1 left by the first
    assert product((1, 2), (3,), (-3,), (-2, -1, 4)) == (4,)
    rng = random.Random(3700)
    for _ in range(500):
        runs = []
        for _ in range(rng.randint(0, 7)):
            done = free_reduce(x for run in runs for x in run)
            tail = random_word(rng, 3, rng.randint(0, 3)).letters
            if done and rng.random() < 0.5:
                # undo a suffix of the output so far, which may reach back
                # through several runs, then go on with the tail (if any)
                k = rng.randint(1, len(done))
                runs.append(free_reduce(invert(done[-k:]) + tail))
            else:
                runs.append(tail)
        assert product(*runs) == free_reduce(x for run in runs for x in run), runs


@pytest.mark.parametrize("length", range(7))
def test_alternating_products_and_artin_letters_match_word_products(length):
    rng = random.Random(length)
    for _ in range(100):
        a = random_word(rng, 3, rng.randint(0, 4))
        b = random_word(rng, 3, rng.randint(0, 4))
        ab, ba = Word(), Word()
        for i in range(length):
            ab, ba = ab * (b if i % 2 else a), ba * (a if i % 2 else b)
        assert alternating_factors(a.letters, b.letters, length) == tuple(
            (b if i % 2 else a).letters for i in range(length)
        )
        assert product(*alternating_factors(a.letters, b.letters, length)) == ab.letters, (a, b)
        assert artin_letters(a.letters, b.letters, length) == (ab * ba.inverse()).letters, (a, b)


def test_max_generator():
    w = Word([3, -1, 3, 1])
    assert w.max_generator() == 3


def test_format_word_uses_names():
    w = Word([1, -2])
    assert format_word(w, ["a", "b"]) == "a*b^-1"


def test_format_word_folds_runs_into_powers():
    assert format_word(Word([1, 1, -2, -2])) == "x1^2*x2^-2"


def test_free_reduce_function_matches_word_constructor():
    letters = [1, 1, -1, -2, 2, -1]
    assert free_reduce(letters) == tuple(Word(letters))


def test_substitute_cancels_across_seams():
    x = Word.gen
    # x1 -> x2^-1 x3 cancels the x2 before each x1 and the x3^-1 before
    # that; x4 -> 1 lets the runs beside it meet, so the whole word cancels
    w = x(3, -1) * x(2) * x(1) * x(4) * x(1, -1) * x(2, -1) * x(3)
    assert w.substitute({1: x(2, -1) * x(3), 4: Word()}) == Word()

    rng = random.Random(1984)
    for _ in range(500):
        w = random_word(rng, 5, rng.randint(0, 16))
        ls = w.letters
        images = {}
        for g in rng.sample(range(1, 6), rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.25:
                images[g] = Word()
            elif pick < 0.75 and any(abs(x) == g for x in ls):
                # undo the run just before (or after) an occurrence of g
                i = rng.choice([i for i, x in enumerate(ls) if abs(x) == g])
                k = rng.randint(1, 4)
                before, after = Word(ls[max(0, i - k) : i]), Word(ls[i + 1 : i + 1 + k])
                tail = random_word(rng, 5, rng.randint(0, 2))
                image = before.inverse() * tail if rng.random() < 0.5 else tail * after.inverse()
                images[g] = image if ls[i] > 0 else image.inverse()
            else:
                images[g] = random_word(rng, 5, rng.randint(1, 4))
        naive = []
        for x in ls:
            image = images.get(abs(x), Word.gen(abs(x)))
            naive.extend(image.letters if x > 0 else image.inverse().letters)
        assert w.substitute(images).letters == Word(naive).letters, (w, images)
        n = rng.randint(0, 4)
        assert (w ** n).letters == free_reduce(ls * n)


def letter_by_letter(t, images) -> tuple[int, ...]:
    """``t`` with each letter replaced by its image or its image's
    inverse, then freely reduced as a whole."""
    out = []
    for x in t:
        image = images.get(abs(x), (abs(x),))
        out.extend(image if x > 0 else invert(image))
    return free_reduce(out)


def seam_image(rng, t, g, shape) -> tuple[int, ...]:
    """An image for x_g built against the letters of ``t`` around one
    occurrence of x_g or x_g^-1 (oriented as x_g): ``before`` undoes a
    piece of the run before it, ``after`` a piece of the run after it,
    ``whole`` the whole run back to the previous occurrence, ``empty`` is
    the identity and ``random`` is unrelated to ``t``."""
    tail = random_word(rng, 4, rng.randint(0, 2)).letters
    spots = [i for i, x in enumerate(t) if abs(x) == g]
    if shape == "empty":
        return ()
    if shape == "random" or not spots:
        return random_word(rng, 4, rng.randint(1, 4)).letters
    i = rng.choice(spots)
    if shape == "before":
        image = invert(t[max(0, i - rng.randint(1, 4)) : i]) + tail
    elif shape == "after":
        image = tail + invert(t[i + 1 : i + 1 + rng.randint(1, 4)])
    else:
        prev = max((j for j in spots if j < i), default=-1)
        image = invert(t[prev + 1 : i])
    image = free_reduce(image)
    return image if t[i] > 0 else invert(image)


SEAM_SHAPES = ("before", "after", "whole", "empty", "random")


def test_one_product_substitution_matches_letter_by_letter_replacement():
    # x1 -> x2^-1 x3^-1 cancels the whole run x3 x2 before it; its inverse
    # x3 x2 cancels the whole run x2^-1 x3^-1 after x1^-1
    t = (3, 2, 1, 4, -1, -2, -3)
    assert fpgroups._substitute(t, 1, (-2, -3), (3, 2)) == (4,)
    assert Word(t).substitute({1: Word((-2, -3))}).letters == (4,)

    rng = random.Random(3701)
    for _ in range(600):
        t = random_word(rng, 4, rng.randint(0, 16)).letters
        g = rng.randint(1, 4)
        image = seam_image(rng, t, g, rng.choice(SEAM_SHAPES))
        expected = letter_by_letter(t, {g: image})
        assert fpgroups._substitute(t, g, image, invert(image)) == expected, (t, g, image)
        assert Word(t).substitute({g: Word(image)}).letters == expected, (t, g, image)
        # several images at once, each built against t
        images = {
            h: seam_image(rng, t, h, rng.choice(SEAM_SHAPES))
            for h in rng.sample(range(1, 5), rng.randint(2, 4))
        }
        words = {h: Word(image) for h, image in images.items()}
        assert Word(t).substitute(words).letters == letter_by_letter(t, images), (t, images)


def test_words_are_immutable():
    w = Word.gen(1)
    with pytest.raises(AttributeError, match="immutable"):
        w.letters = ()


def test_equal_words_hash_alike():
    a, b = Word.gen(1), Word.gen(2)
    assert len({a * b, Word([1, 2]), a * b * b * b.inverse(), b * a}) == 2
