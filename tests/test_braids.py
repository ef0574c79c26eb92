import random

import pytest

from wirtlab.braids import Braid, braid_act, braid_images, half_twist, twist_images
from wirtlab.diagram import Crossing, Cusp, Ordinary, Tangency
from wirtlab.genpres import local_braid
from wirtlab.words import Word


def random_braid(rng, n, length):
    return Braid(n, [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)])


def random_word(rng, d, length):
    return Word([rng.randint(1, d) * rng.choice((1, -1)) for _ in range(length)])


def test_generator_action_table():
    x1, x2, x3 = Word.gen(1), Word.gen(2), Word.gen(3)
    s1 = Braid.sigma(3, 1)
    assert braid_act(x1, s1) == x2
    assert braid_act(x2, s1) == x2 * x1 * x2.inverse()
    assert braid_act(x3, s1) == x3
    assert braid_act(x1, s1.inverse()) == x1.inverse() * x2 * x1
    assert braid_act(x2, s1.inverse()) == x1


def letter_by_letter(word, braid):
    # reference: apply the generator table once per braid letter, in order
    for j, e in braid.letters:
        if e == 1:
            images = {j: Word.gen(j + 1), j + 1: Word([j + 1, j, -(j + 1)])}
        else:
            images = {j: Word([-j, j + 1, j]), j + 1: Word.gen(j)}
        word = word.substitute(images)
    return word


def test_generator_images_match_letter_by_letter_action():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 8))
        b = random_braid(rng, n, rng.randint(0, 12))
        assert braid_act(w, b) == letter_by_letter(w, b)


def test_action_is_a_right_action():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 8))
        a = random_braid(rng, n, rng.randint(0, 6))
        b = random_braid(rng, n, rng.randint(0, 6))
        assert braid_act(braid_act(w, a), b) == braid_act(w, a * b)


def test_action_respects_braid_relations():
    rng = random.Random(23)
    for n in range(3, 6):
        for i in range(1, n - 1):
            lhs = Braid.sigma(n, i) * Braid.sigma(n, i + 1) * Braid.sigma(n, i)
            rhs = Braid.sigma(n, i + 1) * Braid.sigma(n, i) * Braid.sigma(n, i + 1)
            for _ in range(20):
                w = random_word(rng, n, 8)
                assert braid_act(w, lhs) == braid_act(w, rhs)
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                lhs = Braid.sigma(n, i) * Braid.sigma(n, j)
                rhs = Braid.sigma(n, j) * Braid.sigma(n, i)
                for _ in range(20):
                    w = random_word(rng, n, 8)
                    assert braid_act(w, lhs) == braid_act(w, rhs)


def test_action_fixes_descending_product():
    rng = random.Random(5)
    for n in range(2, 7):
        boundary = Word(range(n, 0, -1))
        for _ in range(50):
            b = random_braid(rng, n, rng.randint(0, 10))
            assert braid_act(boundary, b) == boundary


def test_braid_group_identities():
    b = Braid.sigma(4, 2)
    # braid words are not normalised, so check identities through the action
    w = Word([1, -3, 2])
    assert braid_act(w, b * b.inverse()) == w
    assert braid_act(braid_act(w, b ** 3), b ** -3) == w
    # permutations compose consistently with braid multiplication
    rng = random.Random(3)
    for _ in range(50):
        a = random_braid(rng, 4, 5)
        c = random_braid(rng, 4, 5)
        pa, pc = a.permutation(), c.permutation()
        composed = tuple(pa[pc[i] - 1] for i in range(4))
        assert (a * c).permutation() == composed


def test_half_twist_squares_to_full_twist_action():
    # the full twist on m strands is central: it acts by conjugation by
    # the descending product, hence fixes it and conjugates each generator.
    for m in (2, 3, 4):
        full = local_braid(Ordinary(m))
        boundary = Word(range(m, 0, -1))
        assert braid_act(boundary, full) == boundary
        for i in range(1, m + 1):
            img = braid_act(Word.gen(i), full)
            assert img == boundary * Word.gen(i) * boundary.inverse()


def substituted(images, words):
    near = dict(enumerate(words, start=1))
    return tuple(image.substitute(near) for image in images)


def twisted(words, k):
    """``twist_images`` on the words' letter tuples, as Words."""
    images = twist_images([w.letters for w in words], k)
    assert all(isinstance(t, tuple) and Word(t).letters == t for t in images)
    return tuple(Word._reduced(t) for t in images)


def test_twist_images_match_the_expanded_half_twist():
    rng = random.Random(47)
    for m in range(2, 11):
        gens = [Word.gen(i) for i in range(1, m + 1)]
        for k in range(-7, 8):
            expanded = braid_images(half_twist(m) ** k)
            assert twisted(gens, k) == expanded, (m, k)
            for _ in range(3):
                words = [random_word(rng, m + 2, rng.randint(0, 6)) for _ in range(m)]
                assert twisted(words, k) == substituted(expanded, words), (m, k)


@pytest.mark.parametrize(
    "kind",
    [Tangency("left"), Tangency("right"), Cusp(2, "left"), Cusp(4, "right"), Cusp(6, "left")]
    + [Crossing(m) for m in (1, 3, 5, 7)]
    + [Ordinary(m) for m in range(2, 9)],
    ids=repr,
)
def test_twist_images_apply_each_kinds_local_braid(kind):
    # Delta^twist and Delta^(twist // 2), and their inverses, as the
    # presentations apply them
    rng = random.Random(repr(kind))
    gens = [Word.gen(i) for i in range(1, kind.size + 1)]
    for half, k in ((False, kind.twist), (True, kind.twist // 2)):
        beta = local_braid(kind, half=half)
        for braid, power in ((beta, k), (beta.inverse(), -k)):
            expanded = braid_images(braid)
            assert twisted(gens, power) == expanded
            words = [random_word(rng, 5, rng.randint(0, 8)) for _ in gens]
            assert twisted(words, power) == substituted(expanded, words)


def test_braid_product_hash_and_repr():
    a, b = Braid.sigma(3, 1), Braid.sigma(3, 2, -1)
    ab = Braid(3, [(1, 1), (2, -1)])
    assert a * b == ab and (a * b).n == 3
    with pytest.raises(ValueError, match="^cannot compose braids on different strand counts$"):
        a * Braid.sigma(4, 1)
    assert hash(a * b) == hash(ab)
    assert len({a * b, ab, b * a}) == 2
    assert repr(Braid.identity(4)) == "Braid(4)"
    assert repr(ab) == "Braid(3, s1*s2^-1)"


def test_local_braid_validation():
    # m is checked where the kind is built (tests/test_diagram.py); the
    # half local braid of an ordinary point is the half twist
    assert local_braid(Ordinary(3), half=True) == half_twist(3)
    assert half_twist(3) == Braid(3, [(1, 1), (2, 1), (1, 1)])


def cyclic_canonical(w: Word) -> tuple:
    """Least representative over cyclic rotations and inversion."""
    w = w.cyclically_reduced()
    letters = tuple(w)
    if not letters:
        return ()
    reps = []
    for word in (letters, tuple(w.inverse())):
        for i in range(len(word)):
            reps.append(word[i:] + word[:i])
    return min(reps)


def test_local_relator_table():
    # A_m local monodromy sigma^(m+1) on two strands yields, as reduced
    # relators x_i^beta * x_i^-1: identification (the tangency, A_0),
    # commutation (A_1) and the braid relation (A_2).
    x1, x2 = Word.gen(1), Word.gen(2)
    expected = {
        Tangency("left"): cyclic_canonical(x1 * x2.inverse()),
        Crossing(1): cyclic_canonical(x1 * x2 * x1.inverse() * x2.inverse()),
        Cusp(2, "left"): cyclic_canonical(x1 * x2 * x1 * (x2 * x1 * x2).inverse()),
    }
    for kind, want in expected.items():
        beta = local_braid(kind)
        got = set()
        for g in (x1, x2):
            rel = (braid_act(g, beta) * g.inverse()).cyclically_reduced()
            if rel:
                got.add(cyclic_canonical(rel))
        assert got == {want}, (kind, got, want)


@pytest.mark.parametrize(
    "letters, message",
    [([(3, 1)], "not a generator on 3 strands"), ([(0, 1)], "not a generator"), ([(1, 2)], "exponents must be")],
)
def test_braid_refuses_bad_letters(letters, message):
    with pytest.raises(ValueError, match=message):
        Braid(3, letters)


def test_sigma_to_the_zero_is_the_identity():
    assert Braid.sigma(3, 1, 0) == Braid.identity(3)


def test_braid_act_refuses_generators_beyond_the_strand_count():
    with pytest.raises(ValueError, match="strand count"):
        braid_act(Word.gen(4), Braid(3, [(1, 1)]))
