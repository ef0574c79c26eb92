import random

from wirtlab.braids import Braid, braid_act, half_twist
from wirtlab.diagram import Crossing, Cusp, Ordinary, Tangency
from wirtlab.genpres import local_braid
from wirtlab.words import Word, alternating


def random_braid(rng, n, length):
    return Braid(n, [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)])


def random_word(rng, d, length):
    return Word([(rng.randint(1, d), rng.choice((1, -1))) for _ in range(length)])


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
            images = {j: Word.gen(j + 1), j + 1: Word([(j + 1, 1), (j, 1), (j + 1, -1)])}
        else:
            images = {j: Word([(j, -1), (j + 1, 1), (j, 1)]), j + 1: Word.gen(j)}
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
        boundary = Word([(i, 1) for i in range(n, 0, -1)])
        for _ in range(50):
            b = random_braid(rng, n, rng.randint(0, 10))
            assert braid_act(boundary, b) == boundary


def test_braid_group_identities():
    b = Braid.sigma(4, 2)
    # braid words are not normalised, so check identities through the action
    w = Word([(1, 1), (3, -1), (2, 1)])
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
        boundary = Word([(i, 1) for i in range(m, 0, -1)])
        assert braid_act(boundary, full) == boundary
        for i in range(1, m + 1):
            img = braid_act(Word.gen(i), full)
            assert img == boundary * Word.gen(i) * boundary.inverse()


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
        Cusp(2, "left"): cyclic_canonical(alternating(x1, x2, 3) * alternating(x2, x1, 3).inverse()),
    }
    for kind, want in expected.items():
        beta = local_braid(kind)
        got = set()
        for g in (x1, x2):
            rel = (braid_act(g, beta) * g.inverse()).cyclically_reduced()
            if rel:
                got.add(cyclic_canonical(rel))
        assert got == {want}, (kind, got, want)
