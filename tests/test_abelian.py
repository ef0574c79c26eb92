import random

import pytest

from wirtlab.abelian import AbelianInvariants, abelianization, smith_normal_form
from wirtlab.fpgroups import Presentation
from wirtlab.words import Word


def sympy_snf_diag(matrix):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    s = sympy_snf(sympy.Matrix(matrix))
    return [abs(int(s[i, i])) for i in range(min(s.shape))]


def random_matrices(seed, count):
    """Matrices up to 9 x 9: square and rectangular, dense and sparse (with
    zero rows and columns), small entries or entries sharing factors."""
    rng = random.Random(seed)
    small = range(-6, 7)
    shared = (0, 2, -4, 6, -9, 10, 12, -15, 30)
    for _ in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        entries = rng.choice((small, shared))
        yield [
            [rng.choice(entries) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]


def test_smith_normal_form_matches_sympy_on_random_matrices():
    for matrix in random_matrices(42, 200):
        ours = smith_normal_form(matrix)
        assert ours == sympy_snf_diag(matrix), matrix
        nonzero = [d for d in ours if d != 0]
        assert ours == nonzero + [0] * (len(ours) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_smith_normal_form_divisibility_chain():
    rng = random.Random(7)
    for _ in range(40):
        matrix = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        diag = [d for d in smith_normal_form(matrix) if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


@pytest.mark.parametrize(
    "matrix, diag",
    [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[4, 0], [0, 6]], [2, 12]),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
        ([[0, 5, 0], [0, 0, 0]], [5, 0]),
        ([[]], []),
        ([], []),
    ],
)
def test_smith_normal_form_hand_cases(matrix, diag):
    assert smith_normal_form(matrix) == diag


def test_abelianization_known_groups():
    # Z/2 * nothing: < a | a^2 >
    p = Presentation(("a",), (Word.gen(1) ** 2,))
    ab = abelianization(p)
    assert (ab.free_rank, ab.torsion) == (0, (2,))
    # free abelian of rank 2
    free2 = Presentation(("a", "b"), ())
    ab2 = abelianization(free2)
    assert (ab2.free_rank, ab2.torsion) == (2, ())
    # trefoil relator abelianises to a = b
    p3 = Presentation(
        ("a", "b"),
        (Word([1, 2, 1, -2, -1, -2]),),
    )
    ab3 = abelianization(p3)
    assert (ab3.free_rank, ab3.torsion) == (1, ())
    # (Z/5)^1100: one relator g^5 per generator, a diagonal 1100 x 1100 matrix
    n = 1100
    p5 = Presentation(
        tuple("g%d" % i for i in range(1, n + 1)),
        tuple(Word.gen(i, 5) for i in range(1, n + 1)),
    )
    assert abelianization(p5) == AbelianInvariants(0, (5,) * n)


def test_abelian_invariants_print_as_a_sum():
    assert str(AbelianInvariants(1, (2,))) == "Z + Z/2"
    assert str(AbelianInvariants(0, ())) == "trivial"
