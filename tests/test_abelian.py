import random

import pytest

sympy = pytest.importorskip("sympy")

from wirtlab.abelian import AbelianInvariants, abelianization, smith_normal_form
from wirtlab.fpgroups import Presentation
from wirtlab.words import Word


def sympy_snf_diag(matrix):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = sympy.Matrix(matrix)
    s = sympy_snf(m)
    k = min(s.shape)
    return [abs(int(s[i, i])) for i in range(k)]


def normalise(diag, rows, cols):
    k = min(rows, cols)
    out = [abs(d) for d in diag][:k]
    out += [0] * (k - len(out))
    return out


def test_smith_normal_form_matches_sympy_on_random_matrices():
    rng = random.Random(42)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        ours = normalise(smith_normal_form(matrix), rows, cols)
        oracle = normalise(sympy_snf_diag(matrix), rows, cols)
        assert ours == oracle, matrix


def test_smith_normal_form_divisibility_chain():
    rng = random.Random(7)
    for _ in range(40):
        matrix = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        diag = [d for d in smith_normal_form(matrix) if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


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
        (Word([(1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1)]),),
    )
    ab3 = abelianization(p3)
    assert (ab3.free_rank, ab3.torsion) == (1, ())


def test_abelian_invariants_print_as_a_sum():
    assert str(AbelianInvariants(1, (2,))) == "Z + Z/2"
    assert str(AbelianInvariants(0, ())) == "trivial"
