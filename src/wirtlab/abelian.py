"""Abelian invariants via integer Smith normal form.

``smith_normal_form`` pivots one column at a time by elementary operations
that scan only the pivot's column and row (H. Cohen, *A Course in
Computational Algebraic Number Theory*, 1993, §2.4.4), then orders the
diagonal by a gcd/lcm pass (M. Newman, *Integral Matrices*, 1972, ch. II).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fpgroups import Presentation


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal entries d1 | d2 | ... of the Smith normal form, nonnegative,
    zeros included, of length ``min(rows, cols)``; exact integers.

    With ``t`` pivots found, column ``j`` brings its smallest nonzero entry
    at or below row ``t`` to row ``t`` and reduces the rows below by it
    until it is ``p`` over zeros.  Column operations then change row ``t``
    alone; its remainders modulo ``p`` leave a smaller pivot to swap into
    column ``j``, or none, and then ``|p|`` is recorded.  A pivot scans
    O(rows + cols) entries, so a diagonal matrix costs quadratic time.
    Then each pair ``d_i, d_k`` with ``i < k`` becomes ``gcd, lcm``, which
    keeps the diagonal's multiset of prime powers (so its invariant
    factors) and leaves each prime's exponents ascending.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    for j in range(cols):
        t = len(diag)
        while True:
            below = [i for i in range(t, rows) if a[i][j]]
            if not below:
                break
            s = min(below, key=lambda i: abs(a[i][j]))
            a[t], a[s] = a[s], a[t]
            top, p = a[t], a[t][j]
            if len(below) > 1:
                for i in range(t + 1, rows):
                    q = a[i][j] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], top)]
                continue
            # column j is p over zeros, and rows above t are 0 right of
            # their pivots, so a column operation changes row t alone
            top[j + 1:] = [x % p for x in top[j + 1:]]
            rest = [k for k in range(j + 1, cols) if top[k]]
            if not rest:
                diag.append(abs(p))
                break
            k = min(rest, key=lambda k: abs(top[k]))
            for row in a[t:]:
                row[j], row[k] = row[k], row[j]
    for i in range(len(diag)):
        for k in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[k])
            diag[i], diag[k] = g, diag[i] // g * diag[k]
    return diag + [0] * (min(rows, cols) - len(diag))


@dataclass(frozen=True)
class AbelianInvariants:
    """Abelianisation Z^free_rank + sum of Z/d for d in torsion."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.torsion]
        return " + ".join(parts) if parts else "trivial"


def abelianization(p: Presentation) -> AbelianInvariants:
    n = len(p.generators)
    matrix = []
    for r in p.relators:
        row = [0] * n
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        matrix.append(row)
    diag = smith_normal_form(matrix)
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d != 1)
    return AbelianInvariants(n - len(nonzero), torsion)
