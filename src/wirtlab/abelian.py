"""Abelian invariants via integer Smith normal form."""

from __future__ import annotations

from dataclasses import dataclass

from .fpgroups import Presentation


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal entries d1 | d2 | ... of the Smith normal form.

    Returns the nonnegative diagonal, including zeros, of length
    ``min(rows, cols)``.  Exact integer arithmetic throughout.
    """
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while top < min(rows, cols):
        # find the entry of smallest absolute value in the remaining block
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        # clear the row and column; restart if a remainder shrank the pivot
        dirty = False
        p = a[top][top]
        for i in range(top + 1, rows):
            if a[i][top] != 0:
                dirty |= a[i][top] % p != 0
                q = a[i][top] // p
                for j in range(cols):
                    a[i][j] -= q * a[top][j]
        for j in range(top + 1, cols):
            if a[top][j] != 0:
                dirty |= a[top][j] % p != 0
                q = a[top][j] // p
                for i in range(rows):
                    a[i][j] -= q * a[i][top]
        if dirty:
            continue
        # ensure divisibility of the remaining block by the pivot
        bad = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(cols):
                a[top][j] += a[bad][j]
            continue
        diag.append(abs(p))
        top += 1
    while len(diag) < min(rows, cols):
        diag.append(0)
    return diag


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
    if not p.relators:
        return AbelianInvariants(n, ())
    matrix = [
        [r.exponent_sum(i + 1) for i in range(n)] for r in p.relators
    ]
    diag = smith_normal_form(matrix)
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d != 1)
    return AbelianInvariants(n - len(nonzero), torsion)
