"""Reference facts for the shipped corpus, written by hand.

The five known groups are the ones the acceptance tests name: the nodal
cubic presents Z, the deltoid the triangle Artin group, the parabola with two
tangent lines <x,y,z | [x,y], (yz)^2=(zy)^2, (xz)^2=(zx)^2>, the cardioid
<x1,x2 | x1x2x1=x2x1x2, [x1^2,x2]> and the concentric circles the free group
F2.  Their S3 and S4 counts below were counted from those presentations by
:func:`brute_force_homs`, which shares no code with wirtlab; the benchmark's
tests count them again.
"""

from __future__ import annotations

from itertools import permutations, product

# stem -> (verdict, number of components)
CORPUS = {
    "cardioid": ("NoValidRegion", 1),
    "concentric_circles": ("NoValidRegion", 2),
    "cuspidal_cubic": ("FacingViolation", 1),
    "deltoid": ("NoValidRegion", 1),
    "hypocycloid_quotient_k2": ("Verified", 2),
    "hypocycloid_quotient_k3": ("Verified", 2),
    "hypocycloid_quotient_k4": ("Verified", 2),
    "nodal_cubic": ("Verified", 1),
    "parabola_two_lines": ("Verified", 3),
    "smooth_cubic": ("ConnectivityViolation", 1),
}

# stem -> (free rank, torsion, #Hom to S3, #Hom to S4) of the known group
KNOWN_PROFILES = {
    "nodal_cubic": (1, (), 6, 24),
    "deltoid": (1, (), 30, 384),
    "parabola_two_lines": (3, (), 90, 1320),
    "cardioid": (1, (), 12, 48),
    "concentric_circles": (2, (), 36, 576),
}

# Relators of the known groups, as (generator index from 0, exponent) lists.
def _w(*letters: int) -> list[tuple[int, int]]:
    return [(abs(g) - 1, 1 if g > 0 else -1) for g in letters]


KNOWN_PRESENTATIONS = {
    "nodal_cubic": (1, []),
    "deltoid": (3, [_w(1, 2, 1, -2, -1, -2), _w(2, 3, 2, -3, -2, -3), _w(1, 3, 1, -3, -1, -3)]),
    "parabola_two_lines": (3, [_w(1, 2, -1, -2), _w(2, 3, 2, 3, -2, -3, -2, -3), _w(1, 3, 1, 3, -1, -3, -1, -3)]),
    "cardioid": (2, [_w(1, 2, 1, -2, -1, -2), _w(1, 1, 2, -1, -1, -2)]),
    "concentric_circles": (2, []),
}


def brute_force_homs(ngens: int, relators, n: int) -> int:
    """Count tuples of permutations of n points that satisfy every relator."""
    perms = list(permutations(range(n)))
    ident = tuple(range(n))

    def value(word, images):
        acc = ident
        for g, e in word:
            x = images[g]
            if e < 0:
                x = tuple(sorted(range(n), key=x.__getitem__))  # inverse
            acc = tuple(x[acc[i]] for i in range(n))
        return acc

    return sum(
        all(value(r, images) == ident for r in relators)
        for images in product(perms, repeat=ngens)
    )
