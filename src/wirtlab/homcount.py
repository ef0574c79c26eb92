"""Counting homomorphisms into small finite groups by exhaustive search.

The count of homomorphisms from a finitely presented group into a fixed
finite group is a presentation-independent invariant, used here as a cheap
proxy for group isomorphism testing.

The search backtracks over generator images in a fixed order, depth first
over an explicit stack, up to conjugacy in the target (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005), by one rule: a
depth's candidates are the orbits of the stabilizer of the images so far
(the intersection of their centralizers; the whole group at depth 0), which
maps extensions to extensions, acting by conjugation on the allowed images,
one (the least member) per orbit, weighted by the orbit size.  The allowed
images are the conjugacy class of the image of a conjugate generator at a
lower depth (see below), if there is one, and otherwise the whole group; a
class is closed under conjugation, so no orbit leaves it.  ``_orbits``
caches each candidate with the stabilizer its children are counted under,
once per target and ``(acting, allowed)`` pair; the search keeps no cache of
its own.

The order is greedy: the next generator is the one that completes the most
relators, then the one in the most relators it leaves open, then the lowest.
Each relator is checked at the depth where its last generator gets an
image, and there the candidates are filtered one relator at a time: the
relator's segment values (the products between its letters of the new
generator) are computed once per parent node, the candidates that fail it
are dropped, and the node is abandoned as soon as none is left, so later
relators are never evaluated for it.

Generators that the presentation makes conjugate share a class.  A
cyclically reduced relator that is u a^e u^-1 b^-e after some rotation,
with a != b generators and e = +-1, says b^e = u a^e u^-1, so every
homomorphism maps b into the conjugacy class of a's image; such pairs are
merged by ``diagram.classes``.

Only a single letter a^e is sound: u a^2 u^-1 b^-2 makes the squares
conjugate, not a and b (in <a, b | a^2 b^-2>, a -> 1, b -> (12) is a
homomorphism into S3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import permutations

from .diagram import classes
from .fpgroups import Presentation
from .guards import ResourceGuardError, env_bound

# Measured on one core of a shared 2-core Xeon: 0.4-1.8 us per node in
# searches of 17,000 nodes or more (S4 on Z^6, Z^8 and Z^10, S5 on Z^6),
# 2-10 us for S5 on the simplified orbifold groups of k = 5..11 but 42 us
# on the 24,582 letters of k = 10, and up to 133 us in small searches over
# long relators (S3 at k = 10, 159 nodes).  So the default stops a search
# after 4 to 18 s at the common rates, and after 7 minutes at 42 us.
DEFAULT_HOM_BOUND = 10**7
HOM_BOUND_ENV = "WIRTLAB_HOM_BOUND"


@dataclass(frozen=True, eq=False)
class FiniteGroupTable:
    """A finite group as a multiplication table on element indices, with
    the identity at index 0.  It hashes and compares by identity: the
    caches keyed by it would otherwise hash the whole table on every
    lookup."""

    name: str
    size: int
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]

    def __post_init__(self):
        for i in range(self.size):
            if self.mult[0][i] != i or self.mult[i][0] != i:
                raise ValueError("index 0 is not the identity")
            if self.mult[i][self.inverse[i]] != 0:
                raise ValueError("inverse table is wrong")


@cache
def symmetric_group(n: int) -> FiniteGroupTable:
    """S_n for 2 <= n <= 5, with the identity permutation at index 0."""
    if not 2 <= n <= 5:
        raise ValueError("symmetric_group supports n = 2 .. 5")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}

    def compose(p, q):  # (p then q) acting on points: (p*q)(x) = q(p(x))
        return tuple(q[p[x]] for x in range(n))

    mult = tuple(
        tuple(index[compose(p, q)] for q in elems) for p in elems
    )
    inverse = []
    for p in elems:
        inv = [0] * n
        for x in range(n):
            inv[p[x]] = x
        inverse.append(index[tuple(inv)])
    return FiniteGroupTable("S%d" % n, len(elems), mult, tuple(inverse))


@cache
def _columns(table: FiniteGroupTable) -> tuple[tuple[int, ...], ...]:
    """The columns of the multiplication table: ``cols[x][a]`` is ``a * x``."""
    return tuple(tuple(row[x] for row in table.mult) for x in range(table.size))


@cache
def _orbits(table: FiniteGroupTable, acting: frozenset[int],
            allowed: int | None) -> tuple[tuple[int, int, frozenset[int]], ...]:
    """The orbits of the subgroup ``acting`` (element indices) acting by
    conjugation on the conjugacy class of ``allowed`` (on the whole group if
    None): each orbit's least member, its size and the elements of
    ``acting`` that commute with it, in increasing order of least member.
    This cache is the search's only candidate cache: each ``(acting,
    allowed)`` pair is worked out once."""
    size, mult, inv = table.size, table.mult, table.inverse

    def conjugates(x: int, group) -> set[int]:
        return {mult[mult[inv[t]][x]][t] for t in group}

    out = []
    for x in range(size) if allowed is None else sorted(conjugates(allowed, range(size))):
        orbit = conjugates(x, acting)
        if min(orbit) == x:  # one entry per orbit, at its least member
            out.append((x, len(orbit), frozenset(t for t in acting if mult[x][t] == mult[t][x])))
    return tuple(out)


def _search_order(supports: list[frozenset[int]], n: int) -> list[int]:
    """Order generators so relators become fully assigned (and hence
    checkable) as early as possible: the next generator is the one that
    completes the most relators, then the one in the most relators it
    leaves open (so they close soon after), then the lowest."""
    left = [len(s) for s in supports]  # each relator's generators not yet chosen
    unchosen = [sum(s) for s in supports]  # their sum: the last, once one is left
    relators_of: list[list[int]] = [[] for _ in range(n + 1)]
    done = [0] * (n + 1)  # relators each generator would complete
    for r, s in enumerate(supports):
        for g in s:
            relators_of[g].append(r)
        if left[r] == 1:
            done[unchosen[r]] += 1
    # least first: most done, then most relators (so most open), then lowest
    heap = [(-done[g], -len(relators_of[g]), g) for g in range(1, n + 1)]
    heapify(heap)
    order: list[int] = []
    while heap:
        neg_done, _, best = heappop(heap)
        if -neg_done != done[best]:
            continue  # pushed again since, with more relators done
        order.append(best)
        for r in relators_of[best]:
            left[r] -= 1
            unchosen[r] -= best
            if left[r] == 1:
                g = unchosen[r]
                done[g] += 1
                heappush(heap, (-done[g], -len(relators_of[g]), g))
    return order


def _conjugacy_roots(p: Presentation) -> list[int]:
    """A class label for each generator (index 0 unused), merging a and b
    whenever a cyclically reduced relator is u a^e u^-1 b^-e after some
    rotation (e = +-1; see the module docstring for why not a^2).  In such
    a rotation a sits at some centre c and b^-e at the antipode c + L/2,
    and the letters at c + t and c - t are inverse for t = 1 .. L/2 - 1;
    each centre's check stops at its first mismatch."""
    merged: list[tuple[int, int]] = []
    for r in p.relators:
        w = r.cyclically_reduced().letters
        if len(w) % 2:
            continue
        half = len(w) // 2
        # centres c and c + half are one check, so c < half suffices
        for c in range(half):
            x, y = w[c], w[c + half]
            if (x > 0) == (y > 0) or x == -y:
                continue
            for t in range(1, half):
                if w[c - t] != -w[c + t]:
                    break
            else:
                merged.append((abs(x), abs(y)))
    return classes(len(p.generators) + 1, merged)


def _compile(letters: list[tuple[int, int]], depth: int):
    """Split a relator, as ``(depth, x)`` pairs for its letters x with
    ``depth`` its last, at the letters of the generator at that depth: one
    ``(x > 0, segment)`` pair per such letter, where the segment runs to the
    next one.  The relator is rotated to start at such a letter (a relator
    is trivial exactly when its rotations are)."""
    start = next(i for i, (d, _) in enumerate(letters) if d == depth)
    pieces: list[tuple[bool, list[tuple[int, int]]]] = []
    for d, x in letters[start:] + letters[:start]:
        if d == depth:
            pieces.append((x > 0, []))
        else:
            pieces[-1][1].append((d, x))
    return tuple((positive, tuple(segment)) for positive, segment in pieces)


def count_homs(p: Presentation, table: FiniteGroupTable, bound: int | None = None) -> int:
    """Number of homomorphisms from the presented group into the group.

    Backtracking over generator images up to conjugacy by the stabilizer of
    the images so far, with relator pruning; a generator that a relator
    makes conjugate to an earlier one takes its images from that one's
    conjugacy class.  The bound is a node budget: the number of candidate
    generator images the search may try (``WIRTLAB_HOM_BOUND`` environment
    variable, default 1e7).  :class:`ResourceGuardError` is raised as soon
    as the count passes it; callers should Tietze-simplify first.
    """
    if bound is None:
        bound = env_bound(HOM_BOUND_ENV, DEFAULT_HOM_BOUND)
    n = len(p.generators)
    if n == 0:
        return 1
    supports = [frozenset(map(abs, r.letters)) for r in p.relators]
    order = _search_order(supports, n)
    depth_of = {g: i for i, g in enumerate(order)}

    # relators checked at the depth where their last generator is assigned,
    # those with the fewest letters of that generator first
    checks: list[list] = [[] for _ in range(n)]
    for r, s in zip(p.relators, supports):
        if s:
            letters = [(depth_of[abs(x)], x) for x in r.letters]
            depth = max(d for d, _ in letters)
            checks[depth].append(_compile(letters, depth))
    for c in checks:
        c.sort(key=len)
    # anchor[d]: the lowest depth of d's class if lower than d, else n (None)
    roots = _conjugacy_roots(p)
    first: dict[int, int] = {}
    anchor = [first.setdefault(roots[g], d) for d, g in enumerate(order)]
    anchor = [a if a < d else n for d, a in enumerate(anchor)]

    cols = _columns(table)
    inv = table.inverse
    inv_cols = tuple(cols[inv[x]] for x in range(table.size))
    assign: list[int | None] = [None] * (n + 1)  # assign[n] reads None
    nodes = 0

    def value(segment) -> int:
        acc = 0  # the identity
        for d, letter in segment:
            x = assign[d]
            acc = cols[x if letter > 0 else inv[x]][acc]
        return acc

    # nodes: (depth, acting group, product of the weights above, image at
    # depth - 1, the root's in assign[-1] = assign[n], None), popped in order
    stack = [(0, frozenset(range(table.size)), 1, None)]
    total = 0
    while stack:
        depth, acting, weight, assign[depth - 1] = stack.pop()
        candidates = _orbits(table, acting, assign[anchor[depth]])
        nodes += len(candidates)
        if nodes > bound:
            raise ResourceGuardError(
                "hom search into %s on %d generators passed %d nodes (bound %d); "
                "simplify the presentation or raise %s"
                % (table.name, n, nodes, bound, HOM_BOUND_ENV)
            )
        # relator by relator: evaluate its segments, keep the candidates
        # that satisfy it, and stop once none is left
        for rel in checks[depth]:
            # (columns of x or of x^-1, column of the segment's value) pairs
            segments = [
                (cols if positive else inv_cols, cols[value(segment)])
                for positive, segment in rel
            ]
            kept = []
            for candidate in candidates:
                x = candidate[0]
                acc = 0
                for side, segment in segments:
                    acc = segment[side[x][acc]]
                if acc == 0:
                    kept.append(candidate)
            candidates = kept
            if not candidates:
                break
        if depth == n - 1:
            total += weight * sum(w for _, w, _ in candidates)
        else:
            stack.extend((depth + 1, stabilizer, weight * w, x)
                         for x, w, stabilizer in reversed(candidates))
    return total
