import gc
import hashlib
import random
from itertools import permutations

import pytest

from wirtlab import homcount
from wirtlab.dsl import parse_diagram
from wirtlab.fpgroups import (
    Presentation, artin_from_graph, braid_relator, ngon_semidirect, tietze_simplify,
)
from wirtlab.genpres import wirtinger_presentation
from wirtlab.homcount import (
    HOM_BOUND_ENV,
    FiniteGroupTable,
    ResourceGuardError,
    _conjugacy_roots,
    _orbits,
    _search_order,
    count_homs,
    symmetric_group,
)
from wirtlab.hypocycloid import orbifold_presentation
from wirtlab.profiles import profile, profiles_equal
from wirtlab.words import Word
from tests.conftest import all_corpus_stems, load
from tests.test_zvk_differential import sample


def reference_count(p: Presentation, table) -> int:
    """Plain backtracking over every image of every generator, evaluating
    each relator letter by letter once all its generators have images: the
    search before conjugacy classes and compiled relators, kept as the
    oracle."""
    n = len(p.generators)
    supports = [frozenset(map(abs, r.letters)) for r in p.relators]
    order: list[int] = []
    while len(order) < n:
        chosen = set(order)
        order.append(max(
            (g for g in range(1, n + 1) if g not in chosen),
            key=lambda g: (sum(1 for s in supports if s and s <= chosen | {g}), -g),
        ))
    checks = [[] for _ in range(n + 1)]
    for r, s in zip(p.relators, supports):
        if s:
            checks[max(order.index(g) for g in s) + 1].append(r)
    mult, inverse = table.mult, table.inverse
    assign = [0] * (n + 1)

    def value(word: Word) -> int:
        acc = 0
        for letter in word.letters:
            x = assign[abs(letter)]
            acc = mult[acc][x if letter > 0 else inverse[x]]
        return acc

    def search(depth: int) -> int:
        if depth == n:
            return 1
        total = 0
        for x in range(table.size):
            assign[order[depth]] = x
            if all(value(r) == 0 for r in checks[depth + 1]):
                total += search(depth + 1)
        return total

    return search(0)


def rescoring_search_order(supports: list[frozenset[int]], n: int) -> list[int]:
    """The search order as it was first written, rescoring every remaining
    generator by set differences over every relator support at each step:
    kept as the oracle for _search_order, which keeps counts instead."""
    order: list[int] = []
    chosen: set[int] = set()
    remaining = set(range(1, n + 1))
    while remaining:
        def score(g: int) -> tuple[int, int, int]:
            unassigned = [len(s - chosen) for s in supports if g in s]
            done = unassigned.count(1)
            return (done, len(unassigned) - done, -g)

        best = max(remaining, key=score)
        order.append(best)
        chosen.add(best)
        remaining.discard(best)
    return order


def simplified_wirtinger(d) -> Presentation:
    return tietze_simplify(wirtinger_presentation(d).presentation)[0]


def free_abelian(rank: int) -> Presentation:
    """Z^rank: the Artin group of the graph with no edges."""
    return artin_from_graph(["g%d" % i for i in range(rank)], [])


def test_free_group_hom_counts_are_powers():
    for rank in (0, 1, 2):
        p = Presentation(tuple("g%d" % i for i in range(rank)), ())
        assert count_homs(p, symmetric_group(3)) == 6**rank


def test_cyclic_group_counts_elements_of_dividing_order():
    # Z/2 -> S3: identity and the three transpositions
    p = Presentation(("a",), (Word.gen(1) ** 2,))
    assert count_homs(p, symmetric_group(3)) == 4
    # Z/3 -> S3: identity and the two 3-cycles
    q = Presentation(("a",), (Word.gen(1) ** 3,))
    assert count_homs(q, symmetric_group(3)) == 3


def test_resource_guard_triggers_on_large_search():
    p = Presentation(tuple("g%d" % i for i in range(10)), ())
    with pytest.raises(ResourceGuardError):
        count_homs(p, symmetric_group(4), bound=10**6)


def test_hom_bound_env_var(monkeypatch):
    monkeypatch.setenv(HOM_BOUND_ENV, "10")
    p = Presentation(("a", "b"), ())
    with pytest.raises(ResourceGuardError):
        count_homs(p, symmetric_group(3))
    monkeypatch.delenv(HOM_BOUND_ENV)
    assert count_homs(p, symmetric_group(3)) == 36


def test_profile_distinguishes_trefoil_from_abelianization():
    trefoil = Presentation(("a", "b"), (braid_relator(Word.gen(1), Word.gen(2)),))
    z = Presentation(("t",), ())
    pa, pb = profile(trefoil), profile(z)
    assert pa.abelian == pb.abelian
    assert not profiles_equal(pa, pb)


def test_refusal_names_nodes_target_and_generators():
    p = Presentation(tuple("g%d" % i for i in range(10)), ())
    with pytest.raises(ResourceGuardError) as exc:
        count_homs(p, symmetric_group(4), bound=1000)
    message = str(exc.value)
    assert "S4" in message and "10 generators" in message
    nodes = int(message.split(" nodes")[0].rsplit(" ", 1)[1])
    assert 1000 < nodes <= 1000 + 24


@pytest.mark.parametrize("n", [1100, 3000])
def test_a_search_thousands_of_generators_deep_is_counted(n):
    """n generators, each with the relator g^5: only the identity survives
    at each depth, so the search goes n deep along one path, on an explicit
    stack and not Python's; the order keeps a heap, so ordering 3,000
    generators is not quadratic."""
    p = Presentation(
        tuple("g%d" % i for i in range(n)),
        tuple(Word.gen(g) ** 5 for g in range(1, n + 1)),
    )
    assert count_homs(p, symmetric_group(3)) == 1
    assert count_homs(p, symmetric_group(4)) == 1


def test_a_wide_deep_search_is_refused_by_the_node_budget():
    p = Presentation(tuple("g%d" % i for i in range(2000)), ())
    with pytest.raises(ResourceGuardError) as exc:
        count_homs(p, symmetric_group(3), bound=1000)
    message = str(exc.value)
    assert "S3" in message and "2000 generators" in message
    nodes = int(message.split(" nodes")[0].rsplit(" ", 1)[1])
    assert 1000 < nodes <= 1000 + 6


def test_a_count_or_a_refusal_leaves_no_reference_cycle():
    """Nothing the search builds refers to itself, so it is freed as soon
    as count_homs returns or raises, with the cycle collector off."""
    q = tietze_simplify(orbifold_presentation(4))[0]
    free = Presentation(tuple("g%d" % i for i in range(10)), ())
    gc.collect()
    gc.disable()
    try:
        assert count_homs(q, symmetric_group(4)) == 72
        assert gc.collect() == 0
        with pytest.raises(ResourceGuardError):
            count_homs(free, symmetric_group(4), bound=1000)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finite_group_table_checks_identity_and_inverses():
    mult = ((0, 1), (1, 0))
    FiniteGroupTable("Z2", 2, mult, (0, 1))
    with pytest.raises(ValueError, match="identity"):
        # Z2 with its identity at index 1
        FiniteGroupTable("Z2", 2, ((1, 0), (0, 1)), (0, 1))
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroupTable("Z2", 2, mult, (0, 0))


@pytest.mark.parametrize("n", [1, 6])
def test_symmetric_group_refuses_sizes_outside_2_to_5(n):
    with pytest.raises(ValueError, match="n = 2 .. 5"):
        symmetric_group(n)


@pytest.mark.parametrize("n", [3, 4])
def test_orbits_match_a_brute_force_orbit_partition(n):
    """_orbits against orbits found by composing the permutations
    themselves, for every acting group the search can reach (the whole
    group and every intersection of centralizers) and every allowed image,
    None included: each orbit's least member, its size and the elements of
    the acting group that commute with it."""
    table = symmetric_group(n)
    elems = sorted(permutations(range(n)))
    index = {q: i for i, q in enumerate(elems)}

    def compose(s, t):  # s then t, as the table multiplies
        return tuple(t[s[x]] for x in range(n))

    def conjugate(t, x):
        t_inv = tuple(sorted(range(n), key=t.__getitem__))
        return compose(compose(t_inv, x), t)

    def centralizer(group, x):
        return frozenset(t for t in group if compose(x, t) == compose(t, x))

    reached, todo = set(), [frozenset(elems)]
    while todo:
        group = todo.pop()
        if group not in reached:
            reached.add(group)
            todo.extend(centralizer(group, x) for x in elems)
    assert len(reached) == {3: 6, 4: 19}[n]
    for group in reached:
        acting = frozenset(index[t] for t in group)
        for allowed in [None, *range(table.size)]:
            if allowed is None:
                todo = set(elems)
            else:
                todo = {conjugate(t, elems[allowed]) for t in elems}
            expected = []
            while todo:
                x = todo.pop()
                orbit = {conjugate(t, x) for t in group}
                todo -= orbit
                least = min(orbit)
                stabilizer = frozenset(index[t] for t in centralizer(group, least))
                expected.append((index[least], len(orbit), stabilizer))
            assert list(_orbits(table, acting, allowed)) == sorted(expected), (group, allowed)


def test_search_order_closes_relators_then_keeps_them_open():
    # no generator closes a relator first; 3 and 4 are in three each, and
    # 3 is the lower.  Then 2 and 4 each close one, but 4 leaves two open
    # ({1, 4} and {3, 4, 5}) where 2 leaves none.  Ranking by relators
    # closed and then index alone gives [1, 4, 3, 2, 5].
    supports = [frozenset(s) for s in ({1, 4}, {2, 3}, {3, 4}, {3, 4, 5})]
    assert _search_order(supports, 5) == [3, 4, 1, 2, 5]


def _presentation_supports():
    """Relator supports of every presentation the search order is checked
    on: the corpus Wirtinger groups as given and simplified, the simplified
    ones of the 60 seeded diagrams, and both hypocycloid sides at k = 2..8
    as given and simplified."""
    groups = [wirtinger_presentation(load(stem)).presentation for stem in all_corpus_stems()]
    groups += [simplified_wirtinger(load(stem)) for stem in all_corpus_stems()]
    groups += [simplified_wirtinger(parse_diagram(sample(seed).dsl)) for seed in range(60)]
    for side in (orbifold_presentation, ngon_semidirect):
        for k in range(2, 9):
            groups += [side(k), tietze_simplify(side(k))[0]]
    for p in groups:
        yield [frozenset(map(abs, r.letters)) for r in p.relators], len(p.generators)


def test_search_order_matches_the_rescoring_order():
    rng = random.Random("search-order")
    cases = list(_presentation_supports())
    for _ in range(500):
        n = rng.randint(1, 12)
        supports = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(n, 4))))
            for _ in range(rng.randint(0, 15))
        ]
        cases.append((supports, n))
    for supports, n in cases:
        assert _search_order(supports, n) == rescoring_search_order(supports, n), (supports, n)


def test_k4_s4_count_fits_a_small_node_budget():
    """A count, not a timing: S4 on the simplified k = 4 Wirtinger group
    (118 letters) tries 312 candidate images now, and tried 301 on the 374
    letters left by eliminating the shortest relator's lowest
    once-occurring generator (5,160 when relators first closed early
    and candidates were filtered relator by relator, and 37,752 when 11 of
    its 13 relators closed only at the last depth)."""
    q = simplified_wirtinger(load("hypocycloid_quotient_k4"))
    assert count_homs(q, symmetric_group(4), bound=10**4) == 120


def test_orbifold_k10_s4_count_fits_a_small_node_budget():
    """A count, not a timing: S4 on the simplified orbifold group at k = 10
    (11 generators, 1,208 letters) tries 518 candidate images.  On the
    24,582 letters left by eliminating the shortest relator's lowest
    once-occurring generator it tried 2,308 when every depth acts by the
    stabilizer of the images so far, 4,031 when only the first image's
    centralizer acted, and 359,908 when every generator past the second
    also tried all 24 elements."""
    q = tietze_simplify(orbifold_presentation(10))[0]
    assert count_homs(q, symmetric_group(4), bound=10**4) == 72


def test_k4_s4_count_fits_a_thousand_nodes():
    """S4 on the simplified k = 4 Wirtinger group: 312 candidate images
    when every depth acts by the stabilizer of the images so far (301 on
    the 374 letters of the earlier elimination rule), 469 when
    only the first image's centralizer acted, and 5,160 without classes of
    conjugate generators."""
    q = simplified_wirtinger(load("hypocycloid_quotient_k4"))
    assert count_homs(q, symmetric_group(4), bound=10**3) == 120


def _conjugate_pairs(relators, n: int) -> set[frozenset[int]]:
    roots = _conjugacy_roots(Presentation(tuple("g%d" % i for i in range(n)), tuple(relators)))
    classes: dict[int, set[int]] = {}
    for g in range(1, n + 1):
        classes.setdefault(roots[g], set()).add(g)
    return {frozenset(c) for c in classes.values() if len(c) > 1}


def test_conjugacy_detector_merges_single_letter_conjugates():
    a, b, c = Word.gen(1), Word.gen(2), Word.gen(3)
    # the braid relator a b a b^-1 a^-1 b^-1 is a u^-1 b^-1 u with u = a^-1 b^-1
    assert _conjugate_pairs([braid_relator(a, b)], 2) == {frozenset({1, 2})}
    # a Wirtinger relator x_j^-1 w^-1 x_i w, with x_i = 1, x_j = 2, w = c a^-1 c
    w = c * a.inverse() * c
    wirtinger = b.inverse() * w.inverse() * a * w
    rotated = Word(wirtinger.letters[3:] + wirtinger.letters[:3])
    conjugated = c * wirtinger * c.inverse()  # not cyclically reduced
    for r in (wirtinger, wirtinger.inverse(), rotated, conjugated):
        assert _conjugate_pairs([r], 3) == {frozenset({1, 2})}, r.letters


def test_conjugacy_detector_refuses_other_relators():
    a, b = Word.gen(1), Word.gen(2)
    odd = a * b * a.inverse() * b.inverse() ** 2
    squares = a ** 2 * b ** 2
    commutator = a * b * a.inverse() * b.inverse()
    for r in (odd, squares, commutator):
        assert _conjugate_pairs([r], 2) == set(), r.letters


def test_conjugate_squares_do_not_merge_generators():
    """Only a single letter makes a class: u a^2 u^-1 b^-2 makes a^2 and b^2
    conjugate, and a -> 1, b -> (12) is a homomorphism into S3 of both
    groups below, so merging a and b would lose it."""
    a, b, c = Word.gen(1), Word.gen(2), Word.gen(3)
    groups = [
        Presentation(("a", "b"), (a ** 2 * b.inverse() ** 2,)),
        Presentation(("a", "b", "c"), (c * a ** 2 * c.inverse() * b.inverse() ** 2,)),
    ]
    for p in groups:
        assert _conjugate_pairs(p.relators, len(p.generators)) == set()
        for n in (3, 4):
            table = symmetric_group(n)
            assert count_homs(p, table) == reference_count(p, table), (p.describe(), n)


def test_symmetric_groups_are_built_once():
    assert symmetric_group(4) is symmetric_group(4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tables_hash_by_identity(n):
    t = symmetric_group(n)
    assert hash(t) == object.__hash__(t)


# The plain search takes about 70 s for S4 on the 5-generator groups of the
# seeds, so S4 runs there only up to 4 generators.
MAX_GENERATORS = 5
MAX_S4_GENERATORS = 4


def _assert_counts_match(q: Presentation, with_s4: bool) -> None:
    for n in (2, 3, 4) if with_s4 else (2, 3):
        table = symmetric_group(n)
        assert count_homs(q, table) == reference_count(q, table), table.name


@pytest.mark.parametrize("stem", all_corpus_stems())
def test_counts_match_plain_search_on_corpus(stem):
    _assert_counts_match(simplified_wirtinger(load(stem)), with_s4=True)


@pytest.mark.parametrize("seed", range(60))
def test_counts_match_plain_search_on_seeded_diagrams(seed):
    q = simplified_wirtinger(parse_diagram(sample(seed).dsl))
    if len(q.generators) <= MAX_GENERATORS:
        _assert_counts_match(q, with_s4=len(q.generators) <= MAX_S4_GENERATORS)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("side", [orbifold_presentation, ngon_semidirect])
def test_counts_match_plain_search_on_hypocycloid_sides(side, k):
    q = tietze_simplify(side(k))[0]
    _assert_counts_match(q, with_s4=len(q.generators) <= MAX_S4_GENERATORS)


@pytest.mark.parametrize("rank", [3, 4])
def test_counts_match_plain_search_on_free_abelian_groups(rank):
    """Z^rank: every image past the first is counted under the centralizer
    of the images before it, which shrinks at each depth."""
    _assert_counts_match(free_abelian(rank), with_s4=True)


def test_s5_counts_match_plain_search():
    s5 = symmetric_group(5)
    a, b = Word.gen(1), Word.gen(2)
    groups = [Presentation(("a", "b"), (braid_relator(a, b),))]
    groups += [Presentation(("a",), (a ** n,)) for n in range(2, 7)]
    groups += [Presentation(tuple("g%d" % i for i in range(r)), ()) for r in (0, 1, 2)]
    for p in groups:
        assert count_homs(p, s5) == reference_count(p, s5), p.describe()


# (target, hom count, candidate images tried) for each simplified corpus
# Wirtinger group, and for S4 on each simplified hypocycloid side
CORPUS_NODES = {
    "cardioid": [("S3", 6, 3), ("S4", 24, 5), ("S5", 120, 7)],
    "concentric_circles": [("S3", 36, 14), ("S4", 576, 48), ("S5", 14400, 168)],
    "cuspidal_cubic": [("S3", 12, 8), ("S4", 96, 18), ("S5", 600, 42)],
    "deltoid": [("S3", 30, 16), ("S4", 384, 51), ("S5", 2520, 167)],
    "hypocycloid_quotient_k2": [("S3", 30, 25), ("S4", 312, 133), ("S5", 2400, 695)],
    "hypocycloid_quotient_k3": [("S3", 18, 45), ("S4", 120, 210), ("S5", 960, 1140)],
    "hypocycloid_quotient_k4": [("S3", 18, 63), ("S4", 120, 312), ("S5", 840, 1517)],
    "nodal_cubic": [("S3", 6, 3), ("S4", 24, 5), ("S5", 120, 7)],
    "parabola_two_lines": [("S3", 90, 57), ("S4", 1320, 465), ("S5", 16680, 4185)],
    "smooth_cubic": [("S3", 36, 14), ("S4", 576, 48), ("S5", 14400, 168)],
}
SIDE_S4_NODES = {
    orbifold_presentation: [(2, 192, 82), (3, 72, 119), (4, 72, 176), (5, 72, 233), (6, 72, 290)],
    ngon_semidirect: [(2, 192, 62), (3, 72, 119), (4, 72, 176), (5, 72, 233), (6, 72, 290)],
}


def _assert_exact_nodes(q: Presentation, table, count: int, nodes: int) -> None:
    assert count_homs(q, table, bound=nodes) == count
    with pytest.raises(ResourceGuardError):
        count_homs(q, table, bound=nodes - 1)


def _count_and_nodes(q: Presentation, table) -> tuple[int, int]:
    """The count and the least bound the search finishes under, its node
    count, found by bisecting ``bound``: what _assert_exact_nodes asserts."""
    refused, bound = 0, 1
    while True:
        try:
            count = count_homs(q, table, bound=bound)
            break
        except ResourceGuardError:
            refused, bound = bound, 2 * bound
    while bound - refused > 1:
        mid = (refused + bound) // 2
        try:
            count = count_homs(q, table, bound=mid)
            bound = mid
        except ResourceGuardError:
            refused = mid
    return count, bound


@pytest.mark.parametrize("stem", sorted(CORPUS_NODES))
def test_exact_node_counts_on_corpus(stem):
    """The search itself, not only its result: each count tries exactly
    this many candidate images, so a change that reorders, widens or
    narrows the candidate lists shows here even when the counts agree."""
    q = simplified_wirtinger(load(stem))
    for name, count, nodes in CORPUS_NODES[stem]:
        _assert_exact_nodes(q, symmetric_group(int(name[1])), count, nodes)


@pytest.mark.parametrize("side", list(SIDE_S4_NODES), ids=lambda f: f.__name__)
def test_exact_s4_node_counts_on_hypocycloid_sides(side):
    for k, count, nodes in SIDE_S4_NODES[side]:
        q = tietze_simplify(side(k))[0]
        _assert_exact_nodes(q, symmetric_group(4), count, nodes)


def test_exact_s4_node_count_on_z6():
    """Z^6 into S4: 17,672 candidate images when every depth acts by the
    stabilizer of the images so far, 62,184 when nothing acted past
    depth 1."""
    _assert_exact_nodes(free_abelian(6), symmetric_group(4), 31200, 17672)


# The number and md5 of the search's _orbits calls, as (target, sorted
# acting group, allowed image), over _orbits_call_inputs: the order the
# search visits its nodes in, which node counts alone do not pin
ORBITS_CALLS = (2220, "a40a179550146b82940b7f0995dbb0c2")


def _orbits_call_inputs():
    for k in (4, 8, 10):
        q = tietze_simplify(orbifold_presentation(k))[0]
        yield q, symmetric_group(3)
        yield q, symmetric_group(4)
    yield free_abelian(6), symmetric_group(4)


def _orbits_calls(monkeypatch) -> tuple[int, str]:
    calls = []

    def recording(table, acting, allowed):
        calls.append((table.name, sorted(acting), allowed))
        return _orbits(table, acting, allowed)

    monkeypatch.setattr(homcount, "_orbits", recording)
    for q, table in _orbits_call_inputs():
        count_homs(q, table)
    return len(calls), hashlib.md5(repr(calls).encode()).hexdigest()


def test_search_visits_nodes_in_the_pinned_order(monkeypatch):
    assert _orbits_calls(monkeypatch) == ORBITS_CALLS


if __name__ == "__main__":
    # Print CORPUS_NODES, SIDE_S4_NODES and ORBITS_CALLS as counted by the
    # wirtlab on the import path; run from the repository root as
    # PYTHONPATH=<checkout>/src python -m tests.test_homcount
    print("CORPUS_NODES = {")
    for stem in sorted(CORPUS_NODES):
        q = simplified_wirtinger(load(stem))
        row = ['("S%d", %d, %d)' % (n, *_count_and_nodes(q, symmetric_group(n))) for n in (3, 4, 5)]
        print('    "%s": [%s],' % (stem, ", ".join(row)))
    print("}")
    print("SIDE_S4_NODES = {")
    for side in SIDE_S4_NODES:
        row = [
            (k, *_count_and_nodes(tietze_simplify(side(k))[0], symmetric_group(4)))
            for k, _, _ in SIDE_S4_NODES[side]
        ]
        print("    %s: %s," % (side.__name__, row))
    print("}")
    with pytest.MonkeyPatch.context() as mp:
        print('ORBITS_CALLS = (%d, "%s")' % _orbits_calls(mp))
