from itertools import permutations

import pytest

from wirtlab.dsl import parse_diagram
from wirtlab.fpgroups import Presentation, braid_relator, ngon_semidirect, tietze_simplify
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
    supports = [frozenset(g for g, _ in r.letters) for r in p.relators]
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
    mult, inverse, identity = table.mult, table.inverse, table.identity
    assign = [identity] * (n + 1)

    def value(word: Word) -> int:
        acc = identity
        for g, e in word.letters:
            x = assign[g]
            acc = mult[acc][x if e == 1 else inverse[x]]
        return acc

    def search(depth: int) -> int:
        if depth == n:
            return 1
        total = 0
        for x in range(table.size):
            assign[order[depth]] = x
            if all(value(r) == identity for r in checks[depth + 1]):
                total += search(depth + 1)
        return total

    return search(0)


def simplified_wirtinger(d) -> Presentation:
    return tietze_simplify(wirtinger_presentation(d).presentation)[0]


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


def test_a_search_deeper_than_the_recursion_limit_is_refused():
    p = Presentation(tuple("g%d" % i for i in range(2000)), ())
    with pytest.raises(ResourceGuardError) as exc:
        count_homs(p, symmetric_group(3))
    message = str(exc.value)
    assert "S3" in message and "2000 generators" in message and "recursion" in message


def test_finite_group_table_checks_identity_and_inverses():
    mult = ((0, 1), (1, 0))
    FiniteGroupTable("Z2", 2, mult, (0, 1))
    with pytest.raises(ValueError, match="identity"):
        FiniteGroupTable("Z2", 2, mult, (0, 1), identity=1)
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroupTable("Z2", 2, mult, (0, 0))


@pytest.mark.parametrize("n", [1, 6])
def test_symmetric_group_refuses_sizes_outside_2_to_5(n):
    with pytest.raises(ValueError, match="n = 2 .. 5"):
        symmetric_group(n)


@pytest.mark.parametrize("n", [3, 4])
def test_orbits_match_a_brute_force_orbit_partition(n):
    """_orbits against orbits found by composing the permutations
    themselves, for every acting and allowed image, None included."""
    table = symmetric_group(n)
    elems = sorted(permutations(range(n)))
    index = {q: i for i, q in enumerate(elems)}

    def compose(s, t):  # s then t, as the table multiplies
        return tuple(t[s[x]] for x in range(n))

    def conjugate(t, x):
        t_inv = tuple(sorted(range(n), key=t.__getitem__))
        return compose(compose(t_inv, x), t)

    for acting in [None, *range(table.size)]:
        if acting is None:
            group = [elems[table.identity]]
        else:
            a = elems[acting]
            group = [t for t in elems if compose(a, t) == compose(t, a)]
        for allowed in [None, *range(table.size)]:
            if allowed is None:
                todo = set(elems)
            else:
                todo = {conjugate(t, elems[allowed]) for t in elems}
            partition = []
            while todo:
                x = todo.pop()
                orbit = {conjugate(t, x) for t in group}
                todo -= orbit
                partition.append(sorted(index[x] for x in orbit))
            expected = sorted((orbit[0], len(orbit)) for orbit in partition)
            assert list(_orbits(table, acting, allowed)) == expected, (acting, allowed)


def test_search_order_closes_relators_then_keeps_them_open():
    # no generator closes a relator first; 3 and 4 are in three each, and
    # 3 is the lower.  Then 2 and 4 each close one, but 4 leaves two open
    # ({1, 4} and {3, 4, 5}) where 2 leaves none.  Ranking by relators
    # closed and then index alone gives [1, 4, 3, 2, 5].
    supports = [frozenset(s) for s in ({1, 4}, {2, 3}, {3, 4}, {3, 4, 5})]
    assert _search_order(supports, 5) == [3, 4, 1, 2, 5]


def test_k4_s4_count_fits_a_small_node_budget():
    """A count, not a timing: S4 on the simplified k = 4 Wirtinger group
    tries 5,160 candidate images when relators close early and candidates
    are filtered relator by relator, and tried 37,752 when 11 of its 13
    relators closed only at the last depth."""
    q = simplified_wirtinger(load("hypocycloid_quotient_k4"))
    assert count_homs(q, symmetric_group(4), bound=10**4) == 120


def test_orbifold_k10_s4_count_fits_a_small_node_budget():
    """A count, not a timing: S4 on the simplified orbifold group at k = 10
    (11 generators, 24,582 letters) tries 4,031 candidate images when
    conjugate generators take images in one conjugacy class, and 359,908
    when every generator past the second tried all 24 elements."""
    q = tietze_simplify(orbifold_presentation(10))[0]
    assert count_homs(q, symmetric_group(4), bound=10**4) == 72


def test_k4_s4_count_fits_a_thousand_nodes():
    """S4 on the simplified k = 4 Wirtinger group: 469 candidate images
    with classes of conjugate generators, 5,160 without."""
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
    "deltoid": [("S3", 30, 17), ("S4", 384, 62), ("S5", 2520, 261)],
    "hypocycloid_quotient_k2": [("S3", 30, 32), ("S4", 312, 183), ("S5", 2400, 1246)],
    "hypocycloid_quotient_k3": [("S3", 18, 49), ("S4", 120, 298), ("S5", 960, 2116)],
    "hypocycloid_quotient_k4": [("S3", 18, 68), ("S4", 120, 469), ("S5", 840, 3520)],
    "nodal_cubic": [("S3", 6, 3), ("S4", 24, 5), ("S5", 120, 7)],
    "parabola_two_lines": [("S3", 90, 74), ("S4", 1320, 816), ("S5", 16680, 8568)],
    "smooth_cubic": [("S3", 36, 14), ("S4", 576, 48), ("S5", 14400, 168)],
}
SIDE_S4_NODES = {
    orbifold_presentation: [(2, 192, 107), (3, 72, 175), (4, 72, 293), (5, 72, 613), (6, 72, 707)],
    ngon_semidirect: [(2, 192, 87), (3, 72, 175), (4, 72, 263), (5, 72, 351), (6, 72, 439)],
}


def _assert_exact_nodes(q: Presentation, table, count: int, nodes: int) -> None:
    assert count_homs(q, table, bound=nodes) == count
    with pytest.raises(ResourceGuardError):
        count_homs(q, table, bound=nodes - 1)


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
