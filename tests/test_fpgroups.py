import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import gen  # noqa: E402

from tests.conftest import all_corpus_stems, load  # noqa: E402
from wirtlab import fpgroups  # noqa: E402
from wirtlab.abelian import abelianization  # noqa: E402
from wirtlab.dsl import parse_diagram  # noqa: E402
from wirtlab.fpgroups import (  # noqa: E402
    DEFAULT_TIETZE_BOUND,
    TIETZE_BOUND_ENV,
    Presentation,
    TietzeMove,
    TietzeTranscript,
    _apply_move,
    _cyclic_canonical,
    artin_from_graph,
    artin_relator,
    braid_relator,
    commutator,
    ngon_artin,
    ngon_semidirect,
    replay_transcript,
    tietze_simplify,
)
from wirtlab.genpres import (  # noqa: E402
    diagram_braid_monodromy,
    wirtinger_presentation,
    zvk_presentation,
)
from wirtlab.guards import ResourceGuardError  # noqa: E402
from wirtlab import homcount  # noqa: E402
from wirtlab.homcount import count_homs, symmetric_group  # noqa: E402
from wirtlab.hypocycloid import orbifold_presentation  # noqa: E402
from wirtlab.profiles import profile, profiles_equal  # noqa: E402
from wirtlab.words import Word, invert  # noqa: E402


def test_presentation_json_round_trip():
    p = Presentation(("a", "b"), (braid_relator(Word.gen(1), Word.gen(2)),))
    q = Presentation.from_json(p.to_json())
    assert q.generators == p.generators and q.relators == p.relators


# relators over the generators a, b, c, and the first one that uses an
# unknown generator: later bad relators, inverse letters and a larger bad
# index further on must not change which one is named
@pytest.mark.parametrize("letters, first_bad", [
    ([(4,), (1, 5)], 1),
    ([(1, 2), (-4,), (3,), (9, 1)], 2),
    ([(1,), (2, -3), (), (3, 1, 7), (-4,), (5,)], 4),
])
def test_the_first_relator_with_an_unknown_generator_is_named(letters, first_bad):
    message = "^relator %d uses an unknown generator$" % first_bad
    with pytest.raises(ValueError, match=message):
        Presentation(("a", "b", "c"), tuple(Word(r) for r in letters))
    data = {
        "generators": ["a", "b", "c"],
        "relators": [[[abs(x), 1 if x > 0 else -1] for x in r] for r in letters],
    }
    with pytest.raises(ValueError, match=message):
        Presentation.from_json(data)


def test_presentation_gap_output():
    p = Presentation(("a", "b"), (commutator(Word.gen(1), Word.gen(2)),))
    gap = p.to_gap()
    assert "FreeGroup" in gap and "a" in gap and "b" in gap
    assert "rels := [One(F)];" in Presentation(("a",), (Word(),)).to_gap()


def test_braid_relator_and_commutator_shapes():
    a, b = Word.gen(1), Word.gen(2)
    assert braid_relator(a, b) == a * b * a * (b * a * b).inverse()
    assert commutator(a, b) == a * b * a.inverse() * b.inverse()
    assert artin_relator(a, b, 3) == braid_relator(a, b)
    assert artin_relator(a, b, 2) == commutator(a, b)
    # A_0, the tangency: identification, letter for letter, also for words
    w = b.conjugated_by(a * b)
    for y in (b, w):
        assert tuple(artin_relator(a, y, 1)) == tuple(a * y.inverse())


def test_artin_from_graph_triangle():
    p = artin_from_graph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    assert len(p.generators) == 3
    assert len(p.relators) == 3
    # triangle Artin group abelianizes to Z (all generators identified)
    assert abelianization(p).free_rank == 1 and abelianization(p).torsion == ()


def test_ngon_artin_relator_count():
    for n in (3, 4, 5, 7):
        p = ngon_artin(n)
        assert len(p.generators) == n
        # n cyclically adjacent braid relations + C(n,2) - n commutations
        assert len(p.relators) == n * (n - 1) // 2


@pytest.mark.parametrize("edge", [("a", "d"), ("a", "a")])
def test_artin_from_graph_refuses_an_edge_not_between_distinct_vertices(edge):
    with pytest.raises(ValueError, match="not between distinct vertices"):
        artin_from_graph(("a", "b", "c"), [edge])


def test_ngon_artin_refuses_fewer_than_three_vertices():
    with pytest.raises(ValueError, match="n >= 3"):
        ngon_artin(2)


def test_trefoil_hom_counts():
    p = Presentation(("a", "b"), (braid_relator(Word.gen(1), Word.gen(2)),))
    # the trefoil group surjects onto S3; classical counts
    assert count_homs(p, symmetric_group(3)) == 12
    assert abelianization(p).free_rank == 1 and abelianization(p).torsion == ()


def test_tietze_simplify_transcript_replays():
    rng = random.Random(99)
    for trial in range(20):
        n = rng.randint(2, 4)
        rels = []
        for _ in range(rng.randint(1, 4)):
            letters = [rng.randint(1, n) * rng.choice((1, -1)) for _ in range(rng.randint(1, 6))]
            rels.append(Word(letters))
        p = Presentation(tuple("g%d" % i for i in range(1, n + 1)), tuple(rels))
        q, transcript = tietze_simplify(p)
        assert replay_transcript(p, transcript) == q
        assert transcript.kinds() <= {"I", "IIa"}
        assert abelianization(p) == abelianization(q)


@pytest.mark.parametrize(
    "p",
    [wirtinger_presentation(load(stem)).presentation for stem in all_corpus_stems()]
    + [ngon_semidirect(5)],
    ids=all_corpus_stems() + ["ngon_semidirect_5"],
)
def test_tietze_moves_use_source_numbering(p):
    q, transcript = tietze_simplify(p)
    eliminated = [m.index for m in transcript.moves if m.kind == "IIa"]
    assert len(set(eliminated)) == len(eliminated)
    kept = [g for i, g in enumerate(p.generators, start=1) if i not in eliminated]
    assert q.generators == tuple(kept)


@pytest.mark.parametrize(
    "index, word",
    [
        (0, Word()),  # out of range
        (4, Word()),  # out of range
        (1, Word.gen(2)),  # generator 1 is already eliminated
        (2, Word.gen(3) * Word.gen(2)),  # the word uses its own generator
        (3, Word.gen(1)),  # the word uses an eliminated generator
        (3, Word.gen(4)),  # the word uses an unknown generator
    ],
)
def test_replay_rejects_a_iia_move_that_is_not_a_tietze_move(index, word):
    p = Presentation(("a", "b", "c"), (Word.gen(1) * Word.gen(2).inverse(),))
    first = TietzeMove("IIa", "eliminate", 1, Word.gen(2))
    assert replay_transcript(p, TietzeTranscript((first,))).generators == ("b", "c")
    bad = TietzeMove("IIa", "eliminate", index, word)
    with pytest.raises(ValueError, match="IIa"):
        replay_transcript(p, TietzeTranscript((first, bad)))


@pytest.mark.parametrize(
    "moves",
    [
        # the word is not the relator's cyclic reduction
        (TietzeMove("I", "reduce", 0, Word.gen(1)),),
        # after the elimination the relator reduces to 1, not to b
        (
            TietzeMove("IIa", "eliminate", 2, Word.gen(1).inverse()),
            TietzeMove("I", "reduce", 0, Word.gen(2)),
        ),
        (TietzeMove("I", "delete", 5),),  # out of range
    ],
    ids=["reduce-to-other-word", "reduce-to-eliminated-generator", "delete-out-of-range"],
)
def test_replay_rejects_a_type_i_move_that_is_not_one(moves):
    p = Presentation(("a", "b"), (Word.gen(1) * Word.gen(2),))
    with pytest.raises(ValueError, match="type I move"):
        replay_transcript(p, TietzeTranscript(moves))


@pytest.mark.parametrize(
    "move",
    [TietzeMove("IIb", "add", 3, Word.gen(1)), TietzeMove("IIa", "add", 1, Word.gen(2))],
    ids=["iib", "unknown-action"],
)
def test_replay_rejects_an_unsupported_move(move):
    p = Presentation(("a", "b"), (Word.gen(1) * Word.gen(2),))
    with pytest.raises(ValueError) as exc:
        replay_transcript(p, TietzeTranscript((move,)))
    assert str(exc.value) == "unsupported Tietze move %r/%r" % (move.kind, move.action)


def test_tietze_simplify_never_uses_iib_by_default():
    p = ngon_artin(5)
    q, transcript = tietze_simplify(p)
    assert transcript.kinds() <= {"I", "IIa"}
    assert profiles_equal(profile(p), profile(q))


def test_ngon_semidirect_shape():
    p = ngon_semidirect(3)
    assert p.generators[0] == "t"
    assert len(p.generators) == 4  # t and x_0..x_2 for N = 5
    # t is an involution and commutes with x_0
    t, x0 = p.gen("t"), p.gen("x0")
    assert t * t in p.relators
    assert commutator(t, x0) in p.relators


def test_ngon_semidirect_rejects_bad_k():
    with pytest.raises(ValueError):
        ngon_semidirect(1)


def all_rotations_key(w: Word) -> tuple:
    """Least rotation of the letters of the cyclic reduction of w or of its
    inverse, taken over every rotation."""
    w = w.cyclically_reduced()
    rotations = [ls[i:] + ls[:i] for ls in (w.letters, w.inverse().letters) for i in range(len(ls))]
    return min(rotations, default=())


def test_cyclic_canonical_matches_all_rotations():
    rng = random.Random(2024)
    for _ in range(2000):
        core = [rng.randint(1, 3) * rng.choice((1, -1)) for _ in range(rng.randint(0, 12))]
        # conjugating by a random word leaves most words not cyclically reduced
        conj = Word([rng.randint(1, 3) * rng.choice((1, -1)) for _ in range(rng.randint(0, 3))])
        w = Word(core).conjugated_by(conj)
        assert _cyclic_canonical(w.letters) == all_rotations_key(w), w
    assert _cyclic_canonical(()) == all_rotations_key(Word()) == ()


def test_cyclic_canonical_of_a_long_word_in_closed_form():
    # r runs of k letters x1 and one run of k + 1, each after an x2^-1: a
    # rotation from an x2^-1 is less the shorter its first run, so the least
    # puts the long run last; the inverse's least letter, x1^-1, is greater
    k, r = 50, 400
    key = (-2, *[1] * k) * r + (-2, *[1] * (k + 1))
    for i in (0, 1, len(key) - k - 2, 12345):
        rotated = key[i:] + key[:i]
        assert _cyclic_canonical(rotated) == key
        assert _cyclic_canonical(invert(rotated)) == key


def rescanning_tietze(p: Presentation):
    """The reference loop: after every elimination, cyclically reduce and
    key every relator, recount every generator over every relator, and
    search every relator for the elimination of least estimated growth."""
    rels, gone, moves = list(p.relators), set(), []

    def apply(move):
        moves.append(move)
        _apply_move(len(p.generators), gone, rels, move)

    def normalise():
        i, seen = 0, set()
        while i < len(rels):
            reduced = rels[i].cyclically_reduced()
            if reduced != rels[i]:
                apply(TietzeMove("I", "reduce", i, reduced))
            key = all_rotations_key(rels[i])
            if not rels[i] or key in seen:
                apply(TietzeMove("I", "delete", i))
                continue
            seen.add(key)
            i += 1

    def defining_letter():
        total = Counter(abs(x) for r in rels for x in r)
        best = None
        for ri, r in enumerate(rels):
            counts = Counter(abs(x) for x in r)
            for pos, g in enumerate(map(abs, r)):
                if counts[g] == 1:
                    growth = (total[g] - 1) * (len(r) - 2) - 2
                    if best is None or (growth, len(r), g, ri) < best[:4]:
                        best = (growth, len(r), g, ri, pos)
        return best

    normalise()
    while (found := defining_letter()) is not None:
        *_, g, ri, pos = found
        ls = rels[ri].letters
        rest = Word(ls[pos + 1 :] + ls[:pos])
        apply(TietzeMove("I", "delete", ri))
        apply(TietzeMove("IIa", "eliminate", g, rest.inverse() if ls[pos] > 0 else rest))
        normalise()
    kept = [g for g in range(1, len(p.generators) + 1) if g not in gone]
    new = {old: new for new, old in enumerate(kept, start=1)}
    renumbered = (Word([new[x] if x > 0 else -new[-x] for x in r]) for r in rels)
    return Presentation(tuple(p.generators[g - 1] for g in kept), tuple(renumbered)), moves


def wide_presentations(m: int, sides: str) -> tuple[Presentation, Presentation]:
    """Wirtinger and ZvK presentations of ordinary m-fold points on the
    given sides of L."""
    d = parse_diagram(gen.wide_diagram(random.Random("w:%d" % m), m, sides).dsl)
    return wirtinger_presentation(d).presentation, zvk_presentation(d.d, diagram_braid_monodromy(d))


REFERENCE_CASES = [
    pytest.param(lambda m=m, s=s, i=i: wide_presentations(m, s)[i], id="%s-w%d-%s" % (route, m, s))
    for m in (3, 5, 8, 12)
    for s in ("r", "llr")
    for i, route in enumerate(("wirtinger", "zvk"))
] + [
    pytest.param(lambda k=k, f=f: f(k), id="%s-%d" % (f.__name__, k))
    for f in (orbifold_presentation, ngon_semidirect)
    for k in range(2, 7)
] + [
    pytest.param(lambda m=m, s=s: wide_presentations(m, s)[0], id="wirtinger-w%d-%s" % (m, s))
    for m, s in ((20, "llr"), (24, "ll"))
]

# Tietze work pins; python -m tests.test_fpgroups prints them.
WIDE_KEYS = 39  # cyclic keys computed on wide_presentations(12, "llr")[0]
WIDE_REWRITES = 71  # relators rewritten on wide_presentations(36, "r")[0]
ORBIFOLD_LETTERS = {4: 120, 8: 680}  # letters left, by k
WIDE_MOVES_LETTERS = {(20, "llr"): (147, 2276), (24, "ll"): (102, 3308)}  # Wirtinger side


@pytest.mark.parametrize("make", REFERENCE_CASES)
def test_tietze_simplify_matches_the_rescanning_loop(make):
    p = make()
    q, transcript = tietze_simplify(p)
    ref, moves = rescanning_tietze(p)
    assert q.to_json() == ref.to_json()
    assert list(transcript.moves) == moves
    assert replay_transcript(p, transcript) == q


def test_a_rewritten_relator_is_kept_over_a_later_rotation_of_it():
    """Order matters: eliminating a = c turns relator 2 into c b c^-1 b^-1,
    a rotation of the later, untouched relator 3, and the earlier of the
    two is the one kept."""
    a, b, c = Word.gen(1), Word.gen(2), Word.gen(3)
    p = Presentation(("a", "b", "c"), (c * a.inverse(), commutator(a, b), b * c.inverse() * b.inverse() * c))
    q, transcript = tietze_simplify(p)
    assert list(transcript.moves) == [
        TietzeMove("I", "delete", 0),
        TietzeMove("IIa", "eliminate", 1, c),
        TietzeMove("I", "delete", 1),
    ]
    assert q.describe() == "< b, c | c*b*c^-1*b^-1 >"
    ref, moves = rescanning_tietze(p)
    assert q.to_json() == ref.to_json() and list(transcript.moves) == moves


def test_a_generator_no_other_relator_uses_is_eliminated_first():
    """The least-growth rule: c occurs only in the first relator, so
    eliminating it rewrites nothing (growth -2), while a and b each occur
    twice more (growth 0).  The shortest relator's lowest once-occurring
    generator, a, would have rewritten the commutator."""
    a, b, c = Word.gen(1), Word.gen(2), Word.gen(3)
    p = Presentation(("a", "b", "c"), (a * c * b.inverse(), commutator(a, b)))
    q, transcript = tietze_simplify(p)
    assert list(transcript.moves) == [
        TietzeMove("I", "delete", 0),
        TietzeMove("IIa", "eliminate", 3, a.inverse() * b),
    ]
    assert q.describe() == "< a, b | a*b*a^-1*b^-1 >"
    ref, moves = rescanning_tietze(p)
    assert q.to_json() == ref.to_json() and list(transcript.moves) == moves


def calls_during_tietze(mp, name: str, p: Presentation):
    """The transcript of tietze_simplify(p) and how often it called
    fpgroups.<name>, counted through ``mp``."""
    calls = []
    original = getattr(fpgroups, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    mp.setattr(fpgroups, name, counted)
    return tietze_simplify(p)[1], len(calls)


def moves_and_letters(p: Presentation) -> tuple[int, int]:
    q, transcript = tietze_simplify(p)
    return len(transcript.moves), sum(map(len, q.relators))


def test_tietze_keys_relators_only_where_shapes_collide(monkeypatch):
    """Work count, no timing: the rescanning loop keys every relator after
    each of the 36 eliminations here, 1566 keys in all; keying only the
    relators whose shape an earlier kept one has takes 39."""
    transcript, keys = calls_during_tietze(monkeypatch, "_cyclic_canonical", wide_presentations(12, "llr")[0])
    assert sum(m.kind == "IIa" for m in transcript.moves) == 36
    assert keys == WIDE_KEYS


def test_eliminations_rewrite_few_relators_on_a_wide_point(monkeypatch):
    """Work count, no timing: on an ordinary 36-fold point, eliminating the
    shortest relator's lowest once-occurring generator picks a generator
    that sits in nearly every relator, and the IIa moves rewrite 1,926
    relators; eliminating by least estimated growth rewrites 71."""
    _, rewrites = calls_during_tietze(monkeypatch, "_substitute", wide_presentations(36, "r")[0])
    assert rewrites == WIDE_REWRITES


def test_orbifold_side_simplifies_to_few_letters():
    """Eliminating by least estimated growth leaves 120 letters at k = 4
    and 680 at k = 8, against 376 and 5,792 for the shortest relator's
    lowest once-occurring generator; the generators stay 5 and 9."""
    for k, gens in ((4, 5), (8, 9)):
        q = tietze_simplify(orbifold_presentation(k))[0]
        assert len(q.generators) == gens
        assert sum(map(len, q.relators)) == ORBIFOLD_LETTERS[k]


@pytest.mark.parametrize("m, sides", list(WIDE_MOVES_LETTERS))
def test_wide_points_at_benchmark_scale_keep_their_moves_and_letters(m, sides):
    assert moves_and_letters(wide_presentations(m, sides)[0]) == WIDE_MOVES_LETTERS[m, sides]


def long_100() -> Presentation:
    """The Wirtinger presentation of the golden input ``long_100``: 226
    generators and 1,560 letters, growing to about 708,000 letters under
    Tietze."""
    path = Path(__file__).parent / "golden" / "inputs" / "long_100.wd"
    return wirtinger_presentation(parse_diagram(path.read_text(), name=path.stem)).presentation


def refusal(mp, p: Presentation, budget: int) -> tuple[int, int, int, int] | None:
    """Under the letter budget, the substitutions tietze_simplify(p) made
    and, if it refused, the moves made, the letters held and the most a
    rewrite could make of them, as its message states; None if it ended."""
    mp.setenv(TIETZE_BOUND_ENV, str(budget))
    calls = []
    original = fpgroups._substitute
    mp.setattr(fpgroups, "_substitute", lambda *args: calls.append(args) or original(*args))
    try:
        tietze_simplify(p)
    except ResourceGuardError as exc:
        found = re.fullmatch(
            r"Tietze simplification after (\d+) moves holds (\d+) letters; eliminating "
            r"generator \d+ could take it to (\d+), past the budget of %d \(%s\)"
            % (budget, TIETZE_BOUND_ENV),
            str(exc),
        )
        assert found, str(exc)
        return (len(calls), *map(int, found.groups()))
    return None


def test_tietze_stops_before_a_rewrite_could_pass_its_letter_budget(monkeypatch):
    p = long_100()
    substitutions, moves, held, most = refusal(monkeypatch, p, 20000)
    assert 0 < moves and held <= 20000 < most
    # with that rewrite's bound as the budget, the same rewrite is made
    again = refusal(monkeypatch, p, most)
    assert again is None or again[0] > substitutions
    assert refusal(monkeypatch, p, DEFAULT_TIETZE_BOUND) is None


def test_tietze_letter_budget_counts_by_hand(monkeypatch):
    """x1^-1 x2^3, x1^4 x2^-2 and x1^3 x3^-2 (15 letters): only x1 occurs
    once anywhere, so x1 goes to x2^3.  That deletes the first relator (one
    move, then the IIa move: 11 letters left) and rewrites the second to at
    most 11 + 4 * 2 = 19 letters; it becomes x2^10, 15 letters in all.  The
    third then grows to at most 15 + 3 * 2 = 21, and becomes x2^9 x3^-2."""
    p = Presentation(
        ("x1", "x2", "x3"),
        (Word([-1, 2, 2, 2]), Word([1, 1, 1, 1, -2, -2]), Word([1, 1, 1, -3, -3])),
    )
    assert refusal(monkeypatch, p, 18) == (0, 2, 11, 19)
    assert refusal(monkeypatch, p, 20) == (1, 2, 15, 21)
    assert refusal(monkeypatch, p, 21) is None
    q, _ = tietze_simplify(p)
    assert q.relators == (Word([1] * 10), Word([1] * 9 + [-2, -2]))


def test_resource_guard_error_is_one_class():
    assert homcount.ResourceGuardError is ResourceGuardError


if __name__ == "__main__":
    # Print the Tietze work pins as counted by the wirtlab on the import
    # path; run from the repository root as
    # PYTHONPATH=<checkout>/src python -m tests.test_fpgroups
    with pytest.MonkeyPatch.context() as mp:
        keys = calls_during_tietze(mp, "_cyclic_canonical", wide_presentations(12, "llr")[0])[1]
        rewrites = calls_during_tietze(mp, "_substitute", wide_presentations(36, "r")[0])[1]
    print("WIDE_KEYS = %d" % keys)
    print("WIDE_REWRITES = %d" % rewrites)
    letters = {k: moves_and_letters(orbifold_presentation(k))[1] for k in ORBIFOLD_LETTERS}
    print("ORBIFOLD_LETTERS = %r" % letters)
    print("WIDE_MOVES_LETTERS = {%s}" % ", ".join(
        "%r: %r" % (point, moves_and_letters(wide_presentations(*point)[0])) for point in WIDE_MOVES_LETTERS
    ))
