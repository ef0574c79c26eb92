"""Tests of the benchmark itself (no timing gates).

Run from the root of the checkout:  python3 -m pytest benchmark
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _samples(seed: int) -> list[str]:
    rng = random.Random(seed)
    out = [gen.crosscheck_diagram(rng, d, 16).dsl for d in (3, 4, 5, 6)]
    out.append(gen.long_diagram(rng, 9, 300).dsl)
    out.append(gen.wide_diagram(rng, 20, "lr").dsl)
    return out


def test_same_seed_gives_byte_identical_dsl():
    assert _samples(7) == _samples(7)
    assert _samples(7) != _samples(8)


def test_workload_inputs_depend_only_on_the_seed():
    wl = run.import_wirtlab()
    for cls in (run.Crosscheck, run.BigDiagrams):
        a = [op.dsl for op in cls(wl, 3).ops()]
        b = [op.dsl for op in cls(wl, 3).ops()]
        assert a == b and all(a)


def test_generator_facts_match_wirtlab_on_wirtinger():
    wl = run.import_wirtlab()
    rng = random.Random(11)
    for _ in range(20):
        s = gen.crosscheck_diagram(rng, rng.randint(3, 6), rng.randint(8, 24))
        d = wl["dsl"].parse_diagram(s.dsl)
        w = wl["genpres"].wirtinger_presentation(d).presentation
        ab = wl["abelian"].abelianization(w)
        assert len(w.generators) == s.wirtinger_gens
        assert (ab.free_rank, ab.torsion) == (s.components, ())


@pytest.mark.parametrize("stem", sorted(refs.KNOWN_PRESENTATIONS))
def test_hand_written_profiles_match_brute_force(stem):
    ngens, relators = refs.KNOWN_PRESENTATIONS[stem]
    want = refs.KNOWN_PROFILES[stem][2:]
    assert tuple(refs.brute_force_homs(ngens, relators, n) for n in (3, 4)) == want


def _first_ok(workload):
    for op in workload.ops():
        result = op.run()
        if op.check(result) is None:
            return op, result
    raise AssertionError("no op of the round passed its checks")


def test_corrupted_outputs_are_counted_as_failed():
    wl = run.import_wirtlab()

    corpus = run.CorpusProfile(wl, 0)
    op, (verdict, routes) = _first_ok(corpus)
    assert op.check(("StructuralViolation", routes)) is not None
    p, q, transcript, ab, counts = next(iter(routes.values()))
    bad = dict(routes)
    bad[next(iter(routes))] = (p, q, replace(transcript, moves=transcript.moves[:-1]), ab, counts)
    if transcript.moves:
        assert op.check((verdict, bad)) is not None

    cross = run.Crosscheck(wl, 0)
    op, (text, verdict, routes) = _first_ok(cross)
    assert op.check((text + "\n", verdict, routes)) is not None
    (p, q, t, ab, c3), other = routes
    assert op.check((text, verdict, [(p, q, t, ab, c3 + 6), other])) is not None

    big = run.BigDiagrams(wl, 0)
    long_op = big.ops()[0]
    verdict, w, e = long_op.run()
    assert long_op.check((verdict, w, e)) is None
    assert long_op.check((verdict, w, e.add_relators([w.relators[0]]))) is not None

    hypo_fail = run.Hypo._check("hypo-verify", 2, (0, json.dumps({
        "equal": False, "profile_left": {"abelian": {"free_rank": 1, "torsion": [2]}},
    })))
    assert hypo_fail is not None

    gauge = run.Gauge()
    rounds, _ = run.run_rounds(_Corrupted(corpus), 0, gauge)
    metrics, _ = run.end_to_end([(0.1, 0.001)], rounds, gauge)
    assert sum(o.failure is not None for o in rounds[0]) == len(rounds[0])
    assert metrics["ok_ratio"][0] == 0.0


class _Corrupted:
    """A workload whose every op reports a wrong verdict."""

    def __init__(self, inner):
        self.inner = inner

    def ops(self):
        return [
            run.Op(op.label, lambda op=op: ("Wrong",) + op.run()[1:], op.check)
            for op in self.inner.ops()[:3]
        ]


def _main(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_schema(trace):
    out = _main("--workload", "corpus-profile", "--seed", "1", "--seconds", "0.01", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    section = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(out["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], float)


def test_spec_names_every_workload_but_crosscheck():
    # crosscheck fails ops through the known ZvK defect (see README), and a
    # listed workload must run without failed ops; it stays runnable by name
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS) - {"crosscheck"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "hypo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
