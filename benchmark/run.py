#!/usr/bin/env python3
"""wirtlab benchmark: four workloads, one closed-loop caller, checked outputs.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload hypo --seed 1 --seconds 36 --trace 0

Each workload is a fixed list of ops per round, made from the seed; the run
repeats whole rounds until ``--seconds`` is spent, timing each op (the
wirtlab calls only) and checking its outputs afterwards against references
that do not come from the route under test.  Op and set-up times are scaled
to a fixed reference machine speed, gauged by a fixed kernel (see Gauge and
REFERENCE_KERNEL), because a shared machine slows by up to 2x for seconds at
a time.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
untraced and traced, in alternating order, and prints per-layer self times
and counts (see tracing.py).  The last line of standard output is one JSON
object; failed ops are listed above it with their seed and DSL.  The exit
code is nonzero only for errors of the harness itself.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402

MODULES = (
    "words", "braids", "diagram", "dsl", "fpgroups", "genpres",
    "abelian", "homcount", "profiles", "hypocycloid", "cli",
)
SETUP_REPEATS = 7
TAIL_BEYOND = 10
GAUGE_INTERVAL = 0.1  # seconds between kernel samples during an op
REFERENCE_KERNEL = 0.0005  # seconds: times are reported at the machine speed
# at which kernel_seconds() takes this long


def import_wirtlab() -> dict:
    """Import every wirtlab module afresh and return them by short name."""
    for name in [m for m in sys.modules if m == "wirtlab" or m.startswith("wirtlab.")]:
        del sys.modules[name]
    return {name: importlib.import_module("wirtlab." + name) for name in MODULES}


@dataclass
class Op:
    label: str  # names the op's input: rounds that repeat an input repeat its label
    run: Callable[[], object]  # the timed wirtlab calls
    check: Callable[[object], str | None]  # None, or why the output is wrong
    dsl: str = ""


def verdict_of(report) -> str:
    """The verdict names of ``wirtlab validate`` (its mapping is private to cli)."""
    if report.verified:
        return "Verified"
    for prefix, name in (
        ("connectivity:", "ConnectivityViolation"),
        ("facing:", "FacingViolation"),
        ("region:", "NoValidRegion"),
    ):
        if any(v.startswith(prefix) for v in report.violations):
            return name
    return "StructuralViolation"


def _replays(wl, p, q, transcript) -> bool:
    return wl["fpgroups"].replay_transcript(p, transcript) == q


def _abelian_is_free(ab, rank: int) -> bool:
    return ab.free_rank == rank and ab.torsion == ()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CorpusProfile:
    """The ten shipped diagrams: verdict, every route, Tietze, SNF, S3+S4."""

    def __init__(self, wl: dict, seed: int):
        self.wl = wl
        corpus = ROOT / "src" / "wirtlab" / "corpus"
        self.diagrams = {
            stem: wl["dsl"].parse_diagram((corpus / (stem + ".wd")).read_text(encoding="utf-8"), name=stem)
            for stem in sorted(refs.CORPUS)
        }
        self.tables = (wl["homcount"].symmetric_group(3), wl["homcount"].symmetric_group(4))

    def _run(self, d):
        wl = self.wl
        report = wl["diagram"].check_theorem(d)
        routes = {}
        if wl["diagram"].validate_wirtinger_type(d).ok:
            routes["wirtinger"] = wl["genpres"].wirtinger_presentation(d).presentation
            routes["extended"] = wl["genpres"].extended_wirtinger(d).presentation
        if report.verified:
            routes["zvk"] = wl["genpres"].zvk_presentation(d.d, wl["genpres"].diagram_braid_monodromy(d))
        done: dict = {}  # presentation -> its results, so each distinct one is done once
        out = {}
        for route, p in routes.items():
            if p not in done:
                q, transcript = wl["fpgroups"].tietze_simplify(p)
                ab = wl["abelian"].abelianization(q)
                counts = tuple(wl["homcount"].count_homs(q, t) for t in self.tables)
                done[p] = (q, transcript, ab, counts)
            out[route] = (p,) + done[p]
        return verdict_of(report), out

    def _check(self, stem: str, result) -> str | None:
        verdict, routes = result
        want_verdict, components = refs.CORPUS[stem]
        if verdict != want_verdict:
            return "verdict %s, expected %s" % (verdict, want_verdict)
        claimed = {
            "Verified": ("wirtinger", "extended", "zvk"),
            "NoValidRegion": ("extended",),
        }.get(verdict, ())
        for route, (p, q, transcript, ab, counts) in routes.items():
            if not _replays(self.wl, p, q, transcript):
                return "%s: Tietze transcript does not replay" % route
            if route not in claimed:
                continue
            if not _abelian_is_free(ab, components):
                return "%s: abelianization %s, expected Z^%d" % (route, ab, components)
            known = refs.KNOWN_PROFILES.get(stem)
            if known is not None and counts != known[2:]:
                return "%s: S3/S4 = %d/%d, expected %d/%d" % ((route,) + counts + known[2:])
        got = {routes[r][4] for r in claimed}
        if len(got) > 1:
            return "routes disagree on S3/S4: %s" % {r: routes[r][4] for r in claimed}
        return None

    def ops(self) -> list[Op]:
        return [
            Op(stem, lambda d=d: self._run(d), lambda r, s=stem: self._check(s, r))
            for stem, d in self.diagrams.items()
        ]


class Hypo:
    """In-process CLI calls: hypo-verify for k = 2, 3, 4, hypo-diagram for 5, 6."""

    COMMANDS = (("hypo-verify", 2), ("hypo-verify", 3), ("hypo-verify", 4), ("hypo-diagram", 5), ("hypo-diagram", 6))

    def __init__(self, wl: dict, seed: int):
        self.wl = wl

    def _run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.wl["cli"].main(argv)
        return code, buf.getvalue()

    @staticmethod
    def _check(command: str, k: int, result) -> str | None:
        code, text = result
        if code != 0:
            return "exit code %d" % code
        if command == "hypo-verify":
            report = json.loads(text)
            ab = report["profile_left"]["abelian"]
            if report["equal"] is not True:
                return "profiles differ from ngon_semidirect(%d)" % k
            if (ab["free_rank"], ab["torsion"]) != (1, [2]):
                return "orbifold abelianization %s, expected Z + Z/2" % ab
            return None
        # the traced quotient's singularities, counted from the DSL text
        lines = text.splitlines()
        n = 2 * k - 1
        got = (
            sum(line.startswith("strand ") for line in lines),
            sum(" cusp " in line for line in lines),
            sum(" crossing m=3 " in line for line in lines),
            sum(" crossing m=1 " in line for line in lines),
            sum(" crossing m=5 " in line for line in lines),
        )
        want = (k + 1, k - 1, k - 2, (n - 1) * (k - 2) // 2 + 1, 1)
        if got != want:
            return "strands/cusps/tacnodes/nodes/contact-3 = %s, expected %s" % (got, want)
        return None

    def ops(self) -> list[Op]:
        return [
            Op(
                "%s --k %d" % (cmd, k),
                lambda a=[cmd, "--k", str(k)]: self._run(a),
                lambda r, c=cmd, k=k: self._check(c, k, r),
            )
            for cmd, k in self.COMMANDS
        ]


class Crosscheck:
    """Seeded small diagrams, the same in every round: for each strand count
    and event band, PER_CELL diagrams."""

    STRANDS = (3, 4, 5)
    EVENTS = ((8, 10), (10, 12))
    PER_CELL = 40
    # S3 searches over at most 5 generators, the most strands a diagram has
    # (and so the most ZvK generators).  Tietze leaves some Wirtinger
    # presentations with 6-9 generators and thousands of letters, whose S3
    # count takes from 0.5 s to minutes; the guard refuses those and the op
    # counts as failed.
    HOM_BOUND = 6**5

    def __init__(self, wl: dict, seed: int):
        self.wl = wl
        self.s3 = wl["homcount"].symmetric_group(3)
        rng = random.Random("crosscheck:%d" % seed)
        self.samples = [
            gen.crosscheck_diagram(rng, d, rng.randint(lo, hi))
            for d in self.STRANDS
            for lo, hi in self.EVENTS
            for _ in range(self.PER_CELL)
        ]

    def _run(self, text: str):
        wl = self.wl
        d = wl["dsl"].parse_diagram(text)
        round_trip = wl["dsl"].serialize_diagram(d)
        report = wl["diagram"].check_theorem(d)
        w = wl["genpres"].wirtinger_presentation(d).presentation
        if report.verified:
            other = wl["genpres"].zvk_presentation(d.d, wl["genpres"].diagram_braid_monodromy(d))
        else:
            other = wl["genpres"].extended_wirtinger(d).presentation
        routes = []
        for p in (w, other):
            q, transcript = wl["fpgroups"].tietze_simplify(p)
            ab = wl["abelian"].abelianization(q)
            routes.append((p, q, transcript, ab, wl["homcount"].count_homs(q, self.s3, self.HOM_BOUND)))
        return round_trip, verdict_of(report), routes

    def _check(self, sample: gen.Sample, result) -> str | None:
        round_trip, verdict, routes = result
        if round_trip != sample.dsl:
            return "DSL round trip is not byte-identical"
        if verdict not in ("Verified", "NoValidRegion"):
            return "verdict %s on a diagram built to meet the other hypotheses" % verdict
        other = "zvk" if verdict == "Verified" else "extended"
        if len(routes[0][0].generators) != sample.wirtinger_gens:
            return "wirtinger has %d generators, expected %d" % (len(routes[0][0].generators), sample.wirtinger_gens)
        for name, (p, q, transcript, ab, _) in zip(("wirtinger", other), routes):
            if not _replays(self.wl, p, q, transcript):
                return "%s: Tietze transcript does not replay" % name
            if not _abelian_is_free(ab, sample.components):
                return "%s: abelianization %s, expected Z^%d" % (name, ab, sample.components)
        if verdict == "Verified" and routes[0][4] != routes[1][4]:
            return "routes disagree: wirtinger S3 = %d, zvk S3 = %d" % (routes[0][4], routes[1][4])
        return None

    def ops(self) -> list[Op]:
        return [
            Op("diagram %d" % i, lambda t=s.dsl: self._run(t), lambda r, s=s: self._check(s, r), s.dsl)
            for i, s in enumerate(self.samples)
        ]


class BigDiagrams:
    """Long diagrams (validate, Wirtinger, extended) and wide ordinary points
    (validate, Wirtinger, ZvK, Tietze, SNF), one per rung of a size ladder."""

    LONG = ((8, 200), (12, 300))  # (strands, through events)
    WIDE = ((20, "r"), (20, "llr"), (24, "ll"), (30, "l"), (36, "r"))  # (m, sides of the points)

    def __init__(self, wl: dict, seed: int):
        self.wl = wl
        rng = random.Random("big-diagrams:%d" % seed)
        samples = [gen.long_diagram(rng, d, n) for d, n in self.LONG]
        samples += [gen.wide_diagram(rng, m, sides) for m, sides in self.WIDE]
        self.inputs = [(s, wl["dsl"].parse_diagram(s.dsl)) for s in samples]

    def _run_long(self, d):
        wl = self.wl
        report = wl["diagram"].check_theorem(d)
        w = wl["genpres"].wirtinger_presentation(d).presentation
        e = wl["genpres"].extended_wirtinger(d).presentation
        return verdict_of(report), w, e

    def _run_wide(self, d):
        wl = self.wl
        report = wl["diagram"].check_theorem(d)
        w = wl["genpres"].wirtinger_presentation(d).presentation
        z = wl["genpres"].zvk_presentation(d.d, wl["genpres"].diagram_braid_monodromy(d))
        routes = []
        for p in (w, z):
            q, transcript = wl["fpgroups"].tietze_simplify(p)
            routes.append((p, q, transcript, wl["abelian"].abelianization(q)))
        return verdict_of(report), routes

    def _check(self, sample: gen.Sample, result) -> str | None:
        if sample.verified and result[0] != "Verified":
            return "verdict %s on a diagram Verified by construction" % result[0]
        if sample.shape == "long":
            _, w, e = result
            if len(w.generators) != sample.wirtinger_gens:
                return "wirtinger has %d generators, expected %d" % (len(w.generators), sample.wirtinger_gens)
            if e != w:
                return "extended presentation differs from Wirtinger although region B is valid"
            return None
        for name, (p, q, transcript, ab) in zip(("wirtinger", "zvk"), result[1]):
            if not _replays(self.wl, p, q, transcript):
                return "%s: Tietze transcript does not replay" % name
            if not _abelian_is_free(ab, sample.components):
                return "%s: abelianization %s, expected Z^%d" % (name, ab, sample.components)
        return None

    def ops(self) -> list[Op]:
        ops = []
        for i, (s, d) in enumerate(self.inputs):
            if s.shape == "long":
                label, run = "%d: long, %d events" % (i, len(d.events)), lambda d=d: self._run_long(d)
            else:
                label, run = "%d: wide, m=%d, %d points" % (i, d.d, len(d.events)), lambda d=d: self._run_wide(d)
            ops.append(Op(label, run, lambda r, s=s: self._check(s, r), s.dsl))
        return ops


WORKLOADS = {
    "corpus-profile": CorpusProfile,
    "hypo": Hypo,
    "crosscheck": Crosscheck,
    "big-diagrams": BigDiagrams,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    label: str
    seconds: float
    kernel: float  # kernel seconds while the op ran: the machine's speed then
    failure: str | None
    dsl: str


def kernel_seconds() -> float:
    """Time of a fixed pure-Python kernel, a gauge of how fast the shared
    machine runs just now."""
    gc.disable()  # a collection of the program's garbage is not machine speed
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Gauge:
    """Times the kernel around each op and, from a timer signal, every
    GAUGE_INTERVAL seconds while it runs; the time taken by those samples
    is not counted as op time."""

    def __init__(self):
        self.samples: list[float] = []  # every kernel time of the run
        self._inside: list[float] = []
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inside.append(kernel_seconds())
        self._stolen += time.perf_counter() - t0

    def time(self, fn) -> tuple[float, float]:
        """Run ``fn``; return its seconds and the median kernel time around
        and during it."""
        self._inside = [kernel_seconds()]
        self._stolen = 0.0
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL, GAUGE_INTERVAL)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._inside.append(kernel_seconds())
        self.samples += self._inside
        return seconds - self._stolen, statistics.median(self._inside)


def run_op(op: Op, gauge: Gauge | None = None, tracer=None, op_id=None) -> Outcome:
    """Time one op (the wirtlab calls only), then check its output."""
    span = None
    if tracer is not None:
        tracer.op_id = op_id
        span = tracer.begin("op")
    outcome: list = [None, None]

    def call():
        try:
            outcome[0] = op.run()
        except Exception as exc:  # an op that raises is counted as failed
            outcome[1] = "%s: %s" % (type(exc).__name__, exc)

    if gauge is None:
        t0 = time.perf_counter()
        call()
        seconds, kernel = time.perf_counter() - t0, 0.0
    else:
        seconds, kernel = gauge.time(call)
    if span is not None:
        tracer.end(span)
        tracer.op_id = None
    result, failure = outcome
    if failure is None:
        failure = op.check(result)
    return Outcome(op.label, seconds, kernel, failure, op.dsl)


def run_rounds(workload, budget: float, gauge: Gauge | None = None, tracer=None, idle=None):
    """Run whole rounds until ``budget`` seconds are spent: another round
    starts only if it is expected to end nearer the budget than stopping
    would.  ``idle`` is called between ops, untimed.  With a tracer, each op
    runs twice, untraced and traced, in alternating order.  Returns the
    untraced and the traced rounds."""
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        if plain:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) / 2 >= budget:
                return plain, traced
        index = len(plain)
        plain.append([])
        traced.append([])
        for j, op in enumerate(workload.ops()):
            modes = [False] if tracer is None else [False, True]
            if (index + j) % 2:
                modes.reverse()  # alternate which runs first
            for traced_mode in modes:
                if not traced_mode:
                    plain[-1].append(run_op(op, gauge))
                    continue
                undo = tracing.install(tracer, workload.wl)
                try:
                    traced[-1].append(run_op(op, None, tracer, (index, j)))
                finally:
                    tracing.uninstall(undo)
            if idle is not None:
                idle()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    that percentile, and how many samples lie beyond (fewer when the run
    has too few: then the maximum)."""
    s = sorted(latencies)
    i = len(s) - 1 - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def op_latencies(rounds: list[list[Outcome]]) -> list[float]:
    """One latency per distinct input: the median over the rounds that ran
    it, each scaled to the reference machine speed."""
    by_input: dict[str, list[float]] = {}
    for r in rounds:
        for o in r:
            by_input.setdefault(o.label, []).append(o.seconds * REFERENCE_KERNEL / o.kernel)
    return [statistics.median(v) for v in by_input.values()]


def end_to_end(setups: list[tuple[float, float]], rounds: list[list[Outcome]], gauge: Gauge) -> tuple[dict, list[str]]:
    """``setups`` holds (seconds, kernel seconds) of each set-up."""
    ops = [o for r in rounds for o in r]
    latencies = op_latencies(rounds)
    failed = sum(o.failure is not None for o in ops)
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(t * REFERENCE_KERNEL / k for t, k in setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * value, "ms"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        "times are scaled to a kernel time of %.4f ms (this run: fastest %.4f ms, median %.4f ms);"
        " unscaled median op %.3f ms" % (1000 * REFERENCE_KERNEL, 1000 * min(gauge.samples),
                                         1000 * statistics.median(gauge.samples),
                                         1000 * statistics.median(o.seconds for o in ops)),
        "setup_s      %.4f s (median of %d set-ups)" % (metrics["setup_s"][0], len(setups)),
        "ops_per_s    %.4f 1/s (ops per second of op time)" % metrics["ops_per_s"][0],
        "op_p50_ms    %.3f ms (%d inputs, each the median of its %d rounds)"
        % (metrics["op_p50_ms"][0], len(latencies), len(rounds)),
        "op_tail_ms   %.3f ms (p%.2f of %d inputs, %d beyond)" % (1000 * value, pct, len(latencies), beyond),
        "failed_ratio %.4f (%d of %d ops)" % (failed / len(ops), failed, len(ops)),
        "ok_ratio     %.4f" % metrics["ok_ratio"][0],
        "peak_rss_mb  %.1f MB" % metrics["peak_rss_mb"][0],
    ]
    return metrics, notes


def per_layer(tracer: tracing.Tracer, traced, untraced, setup_ids) -> tuple[dict, list[str]]:
    ops = [(i, j) for i, r in enumerate(traced) for j in range(len(r))]
    n = len(ops)
    self_s = tracer.self_times(ops)
    metrics = {}
    for name in tracing.TIME_METRICS:
        metrics[name + "_ms"] = (1000 * self_s.get(name, 0.0) / n, "ms")
    for name in tracing.COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0.0) / n, "count")
    space = tracer.space_log10
    metrics["homcount.space_log10"] = (sum(space) / len(space) if space else 0.0, "log10")
    setup_self = tracer.self_times(setup_ids)
    metrics["dsl.parse_setup_ms"] = (1000 * setup_self.get("dsl.parse", 0.0), "ms")
    op_traced = sum(o.seconds for r in traced for o in r)
    op_plain = sum(o.seconds for r in untraced for o in r)
    layers = sum(v for k, v in self_s.items() if k != "op")
    metrics["trace.op_ms"] = (1000 * op_traced / n, "ms")
    metrics["trace.self_sum_ms"] = (1000 * layers / n, "ms")
    metrics["trace.harness_ms"] = (1000 * self_s.get("op", 0.0) / n, "ms")
    metrics["trace.overhead_ms"] = (1000 * (op_traced - op_plain) / n, "ms")
    residual = metrics["trace.op_ms"][0] - metrics["trace.self_sum_ms"][0]
    notes = [
        "%d ops traced; per op: traced %.3f ms, untraced %.3f ms, layer self times sum to %.3f ms"
        % (n, metrics["trace.op_ms"][0], 1000 * op_plain / n, metrics["trace.self_sum_ms"][0]),
        "residual %.4f ms per op %s the tracing overhead %.4f ms per op"
        % (residual, "within" if abs(residual) <= abs(metrics["trace.overhead_ms"][0]) else "OUTSIDE",
           metrics["trace.overhead_ms"][0]),
    ]
    return metrics, notes


def report_failures(name: str, seed: int, rounds) -> None:
    seen = set()
    for r in rounds:
        for o in r:
            if o.failure is None or (o.label, o.failure) in seen:
                continue
            seen.add((o.label, o.failure))
            print("FAILED %s seed=%d op=%r: %s" % (name, seed, o.label, o.failure))
            for line in o.dsl.splitlines():
                print("    " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wirtlab" / "cli.py").is_file():
        print("error: no wirtlab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cls = WORKLOADS[args.workload]

    setups: list[tuple[float, float]] = []
    gauge = Gauge()

    def set_up():
        holder = []
        seconds, kernel = gauge.time(lambda: holder.append(cls(import_wirtlab(), args.seed)))
        setups.append((seconds, kernel))
        return holder[0]

    def set_up_again():  # spread over the run, so one slow spell cannot dominate
        if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= len(setups) * spacing:
            set_up()

    workload = set_up()
    wl = workload.wl
    start, spacing = time.perf_counter(), args.seconds / SETUP_REPEATS
    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, wl)
        tracer.op_id = "setup"
        cls(wl, args.seed)  # the same set-up again, under the tracer
        tracer.op_id = None
        tracing.uninstall(undo)
        plain, rounds = run_rounds(workload, args.seconds, tracer=tracer)
        metrics, notes = per_layer(tracer, rounds, plain, ["setup"])
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / ("trace-%s-%d.json" % (args.workload, args.seed)))
    else:
        rounds, _ = run_rounds(workload, args.seconds, gauge, idle=set_up_again)
        while len(setups) < SETUP_REPEATS:
            set_up()
        metrics, notes = end_to_end(setups, rounds, gauge)

    report_failures(args.workload, args.seed, rounds)
    ops = [o for r in rounds for o in r]
    failed = sum(o.failure is not None for o in ops)
    print("workload %s, seed %d, %d rounds of %d ops" % (args.workload, args.seed, len(rounds), len(rounds[0])))
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
