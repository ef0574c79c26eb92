"""Command-line front end.

Subcommands:
  validate     structural checks plus the theorem-hypothesis report
  wirtinger    Wirtinger presentation of a diagram
  extended     extended presentation (obstruction-aware variant)
  zvk          braid-monodromy presentation of a verified diagram
  simplify     Tietze-simplify a presentation file
  invariants   invariant profile of a presentation file
  compare      profile equality of two presentation files
  hypo-stats   hypocycloid singularity statistics
  hypo-diagram traced fold-quotient diagram, in the diagram DSL
  hypo-verify  orbifold group vs polygon Artin semidirect product

Validation verdicts (including hypothesis failures) are data and exit 0;
bad command lines and other user errors exit 2 with an error JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .diagram import CurveDiagram, check_theorem
from .dsl import parse_diagram, serialize_diagram
from .fpgroups import Presentation, tietze_simplify
from .genpres import (
    diagram_braid_monodromy,
    extended_wirtinger,
    wirtinger_presentation,
    zvk_presentation,
)
from .guards import ResourceGuardError
from .hypocycloid import HypoParams, hypo_stats, quotient_diagram, verify_case
from .profiles import DEFAULT_TARGETS, profile, profiles_equal

# diagram, DSL, configuration, tracing and usage errors all subclass ValueError
_USER_ERRORS = (ValueError, ResourceGuardError, OSError)


class UsageError(ValueError):
    """A command line the argument parser rejects."""


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the parent's class, so this covers them too
    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True, default=str)
    sys.stdout.write("\n")


def _load_diagram(path: str) -> CurveDiagram:
    text = Path(path).read_text(encoding="utf-8")
    return parse_diagram(text, name=Path(path).stem)


def _load_presentation(path: str) -> Presentation:
    try:
        return Presentation.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    except RecursionError:
        raise ValueError("%s: JSON is nested too deeply" % path) from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise ValueError("%s: %s" % (path, exc)) from None


def _parse_targets(spec: str) -> tuple[str, ...]:
    names = []
    for part in spec.split(","):
        part = part.strip().upper()
        if part:
            names.append(part)
    if not names:
        raise ValueError("no target groups given")
    return tuple(names)


def _cmd_validate(args) -> int:
    diagram = _load_diagram(args.file)
    theorem = check_theorem(diagram)
    _emit(
        {
            "schema": 1,
            "name": diagram.name,
            "d": diagram.d,
            "validation": theorem.validation.to_json(),
            "theorem": theorem.to_json(),
            "verdict": theorem.verdict,
        }
    )
    return 0


# the presentation each diagram command prints, by command name
_PRESENTATIONS = {
    "wirtinger": lambda d: wirtinger_presentation(d).presentation,
    "extended": lambda d: extended_wirtinger(d).presentation,
    "zvk": lambda d: zvk_presentation(d.d, diagram_braid_monodromy(d)),
}


def _cmd_presentation(args) -> int:
    p = _PRESENTATIONS[args.command](_load_diagram(args.file))
    if args.format == "plain":
        print(p.describe())
    elif args.format == "json":
        _emit(p.to_json())
    else:  # gap; argparse restricts the choices
        sys.stdout.write(p.to_gap())
    return 0


def _cmd_simplify(args) -> int:
    p = _load_presentation(args.file)
    q, transcript = tietze_simplify(p)
    _emit(
        {
            "schema": 1,
            "generators": list(q.generators),
            "presentation": q.to_json(),
            "moves": len(transcript.moves),
            "move_kinds": sorted(transcript.kinds()),
        }
    )
    return 0


def _cmd_invariants(args) -> int:
    p = _load_presentation(args.file)
    prof = profile(p, targets=_parse_targets(args.targets))
    _emit(prof.to_json())
    return 0


def _cmd_compare(args) -> int:
    targets = _parse_targets(args.targets)
    a = profile(_load_presentation(args.left), targets=targets)
    b = profile(_load_presentation(args.right), targets=targets)
    _emit(
        {
            "schema": 1,
            "equal": profiles_equal(a, b),
            "left": a.to_json(),
            "right": b.to_json(),
        }
    )
    return 0


def _cmd_hypo_stats(args) -> int:
    params = HypoParams(args.k, args.ell if args.ell is not None else args.k - 1)
    _emit(hypo_stats(params).to_json())
    return 0


def _cmd_hypo_diagram(args) -> int:
    sys.stdout.write(serialize_diagram(quotient_diagram(args.k)))
    return 0


def _cmd_hypo_verify(args) -> int:
    report = verify_case(args.k, targets=_parse_targets(args.targets))
    _emit(report.to_json())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wirtlab",
        description="Plane-curve diagram presentations and their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def diagram_cmd(name, func, help_text, with_format=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="diagram file in the .wd DSL")
        if with_format:
            sp.add_argument(
                "--format", choices=("plain", "json", "gap"), default="plain"
            )
        sp.set_defaults(func=func)
        return sp

    diagram_cmd("validate", _cmd_validate, "check diagram hypotheses", with_format=False)
    diagram_cmd("wirtinger", _cmd_presentation, "Wirtinger presentation")
    diagram_cmd("extended", _cmd_presentation, "extended (obstruction-aware) presentation")
    diagram_cmd("zvk", _cmd_presentation, "braid-monodromy presentation")

    sp = sub.add_parser("simplify", help="Tietze-simplify a presentation JSON file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_simplify)

    sp = sub.add_parser("invariants", help="invariant profile of a presentation JSON file")
    sp.add_argument("file")
    sp.add_argument("--targets", default=",".join(DEFAULT_TARGETS))
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("compare", help="profile equality of two presentation files")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--targets", default=",".join(DEFAULT_TARGETS))
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("hypo-stats", help="hypocycloid singularity statistics")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, default=None)
    sp.set_defaults(func=_cmd_hypo_stats)

    sp = sub.add_parser("hypo-diagram", help="traced fold-quotient diagram (DSL)")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_hypo_diagram)

    sp = sub.add_parser("hypo-verify", help="orbifold vs polygon Artin comparison")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--targets", default=",".join(DEFAULT_TARGETS))
    sp.set_defaults(func=_cmd_hypo_verify)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (as `| head` does).  Send what is still
        # buffered to devnull so that the flush at exit cannot fail again;
        # see "Note on SIGPIPE" in the documentation of the signal module.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _USER_ERRORS as exc:
        json.dump(
            {"schema": 1, "error": str(exc), "type": type(exc).__name__},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
