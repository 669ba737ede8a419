"""Command-line interface.

    hamelcheck verify theorem23 [--n N]
    hamelcheck verify section31 | section32
    hamelcheck verify lemma44 [--n N]
    hamelcheck verify lemma46 [--n N]
    hamelcheck verify prop43 [--trials K] [--seed S]
    hamelcheck probe even --n N --case ID
    hamelcheck run FILE

Output goes to stdout in --format human|tsv|jsonl; --trace adds the full
evaluation table (human format). Exit codes: 0 every claim passed,
1 some claim failed, 2 usage or definition error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .definitions import run_definition_file
from .errors import HamelcheckError
from .reports import Report, all_passed, render
from .scenarios import (
    default_orders,
    even_candidates,
    probe_even,
    verify_lemma_4_4,
    verify_lemma_4_6,
    verify_prop_4_3,
    verify_section_3_1,
    verify_section_3_2,
    verify_theorem_2_3,
)

LARGE_ORDER = 11


class UsageError(HamelcheckError):
    pass


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", dest="format_local", choices=("human", "tsv", "jsonl"), default=None,
        help="output format (default: human)",
    )
    common.add_argument(
        "--trace", dest="trace_local", action="store_true", default=None,
        help="emit the full evaluation table (human format)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamelcheck",
        description="Exact checks of higher-order convexity claims on a formal basis lattice.",
    )
    parser.add_argument(
        "--format", dest="format_global", choices=("human", "tsv", "jsonl"), default=None
    )
    parser.add_argument("--trace", dest="trace_global", action="store_true", default=False)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common()

    verify = sub.add_parser("verify", help="run a built-in scenario")
    vsub = verify.add_subparsers(dest="scenario", required=True)

    for name, large_cost in (
        ("theorem23", "with a human-format --trace (a 2^(n+1)-row table)"),
        ("section31", None),
        ("section32", None),
        ("lemma44", "((n+1)*2^n-point A-sets)"),
        ("lemma46", "((n+1)*2^n-point A-sets)"),
    ):
        p = vsub.add_parser(name, parents=[common])
        if large_cost:
            p.add_argument("--n", type=int, default=None, help="odd order (default: batch)")
            p.add_argument(
                "--allow-large", action="store_true",
                help=f"permit orders above {LARGE_ORDER} {large_cost}",
            )
        p.set_defaults(runner=_SCENARIO_RUNNERS[name])

    p = vsub.add_parser("prop43", parents=[common])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(runner=_run_prop43)

    probe = sub.add_parser("probe", help="probe a documented even-order candidate")
    psub = probe.add_subparsers(dest="probe_kind", required=True)
    p = psub.add_parser("even", parents=[common])
    p.add_argument("--n", type=int, required=True, help="even order")
    p.add_argument("--case", required=True, help=f"candidate id ({', '.join(even_candidates(2))})")
    p.set_defaults(runner=_run_probe_even)

    p = sub.add_parser("run", parents=[common], help="execute a definition file")
    p.add_argument("path")
    p.set_defaults(runner=_run_definition)

    return parser


def _tracing(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace_local", None) or args.trace_global)


def _format(args: argparse.Namespace) -> str:
    return getattr(args, "format_local", None) or args.format_global or "human"


def _orders(args: argparse.Namespace, scenario: str, guarded: bool = True) -> list[int]:
    """The orders to run. ``guarded`` says that the scenario's cost is
    exponential in the order, so that orders above ``LARGE_ORDER`` need
    ``--allow-large``."""
    if args.n is None:
        return list(default_orders(scenario))
    if guarded and args.n > LARGE_ORDER:
        if not args.allow_large:
            raise UsageError(
                f"order {args.n} needs 2^{args.n + 1} evaluations; "
                "pass --allow-large to proceed"
            )
        print(
            f"warning: order {args.n} needs 2^{args.n + 1} evaluations; this may take a while",
            file=sys.stderr,
        )
    return [args.n]


def _run_theorem23(args) -> list[Report]:
    # The claims take the scalar-line route, polynomial in n; only the
    # trace's subset-sum table grows as 2^(n+1), and only the human
    # format renders it.
    table = _tracing(args) and _format(args) == "human"
    return [verify_theorem_2_3(n) for n in _orders(args, "theorem23", table)]


def _run_section31(args) -> list[Report]:
    return [verify_section_3_1()]


def _run_section32(args) -> list[Report]:
    return [verify_section_3_2()]


def _run_lemma44(args) -> list[Report]:
    return [verify_lemma_4_4(n) for n in _orders(args, "lemma44")]


def _run_lemma46(args) -> list[Report]:
    return [verify_lemma_4_6(n) for n in _orders(args, "lemma46")]


def _run_prop43(args) -> list[Report]:
    return [verify_prop_4_3(args.trials, args.seed)]


def _run_probe_even(args) -> list[Report]:
    return [probe_even(args.n, args.case)]


def _run_definition(args) -> list[Report]:
    return [run_definition_file(args.path)]


_SCENARIO_RUNNERS = {
    "theorem23": _run_theorem23,
    "section31": _run_section31,
    "section32": _run_section32,
    "lemma44": _run_lemma44,
    "lemma46": _run_lemma46,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = _format(args)
    trace = _tracing(args)
    try:
        reports = args.runner(args)
        output = render(reports, fmt, trace)
    except (HamelcheckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(
            "error: input nests too deeply to evaluate (recursion limit reached)",
            file=sys.stderr,
        )
        return 2
    print(output)
    return 0 if all_passed(reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
