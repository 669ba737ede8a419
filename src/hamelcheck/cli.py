"""Command-line interface.

    hamelcheck verify theorem23 [--n N]
    hamelcheck verify section31 | section32
    hamelcheck verify lemma44 [--n N]
    hamelcheck verify lemma46 [--n N]
    hamelcheck verify prop43 [--trials K] [--seed S]
    hamelcheck probe even --n N --case ID
    hamelcheck run FILE

Output goes to stdout in --format human|tsv|jsonl; --trace adds the full
evaluation table (human format). Both flags go before or after the
subcommand; one given after it overrides one before. Exit codes: 0 every
claim passed, 1 some claim failed, 2 usage or definition error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .definitions import run_definition_file
from .errors import HamelcheckError
from .reports import render
from .scenarios import (
    even_candidates,
    probe_even,
    require_odd,
    verify_lemma_4_4,
    verify_lemma_4_6,
    verify_prop_4_3,
    verify_section_3_1,
    verify_section_3_2,
    verify_theorem_2_3,
)

LARGE_ORDER = 11
# theorem23's claims take the scalar line at any order, but its time grows
# as the cube of the order, so an order above this one needs --allow-large.
LINE_ORDER = 1001


class UsageError(HamelcheckError):
    pass


def _always(args: argparse.Namespace) -> bool:
    return True


def _human_trace(args: argparse.Namespace) -> bool:
    # theorem23's claims take the scalar-line route, polynomial in n; only
    # the trace's subset-sum table grows as 2^(n+1), and only the human
    # format renders it.
    return args.trace and args.format == "human"


def _output_flags(
    parser: argparse.ArgumentParser, fmt=argparse.SUPPRESS, trace=argparse.SUPPRESS
) -> argparse.ArgumentParser:
    """Declare --format and --trace. The top parser gives their defaults;
    the parent parser of every command leaves them unset unless given, so
    a flag after the subcommand overrides one before it."""
    parser.add_argument(
        "--format", choices=("human", "tsv", "jsonl"), default=fmt,
        help="output format (default: human)",
    )
    parser.add_argument(
        "--trace", action="store_true", default=trace,
        help="emit the full evaluation table (human format)",
    )
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each command's parser sets ``runner``, the name of its runner in
    this module, and either the names of the parsed values it takes
    (``takes``) or its batch orders (``batch``). Built on the first call
    and reused for the life of the process."""
    parser = _output_flags(
        argparse.ArgumentParser(
            prog="hamelcheck",
            description="Exact checks of higher-order convexity claims on a formal basis lattice.",
        ),
        "human", False,
    )
    parser.set_defaults(takes=(), batch=())
    flags = [_output_flags(argparse.ArgumentParser(add_help=False))]
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a built-in scenario")
    vsub = verify.add_subparsers(dest="scenario", required=True)
    # The verify scenarios: runner, batch orders when --n is omitted (none:
    # it takes no --n), and its cost guards. A guard is an order above which
    # --allow-large is needed, when it applies, and what such an order
    # costs, with {n} the order and {m} = n + 1: the help text, the error
    # and the warning all read this one cost, and the first guard that
    # applies is the one quoted. The parser is cached, so it holds each
    # runner's name, not the function: ``main`` looks the name up in this
    # module on every call, and a wrapper installed on it at any time (the
    # benchmark's tracer, a test's monkeypatch) is the one called.
    a_sets = ((LARGE_ORDER, _always, "{m}*2^{n}-point A-sets"),)
    for name, runner, batch, guards in (
        ("theorem23", "verify_theorem_2_3", (1, 3, 5, 7, 9, 11), (
            (LARGE_ORDER, _human_trace, "a 2^{m}-row table for a human-format --trace"),
            (LINE_ORDER, _always, "a scalar line of {m} factors (time cubic in n)"),
        )),
        ("section31", "verify_section_3_1", (), ()),
        ("section32", "verify_section_3_2", (), ()),
        ("lemma44", "verify_lemma_4_4", (1, 3, 5), a_sets),
        ("lemma46", "verify_lemma_4_6", (1, 3, 5), a_sets),
    ):
        p = vsub.add_parser(name, parents=flags)
        if batch:
            p.add_argument("--n", type=int, default=None, help="odd order (default: batch)")
            p.add_argument(
                "--allow-large", action="store_true",
                help="permit orders " + ", and ".join(
                    f"above {limit} that need " + cost.format(n="n", m="(n+1)")
                    for limit, _, cost in guards
                ),
            )
        p.set_defaults(runner=runner, batch=batch, guards=guards)

    p = vsub.add_parser("prop43", parents=flags)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(runner="verify_prop_4_3", takes=("trials", "seed"))

    probe = sub.add_parser("probe", help="probe a documented even-order candidate")
    psub = probe.add_subparsers(dest="probe_kind", required=True)
    p = psub.add_parser("even", parents=flags)
    p.add_argument("--n", type=int, required=True, help="even order")
    p.add_argument("--case", required=True, help=f"candidate id ({', '.join(even_candidates(2))})")
    p.set_defaults(runner="probe_even", takes=("n", "case"))

    p = sub.add_parser("run", parents=flags, help="execute a definition file")
    p.add_argument("path")
    p.set_defaults(runner="run_definition_file", takes=("path",))

    return parser


def _calls(args: argparse.Namespace) -> list[tuple]:
    """The runner's arguments, one tuple per report: each order to run for
    a scenario with batch orders, else the parsed values it takes. An
    order is checked to be odd before its cost is."""
    if not args.batch:
        return [tuple(getattr(args, name) for name in args.takes)]
    if args.n is None:
        return [(n,) for n in args.batch]
    require_odd(args.n)
    for limit, applies, cost in args.guards:
        if args.n > limit and applies(args):
            cost = cost.format(n=args.n, m=args.n + 1)
            if not args.allow_large:
                raise UsageError(f"order {args.n} needs {cost}; pass --allow-large to proceed")
            print(f"warning: order {args.n} needs {cost}; this may take a while", file=sys.stderr)
            break
    return [(args.n,)]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runner = globals()[args.runner]
    try:
        reports = [runner(*call) for call in _calls(args)]
        output = render(reports, args.format, args.trace)
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
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
