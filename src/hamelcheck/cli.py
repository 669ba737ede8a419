"""Command-line interface.

    hamelcheck verify theorem23 [--n N]
    hamelcheck verify section31 | section32
    hamelcheck verify lemma44 [--n N]
    hamelcheck verify lemma46 [--n N]
    hamelcheck verify prop43 [--trials K] [--seed S]
    hamelcheck probe even --n N --case ID
    hamelcheck run FILE

Output goes to stdout in --format human|tsv|jsonl; --trace adds the full
evaluation table (human format), built under its own work budget. Both
flags go before or after the subcommand; one given after it overrides one
before. An option's value follows it or is joined to it by "=", a unique
prefix of an option stands for it, and "--" ends the options. Exit codes: 0 every claim passed, 1
some claim failed, 2 usage or definition error, or stdout closed early.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Sequence

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

# theorem23's claims take the scalar line at any order, but its time grows
# as the cube of the order, so an order above this one needs --allow-large.
LINE_ORDER = 1001
# theorem23 took 11.7 s and 24 MiB in process at this order (5001: 8.5 s and
# 23 MiB), and its time grows as the cube of the order: above it,
# --allow-large does not help.
LINE_CEILING = 5501
# lemma44 and lemma46 read A by its 2(n+1) symmetry classes, each read of
# a chain testing each of its n + 1 atoms at one coordinate, in time about
# quadratic in the order: both build the one chain of mu_1 and read it by
# one class batch, and they share one guard. A CLI process on CPython 3.11
# with 2 cores took 0.07-0.11 s and 16 MiB for lemma44 and 0.07-0.08 s and
# 16 MiB for lemma46, about 0.07 s of it interpreter start and import, so
# an order above it needs --allow-large.
CLASS_ORDER = 101
# lemma44 took 0.13-0.15 s and 21 MiB at this order in a CLI process, and
# lemma46 0.14-0.17 s and 21 MiB: above it, --allow-large does not help.
CLASS_CEILING = 301
CLASS_GUARD = (
    CLASS_ORDER, "a chain of {m} closures read at 2*{m} classes (time quadratic in n)",
    CLASS_CEILING,
)


def run_definition_file(path: str):
    """The ``run`` command's runner. The definition-file front end is
    imported here, so that it is compiled only by a process that runs a
    file, never by ``verify`` or ``probe``."""
    from .definitions import run_definition_file as run

    return run(path)


# An option maps to its type, default and help. The type is int, str,
# bool (a flag that takes no value) or the tuple of values it accepts; a
# default of REQUIRED makes it required, and a name without "--" in front
# is a positional argument.
REQUIRED = object()
HELP = ("-h", "--help")
OUTPUT = {
    "--format": (("human", "tsv", "jsonl"), "human", "output format (default: human)"),
    "--trace": (bool, False, "emit the full evaluation table (human format)"),
}
BATCH = {
    "--n": (int, None, "odd order (default: batch)"),
    "--allow-large": (bool, False, None),  # the help quotes the command's guard
}

# Each command's words map to its runner, its batch orders when --n is
# omitted (none: the runner takes its options' values, in this order), its
# cost guard, if any, and its options besides OUTPUT. A guard is an order
# above which --allow-large is needed, what such an order costs ({n} the
# order, {m} = n + 1) and the order past which it is refused anyway: the
# help text, the error and the warning all read this one cost. A --trace
# table needs no guard, as the work meter bounds it. The table holds each
# runner's name, not the function: ``main`` looks the name up in
# this module on every call, so a wrapper installed on it at any time (the
# benchmark's tracer, a test's monkeypatch) is the one called.
COMMANDS = {
    ("verify", "theorem23"): ("verify_theorem_2_3", (1, 3, 5, 7, 9, 11), (
        LINE_ORDER, "a scalar line of {m} factors (time cubic in n)", LINE_CEILING,
    ), BATCH),
    ("verify", "section31"): ("verify_section_3_1", (), None, {}),
    ("verify", "section32"): ("verify_section_3_2", (), None, {}),
    ("verify", "lemma44"): ("verify_lemma_4_4", (1, 3, 5), CLASS_GUARD, BATCH),
    ("verify", "lemma46"): ("verify_lemma_4_6", (1, 3, 5), CLASS_GUARD, BATCH),
    ("verify", "prop43"): ("verify_prop_4_3", (), None, {
        "--trials": (int, 100, "number of random trials (default: 100)"),
        "--seed": (int, 42, "random seed (default: 42)"),
    }),
    ("probe", "even"): ("probe_even", (), None, {
        "--n": (int, REQUIRED, "even order"),
        "--case": (str, REQUIRED, f"candidate id ({', '.join(even_candidates(2))})"),
    }),
    ("run",): ("run_definition_file", (), None, {"path": (str, REQUIRED, "definition file to execute")}),
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _next_words(words: tuple[str, ...]) -> list[str]:
    """The words that can follow ``words`` in a command."""
    depth = len(words)
    return list(dict.fromkeys(key[depth] for key in COMMANDS if key[:depth] == words))


def _options(words: tuple[str, ...]) -> dict:
    """The options read after ``words``: the output flags before a command,
    none between its words, the output flags and its own after it."""
    command = COMMANDS.get(words)
    if command:
        return {**OUTPUT, **command[3]}
    return {} if words else OUTPUT


def _form(name: str, kind) -> str:
    if kind is bool or not name.startswith("-"):
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {_dest(name).upper()}"


def _usage(words: tuple[str, ...], options: dict) -> str:
    """``words`` and ``options`` as a usage line shows them, each option
    in brackets unless it is required."""
    parts = ["hamelcheck", *words]
    for name, (kind, default, _) in options.items():
        form = _form(name, kind)
        parts.append(form if default is REQUIRED else f"[{form}]")
    return " ".join(parts)


def _usage_line(words: tuple[str, ...]) -> str:
    line = f"usage: {_usage(words, {'-h': (bool, False, None), **_options(words)})}"
    if words in COMMANDS:
        return line
    return f"{line} {{{','.join(_next_words(words))}}} ..."


def _help(words: tuple[str, ...]) -> str:
    lines = [_usage_line(words), ""]
    if words not in COMMANDS:
        if not words:
            lines += ["Exact checks of higher-order convexity claims on a formal basis lattice.", ""]
        lines.append("commands:")
        lines += [f"  {_usage(key, spec[3])}"
                  for key, spec in COMMANDS.items() if key[:len(words)] == words]
        lines.append("")
    rows = [("-h, --help", "show this help message and exit")]
    for name, (kind, _, text) in _options(words).items():
        if name == "--allow-large":
            limit, cost, _ = COMMANDS[words][2]
            text = f"permit orders above {limit} that need " + cost.format(n="n", m="(n+1)")
        rows.append((_form(name, kind), text))
    width = max(len(form) for form, _ in rows)
    lines.append("options:")
    lines += [f"  {form:<{width}}  {text}" for form, text in rows]
    return "\n".join(lines)


def _write(text: str) -> bool:
    """Print ``text`` to stdout; False if the reader closed it early."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # As the Python docs advise (``| head``), point stdout at devnull,
        # so that the flush at exit does not fail again and print
        # "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _fail(words: tuple[str, ...], message: str):
    print(f"{_usage_line(words)}\nhamelcheck: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _option(token: str, names: Sequence[str], words: tuple[str, ...]) -> tuple[str, str | None] | None:
    """What ``token`` is among the option ``names``, as argparse read it:
    None for a positional argument, else the option's name (empty when it
    is unknown) and the value joined to it by "=", if any. A unique prefix of
    a name stands for it; a negative number (``-5``, ``-1.5``, ``-.5``) is
    positional."""
    if not token.startswith("-") or token == "-":
        return None
    key, eq, value = token.partition("=")
    found = [key] if key in names else [name for name in names if name.startswith(key)]
    if len(found) > 1:
        _fail(words, f"ambiguous option: {key} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    # argparse's negative number: "-" and digits, or "-", digits or none,
    # "." and digits.
    whole, dot, fraction = token[1:].partition(".")
    number = (fraction if dot else whole).isdecimal() and (not whole or whole.isdecimal())
    if number or " " in token:
        return None
    return "", None


def _value(name: str, kind, value: str, words: tuple[str, ...]):
    """``value`` read as the option ``name`` of type ``kind``."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _fail(words, f"argument {name}: invalid int value: {value!r}")
    if kind is not str and value not in kind:
        _fail(words, f"argument {name}: invalid choice: {value!r} "
                     f"(choose from {', '.join(map(repr, kind))})")
    return value


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` once, left to right, against COMMANDS. The result
    names the command's runner, batch orders and guard, the options its
    runner takes (``takes``) and every option's value: the last one given,
    else its default. -h or --help prints the help of the words read so far
    and exits 0; a usage error prints the usage and one error line to
    stderr and exits 2. An unknown option or extra argument is reported
    after the rest is read, so a -h after it still prints the help."""
    words: tuple[str, ...] = ()
    command = None
    options = OUTPUT
    names = [*HELP, *options]
    values = {"format": "human", "trace": False}
    positional: list[str] = []
    extra: list[str] = []
    ended = False
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and not ended:
            ended = True
            continue
        hit = None if ended else _option(token, names, words)
        if hit is None:
            if command is None:
                if token not in _next_words(words):
                    _fail(words, f"invalid choice: {token!r} (choose from "
                                 f"{', '.join(map(repr, _next_words(words)))})")
                words += (token,)
                command = COMMANDS.get(words)
                options = _options(words)
                names = [*HELP, *(name for name in options if name.startswith("-"))]
                if command:
                    positional = [name for name in command[3] if not name.startswith("-")]
                    values.update((_dest(name), spec[1]) for name, spec in command[3].items())
            elif positional:
                values[_dest(positional.pop(0))] = token
            else:
                extra.append(token)
            continue
        name, value = hit
        if not name:
            extra.append(token)
            continue
        if name in HELP or options[name][0] is bool:
            if value is not None:
                _fail(words, f"argument {name}: ignored explicit argument {value!r}")
            if name in HELP:
                raise SystemExit(0 if _write(_help(words)) else 2)
            values[_dest(name)] = True
            continue
        if value is None:
            if i == len(argv) or argv[i] == "--" or _option(argv[i], names, words) is not None:
                _fail(words, f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        values[_dest(name)] = _value(name, options[name][0], value, words)
    if command is None:
        _fail(words, f"a command is required ({', '.join(_next_words(words))})")
    missing = [name for name in command[3] if values[_dest(name)] is REQUIRED]
    if missing:
        _fail(words, f"the following arguments are required: {', '.join(missing)}")
    if extra:
        _fail(words, f"unrecognized arguments: {' '.join(extra)}")
    runner, batch, guard, own = command
    return SimpleNamespace(runner=runner, batch=batch, guard=guard,
                           takes=tuple(map(_dest, own)), **values)


def _calls(args: SimpleNamespace) -> list[tuple]:
    """The runner's arguments, one tuple per report: each order to run for
    a scenario with batch orders, else the parsed values it takes. An
    order is checked to be odd before its cost is."""
    if not args.batch:
        return [tuple(getattr(args, name) for name in args.takes)]
    if args.n is None:
        return [(n,) for n in args.batch]
    require_odd(args.n)
    if args.guard and args.n > args.guard[0]:
        _, cost, ceiling = args.guard
        cost = cost.format(n=args.n, m=args.n + 1)
        if args.n > ceiling:
            raise HamelcheckError(f"order {args.n} needs {cost}; refused above order {ceiling}")
        if not args.allow_large:
            raise HamelcheckError(f"order {args.n} needs {cost}; pass --allow-large to proceed")
        print(f"warning: order {args.n} needs {cost}; this may take a while", file=sys.stderr)
    return [(args.n,)]


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    runner = globals()[args.runner]
    try:
        reports = [runner(*call) for call in _calls(args)]
        written = _write(render(reports, args.format, args.trace))
    except (HamelcheckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (the input is too large to evaluate)", file=sys.stderr)
        return 2
    if not written:
        return 2
    return 0 if all(r.passed for r in reports) else 1
