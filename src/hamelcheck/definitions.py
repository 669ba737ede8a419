"""Line-oriented scenario definition files.

Grammar (one statement per line, ``#`` starts a comment):

    symbol <name> [positive]
    additive <func>.<symbol> = <rational>
    point <name> = <term> [+ <term>]...        term: <rational>*<symbol> | <symbol> | 0
    function pospartpow <n> of <func>
    function [abs] tabulated { <point> : <rational> [, ...] }
    measure <name> = dirac(<point>) | shift(<measure>, <point>) | scale(<rational>, <measure>)
                   | sum(<measure> [, <measure>]...) | jclosure(<measure>, <point>)
    eval forward-diff at <point> with [<point>, ...] [expect <rational>]
    eval backward-diff at <point> with [<point>, ...] [expect <rational>]
    eval atom-mass <measure> at <point> [expect <rational>]
    eval jensen-probe n=<k> grid=box(<lo>..<hi>[;steps=<a>..<b>]) [expect <count>]

A line is tokens, with free whitespace between them: names (letters,
digits, ``_`` and ``-``, starting with a letter or ``_``), rationals
(``[-]digits[/digits|.digits]``), ``..``, and single other characters.
A declared name is one name token; symbols and points share a namespace.
``<point>`` is a declared point, ``0``, or an inline combination. An
``expect`` before the last ``at``, ``with`` or ``]`` of an eval line is a
name. Evals without ``expect`` pass with their value; ``jensen-probe``
expects zero violations, and is refused above order ``ORDER_CEILING``
(20,000), above ``PROBE_READS`` function values in all, or when its
expansions, one per distinct increment, would hold more than
``differences.EXPANSION_LIMIT`` keys in all. A ``pospartpow`` power is
refused above the same ``ORDER_CEILING``. A ``pospartpow`` function
holds its additive's values as declared so far, so no ``additive`` line
for it may follow, and a table lists each point once. A definition needs
at least one eval line; a file may start with a UTF-8 byte-order mark.
An error gives the column of the token it rejects, or column 1 when it
concerns the whole statement. An error in evaluating an eval line gives
that line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .basis import (
    ZERO, AdditiveFunctional, Point, Symbol, box_points, is_positive_increment, point_combine,
    unit,
)
from . import differences
from .differences import backward_diff, forward_diff, jensen_convexity_probe
from .errors import (
    DefinitionError,
    HamelcheckError,
    InvalidIncrement,
    ParseError,
    UnknownSymbol,
    UntabulatedPoint,
)
from .functions import Composite, PointFunction, PositivePartPower, Tabulated, tabulated_abs
from .measures import Dirac, JClosure, MeasureExpr, Scale, Shift, Sum, atom_mass
from .reports import Report, Value, make_claim


# A jensen-probe's order and a pospartpow power are refused above
# ORDER_CEILING when the line is parsed. Evaluated, a power of 10^8 ran
# 2 s and 10^9 22 s (CPython 3.11, 2 cores) before a value too long to
# render, and 10^10 ran out of memory.
# A jensen-probe's other bounds are checked before it builds anything, so
# that a probe that could never finish exits 2 instead. Its binomial row
# holds n + 2 integers of about n bits: order 20,001 took 0.4 s and 94 MiB,
# order 50,001 1.4 s and 490 MiB. Each sample reads n + 2 values: a box
# of 0..1000 over two symbols at order 3 reads 10,020,010 and took 16 s.
# Just inside both bounds, 99 samples of one increment at order 20,000
# took 5.2 s, and 666,666 samples at order 1 took 3.3-3.9 s and 14-16 MiB.
# The probe also holds an expansion of order + 2 keys for each distinct
# increment for the whole call, so their keys together are bounded by
# ``differences.EXPANSION_LIMIT``: 99 steps at order 20,000 held 1 GB
# after 10 s, still growing.
ORDER_CEILING = 20_000
PROBE_READS = 2_000_000


class Eval(NamedTuple):
    """One ``eval`` line. ``evaluate`` computes its value when the
    definition runs; ``expect`` None expects whatever it computes."""

    line: int
    text: str
    evaluate: Callable[[], Value]
    expect: Fraction | None


class ScenarioDefinition:
    def __init__(self, name: str):
        self.name = name
        self.symbols: dict[str, Symbol] = {}
        self.additives: dict[str, dict[Symbol, Fraction]] = {}
        self.points: dict[str, Point] = {}
        self.function: PointFunction | None = None
        self.measures: dict[str, MeasureExpr] = {}
        self.evals: list[Eval] = []


# A name, a rational, ``..``, or any other single non-blank character.
_TOKEN = re.compile(r"(?P<name>[^\W\d][\w-]*)|-?\d+(?:[/.]\d+)?|\.\.|\S")


class Token(NamedTuple):
    text: str
    col: int  # 1-based, as error messages give it
    end: int  # offset in the line just past the token
    is_name: bool


def _starts(tokens: list[Token], *texts: str) -> bool:
    return [tok.text for tok in tokens[:len(texts)]] == list(texts)


def _cut(tokens: list[Token], text: str) -> tuple[list[Token], Token | None, list[Token]]:
    """``str.partition`` for tokens, at the first ``text`` token (None when absent)."""
    for i, tok in enumerate(tokens):
        if tok.text == text:
            return tokens[:i], tok, tokens[i + 1:]
    return tokens, None, []


class _Parser:
    def __init__(self, name: str):
        self.defn = ScenarioDefinition(name)
        self.lineno = 0
        self.text = ""
        self.read_additive: str | None = None  # the additive the function reads

    def fail(self, message: str, tokens: list[Token] = (), error=ParseError) -> DefinitionError:
        """An error at the first of ``tokens``; at column 1 when there are none."""
        return error(message, self.lineno, tokens[0].col if tokens else 1)

    def span(self, tokens: list[Token]) -> str:
        """The line's text from the first of ``tokens`` to the end of the last."""
        return self.text[tokens[0].col - 1:tokens[-1].end] if tokens else ""

    def bad(self, message: str, tokens: list[Token], error=ParseError) -> DefinitionError:
        return self.fail(f"{message} {self.span(tokens)!r}", tokens, error)

    def lookup(self, tokens: list[Token], table: dict):
        if len(tokens) != 1 or tokens[0].text not in table:
            raise self.bad("unknown name", tokens, UnknownSymbol)
        return table[tokens[0].text]

    def name(self, tokens: list[Token]) -> str:
        """The name a statement declares: one name token."""
        if len(tokens) != 1 or not tokens[0].is_name:
            raise self.bad("bad name", tokens)
        return tokens[0].text

    def number(self, tokens: list[Token], kind: type = Fraction, what: str = "rational"):
        """The one token of ``tokens`` read as ``kind``. A rational with no
        ``/`` or ``.`` is read through ``int``, which is faster than
        ``Fraction`` and gives the same value or the same error."""
        try:
            (tok,) = tokens
            text = tok.text
            if kind is Fraction and "/" not in text and "." not in text:
                return int(text)
            return kind(text)
        except (ValueError, ZeroDivisionError):
            raise self.bad(f"bad {what}", tokens) from None

    def entries(self, tokens: list[Token], sep: str, message="empty list entry") -> list:
        """``tokens`` split at each ``sep``, in one pass; an empty entry
        fails at a ``sep`` next to it."""
        groups, start = [], 0
        for i, tok in enumerate(tokens):
            if tok.text == sep:
                if i == start or i == len(tokens) - 1:
                    raise self.fail(message, [tok])
                groups.append(tokens[start:i])
                start = i + 1
        return groups + [tokens[start:]] if tokens else groups

    def point(self, tokens: list[Token]) -> Point:
        if not tokens:
            raise self.fail("empty point expression")
        if len(tokens) == 1 and (tokens[0].text == "0" or tokens[0].text in self.defn.points):
            return self.defn.points.get(tokens[0].text, ZERO)
        terms = []
        for term in self.entries(tokens, "+", "empty term in point expression"):
            coeff_tokens, star, sym_tokens = _cut(term, "*")
            coeff = 1 if star is None else self.number(coeff_tokens)
            sym = self.lookup(coeff_tokens if star is None else sym_tokens, self.defn.symbols)
            terms.append((coeff, unit(sym)))
        return point_combine(terms)

    def increment(self, tokens: list[Token]) -> Point:
        p = self.point(tokens)
        if not is_positive_increment(p):
            raise InvalidIncrement(
                f"line {self.lineno}, col {tokens[0].col}: increment {self.span(tokens)!r} "
                "is not a positive combination of positive-declared symbols"
            )
        return p

    def parse(self, source: str) -> ScenarioDefinition:
        for self.lineno, self.text in enumerate(source.splitlines(), 1):
            matches = _TOKEN.finditer(self.text.partition("#")[0])
            tokens = [Token(m[0], m.start() + 1, m.end(), m.lastgroup == "name") for m in matches]
            if not tokens:
                continue
            if tokens[0].text not in _HANDLERS:
                raise self.bad("unknown statement", tokens[:1])
            _HANDLERS[tokens[0].text](self, tokens[1:])
        return self.defn

    # statement handlers: each takes the tokens after its keyword

    def stmt_symbol(self, tokens: list[Token]) -> None:
        positive = len(tokens) > 1 and tokens[-1].text == "positive"
        tokens = tokens[:len(tokens) - positive]
        two_words = len(tokens) > 1 and tokens[0].is_name and tokens[1].is_name
        if not tokens or two_words:
            raise self.fail("expected: symbol <name> [positive]")
        name = self.name(tokens)
        if name in self.defn.symbols or name in self.defn.points:
            kind = "symbol" if name in self.defn.symbols else "name"
            raise self.fail(f"{kind} {name!r} already declared", tokens)
        self.defn.symbols[name] = Symbol(name, positive=positive)

    def stmt_additive(self, tokens: list[Token]) -> None:
        lhs, eq, value = _cut(tokens, "=")
        if eq is None:
            raise self.fail("expected: additive <func>.<symbol> = <rational>")
        func, dot, sym_tokens = _cut(lhs, ".")
        if dot is None or len(func) != 1 or not func[0].is_name or not sym_tokens:
            raise self.fail("additive name must look like <func>.<symbol>", lhs)
        if func[0].text == self.read_additive:
            raise self.fail(f"additive {func[0].text!r} is already read by the function", func)
        sym = self.lookup(sym_tokens, self.defn.symbols)
        values = self.defn.additives.setdefault(func[0].text, {})
        if sym in values:
            raise self.fail(f"value for {self.span(lhs)!r} already assigned", lhs)
        values[sym] = self.number(value)

    def stmt_point(self, tokens: list[Token]) -> None:
        name_tokens, eq, expr = _cut(tokens, "=")
        if eq is None or not name_tokens:
            raise self.fail("expected: point <name> = <combination>")
        name = self.name(name_tokens)
        if name in self.defn.points or name in self.defn.symbols:
            raise self.fail(f"name {name!r} already declared", name_tokens)
        self.defn.points[name] = self.point(expr)

    def stmt_function(self, tokens: list[Token]) -> None:
        if self.defn.function is not None:
            raise self.fail("a definition file declares exactly one function")
        if not tokens:
            raise self.fail("expected a function form")
        if tokens[0].text == "pospartpow":
            if len(tokens) != 4 or tokens[2].text != "of":
                raise self.fail("expected: function pospartpow <n> of <func>")
            power = self.number(tokens[1:2], int, "power")
            if power < 1:
                raise self.fail("power must be >= 1", tokens[1:2])
            if power > ORDER_CEILING:
                raise self.fail(f"power must be <= {ORDER_CEILING}", tokens[1:2])
            values = self.lookup(tokens[3:], self.defn.additives)
            self.read_additive = tokens[3].text
            self.defn.function = Composite(PositivePartPower(power), AdditiveFunctional(values))
            return
        take_abs = tokens[0].text == "abs"
        head, body = tokens[take_abs:take_abs + 1], tokens[take_abs + 1:]
        if not _starts(head, "tabulated"):
            raise self.bad("unknown function form", head)
        if not _starts(body, "{") or body[-1].text != "}":
            raise self.fail("tabulated values must be enclosed in { }")
        table: dict[Point, Fraction] = {}
        for entry in self.entries(body[1:-1], ","):
            key, colon, value = _cut(entry, ":")
            if colon is None:
                raise self.bad("expected <point> : <rational> in", entry)
            point = self.point(key)
            if point in table:
                raise self.fail(f"point {self.span(key)!r} already tabulated", key)
            table[point] = self.number(value)
        if not table:
            raise self.fail("tabulated function needs at least one entry")
        self.defn.function = tabulated_abs(table) if take_abs else Tabulated(table)

    def stmt_measure(self, tokens: list[Token]) -> None:
        name_tokens, eq, expr = _cut(tokens, "=")
        if eq is None or not name_tokens:
            raise self.fail("expected: measure <name> = <constructor>(...)")
        name = self.name(name_tokens)
        if name in self.defn.measures:
            raise self.fail(f"measure {name!r} already declared", name_tokens)
        head_tokens, paren, body = _cut(expr, "(")
        if not _starts(body[-1:], ")"):
            raise self.fail("measure constructor needs parentheses", expr)
        args = self.entries(body[:-1], ",")
        head = self.span(head_tokens)
        if head not in _ARITY:
            raise self.bad("unknown measure constructor", head_tokens)
        arity = _ARITY[head]
        if arity and len(args) != arity:
            plural = "s" if arity > 1 else ""
            raise self.fail(f"{head} takes {arity} argument{plural}, got {len(args)}", head_tokens)
        if not args:
            raise self.fail(f"{head} needs at least one measure", head_tokens)
        measure_arg = partial(self.lookup, table=self.defn.measures)
        if head == "dirac":
            built: MeasureExpr = Dirac(self.point(args[0]))
        elif head == "shift":
            built = Shift(measure_arg(args[0]), self.increment(args[1]))
        elif head == "scale":
            built = Scale(self.number(args[0]), measure_arg(args[1]))
        elif head == "sum":
            built = Sum(tuple(measure_arg(a) for a in args))
        else:
            built = JClosure(measure_arg(args[0]), self.increment(args[1]))
        self.defn.measures[name] = built

    def stmt_eval(self, tokens: list[Token]) -> None:
        text = self.span(tokens)
        # ``expect`` and its value end the line; an ``expect`` before the
        # last ``at``, ``with`` or ``]`` names a point or a measure.
        last = max((i for i, t in enumerate(tokens) if t.text in ("at", "with", "]")), default=-1)
        mark = next((i for i, t in enumerate(tokens) if t.text == "expect" and i > last), None)
        expect: Fraction | None = None
        if mark == len(tokens) - 1:
            raise self.fail("expected a value after `expect`", tokens[-1:])
        if mark is not None:
            tokens, value = tokens[:mark], tokens[mark + 1:]
            expect = self.number(value)
        if not tokens:
            raise self.fail("empty eval")
        kind, args = tokens[0].text, tokens[1:]
        if kind in ("forward-diff", "backward-diff", "jensen-probe") and not self.defn.function:
            raise self.fail("no function declared before this eval")

        if kind in ("forward-diff", "backward-diff"):
            op = backward_diff if kind == "backward-diff" else forward_diff
            if not _starts(args, "at"):
                raise self.fail("expected: ... at <point> with [<point>, ...]")
            # The point and the measure below may be named ``with`` or ``at``.
            at, with_, items = _cut(args[2:], "with")
            if with_ is None:
                raise self.fail("expected `with [<point>, ...]`")
            if not _starts(items, "[") or items[-1].text != "]":
                raise self.fail("increments must be enclosed in [ ]")
            increments = tuple(map(self.increment, self.entries(items[1:-1], ",")))
            if not increments:
                raise InvalidIncrement(
                    f"line {self.lineno}, col {items[0].col}: empty increment list"
                )
            evaluate = partial(op, self.defn.function, self.point(args[1:2] + at), increments)

        elif kind == "atom-mass":
            measure, at, where = _cut(args[1:], "at")
            measure = args[:1] + measure
            if at is None or not where:
                raise self.fail("expected: eval atom-mass <measure> at <point>")
            evaluate = partial(
                atom_mass, self.lookup(measure, self.defn.measures), self.point(where)
            )

        elif kind == "jensen-probe":
            evaluate = self._jensen_probe(args)
            if expect is None:
                expect = Fraction(0)
            elif not value[0].text.isdecimal():
                raise self.bad("bad count", value)

        else:
            raise self.bad("unknown eval request", tokens[:1])
        self.defn.evals.append(Eval(self.lineno, text, evaluate, expect))

    def _jensen_probe(self, tokens: list[Token]) -> Callable[[], int]:
        """The violation count of the probe that ``tokens`` describe. Its
        samples take every positive symbol declared when the file runs."""
        fields: dict[str, list[Token]] = {}
        while _starts(tokens[1:2], "=") and tokens[0].text in {"n", "grid"} - fields.keys():
            key = tokens[0].text
            value, close, tokens = _cut(tokens[2:], ")") if key == "grid" else (
                tokens[2:3], None, tokens[3:])
            fields[key] = value + [close] if close else value
        if tokens or len(fields) != 2:
            raise self.fail("expected: eval jensen-probe n=<k> grid=box(lo..hi[;steps=a..b])")
        order = self.number(fields["n"], int, "order")
        if order < 1:
            raise self.fail("order must be >= 1", fields["n"])
        if order > ORDER_CEILING:
            raise self.fail(f"order must be <= {ORDER_CEILING}", fields["n"])
        grid = fields["grid"]
        if not _starts(grid, "box", "(") or grid[-1].text != ")":
            raise self.bad("bad grid spec", grid)
        box, semicolon, option = _cut(grid[2:-1], ";")
        lo, hi = self._int_range(box)
        steps = (1, 1)
        if semicolon:
            if not option:
                raise self.fail("empty grid option after ';'", [semicolon])
            if not _starts(option, "steps", "="):
                raise self.bad("bad grid option", option)
            steps = self._int_range(option[2:])
            if steps[0] < 1:
                raise self.fail("steps must start at 1 or above", option)
        symbols, f, line = self.defn.symbols, self.defn.function, self.lineno

        def probe() -> int:
            units = [unit(s) for s in symbols.values() if s.positive]
            if not units:
                raise DefinitionError("jensen-probe needs at least one positive symbol", line)
            width = hi - lo + 1
            distinct = len(units) * (steps[1] - steps[0] + 1)
            count = width ** len(units) * distinct
            if count * (order + 2) > PROBE_READS:
                raise DefinitionError(
                    f"jensen-probe of {count} samples at order {order} reads {order + 2} "
                    f"values per sample; refused above {PROBE_READS} values in all",
                    line,
                )
            limit = differences.EXPANSION_LIMIT
            if distinct * (order + 2) > limit:
                raise DefinitionError(
                    f"jensen-probe of {distinct} distinct increments at order {order} holds "
                    f"{order + 2} keys per increment; refused above {limit} keys in all",
                    line,
                )
            # One Point per (symbol, step), shared by every box point: the
            # probe finds each sample's chain by equality of its increment
            # tuple, so equal increments share one chain. The probe reads
            # each sample once, in order, so the box is streamed and one
            # box point is held at a time.
            increments = [step * u for u in units for step in range(steps[0], steps[1] + 1)]
            samples = (
                (x, h)
                for x in box_points(units, lo, width, range(width ** len(units)))
                for h in increments
            )
            return len(jensen_convexity_probe(f, order, samples))

        return probe

    def _int_range(self, tokens: list[Token]) -> tuple[int, int]:
        lo, _, hi = _cut(tokens, "..")
        try:
            (lo_tok,), (hi_tok,) = lo, hi
            bounds = int(lo_tok.text), int(hi_tok.text)
            if bounds[0] <= bounds[1]:
                return bounds
        except ValueError:
            pass
        raise self.bad("bad range", tokens)


# The arguments each measure constructor takes; 0 for one or more (sum).
_ARITY = {"dirac": 1, "shift": 2, "scale": 2, "sum": 0, "jclosure": 2}

_HANDLERS = {key: getattr(_Parser, f"stmt_{key}") for key in (
    "symbol", "additive", "point", "function", "measure", "eval")}


def parse_definition(source: str, name: str = "<definition>") -> ScenarioDefinition:
    """Parse definition text; raises ParseError/UnknownSymbol/InvalidIncrement."""
    return _Parser(name).parse(source)


def run_definition(defn: ScenarioDefinition) -> Report:
    """Execute every evaluation request and assemble the report. A
    definition with no request is an error: it would pass with 0 claims.
    An error in an evaluation names its eval line."""
    if not defn.evals:
        raise DefinitionError("no eval line: nothing to check")
    claims = []
    for ev in defn.evals:
        try:
            value = ev.evaluate()
        except DefinitionError:
            raise
        except UntabulatedPoint as exc:
            raise DefinitionError(
                f"evaluation needs a value outside the tabulated domain ({exc})",
                ev.line,
            ) from exc
        except HamelcheckError as exc:
            raise DefinitionError(str(exc), ev.line) from exc
        except RecursionError as exc:
            raise DefinitionError(
                "input nests too deeply to evaluate (recursion limit reached)", ev.line
            ) from exc
        claims.append(make_claim(
            ev.text, f"line {ev.line}", value, value if ev.expect is None else ev.expect
        ))
    return Report(defn.name, tuple(claims))


def run_definition_file(path: str | Path) -> Report:
    """Parse and execute a definition file."""
    path = Path(path)
    defn = parse_definition(path.read_text(encoding="utf-8-sig"), name=path.stem)
    return run_definition(defn)
