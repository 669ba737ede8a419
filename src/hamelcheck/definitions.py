"""Line-oriented scenario definition files.

Grammar (one statement per line, ``#`` starts a comment):

    symbol <name> [positive]
    additive <func>.<symbol> = <rational>
    point <name> = <term> [+ <term>]...        term: <rational>*<symbol> | <symbol> | 0
    function pospartpow <n> of <func>
    function [abs] tabulated { <point> : <rational> [, ...] }
    measure <name> = dirac(<point>)
    measure <name> = shift(<measure>, <point>)
    measure <name> = scale(<rational>, <measure>)
    measure <name> = sum(<measure> [, <measure>]...)
    measure <name> = jclosure(<measure>, <point>)
    eval forward-diff at <point> with [<point>, ...] [expect <rational>]
    eval backward-diff at <point> with [<point>, ...] [expect <rational>]
    eval atom-mass <measure> at <point> [expect <rational>]
    eval jensen-probe n=<k> grid=box(<lo>..<hi>[;steps=<a>..<b>]) [expect <count>]

``<point>`` is a declared point name, ``0``, or an inline combination.
Names must be declared before use. Evaluation requests without ``expect``
report their value and always pass; ``jensen-probe`` defaults to
expecting zero violations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .basis import (
    ZERO, AdditiveFunctional, Point, Symbol, is_positive_increment, lattice_box, unit,
)
from .differences import backward_diff, forward_diff, jensen_convexity_probe
from .errors import (
    DefinitionError,
    InvalidIncrement,
    ParseError,
    UnknownSymbol,
    UntabulatedPoint,
)
from .functions import Composite, PointFunction, PositivePartPower, Tabulated, tabulated_abs
from .measures import Dirac, JClosure, MeasureExpr, Scale, Shift, Sum, atom_mass
from .reports import Report, ReportBuilder, Value


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

    def functional(self, name: str) -> AdditiveFunctional:
        return AdditiveFunctional(self.additives[name])


def _col(line_text: str, token: str) -> int:
    """The column of ``token`` as a whole token of the line: not the ``e``
    of ``eval`` nor the ``t`` of ``point``. Names run over letters,
    digits, ``_`` and ``-``."""
    found = re.search(rf"(?<![\w-]){re.escape(token)}(?![\w-])", line_text)
    pos = found.start() if found else line_text.find(token)
    return pos + 1 if pos >= 0 else 1


class _Parser:
    def __init__(self, name: str):
        self.defn = ScenarioDefinition(name)
        self.lineno = 0
        self.text = ""

    def fail(self, message: str, token: str | None = None) -> ParseError:
        col = _col(self.text, token) if token else 1
        return ParseError(message, self.lineno, col)

    def unknown(self, name: str) -> UnknownSymbol:
        return UnknownSymbol(f"unknown name {name!r}", self.lineno, _col(self.text, name))

    def rational(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            raise self.fail(f"bad rational {text.strip()!r}", text.strip()) from None

    def point(self, text: str) -> Point:
        t = text.strip()
        if not t:
            raise self.fail("empty point expression")
        if t == "0":
            return ZERO
        if t in self.defn.points:
            return self.defn.points[t]
        if t in self.defn.symbols:
            return unit(self.defn.symbols[t])
        if "*" not in t and "+" not in t:
            raise self.unknown(t)
        acc = ZERO
        for term in t.split("+"):
            term = term.strip()
            if not term:
                raise self.fail("empty term in point expression", t)
            if "*" in term:
                coeff_text, _, sym_text = term.partition("*")
                coeff = self.rational(coeff_text)
                sym_text = sym_text.strip()
            else:
                coeff, sym_text = 1, term
            if sym_text not in self.defn.symbols:
                raise self.unknown(sym_text)
            acc = acc + coeff * unit(self.defn.symbols[sym_text])
        return acc

    def increment(self, text: str) -> Point:
        p = self.point(text)
        if not is_positive_increment(p):
            raise InvalidIncrement(
                f"line {self.lineno}: increment {text.strip()!r} is not a "
                "positive combination of positive-declared symbols"
            )
        return p

    def parse(self, source: str) -> ScenarioDefinition:
        for self.lineno, raw in enumerate(source.splitlines(), 1):
            self.text = raw
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            keyword, _, rest = line.partition(" ")
            handler = _HANDLERS.get(keyword)
            if handler is None:
                raise self.fail(f"unknown statement {keyword!r}", keyword)
            handler(self, rest.strip())
        return self.defn

    # statement handlers

    def stmt_symbol(self, rest: str) -> None:
        parts = rest.split()
        if not parts or len(parts) > 2 or (len(parts) == 2 and parts[1] != "positive"):
            raise self.fail("expected: symbol <name> [positive]")
        name = parts[0]
        if name in self.defn.symbols:
            raise self.fail(f"symbol {name!r} already declared", name)
        self.defn.symbols[name] = Symbol(name, positive=len(parts) == 2)

    def stmt_additive(self, rest: str) -> None:
        lhs, eq, value_text = rest.partition("=")
        if not eq:
            raise self.fail("expected: additive <func>.<symbol> = <rational>")
        fname, dot, sym_name = lhs.strip().partition(".")
        if not dot or not fname or not sym_name:
            raise self.fail("additive name must look like <func>.<symbol>", lhs.strip())
        if sym_name not in self.defn.symbols:
            raise self.unknown(sym_name)
        sym = self.defn.symbols[sym_name]
        values = self.defn.additives.setdefault(fname, {})
        if sym in values:
            raise self.fail(f"value for {lhs.strip()!r} already assigned", lhs.strip())
        values[sym] = self.rational(value_text)

    def stmt_point(self, rest: str) -> None:
        name, eq, expr = rest.partition("=")
        name = name.strip()
        if not eq or not name:
            raise self.fail("expected: point <name> = <combination>")
        if name in self.defn.points or name in self.defn.symbols:
            raise self.fail(f"name {name!r} already declared", name)
        self.defn.points[name] = self.point(expr)

    def stmt_function(self, rest: str) -> None:
        if self.defn.function is not None:
            raise self.fail("a definition file declares exactly one function")
        parts = rest.split(None, 1)
        if not parts:
            raise self.fail("expected a function form")
        head = parts[0]
        if head == "pospartpow":
            tokens = rest.split()
            if len(tokens) != 4 or tokens[2] != "of":
                raise self.fail("expected: function pospartpow <n> of <func>")
            try:
                power = int(tokens[1])
            except ValueError:
                raise self.fail(f"bad power {tokens[1]!r}", tokens[1]) from None
            if power < 1:
                raise self.fail("power must be >= 1", tokens[1])
            fname = tokens[3]
            if fname not in self.defn.additives:
                raise self.unknown(fname)
            self.defn.function = Composite(
                PositivePartPower(power), self.defn.functional(fname)
            )
            return
        take_abs = False
        if head == "abs":
            take_abs = True
            rest = parts[1] if len(parts) > 1 else ""
            parts = rest.split(None, 1)
            head = parts[0] if parts else ""
        if head != "tabulated":
            raise self.fail(f"unknown function form {head!r}", head)
        body = rest.partition("tabulated")[2].strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise self.fail("tabulated values must be enclosed in { }")
        table: dict[Point, Fraction] = {}
        inner = body[1:-1].strip()
        if inner:
            for entry in inner.split(","):
                key_text, colon, value_text = entry.partition(":")
                if not colon:
                    raise self.fail(f"expected <point> : <rational> in {entry.strip()!r}")
                table[self.point(key_text)] = self.rational(value_text)
        if not table:
            raise self.fail("tabulated function needs at least one entry")
        self.defn.function = tabulated_abs(table) if take_abs else Tabulated(table)

    def stmt_measure(self, rest: str) -> None:
        name, eq, expr = rest.partition("=")
        name = name.strip()
        expr = expr.strip()
        if not eq or not name:
            raise self.fail("expected: measure <name> = <constructor>(...)")
        if name in self.defn.measures:
            raise self.fail(f"measure {name!r} already declared", name)
        head, paren, body = expr.partition("(")
        head = head.strip()
        if not paren or not body.endswith(")"):
            raise self.fail("measure constructor needs parentheses", expr)
        args = [a.strip() for a in body[:-1].split(",")] if body[:-1].strip() else []

        def measure_arg(text: str) -> MeasureExpr:
            if text not in self.defn.measures:
                raise self.unknown(text)
            return self.defn.measures[text]

        if head == "dirac" and len(args) == 1:
            built: MeasureExpr = Dirac(self.point(args[0]))
        elif head == "shift" and len(args) == 2:
            built = Shift(measure_arg(args[0]), self.increment(args[1]))
        elif head == "scale" and len(args) == 2:
            built = Scale(self.rational(args[0]), measure_arg(args[1]))
        elif head == "sum" and args:
            built = Sum(tuple(measure_arg(a) for a in args))
        elif head == "jclosure" and len(args) == 2:
            built = JClosure(measure_arg(args[0]), self.increment(args[1]))
        else:
            raise self.fail(f"unknown measure constructor {head!r}", head)
        self.defn.measures[name] = built

    def stmt_eval(self, rest: str) -> None:
        text = rest.strip()
        expect: Fraction | None = None
        if " expect " in f" {text} " or text.endswith(" expect"):
            body, _, expect_text = text.rpartition(" expect ")
            if not body:
                raise self.fail("expected a value after `expect`")
            expect = self.rational(expect_text)
            text = body.strip()

        if text.startswith(("forward-diff", "backward-diff")):
            op = backward_diff if text.startswith("backward-diff") else forward_diff
            if self.defn.function is None:
                raise self.fail("no function declared before this eval")
            spec = text.partition("diff")[2].strip()
            if not spec.startswith("at "):
                raise self.fail("expected: ... at <point> with [<point>, ...]")
            at_text, sep, list_text = spec[3:].partition(" with ")
            if not sep:
                raise self.fail("expected `with [<point>, ...]`")
            list_text = list_text.strip()
            if not (list_text.startswith("[") and list_text.endswith("]")):
                raise self.fail("increments must be enclosed in [ ]")
            items = [s for s in list_text[1:-1].split(",") if s.strip()]
            if not items:
                raise InvalidIncrement(f"line {self.lineno}: empty increment list")
            increments = tuple(self.increment(s) for s in items)
            evaluate = partial(op, self.defn.function, self.point(at_text), increments)

        elif text.startswith("atom-mass"):
            spec = text[len("atom-mass"):].strip()
            mname, sep, at_text = spec.partition(" at ")
            mname = mname.strip()
            if not sep or not mname:
                raise self.fail("expected: eval atom-mass <measure> at <point>")
            if mname not in self.defn.measures:
                raise self.unknown(mname)
            evaluate = partial(atom_mass, self.defn.measures[mname], self.point(at_text))

        elif text.startswith("jensen-probe"):
            evaluate = self._jensen_probe(text[len("jensen-probe"):])
            if expect is None:
                expect = Fraction(0)

        else:
            raise self.fail(f"unknown eval request {text.split()[0]!r}" if text else "empty eval")
        self.defn.evals.append(Eval(self.lineno, rest.strip(), evaluate, expect))

    def _jensen_probe(self, spec: str) -> Callable[[], int]:
        """The violation count of the probe that ``spec`` describes. Its
        samples take every positive symbol declared when the file runs."""
        if self.defn.function is None:
            raise self.fail("no function declared before this eval")
        fields = [token.partition("=") for token in spec.split()]
        tokens = {key: value for key, eq, value in fields if eq}
        if len(fields) != 2 or set(tokens) != {"n", "grid"}:
            raise self.fail("expected: eval jensen-probe n=<k> grid=box(lo..hi[;steps=a..b])")
        try:
            order = int(tokens["n"])
        except ValueError:
            raise self.fail(f"bad order {tokens['n']!r}", tokens["n"]) from None
        if order < 1:
            raise self.fail("order must be >= 1")
        grid = tokens["grid"]
        if not (grid.startswith("box(") and grid.endswith(")")):
            raise self.fail(f"bad grid spec {grid!r}", grid)
        body = grid[4:-1]
        range_text, _, steps_text = body.partition(";")
        lo, hi = self._int_range(range_text)
        steps = (1, 1)
        if steps_text:
            if not steps_text.startswith("steps="):
                raise self.fail(f"bad grid option {steps_text!r}", steps_text)
            steps = self._int_range(steps_text[len("steps="):])
            if steps[0] < 1:
                raise self.fail("steps must start at 1 or above", steps_text)
        symbols, f, line = self.defn.symbols, self.defn.function, self.lineno

        def probe() -> int:
            units = [unit(s) for s in symbols.values() if s.positive]
            if not units:
                raise DefinitionError("jensen-probe needs at least one positive symbol", line)
            # One Point per (symbol, step), shared by every box point, so
            # the probe finds each sample's chain by identity.
            increments = [step * u for u in units for step in range(steps[0], steps[1] + 1)]
            samples = [(x, h) for x in lattice_box(units, lo, hi) for h in increments]
            return len(jensen_convexity_probe(f, order, samples))

        return probe

    def _int_range(self, text: str) -> tuple[int, int]:
        lo_text, sep, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise self.fail(f"bad range {text!r}", text) from None
        if not sep or lo > hi:
            raise self.fail(f"bad range {text!r}", text)
        return lo, hi


_HANDLERS: dict[str, Callable[[_Parser, str], None]] = {
    "symbol": _Parser.stmt_symbol,
    "additive": _Parser.stmt_additive,
    "point": _Parser.stmt_point,
    "function": _Parser.stmt_function,
    "measure": _Parser.stmt_measure,
    "eval": _Parser.stmt_eval,
}


def parse_definition(source: str, name: str = "<definition>") -> ScenarioDefinition:
    """Parse definition text; raises ParseError/UnknownSymbol/InvalidIncrement."""
    return _Parser(name).parse(source)


def run_definition(defn: ScenarioDefinition) -> Report:
    """Execute every evaluation request and assemble the report."""
    rb = ReportBuilder(defn.name)
    for ev in defn.evals:
        try:
            value = ev.evaluate()
        except UntabulatedPoint as exc:
            raise DefinitionError(
                f"evaluation needs a value outside the tabulated domain ({exc})",
                ev.line,
            ) from exc
        rb.claim(ev.text, f"line {ev.line}", value, value if ev.expect is None else ev.expect)
    return rb.build()


def run_definition_file(path: str | Path) -> Report:
    """Parse and execute a definition file."""
    path = Path(path)
    defn = parse_definition(path.read_text(encoding="utf-8"), name=path.stem)
    return run_definition(defn)
