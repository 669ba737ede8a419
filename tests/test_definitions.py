"""Definition-file parsing and execution."""

import tracemalloc
from fractions import Fraction

import pytest

from hamelcheck import (
    InvalidIncrement,
    ParseError,
    UnknownSymbol,
    definitions,
    jensen_convexity_probe,
    parse_definition,
    run_definition,
    run_definition_file,
    symbols,
    unit,
)
from hamelcheck.basis import ZERO, exact, lattice_box

THEOREM_N3 = """\
# order-3 scenario
symbol h1 positive
symbol h2 positive
symbol h3 positive
symbol h4 positive
additive a.h1 = -1
additive a.h2 = 1
additive a.h3 = 1
additive a.h4 = 1
function pospartpow 3 of a
eval forward-diff at 0 with [h1, h2, h3, h4] expect -1
"""


def test_theorem_scenario_file(tmp_path):
    path = tmp_path / "t23.def"
    path.write_text(THEOREM_N3)
    rep = run_definition_file(path)
    assert rep.scenario == "t23"
    assert rep.passed
    assert rep.claims[0].computed == -1


def test_informational_eval_without_expect():
    defn = parse_definition(THEOREM_N3.replace(" expect -1", ""))
    rep = run_definition(defn)
    assert rep.passed
    assert rep.claims[0].computed == rep.claims[0].expected == -1


def test_failing_expectation():
    defn = parse_definition(THEOREM_N3.replace("expect -1", "expect 5"))
    rep = run_definition(defn)
    assert not rep.passed
    assert rep.claims[0].computed == -1 and rep.claims[0].expected == 5


def test_backward_diff_request():
    src = THEOREM_N3 + (
        "point top = h1 + h2 + h3 + h4\n"
        "eval backward-diff at top with [h1, h2, h3, h4] expect -1\n"
    )
    rep = run_definition(parse_definition(src))
    assert rep.passed and len(rep.claims) == 2


def test_tabulated_abs_function():
    src = """\
symbol s positive
function abs tabulated { 0 : -9, s : 4, 2*s : 7, 3*s : 0 }
eval forward-diff at 0 with [s, s, s] expect -18
"""
    rep = run_definition(parse_definition(src))
    assert rep.passed


def test_plain_tabulated_function():
    src = """\
symbol s positive
function tabulated { 0 : 2, s : 5 }
eval forward-diff at 0 with [s] expect 3
"""
    assert run_definition(parse_definition(src)).passed


def test_measure_requests():
    src = """\
symbol h positive
measure d = dirac(0)
measure j = jclosure(d, h)
measure jj = jclosure(j, h)
measure m = sum(j, jj)
measure neg = scale(-1, j)
measure moved = shift(j, 2*h)
eval atom-mass jj at 2*h expect 3
eval atom-mass m at 0 expect 2
eval atom-mass neg at h expect -1
eval atom-mass moved at h
"""
    rep = run_definition(parse_definition(src))
    assert rep.passed
    assert rep.claims[-1].computed == 0  # h - 2h is below the support


def test_jensen_probe_request_with_steps():
    src = """\
symbol u positive
additive a.u = 1
function pospartpow 2 of a
eval jensen-probe n=2 grid=box(-3..3;steps=1..2)
"""
    rep = run_definition(parse_definition(src))
    assert rep.passed
    assert rep.claims[0].computed == 0


def test_jensen_probe_samples_share_each_increment(monkeypatch):
    seen = []

    def spy(f, n, samples):
        seen.extend(samples)
        return jensen_convexity_probe(f, n, seen)

    monkeypatch.setattr(definitions, "jensen_convexity_probe", spy)
    src = """\
symbol u positive
symbol v positive
additive a.u = 1
additive a.v = -2
function pospartpow 2 of a
eval jensen-probe n=2 grid=box(-1..1;steps=1..2)
"""
    run_definition(parse_definition(src))
    # The same samples in the same order: each box point with every
    # (symbol, step) increment, symbols in declaration order.
    units = [unit(s) for s in symbols("u v", positive=True)]
    assert seen == [
        (x, step * u) for x in lattice_box(units, -1, 1) for u in units for step in (1, 2)
    ]
    # ... and one Point per (symbol, step), so the probe finds each
    # sample's chain by identity rather than by comparing coordinates.
    assert len({id(h) for _, h in seen}) == 4


def test_jensen_probe_holds_one_box_point_at_a_time():
    # The probe reads each sample once, in order, so neither the box nor
    # its samples are built as lists: 10,000 points over one symbol held
    # at once take about 3.5 MiB.
    defn = parse_definition(
        "symbol u positive\nadditive a.u = 1\nfunction pospartpow 2 of a\n"
        "eval jensen-probe n=1 grid=box(0..9999)\n"
    )
    tracemalloc.start()
    try:
        rep = run_definition(defn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.claims[0].computed == 0
    assert peak < 2**20


@pytest.mark.parametrize("spec", [
    "n=2 grid=box(-3..3) bogus nonsense",
    "n=2 grid=box(0..1) n=5",
    "grid=box(0..1) n=2 grid=box(0..3)",
    "n=2 grid=box(0..1) steps",
    "n=2",
])
def test_jensen_probe_needs_one_order_and_one_grid(spec):
    src = f"symbol u positive\nadditive a.u = 1\nfunction pospartpow 2 of a\neval jensen-probe {spec}\n"
    with pytest.raises(ParseError) as exc:
        parse_definition(src)
    assert (exc.value.line, exc.value.column) == (4, 1)
    assert "jensen-probe n=<k> grid=box" in str(exc.value)


def test_unknown_symbol_in_function_spec():
    src = "symbol h1 positive\nadditive a.h1 = 1\nfunction pospartpow 2 of b\n"
    with pytest.raises(UnknownSymbol) as exc:
        parse_definition(src)
    assert exc.value.line == 3


def test_unknown_symbol_in_point():
    src = "symbol h1 positive\npoint x = h1 + h9\n"
    with pytest.raises(UnknownSymbol) as exc:
        parse_definition(src)
    assert exc.value.line == 2
    assert exc.value.column == len("point x = h1 + ") + 1


@pytest.mark.parametrize("line, column", [
    # The token also occurs inside an earlier word ("eval", "point").
    ("eval jensen-probe n=e grid=box(0..1)", 21),
    ("point p = 2*s + t", 17),
    ("additive f.t = 1", 12),
    ("eval atom-mass atom at 0", 16),
    # The same text stands whole earlier on the line.
    ("point p = s + s*t", 15),
    # A declared name is one name token.
    ("symbol 0", 8),
    ("symbol 3", 8),
    ("symbol a+b", 8),
    ("symbol x*y positive", 8),
    ("point 0 = s", 7),
    ("point s+t = s", 7),
])
def test_error_column_points_at_the_offending_token(line, column):
    src = f"symbol s positive\nadditive a.s = 1\nfunction pospartpow 2 of a\n{line}\n"
    with pytest.raises((ParseError, UnknownSymbol)) as exc:
        parse_definition(src)
    assert (exc.value.line, exc.value.column) == (4, column)


BASE = "symbol s positive\nadditive a.s = 1\npoint p = 2*s\nmeasure m = dirac(0)\n"
WITH_FUNCTION = BASE + "function pospartpow 2 of a\n"


@pytest.mark.parametrize("line, column, message", [
    ("frobnicate all", 1, "unknown statement 'frobnicate'"),
    ("symbol s", 8, "symbol 's' already declared"),
    ("symbol x negative", 1, "expected: symbol <name> [positive]"),
    ("additive a.s 1", 1, "expected: additive <func>.<symbol> = <rational>"),
    ("additive a = 1", 10, "additive name must look like <func>.<symbol>"),
    ("additive a.s = 2", 10, "value for 'a.s' already assigned"),
    ("additive b.s = 2 3", 16, "bad rational '2 3'"),
    ("additive b.s = 1/0", 16, "bad rational '1/0'"),
    ("additive b.q = 1", 12, "unknown name 'q'"),
    ("point q", 1, "expected: point <name> = <combination>"),
    ("point p = s", 7, "name 'p' already declared"),
    ("point q = s +  + s", 16, "empty term in point expression"),
    ("measure q", 1, "expected: measure <name> = <constructor>(...)"),
    ("measure m = dirac(0)", 9, "measure 'm' already declared"),
    ("measure q = dirac", 13, "measure constructor needs parentheses"),
    ("measure q = blend(m)", 13, "unknown measure constructor 'blend'"),
    ("measure q = shift(mm, s)", 19, "unknown name 'mm'"),
    ("measure q = dirac(p, s)", 13, "dirac takes 1 argument, got 2"),
    ("measure q = dirac()", 13, "dirac takes 1 argument, got 0"),
    ("measure q = shift(m)", 13, "shift takes 2 arguments, got 1"),
    ("measure q = scale(2)", 13, "scale takes 2 arguments, got 1"),
    ("measure q = jclosure(m)", 13, "jclosure takes 2 arguments, got 1"),
    ("measure q = sum()", 13, "sum needs at least one measure"),
    ("function", 1, "expected a function form"),
    ("function pospartpow 2", 1, "expected: function pospartpow <n> of <func>"),
    ("function pospartpow x of a", 21, "bad power 'x'"),
    ("function pospartpow 0 of a", 21, "power must be >= 1"),
    ("function pospartpow 2 of b", 26, "unknown name 'b'"),
    ("function abs spline", 14, "unknown function form 'spline'"),
    ("function tabulated [0: 1]", 1, "tabulated values must be enclosed in { }"),
    ("function tabulated {}", 1, "tabulated function needs at least one entry"),
    ("function tabulated {0: 1, s 2}", 27, "expected <point> : <rational> in 's 2'"),
    ("function tabulated {0: 1, : 2}", 1, "empty point expression"),
    ("function tabulated {0: 1, s: 2, 1*s: 7}", 33, "point '1*s' already tabulated"),
    # The function copies its additive's values when it is declared.
    ("symbol t\nfunction pospartpow 2 of a\nadditive a.t = 5", 10,
     "additive 'a' is already read by the function"),
    ("eval", 1, "empty eval"),
    ("eval forward-diff at 0 with [s]", 1, "no function declared before this eval"),
    ("eval jensen-probe n=1 grid=box(0..1)", 1, "no function declared before this eval"),
    ("eval spline at 0", 6, "unknown eval request 'spline'"),
])
def test_every_parse_error_carries_its_column(line, column, message):
    # The error is on the last line; a case may declare what it needs first.
    src = BASE + line + "\n"
    lineno = src.count("\n")
    with pytest.raises((ParseError, UnknownSymbol)) as exc:
        parse_definition(src)
    assert (exc.value.line, exc.value.column) == (lineno, column)
    assert str(exc.value) == f"line {lineno}, col {column}: {message}"


@pytest.mark.parametrize("line, column, message", [
    ("function tabulated {0: 1}", 1, "a definition file declares exactly one function"),
    ("eval forward-diff 0 with [s]", 1, "expected: ... at <point> with [<point>, ...]"),
    ("eval forward-diff at 0 [s]", 1, "expected `with [<point>, ...]`"),
    ("eval forward-diff at 0 with s", 1, "increments must be enclosed in [ ]"),
    ("eval forward-diff at 0 with [s] expect", 33, "expected a value after `expect`"),
    ("eval forward-diff at 0 with [s] expect 1 2", 40, "bad rational '1 2'"),
    ("eval atom-mass m s", 1, "expected: eval atom-mass <measure> at <point>"),
    ("eval atom-mass n at 0", 16, "unknown name 'n'"),
    ("eval jensen-probe n=1", 1, "expected: eval jensen-probe n=<k> grid=box"),
    ("eval jensen-probe n=1/2 grid=box(0..1)", 21, "bad order '1/2'"),
    ("eval jensen-probe n=0 grid=box(0..1)", 21, "order must be >= 1"),
    ("eval jensen-probe n=1 grid=cube(0..1)", 28, "bad grid spec 'cube(0..1)'"),
    ("eval jensen-probe n=1 grid=box(1..0)", 32, "bad range '1..0'"),
    ("eval jensen-probe n=1 grid=box(0..1;step=1..2)", 37, "bad grid option 'step=1..2'"),
    ("eval jensen-probe n=1 grid=box(0..1;)", 36, "empty grid option after ';'"),
    ("eval jensen-probe n=1 grid=box(0..1;steps=0..2)", 37, "steps must start at 1 or above"),
    ("eval jensen-probe n=1 grid=box(0..1;steps=1..x)", 43, "bad range '1..x'"),
])
def test_every_eval_error_carries_its_column(line, column, message):
    src = WITH_FUNCTION + line + "\n"
    with pytest.raises((ParseError, UnknownSymbol)) as exc:
        parse_definition(src)
    assert (exc.value.line, exc.value.column) == (6, column)
    assert str(exc.value).startswith(f"line 6, col {column}: {message}")


@pytest.mark.parametrize("line, column", [
    ("eval forward-diff at 0 with [s,,s]", 32),
    ("eval forward-diff at 0 with [s, ]", 31),
    ("eval forward-diff at 0 with [,s]", 30),
    ("measure q = sum(m,)", 18),
    ("function tabulated {0: 1,}", 25),
])
def test_empty_list_entry_is_an_error_at_its_separator(line, column):
    # A file declares one function, so a function line goes after BASE.
    base = BASE if line.startswith("function") else WITH_FUNCTION
    lineno = base.count("\n") + 1
    with pytest.raises(ParseError) as exc:
        parse_definition(base + line + "\n")
    assert str(exc.value) == f"line {lineno}, col {column}: empty list entry"


def test_symbols_and_points_share_one_namespace():
    # A symbol may not take a point's name, as a point may not take a
    # symbol's: the increment ``p`` below would silently be the point 2*s.
    src = "symbol s positive\npoint p = 2*s\nsymbol p positive\n"
    with pytest.raises(ParseError) as exc:
        parse_definition(src)
    assert str(exc.value) == "line 3, col 8: name 'p' already declared"


def test_expect_is_only_the_trailing_pair():
    base = "symbol s positive\nadditive a.s = 1\nfunction pospartpow 1 of a\npoint expect = s\n"
    # A point named ``expect`` inside the request is a name.
    rep = run_definition(parse_definition(base + "eval forward-diff at expect with [s]\n"))
    assert rep.claims[0].computed == 1 and rep.claims[0].label == "forward-diff at expect with [s]"
    with pytest.raises(ParseError) as exc:
        parse_definition(base + "eval forward-diff at 0 with [s] expect 1 expect 2\n")
    assert str(exc.value) == "line 5, col 40: bad rational '1 expect 2'"
    # A jensen-probe expects a count of violations.
    for count in ("1.5", "-1", "3/1"):
        with pytest.raises(ParseError) as exc:
            parse_definition(base + f"eval jensen-probe n=1 grid=box(0..1) expect {count}\n")
        assert str(exc.value) == f"line 5, col 45: bad count '{count}'"
    assert run_definition(
        parse_definition(base + "eval jensen-probe n=1 grid=box(0..1) expect 0\n")
    ).passed


def test_whitespace_between_tokens_is_free():
    src = "symbol\tq positive\nfunction tabulated{0: 1, q:3}\neval forward-diff at 0 with[q]\n"
    assert run_definition(parse_definition(src)).claims[0].computed == 2


def test_claim_label_is_the_raw_eval_text():
    src = THEOREM_N3.replace(
        "eval forward-diff at 0 with [h1, h2, h3, h4] expect -1",
        "eval   forward-diff at 0  with [h1,h2, h3 , h4]  expect -1   # comment",
    )
    (claim,) = run_definition(parse_definition(src)).claims
    assert claim.label == "forward-diff at 0  with [h1,h2, h3 , h4]  expect -1"


@pytest.mark.parametrize("text", ["1e3", "1_000", "+1", ".5", "5."])
def test_a_rational_has_one_form(text):
    with pytest.raises(ParseError) as exc:
        parse_definition(f"symbol s positive\nadditive a.s = {text}\n")
    assert str(exc.value) == f"line 2, col 16: bad rational '{text}'"


@pytest.mark.parametrize("text", [
    "7", "-7", "0", "-0", "007", "123456789012345678901234567890", "\u0663",
    "3/4", "-6/4", "4/2", "1.25", "-0.50", "2.0",
])
def test_every_number_reads_to_its_canonical_value(text):
    # A token with no `/` or `.` is read through int, the rest through
    # Fraction. Coefficients, values, table entries, factors and expected
    # values all hold the canonical form of the value Fraction reads.
    want = exact(Fraction(text))
    defn = parse_definition(
        "symbol s positive\n"
        f"additive a.s = {text}\n"
        f"point p = {text}*s\n"
        f"function tabulated {{0: {text}, s: 1}}\n"
        "measure d = dirac(0)\n"
        f"measure m = scale({text}, d)\n"
        f"eval atom-mass m at 0 expect {text}\n"
    )
    (s,) = defn.symbols.values()
    assert defn.additives["a"][s] == want
    read = [
        defn.points["p"].coordinate(s), defn.function.table[ZERO],
        defn.measures["m"].factor, exact(defn.evals[0].expect),
    ]
    assert read == [want] * 4 and {type(v) for v in read} == {type(want)}
    assert run_definition(defn).passed


@pytest.mark.parametrize("text", ["x", "-", "1/0", "2 3", "3/-4", "1.-5"])
def test_a_bad_number_fails_alike_everywhere(text):
    # The error names the whole rejected text at its first token, wherever
    # a rational is read.
    for line, col in (
        (f"additive a.s = {text}", 16),
        (f"point q = {text}*s", 11),
        (f"function tabulated {{s: {text}}}", 24),
        (f"measure q = scale({text}, m)", 19),
        (f"eval atom-mass m at 0 expect {text}", 30),
    ):
        with pytest.raises(ParseError) as exc:
            parse_definition(BASE.replace("additive a.s = 1\n", "") + line + "\n")
        assert str(exc.value) == f"line 4, col {col}: bad rational '{text}'", line


def test_zero_increment_rejected():
    src = THEOREM_N3 + "eval forward-diff at 0 with [0]\n"
    with pytest.raises(InvalidIncrement):
        parse_definition(src)


def test_nonpositive_symbol_increment_rejected():
    src = "symbol w\nadditive a.w = 1\nfunction pospartpow 1 of a\neval forward-diff at 0 with [w]\n"
    with pytest.raises(InvalidIncrement):
        parse_definition(src)


def test_parse_errors_carry_line():
    with pytest.raises(ParseError) as exc:
        parse_definition("symbol h1 positive\nfrobnicate all the things\n")
    assert exc.value.line == 2

    with pytest.raises(ParseError):
        parse_definition("symbol h1 positive\nsymbol h1\n")  # duplicate

    with pytest.raises(ParseError):
        parse_definition("symbol h1 positive\nadditive a = 1\n")  # missing dot

    with pytest.raises(ParseError):
        parse_definition("eval forward-diff at 0 with [x]\n")  # no function yet

    with pytest.raises(ParseError):
        parse_definition("symbol s positive\nfunction tabulated { }\n")

    with pytest.raises(ParseError):
        parse_definition("symbol s positive\nmeasure m = blend(s)\n")

    with pytest.raises(ParseError):
        parse_definition("symbol s positive\nadditive a.s = 1/0\n")


def test_duplicate_function_and_additive_assignment():
    base = "symbol s positive\nadditive a.s = 1\nfunction pospartpow 1 of a\n"
    with pytest.raises(ParseError):
        parse_definition(base + "function pospartpow 2 of a\n")
    with pytest.raises(ParseError):
        parse_definition("symbol s positive\nadditive a.s = 1\nadditive a.s = 2\n")


def test_additive_after_the_function_that_reads_it():
    # The function holds a's values as declared so far: a.t would be lost.
    base = "symbol s positive\nsymbol t positive\nadditive a.s = 1\nfunction pospartpow 1 of a\n"
    with pytest.raises(ParseError) as exc:
        parse_definition(base + "additive a.t = 5\neval forward-diff at 0 with [t]\n")
    assert (exc.value.line, exc.value.column) == (5, 10)
    assert str(exc.value) == "line 5, col 10: additive 'a' is already read by the function"
    # An additive the function does not read may still follow it.
    defn = parse_definition(base + "additive b.t = 5\neval forward-diff at 0 with [s]\n")
    assert run_definition(defn).claims[0].computed == 1


def test_fractional_values_allowed():
    src = """\
symbol s positive
additive a.s = 3/2
function pospartpow 1 of a
point x = 1/3*s
eval forward-diff at x with [s] expect 3/2
"""
    rep = run_definition(parse_definition(src))
    assert rep.passed
    assert rep.claims[0].computed == Fraction(3, 2)
