"""Definition-file parsing and execution."""

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
from hamelcheck.basis import lattice_box

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
])
def test_error_column_points_at_the_offending_token(line, column):
    src = f"symbol s positive\nadditive a.s = 1\nfunction pospartpow 2 of a\n{line}\n"
    with pytest.raises((ParseError, UnknownSymbol)) as exc:
        parse_definition(src)
    assert (exc.value.line, exc.value.column) == (4, column)


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
