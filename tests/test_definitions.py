"""Definition-file parsing and execution."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from hamelcheck import (
    DefinitionError,
    InvalidIncrement,
    JClosure,
    ParseError,
    Tabulated,
    UnknownSymbol,
    definitions,
    forward_diff_closed,
    jensen_convexity_probe,
    parse_definition,
    point_combine,
    run_definition,
    run_definition_file,
    symbols,
    unit,
)
from hamelcheck.basis import ZERO, exact
from helpers import coordinate, lattice_box, materialize_truncated

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


def _seeded_measure_lines(rng, steps=(Fraction(1, 2), 1, Fraction(3, 2), 2)):
    """The declaration lines of 1-3 symbols and 3-9 measures: a dirac,
    then dirac, shift, scale, sum or jclosure (at most three closures) of
    earlier measures, most often of the last three, with atoms at
    coordinates in 0..2, factors in -2..2 and steps of ``steps`` on one or
    more symbols, all with denominators up to 3. Every support coordinate
    is at least 0, and every step has a coordinate of at least 1/2."""
    names = [f"s{i}" for i in range(1, rng.randint(1, 3) + 1)]

    def number(lo, hi):
        d = rng.randint(1, 3)
        return Fraction(rng.randint(lo * d, hi * d), d)

    def point(coords):
        return " + ".join(f"{c}*{n}" for n, c in coords) or "0"

    def step():
        on = rng.sample(names, rng.randint(1, len(names)))
        return point((n, rng.choice(steps)) for n in on)

    def earlier():
        return rng.choice(measures[-3:] if rng.random() < 0.7 else measures)

    lines = [f"symbol {n} positive" for n in names]
    measures = []
    for i in range(rng.randint(3, 9)):
        closures = sum("jclosure" in line for line in lines)
        kind = rng.choice(("dirac", "shift", "scale", "sum", "jclosure")[:4 + (closures < 3)])
        if not measures or kind == "dirac":
            rhs = f"dirac({point((n, number(0, 2)) for n in names if rng.random() < 0.7)})"
        elif kind == "scale":
            rhs = f"scale({number(-2, 2)}, {earlier()})"
        elif kind == "sum":
            rhs = "sum(%s)" % ", ".join(earlier() for _ in range(rng.randint(1, 3)))
        else:
            rhs = f"{kind}({earlier()}, {step()})"
        measures.append(f"m{i}")
        lines.append(f"measure m{i} = {rhs}")
    return lines


def test_measure_lines_hold_the_truncated_sum_seeded():
    # Parsed measure lines reach the builders; every atom-mass line must
    # equal the truncated sum of the parsed measure, at points within reach
    # of the truncation: with supports at 0 or above and every step at
    # least 1/2 on some symbol, no closure reaches a point with coordinates
    # up to 3 from more than 6 translates. Most points are drawn from the
    # truncated sum's nonzero atoms, the rest from the box -1..3.
    rng = random.Random(3636)
    reach = 3
    kinds, routes, nonzero = set(), set(), 0
    for _ in range(40):
        lines = _seeded_measure_lines(rng)
        defn = parse_definition("\n".join(lines) + "\n")
        syms = list(defn.symbols.values())
        memo = {}
        queries = []
        for _ in range(10):
            name = rng.choice(list(defn.measures))
            atoms = materialize_truncated(defn.measures[name], 2 * reach, memo)
            near = [p for p, m in atoms.items() if m and all(c <= reach for _, c in p.terms)]
            if near and rng.random() < 0.7:
                queries.append((name, rng.choice(near)))
            else:
                queries.append((name, point_combine(
                    (Fraction(rng.randint(-6, 6 * reach), 6), unit(s)) for s in syms)))
        lines += [
            f"eval atom-mass {name} at {' + '.join(f'{c}*{s.name}' for s, c in p.terms) or 0}"
            for name, p in queries
        ]
        defn = parse_definition("\n".join(lines) + "\n")
        memo = {}
        for claim, (name, p) in zip(run_definition(defn).claims, queries, strict=True):
            want = materialize_truncated(defn.measures[name], 2 * reach, memo).get(p, 0)
            assert claim.computed == want, (lines, name, p)
            nonzero += want != 0
        kinds |= {line.split(" = ")[1].split("(")[0] for line in lines if line.startswith("measure ")}
        routes |= {m._runs is None for m in defn.measures.values() if type(m) is JClosure}
    assert kinds == {"dirac", "shift", "scale", "sum", "jclosure"}
    assert routes == {True, False} and nonzero > 100


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


@pytest.mark.parametrize("names, hi, order, steps, seed", [
    ("p q", 5, 1, (1, 2), 2727),
    ("p q r", 3, 2, (1, 1), 2828),
])
def test_tabulated_jensen_probe_over_several_symbols(names, hi, order, steps, seed):
    # The box starts at 0, so the first sample of each increment lies on
    # that increment's symbol alone, and later samples leave the basis of
    # its expansion. The violation count must equal one taken sample by
    # sample with the subset-sum closed form.
    rng = random.Random(seed)
    units = [unit(s) for s in symbols(names, positive=True)]
    table = {
        p: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        for p in lattice_box(units, 0, hi + (order + 1) * steps[1])
    }
    entries = ", ".join(
        f"{' + '.join(f'{c}*{s.name}' for s, c in p.terms) or 0}: {v}" for p, v in table.items()
    )
    src = "".join(f"symbol {name} positive\n" for name in names.split())
    src += f"function tabulated {{{entries}}}\n"
    src += f"eval jensen-probe n={order} grid=box(0..{hi};steps={steps[0]}..{steps[1]})\n"
    rep = run_definition(parse_definition(src))
    f = Tabulated(table)
    expected = sum(
        forward_diff_closed(f, x, (step * u,) * (order + 1)) < 0
        for x in lattice_box(units, 0, hi) for u in units
        for step in range(steps[0], steps[1] + 1)
    )
    assert expected and rep.claims[0].computed == expected


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


def test_a_pospartpow_power_has_no_ceiling_and_its_result_is_metered():
    # No ceiling on the power: the meter charges a pospartpow result by its
    # words before it is computed, so a power of 10^8 or more is refused at
    # its eval line in O(1), and a read at a(x) <= 0 is 0 at any power.
    parse_definition(BASE + "function pospartpow 20001 of a\n")
    for power in (10 ** 8, 10 ** 10, 10 ** 12):
        for value in (1, 2):
            defn = parse_definition(
                f"symbol s positive\nadditive a.s = {value}\nfunction pospartpow {power} of a\n"
                "eval forward-diff at s with [s]\n")
            with pytest.raises(DefinitionError) as exc:
                run_definition(defn)
            assert exc.value.line == 4
            assert str(exc.value).startswith("line 4: pospartpow result of ")
            assert str(exc.value).endswith(" refused (work limit 200000)")
    defn = parse_definition("symbol s positive\nadditive a.s = -1\n"
                            f"function pospartpow {10 ** 12} of a\n"
                            "eval forward-diff at s with [s] expect 0\n")
    assert run_definition(defn).passed


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
        coordinate(defn.points["p"], s), defn.function.table[ZERO],
        defn.measures["m"].parts[0][0], exact(defn.evals[0].expect),
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


@pytest.mark.parametrize("text", ["1" * 4301, "-1/" + "3" * 4301, "0." + "5" * 4301])
def test_a_literal_too_long_to_read_fails_alike_everywhere(text):
    # A valid rational with a run of more digits than Python reads as an
    # integer is too long, not bad; a run of 4300 digits still reads.
    for line, col in (
        (f"additive a.s = {text}", 16),
        (f"point q = {text}*s", 11),
        (f"function tabulated {{s: {text}}}", 24),
        (f"measure q = scale({text}, m)", 19),
        (f"eval atom-mass m at 0 expect {text}", 30),
    ):
        with pytest.raises(ParseError) as exc:
            parse_definition(BASE.replace("additive a.s = 1\n", "") + line + "\n")
        assert str(exc.value) == f"line 4, col {col}: rational too long (more than 4300 digits)"
    defn = parse_definition(f"symbol s positive\nadditive a.s = {text[:-1]}\n")
    assert defn.additives["a"][defn.symbols["s"]] == exact(Fraction(text[:-1]))


def test_a_file_that_is_not_utf8_names_its_byte(tmp_path):
    # The offset counts from the start of the file, byte-order mark and all.
    path = tmp_path / "latin1.def"
    for bom, offset in ((b"", 18), (b"\xef\xbb\xbf", 21)):
        path.write_bytes(bom + b"symbol s positive\n\xff\n")
        with pytest.raises(DefinitionError) as exc:
            run_definition_file(path)
        assert str(exc.value) == f"{path}: not UTF-8 at byte {offset} (invalid start byte)"


def test_zero_increment_rejected():
    src = THEOREM_N3 + "eval forward-diff at 0 with [0]\n"
    with pytest.raises(InvalidIncrement) as exc:
        parse_definition(src)
    assert str(exc.value) == (
        "line 12, col 30: increment '0' is not a positive combination of positive-declared symbols"
    )


def test_nonpositive_symbol_increment_rejected():
    src = "symbol w\nadditive a.w = 1\nfunction pospartpow 1 of a\neval forward-diff at 0 with [w]\n"
    with pytest.raises(InvalidIncrement) as exc:
        parse_definition(src)
    assert str(exc.value) == (
        "line 4, col 30: increment 'w' is not a positive combination of positive-declared symbols"
    )


def test_closure_step_increment_names_its_column():
    src = "symbol h positive\nsymbol k\nmeasure d = dirac(h)\nmeasure j = jclosure(d,  2*k + h)\n"
    with pytest.raises(InvalidIncrement) as exc:
        parse_definition(src)
    assert str(exc.value) == (
        "line 4, col 26: increment '2*k + h' is not a positive combination of "
        "positive-declared symbols"
    )


def test_empty_increment_list_names_its_bracket():
    src = THEOREM_N3 + "eval forward-diff at 0 with  [ ]\n"
    with pytest.raises(InvalidIncrement) as exc:
        parse_definition(src)
    assert str(exc.value) == "line 12, col 30: empty increment list"


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
