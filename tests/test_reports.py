"""Claim construction and report rendering."""

import tracemalloc
from fractions import Fraction

import pytest

from hamelcheck import ZERO, errors, make_claim, verify_theorem_2_3
from hamelcheck.differences import TableRow
from hamelcheck.errors import HamelcheckError
from hamelcheck.reports import Report, render, render_value


def test_make_claim_normalizes_rationals():
    c = make_claim("x", "", 3, Fraction(6, 2))
    assert c.passed and c.computed == Fraction(3)


def test_make_claim_rejects_bool_rational_mix():
    # Fraction(1) == True in Python; the claim layer must not let a count
    # masquerade as a boolean verdict.
    with pytest.raises(TypeError):
        make_claim("x", "", Fraction(1), True)
    with pytest.raises(TypeError):
        make_claim("x", "", False, Fraction(0))


def test_render_value():
    assert render_value(True) == "true"
    assert render_value(Fraction(-7, 2)) == "-7/2"
    assert render_value(Fraction(4)) == "4"


def test_render_formats_and_failure_ref():
    rep = Report(
        "demo",
        (
            make_claim("ok", "fine", Fraction(1), Fraction(1)),
            make_claim("bad", "why it matters", Fraction(2), Fraction(3)),
        ),
    )
    human = render([rep], "human")
    assert "[FAIL] bad" in human and "(why it matters)" in human
    assert "overall: FAIL" in human

    tsv = render([rep], "tsv")
    assert tsv.splitlines()[1] == "demo\tbad\t2\t3\tfalse"

    with pytest.raises(ValueError):
        render([rep], "yaml")


def test_report_trace_is_built_on_first_read():
    calls = []

    def make_trace():
        calls.append(1)
        return (TableRow(0, ZERO, Fraction(1), 1),)

    rep = Report("demo", (make_claim("ok", "", 1, 1),), make_trace, "table")
    for fmt in ("human", "tsv", "jsonl"):
        render([rep], fmt)
    assert not calls
    assert "trace: table" in render([rep], "human", show_trace=True)
    assert len(calls) == 1


def test_each_human_trace_spends_its_own_work_budget(monkeypatch):
    # A trace is built under a budget of its own, charged a unit per row
    # before the first: two 16-row tables fit a limit of 16 side by side,
    # one does not fit a limit of 15, and formats without a table never
    # build one.
    reports = [verify_theorem_2_3(3), verify_theorem_2_3(3)]
    monkeypatch.setattr(errors, "WORK_LIMIT", 15)
    with pytest.raises(HamelcheckError, match="^difference table of 16 units of work refused"):
        render(reports, "human", True)
    assert render(reports, "tsv", True) == render(reports, "tsv")
    monkeypatch.setattr(errors, "WORK_LIMIT", 16)
    assert render(reports, "human", True).count("group sums:") == 2
    monkeypatch.undo()
    # Order 17's 2^18 rows are past the limit, through the library as
    # through the command line.
    with pytest.raises(HamelcheckError, match="^difference table of 262144 units of work refused"):
        render([verify_theorem_2_3(17)], "human", True)


def test_a_human_trace_is_formatted_row_by_row():
    # theorem23's table is formatted as its rows are read, so rendering it
    # holds its lines and the output, not its 2^(n+1) rows with their
    # points: at n = 9 the traced peak is about 5 times the output's
    # length, and about 16 times when every row is held first.
    rep = verify_theorem_2_3(9)
    tracemalloc.start()
    try:
        out = render([rep], "human", True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.count("] size ") == 2 ** 10
    assert peak < 8 * len(out)
