"""Claim construction and report rendering."""

from fractions import Fraction

import pytest

from hamelcheck import ZERO, make_claim
from hamelcheck.differences import TableRow
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
