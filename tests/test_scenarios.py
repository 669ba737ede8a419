"""Built-in scenario runners and their reports."""

from fractions import Fraction

import pytest

from hamelcheck import (
    EvenOrder,
    JClosure,
    UnknownCandidate,
    probe_even,
    scenarios,
    verify_lemma_4_4,
    verify_lemma_4_6,
    verify_prop_4_3,
    verify_section_3_1,
    verify_section_3_2,
    verify_theorem_2_3,
)


def claims_by_label(report):
    return {c.label: c for c in report.claims}


def test_theorem23_odd_orders():
    for n in (1, 3, 5):
        rep = verify_theorem_2_3(n)
        assert rep.passed
        by = claims_by_label(rep)
        assert by["forward-diff-at-zero"].computed == -1
        assert by["backward-diff-at-top"].computed == -1
        assert len(rep.trace) == 2 ** (n + 1)


def test_theorem23_trace_is_built_on_first_read(monkeypatch):
    calls = []
    table = scenarios.difference_table

    def counting(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(scenarios, "difference_table", counting)
    rep = verify_theorem_2_3(5)
    assert rep.passed and not calls
    assert len(rep.trace) == 2 ** 6
    assert len(calls) == 1
    assert rep.trace is rep.trace and len(calls) == 1


def test_theorem23_rejects_even_or_nonpositive():
    with pytest.raises(EvenOrder):
        verify_theorem_2_3(2)
    with pytest.raises(ValueError):
        verify_theorem_2_3(0)


def test_section31_table():
    rep = verify_section_3_1()
    assert rep.passed
    values = [c.computed for c in rep.claims if c.label.startswith("value[")]
    assert values == [8, 1, 1, 1, 27, 0, 0, 0, 8, 8, 8, 0, 1, 1, 1, 0]
    by = claims_by_label(rep)
    assert [by[f"group-sum-{k}"].computed for k in (4, 3, 2, 1, 0)] == [8, 30, 24, 3, 0]
    assert by["alternating-total"].computed == -1


def test_section32_claims():
    rep = verify_section_3_2()
    assert rep.passed
    by = claims_by_label(rep)
    assert by["q-table-third-diff"].computed == -18
    assert by["prop31-witness"].computed == -1
    for c in (0, 1, 2):
        assert by[f"prop32-grid-c={c}"].computed == 0
    assert by["prop33-c=-1"].computed == -1
    assert by["prop33-c=-2"].computed == -4


def test_lemma44_orders():
    for n in (1, 3, 5):
        rep = verify_lemma_4_4(n)
        assert rep.passed, [c for c in rep.claims if not c.passed]
        by = claims_by_label(rep)
        assert by["d-mass-at-h1"].computed == -1


def test_lemma44_builds_each_closure_once(monkeypatch):
    # mu combines the per-symbol closures the claims query, so their
    # memos are shared; building mu afresh would double the closures.
    built = []
    init = JClosure.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(JClosure, "__init__", counting)
    n = 3
    assert verify_lemma_4_4(n).passed
    assert len(built) == (n + 1) ** 2  # n + 1 trees of n + 1 closures each


def test_lemma46_orders_and_chain():
    for n in (1, 3, 5):
        rep = verify_lemma_4_6(n)
        assert rep.passed, [c for c in rep.claims if not c.passed]
        by = claims_by_label(rep)
        assert by["power-mass-diff-at-top"].computed == 0
        assert by["unit-atom-diff-at-top"].computed == Fraction((-1) ** n)
        assert by["chain-measure-path"].computed == -1
        assert by["chain-direct-path"].computed == -1


def test_theorem_and_chain_values_agree():
    for n in (1, 3, 5):
        fwd = claims_by_label(verify_theorem_2_3(n))["forward-diff-at-zero"].computed
        chain = claims_by_label(verify_lemma_4_6(n))["chain-measure-path"].computed
        assert fwd == chain == -1


def test_prop43_deterministic():
    rep1 = verify_prop_4_3(8, 99)
    rep2 = verify_prop_4_3(8, 99)
    assert rep1.passed
    assert [(c.label, c.computed) for c in rep1.claims] == [
        (c.label, c.computed) for c in rep2.claims
    ]
    assert "seed=99" in rep1.scenario


def test_probe_even_cases():
    rep = probe_even(2, "prop31-witness")
    assert rep.passed
    assert claims_by_label(rep)["jensen-violation-value"].computed == -1
    assert rep.notes  # explicitly marked as probe-only

    rep = probe_even(2, "prop33-witness")
    assert claims_by_label(rep)["jensen-violation-value"].computed == -1

    rep = probe_even(2, "prop32-grid")
    assert claims_by_label(rep)["grid-violations"].computed == 0


def test_probe_even_errors():
    with pytest.raises(UnknownCandidate):
        probe_even(2, "nonsense")
    with pytest.raises(UnknownCandidate):
        probe_even(4, "prop31-witness")
    with pytest.raises(ValueError):
        probe_even(3, "prop31-witness")
