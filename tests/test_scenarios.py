"""Built-in scenario runners and their reports."""

import random
from fractions import Fraction
from itertools import product

import pytest

from hamelcheck import (
    Dirac,
    EvenOrder,
    JClosure,
    UnknownCandidate,
    probe_even,
    render,
    scenarios,
    verify_lemma_4_4,
    verify_lemma_4_6,
    verify_prop_4_3,
    verify_section_3_1,
    verify_section_3_2,
    verify_theorem_2_3,
)
from hamelcheck.basis import Symbol, lattice_box, point_combine, unit


def claims_by_label(report):
    return {c.label: c for c in report.claims}


def test_theorem23_odd_orders():
    for n in (1, 3, 5):
        rep = verify_theorem_2_3(n)
        assert rep.passed
        by = claims_by_label(rep)
        assert by["forward-diff-at-zero"].computed == -1
        assert by["backward-diff-at-top"].computed == -1
        assert len(rep.make_trace()) == 2 ** (n + 1)


def test_theorem23_trace_is_built_on_first_read(monkeypatch):
    calls = []
    table = scenarios.difference_table

    def counting(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(scenarios, "difference_table", counting)
    rep = verify_theorem_2_3(5)
    assert rep.passed and not calls
    for fmt in ("human", "tsv", "jsonl"):
        render([rep], fmt)
    assert not calls
    assert "trace: forward difference over [h1..h6] at 0" in render([rep], "human", show_trace=True)
    assert len(calls) == 1


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


def test_lemma44_builds_each_atom_once(monkeypatch):
    # One unit atom per closure tree, and one for the positive-part claim
    # across all of A, not one per point.
    built = []
    init = Dirac.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Dirac, "__init__", counting)
    n = 3
    assert verify_lemma_4_4(n).passed
    assert len(built) == n + 2


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


def test_prop43_probes_are_the_full_box_sample(monkeypatch):
    # The probes are drawn by index into the box, not from the built box:
    # the points, and the draws that follow them, must be those of
    # rng.sample over lattice_box itself.
    def full_box(rng, units, lo, hi, k):
        return rng.sample(lattice_box(units, lo, hi), k)

    symbol_counts = set()
    for seed in range(40):
        fast_rng, full_rng = random.Random(seed), random.Random(seed)
        _, hs, probes = scenarios._random_instance(fast_rng)
        with monkeypatch.context() as m:
            m.setattr(scenarios, "sample_box", full_box)
            _, full_hs, full_probes = scenarios._random_instance(full_rng)
        assert (hs, probes) == (full_hs, full_probes)
        assert fast_rng.getstate() == full_rng.getstate()
        symbol_counts.add(len({s for p in probes for s, _ in p.terms}))
    assert symbol_counts == {1, 2, 3}


def _point_combine_instance(rng):
    """The draws of ``scenarios._random_instance``, in the same order, with
    every point built by ``point_combine`` and the probes sampled from the
    built box: ``(weight, atom)`` pairs, increments and probes."""
    nsym = rng.randint(1, 3)
    units = [unit(Symbol(f"s{i + 1}", positive=True)) for i in range(nsym)]
    atoms = []
    for _ in range(rng.randint(1, 5)):
        p = point_combine((rng.randint(0, 5), u) for u in units)
        atoms.append((rng.randint(1, 3), p))
    hs = []
    for _ in range(rng.randint(1, 3)):
        if nsym == 1 or rng.random() < 0.6:
            h = rng.randint(1, 2) * rng.choice(units)
        else:
            coords = [rng.randint(0, 2) for _ in units]
            if not any(coords):
                coords[rng.randrange(nsym)] = 1
            h = point_combine(zip(coords, units))
        hs.append(h)
    hi = 55 if nsym == 1 else 7 if nsym == 2 else 5
    box = [point_combine(zip(cs, units)) for cs in product(range(-1, hi + 1), repeat=nsym)]
    probes = rng.sample(box, 50)
    probes += [p for p in dict.fromkeys(p for _, p in atoms) if p not in probes]
    return atoms, hs, probes


def test_prop43_instances_match_point_combine_draws():
    # Atoms, increments and probes are built from coordinate tuples; the
    # same draws through point_combine give the same points, with the same
    # scalar forms, and leave the rng in the same state.
    def canonical(points):
        return [[(s, type(c), c) for s, c in p.terms] for p in points]

    for seed in range(300):
        rng, oracle = random.Random(seed), random.Random(seed)
        nu, hs, probes = scenarios._random_instance(rng)
        atoms, want_hs, want_probes = _point_combine_instance(oracle)
        assert [t.factor for t in nu.terms] == [w for w, _ in atoms]
        assert canonical(t.inner.point for t in nu.terms) == canonical(p for _, p in atoms)
        assert canonical(hs) == canonical(want_hs)
        assert canonical(probes) == canonical(want_probes)
        assert rng.getstate() == oracle.getstate()


def test_prop43_probes_append_each_new_atom_once():
    # After the box sample come the atoms' points that it missed, in the
    # order the atoms were drawn, each once however often it was drawn.
    seen_repeat = seen_sampled = False
    for seed in range(200):
        nu, _, probes = scenarios._random_instance(random.Random(seed))
        atoms = [t.inner.point for t in nu.terms]
        sample = probes[:50]
        missed = [p for p in dict.fromkeys(atoms) if p not in sample]
        assert probes == sample + missed
        seen_repeat |= len(set(atoms)) < len(atoms)
        seen_sampled |= len(missed) < len(set(atoms))
    assert seen_repeat and seen_sampled


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
