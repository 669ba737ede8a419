"""Built-in scenario runners and their reports."""

import random
from fractions import Fraction
from itertools import product

import pytest

from hamelcheck import (
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
from hamelcheck.basis import AdditiveFunctional, Symbol, point_combine, unit
from hamelcheck.functions import Composite, PositivePartPower
from hamelcheck.measures import Form, build_mu, build_mu_i, j_op, signed_sum
from helpers import lattice_box, lemma_4_4_full, lemma_4_6_full


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
    init = Form.__init__

    def counting(self, parts, *args):
        parts = tuple(parts)
        built.extend(part for part in parts if part[1] is None)
        init(self, parts, *args)

    monkeypatch.setattr(Form, "__init__", counting)
    n = 3
    assert verify_lemma_4_4(n).passed
    assert len(built) == n + 2


def test_lemma44_class_route_matches_the_full_route():
    # The class route reads 2(n+1) classes of pairs (i, S); the oracle
    # reads every mu_i and mu at every point of A.
    for n in range(1, 14, 2):
        rep = verify_lemma_4_4(n)
        assert rep.passed
        assert {c.label: c.computed for c in rep.claims} == lemma_4_4_full(n), n


def _lemma44_with(monkeypatch, n, extra):
    """verify_lemma_4_4(n) with the weighted points ``extra[i]`` added to
    mu_i's unit atom, under the same chain of closures."""
    def mu_i(i, syms):
        units = [unit(s) for s in syms]
        atoms = [(1, units[i - 1]), *extra.get(i, ())]
        return j_op(Form([(w, None, p) for w, p in atoms]), units)

    monkeypatch.setattr(scenarios, "build_mu_i", mu_i)
    return claims_by_label(verify_lemma_4_4(n))


def test_lemma44_as_built_is_certified(monkeypatch):
    # The builder the cases below patch, with nothing added, gives the
    # scenario's own claims, and the certificate holds as built.
    for n in (1, 3, 5):
        want = claims_by_label(verify_lemma_4_4(n))
        with monkeypatch.context() as m:
            assert _lemma44_with(m, n, {}) == want
        syms = scenarios._standard_setup(n)[0]
        mus = [build_mu_i(i, syms) for i in range(1, n + 2)]
        assert scenarios._family_symmetric(syms, mus, signed_sum(mus))


@pytest.mark.parametrize("extra", [
    # An atom at 2*h3 in mu_2: both generators map it into mu_3, which
    # has none there.
    {2: ((1, (0, 0, 2, 0)),)},
    # An atom at 2*h4 in mu_4: the transposition (h2 h3) fixes it, the
    # cycle maps it into mu_2.
    {4: ((1, (0, 0, 0, 2)),)},
    # Atoms at h2 + 2*h3, h3 + 2*h4 and h4 + 2*h2 in mu_1: the cycle maps
    # mu_1 onto itself, the transposition does not.
    {1: ((1, (0, 1, 2, 0)), (1, (0, 0, 1, 2)), (1, (0, 2, 0, 1)))},
], ids=["moved-by-both", "moved-by-the-cycle", "moved-by-the-transposition"])
def test_lemma44_fails_every_class_read_claim_an_uncertified_symmetry_reaches(monkeypatch, extra):
    # Each extra atom has a coordinate 2, so it leaves every mass on A as
    # it was. With no other member drawn, only the certificate can see it:
    # every claim read by class fails, though each computed value equals
    # its expected one, and the full route does not stand in. The
    # d-claims read h1 itself, and pass either way.
    units = [unit(s) for s in scenarios._standard_setup(3)[0]]
    extra = {i: [(w, point_combine(zip(coeffs, units))) for w, coeffs in atoms]
             for i, atoms in extra.items()}
    monkeypatch.setattr(scenarios, "_CLASS_DRAWS", 0)
    by = _lemma44_with(monkeypatch, 3, extra)
    for label in ("d-mass-at-h1", "d-only-first-closure-at-h1"):
        d = by.pop(label)
        assert d.passed and "uncertified" not in d.ref
    assert all(c.computed == c.expected and not c.passed for c in by.values())
    assert by["c-negative-only-at-h1"].ref.endswith(
        "; uncertified: a permutation of h2..h4 does not map the mu_i onto each other "
        "or moves mu's signed terms")


def test_lemma44_certificate_reads_mu_s_signed_terms():
    # The mu_i map onto each other, but a weight that only mu_2 carries, or
    # a part that is not one of them, moves mu itself.
    syms = scenarios._standard_setup(3)[0]
    mus = [build_mu_i(i, syms) for i in range(1, 5)]
    assert scenarios._family_symmetric(syms, mus, signed_sum(mus))
    uneven = Form([(1, mus[1], None), (2, mus[2], None), (1, mus[3], None), (-1, mus[0], None)])
    assert not scenarios._family_symmetric(syms, mus, uneven)
    extra = Form([*signed_sum(mus).parts, (1, None, unit(syms[0]))])
    assert not scenarios._family_symmetric(syms, mus, extra)


def test_lemma44_other_members_must_read_as_their_representative(monkeypatch):
    # Atoms +1 at h2 + h4 and -1 at h2 + h3 + h4 in mu_2 leave every
    # representative's masses as they were, h2 + h3 + h4 among them, but
    # add 1 at the member h2 + h4 of class (0, 2). With the certificate
    # taken as passed, the drawn members alone fail the claims read by
    # class; the d-claims read h1.
    units = [unit(s) for s in scenarios._standard_setup(3)[0]]
    extra = {2: [(1, units[1] + units[3]), (-1, units[1] + units[2] + units[3])]}
    monkeypatch.setattr(scenarios, "_family_symmetric", lambda *args: True)
    by = _lemma44_with(monkeypatch, 3, extra)
    by_class = ("a-unit-mass-on-own-set", "b-zero-mass-off-set", "c-negative-only-at-h1",
                "e-positive-part-shift")
    assert [by[label].computed for label in by_class] == [False] * 4
    assert by["d-mass-at-h1"].passed and by["d-only-first-closure-at-h1"].passed
    monkeypatch.setattr(scenarios, "_CLASS_DRAWS", 0)
    by = _lemma44_with(monkeypatch, 3, extra)
    assert [by[label].computed for label in by_class] == [True] * 4


def test_lemma46_orders_and_chain():
    for n in (1, 3, 5):
        rep = verify_lemma_4_6(n)
        assert rep.passed, [c for c in rep.claims if not c.passed]
        by = claims_by_label(rep)
        assert by["power-mass-diff-at-top"].computed == 0
        assert by["unit-atom-diff-at-top"].computed == Fraction((-1) ** n)
        assert by["chain-measure-path"].computed == -1
        assert by["chain-direct-path"].computed == -1


def test_lemma46_class_route_matches_the_full_route():
    # The class route reads 2(n+1) classes of A; the oracle reads all of A
    # and expands the three measure-path differences over every subset sum.
    for n in range(1, 14, 2):
        rep = verify_lemma_4_6(n)
        assert rep.passed
        assert {c.label: c.computed for c in rep.claims} == lemma_4_6_full(n), n


def _lemma46_with(monkeypatch, n, a_at_last=1, extra=()):
    """verify_lemma_4_6(n) with a(h(n+1)) set to ``a_at_last`` and the
    weighted points ``extra`` added to mu's signed unit atoms, under the
    same chain of closures."""
    setup = scenarios._standard_setup

    def asymmetric(n):
        syms, units, a, f, top = setup(n)
        a = AdditiveFunctional({**{s: a(unit(s)) for s in syms}, syms[-1]: a_at_last})
        return syms, units, a, Composite(PositivePartPower(n), a), top

    def mu(syms):
        units = [unit(s) for s in syms]
        atoms = [(-1, units[0]), *((1, u) for u in units[1:]), *extra]
        return j_op(Form([(w, None, p) for w, p in atoms]), units)

    monkeypatch.setattr(scenarios, "_standard_setup", asymmetric)
    monkeypatch.setattr(scenarios, "build_mu", mu)
    return claims_by_label(verify_lemma_4_6(n))


def test_lemma46_as_built_is_certified(monkeypatch):
    # The builders the cases below patch, with nothing moved, give the
    # scenario's own claims, and the certificate holds as built.
    for n in (1, 3, 5):
        want = claims_by_label(verify_lemma_4_6(n))
        with monkeypatch.context() as m:
            assert _lemma46_with(m, n) == want
        syms, units, a, _, _ = scenarios._standard_setup(n)
        assert scenarios._symmetric(syms, units, a, build_mu(syms))


@pytest.mark.parametrize("a_at_last, extra", [
    # a(h4) = 2: the transposition (h2 h3) fixes a's values, the cycle does not.
    (2, ()),
    # Atoms at h2 + 2*h3, h3 + 2*h4 and h4 + 2*h2: the cycle fixes mu's
    # chain record, the transposition does not. They leave every mass on A
    # as it was.
    (1, ((0, 1, 2, 0), (0, 0, 1, 2), (0, 2, 0, 1))),
], ids=["a-moved-by-the-cycle", "mu-moved-by-the-transposition"])
def test_lemma46_fails_every_claim_an_uncertified_symmetry_reaches(monkeypatch, a_at_last, extra):
    # With no other member drawn, only the certificate can see the moved
    # values; every claim but the direct path's fails, even one whose
    # computed value equals its expected one, and the full route does not
    # stand in. The direct path reads f alone, and passes either way.
    units = [unit(s) for s in scenarios._standard_setup(3)[0]]
    monkeypatch.setattr(scenarios, "_CLASS_DRAWS", 0)
    by = _lemma46_with(monkeypatch, 3, a_at_last,
                       [(1, point_combine(zip(coeffs, units))) for coeffs in extra])
    direct = by.pop("chain-direct-path")
    assert direct.passed and "uncertified" not in direct.ref
    assert not any(c.passed for c in by.values())
    atom = by["unit-atom-diff-at-top"]
    assert atom.computed == atom.expected == -1 and not atom.passed
    assert atom.ref.endswith("; uncertified: a permutation of h2..h4 moves mu's chain record or a")


def test_lemma46_other_members_must_read_as_their_representative(monkeypatch):
    # Atoms +1 at h2 + h4 and -1 at h2 + h3 + h4 leave every
    # representative's mass as it was, h2 + h3 + h4 among them, but add 1
    # at the member h2 + h4 of class (0, 2). With the certificate taken as
    # passed, the drawn members alone fail the pointwise claims.
    units = [unit(s) for s in scenarios._standard_setup(3)[0]]
    extra = [(1, units[1] + units[3]), (-1, units[1] + units[2] + units[3])]
    monkeypatch.setattr(scenarios, "_symmetric", lambda *args: True)
    by = _lemma46_with(monkeypatch, 3, extra=extra)
    pointwise = ("additive-matches-mass-on-A", "mass-power-identity-on-A",
                 "binomial-reduction-on-A")
    assert [by[label].computed for label in pointwise] == [False, False, False]
    monkeypatch.setattr(scenarios, "_CLASS_DRAWS", 0)
    by = _lemma46_with(monkeypatch, 3, extra=extra)
    assert [by[label].computed for label in pointwise] == [True, True, True]


def test_theorem_and_chain_values_agree():
    for n in (1, 3, 5):
        fwd = claims_by_label(verify_theorem_2_3(n))["forward-diff-at-zero"].computed
        chain = claims_by_label(verify_lemma_4_6(n))["chain-measure-path"].computed
        assert fwd == chain == -1


def test_prop43_probes_are_the_full_box_sample(monkeypatch):
    # The probes are drawn by index into the box, not from the built box:
    # the points, and the draws that follow them, must be those of
    # rng.sample over lattice_box itself.
    def full_box(rng, syms, lo, hi, k):
        return rng.sample(lattice_box([unit(s) for s in syms], lo, hi), k)

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
        assert [(c, child) for c, child, _ in nu.parts] == [(w, None) for w, _ in atoms]
        assert canonical(at for _, _, at in nu.parts) == canonical(p for _, p in atoms)
        assert canonical(hs) == canonical(want_hs)
        assert canonical(probes) == canonical(want_probes)
        assert rng.getstate() == oracle.getstate()


def test_prop43_probes_append_each_new_atom_once():
    # After the box sample come the atoms' points that it missed, in the
    # order the atoms were drawn, each once however often it was drawn.
    seen_repeat = seen_sampled = False
    for seed in range(200):
        nu, _, probes = scenarios._random_instance(random.Random(seed))
        atoms = [at for _, _, at in nu.parts]
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
    assert [(c.label, c.computed) for c in rep.claims] == [("prop31-witness", -1)]
    assert rep.notes  # explicitly marked as probe-only

    rep = probe_even(2, "prop32-grid")
    assert [(c.label, c.computed) for c in rep.claims] == [
        ("prop32-grid-c=0", 0), ("prop32-grid-c=1", 0), ("prop32-grid-c=2", 0)]

    rep = probe_even(2, "prop33-witness")
    assert [(c.label, c.computed) for c in rep.claims] == [("prop33-c=-1", -1), ("prop33-c=-2", -4)]


def test_probe_even_reports_section32s_claims():
    # Each candidate is checked in one place: a probe's claims are the
    # section32 claims of the same labels, and the cases between them
    # report every section32 claim but the tabulated example's.
    section = claims_by_label(verify_section_3_2())
    seen = []
    for case in scenarios.even_candidates(2):
        claims = probe_even(2, case).claims
        assert claims and list(claims) == [section[c.label] for c in claims], case
        seen += [c.label for c in claims]
    assert sorted(seen) == sorted(section.keys() - {"q-table-third-diff"})


def test_probe_even_errors():
    with pytest.raises(UnknownCandidate):
        probe_even(2, "nonsense")
    with pytest.raises(UnknownCandidate):
        probe_even(4, "prop31-witness")
    with pytest.raises(ValueError):
        probe_even(3, "prop31-witness")
