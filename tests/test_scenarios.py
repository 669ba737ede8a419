"""Built-in scenario runners and their reports."""

import random
from fractions import Fraction
from itertools import islice, product

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
from hamelcheck.basis import AdditiveFunctional, Point, Symbol, point_combine, unit
from hamelcheck.functions import Composite, PositivePartPower
from hamelcheck.measures import (
    Dirac, Form, Sum, atom_mass, build_a_sets, build_mu, build_mu_i, j_op, masses,
)
from helpers import (
    as_drawn, coords_over, lattice_box, lemma_4_4_full, lemma_4_6_full,
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
        assert sum(1 for _ in rep.make_trace()) == 2 ** (n + 1)


def test_theorem23_trace_is_built_on_first_read(monkeypatch):
    calls = []
    table = scenarios.difference_rows

    def counting(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(scenarios, "difference_rows", counting)
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
    # One chain, mu_1's; every other mu_i is read as mu_1 renamed, and mu
    # as their signed sum, and building either would add closures.
    built = []
    init = JClosure.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(JClosure, "__init__", counting)
    n = 3
    assert verify_lemma_4_4(n).passed
    assert len(built) == n + 1  # one chain of n + 1 closures


def test_lemma44_builds_each_atom_once(monkeypatch):
    # One unit atom under mu_1's chain, and one for the positive-part
    # claim across all of A, not one per point; mu builds none.
    built = []
    init = Form.__init__

    def counting(self, parts, *args):
        parts = tuple(parts)
        built.extend(part for part in parts if part[1] is None)
        init(self, parts, *args)

    monkeypatch.setattr(Form, "__init__", counting)
    n = 3
    assert verify_lemma_4_4(n).passed
    assert len(built) == 2


def test_lemma44_class_route_matches_the_full_route():
    # The class route reads the 2(n+1) classes of A; the oracle
    # reads every mu_i and mu at every point of A.
    for n in range(1, 14, 2):
        rep = verify_lemma_4_4(n)
        assert rep.passed
        assert {c.label: c.computed for c in rep.claims} == lemma_4_4_full(n), n


def _lemma_with(monkeypatch, verify, n, extra=(), h1_steps=(1,), a_at_last=1):
    """``verify(n)``, a lemma runner, with a(h(n+1)) set to ``a_at_last``,
    the weighted points ``extra`` added to mu_1's unit atom, and its chain's
    one unit step along h1 replaced by steps of these multiples of h1; for
    an ``extra`` of None, mu_1 as built read through a `Sum` of it alone,
    equal at every point and with no chain record. The runners build no
    other mu_i."""
    setup = scenarios._standard_setup

    def asymmetric(n):
        syms, units, a, f, top = setup(n)
        a = AdditiveFunctional({**{s: a(unit(s)) for s in syms}, syms[-1]: a_at_last})
        return syms, units, a, Composite(PositivePartPower(n), a), top

    def mu_i(i, syms):
        if extra is None:
            return Sum((build_mu_i(i, syms),))
        units = [unit(s) for s in syms]
        atoms = [(1, units[i - 1]), *extra]
        steps = [*(k * units[0] for k in h1_steps), *units[1:]]
        return j_op(Form([(w, None, p) for w, p in atoms]), steps)

    monkeypatch.setattr(scenarios, "_standard_setup", asymmetric)
    monkeypatch.setattr(scenarios, "build_mu_i", mu_i)
    return claims_by_label(verify(n))


@pytest.mark.parametrize("verify", [verify_lemma_4_4, verify_lemma_4_6],
                         ids=["lemma44", "lemma46"])
def test_lemmas_as_built_are_certified(monkeypatch, verify):
    # The builders the cases below patch, with nothing added or moved, give
    # the scenario's own claims, and the certificate holds as built.
    for n in (1, 3, 5):
        want = claims_by_label(verify(n))
        with monkeypatch.context() as m:
            assert _lemma_with(m, verify, n) == want
        syms, _, a, _, _ = scenarios._standard_setup(n)
        assert scenarios._certified(syms, a, build_mu_i(1, syms))


def test_lemma44_exchanged_read_is_the_built_mu_i():
    # The fact the runner rests on: each built mu_i equals mu_1 read, over
    # one batch of tuples, with the coordinates of h1 and h_i exchanged, at
    # every point of A, every class member among them, and at each 2*h_j,
    # off A, where mu_i has mass 1 if j = i and 0 otherwise.
    for n in range(1, 8):
        syms = scenarios._standard_setup(n)[0]
        basis = tuple(sorted(syms))
        points = [*build_a_sets(syms).union, *(2 * unit(s) for s in syms)]
        xs = [p.coords(basis) for p in points]
        mu_1 = build_mu_i(1, syms)
        for i in range(2, n + 2):
            one, other = basis.index(syms[0]), basis.index(syms[i - 1])
            swapped = []
            for v in xs:
                v = list(v)
                v[one], v[other] = v[other], v[one]
                swapped.append(tuple(v))
            mu_i = build_mu_i(i, syms)
            assert masses(mu_1, basis, swapped) == [atom_mass(mu_i, p) for p in points], (n, i)


def _mu_1_and_mu(syms, extra):
    """mu_1 = J(delta_h1 + extra) over the unit steps of ``syms``, where
    ``extra`` holds weighted points that every permutation of h2..h(n+1)
    fixes, and mu = mu_2 + ... + mu_(n+1) - mu_1, each mu_i mu_1 with h1
    and h_i exchanged, built by J's linearity as one chain over the signed
    sum of the exchanged atoms."""
    units = [unit(s) for s in syms]
    atoms = [(1, units[0]), *extra]
    signed = [(-w, p) for w, p in atoms]
    for s in syms[1:]:
        swap = {syms[0]: s, s: syms[0]}
        signed += [(w, point_combine((c, unit(swap.get(t, t))) for t, c in p.terms))
                   for w, p in atoms]
    return (j_op(Form([(w, None, p) for w, p in atoms]), units),
            j_op(Form([(w, None, p) for w, p in signed]), units))


def _off_a_1(syms):
    """Atoms at 0 and at h2 + ... + h(n+1), which every permutation of
    h2..h(n+1) fixes: put into mu_1, they give it mass on the classes
    without h1."""
    return ((Fraction(1, 3), point_combine(())),
            (2, point_combine((1, unit(s)) for s in syms[1:])))


def test_mu_by_class_is_the_built_mu_at_every_class_member():
    # Two routes to mu at each member of every class, representatives and
    # members moved by the cycle: the runner's sum of exchanged reads of
    # mu_1 (`_mu_by_class`), and `build_mu`'s one chain over the signed unit
    # atoms. On A, mu_1 is 0 on every class without h1; a second pair of
    # measures, with atoms at 0 and at h2 + ... + h(n+1) put into mu_1,
    # and so into each exchange, makes those classes count too.
    for n in range(1, 22, 2):
        syms = scenarios._standard_setup(n)[0]
        basis, xs, sizes = scenarios._by_class(syms)
        for extra in ((), _off_a_1(syms)):
            if extra:
                mu_1, mu = _mu_1_and_mu(syms, extra)
            else:
                mu_1, mu = build_mu_i(1, syms), build_mu(syms)
            firsts, _ = scenarios._per_class(sizes, (masses(mu_1, basis, xs),))
            ms = scenarios._mu_by_class([f for f, in firsts])
            want = [m for m, size in zip(ms, sizes) for _ in range(size)]
            assert masses(mu, basis, xs) == want, (n, extra)


def test_each_class_member_reads_as_its_point(monkeypatch):
    # Both lemmas read one class batch (`scenarios._class_reads`): a(x),
    # mu_1 and delta_h1 at every class member, the same rows in each. Each
    # member's row equals the reads at its point one at a time: a(x) and
    # atom_mass of the measures as built; and f.value(x) is K at a(x), as
    # lemma 4.6 reads it. The member's tuple is a 0/1 combination that
    # holds h1 for the classes with b = 1 and k units past h1.
    seen = []
    per_class = scenarios._per_class

    def spy(sizes, columns):
        columns = [list(c) for c in columns]
        seen.append(columns)
        return per_class(sizes, columns)

    monkeypatch.setattr(scenarios, "_per_class", spy)
    for n in range(1, 10, 2):
        seen.clear()
        verify_lemma_4_4(n)
        verify_lemma_4_6(n)
        rows44, rows46 = (list(zip(*columns)) for columns in seen)
        assert rows44 == rows46
        syms, units, a, f, _ = scenarios._standard_setup(n)
        basis, xs, sizes = scenarios._by_class(syms)
        assert len(rows44) == len(xs) == sum(sizes)
        delta1, mu_1 = Dirac(units[0]), build_mu_i(1, syms)
        members = zip(xs, rows44)
        for (b, k), size in zip(product((0, 1), range(n + 1)), sizes):
            for v, row in islice(members, size):
                x = Point.from_coords(basis, v)
                support = {s for s, c in x.terms if c == 1}
                assert len(x.terms) == len(support) == b + k, (n, v)
                assert (syms[0] in support) == b, (n, v)
                assert row == (a(x), atom_mass(mu_1, x), atom_mass(delta1, x)), (n, v)
                assert f.value(x) == f.kernel.apply(a(x)), (n, v)


def test_class_members_are_the_representative_moved_by_the_cycle():
    # Each class (b, k) is read at its representative b*h1 + h2 + ... +
    # h(k+1) and, if 0 < k < n, at it moved by the cycle (h2 ... h(n+1)),
    # the one `_certified` checks, one and two places. So every member is a
    # 0/1 tuple over the sorted basis in its class, and a class's members
    # are distinct.
    for n in range(1, 22, 2):
        syms = scenarios._standard_setup(n)[0]
        basis, xs, sizes = scenarios._by_class(syms)
        assert basis == tuple(sorted(syms)) and len(xs) == sum(sizes)
        cycle = dict(zip(syms[1:], syms[2:] + syms[1:2]))
        members = iter(xs)
        for (b, k), size in zip(product((0, 1), range(n + 1)), sizes):
            support, want = {*syms[:b], *syms[1:k + 1]}, []
            for _ in range(3 if 0 < k < n else 1):
                want.append(support)
                support = {cycle.get(s, s) for s in support}
            got = list(islice(members, size))
            ons = [{s for s, c in zip(basis, v) if c} for v in got]
            assert len(set(got)) == size and ons == want, (n, b, k)
            for v, on in zip(got, ons):
                assert set(v) <= {0, 1} and len(v) == n + 1, (n, v)
                assert (syms[0] in on, len(on - {syms[0]})) == (b, k), (n, v)
    # The member the other-members tests rely on: h2 + h4 of class (0, 2).
    syms = scenarios._standard_setup(3)[0]
    basis, xs, sizes = scenarios._by_class(syms)
    assert (0, 1, 0, 1) in xs[sum(sizes[:2]):sum(sizes[:3])]


@pytest.mark.parametrize("n, extra, h1_steps", [
    # An atom at 2*h3 in mu_1: the cycle (h2 h3 h4) and the transposition
    # (h2 h3) both move it.
    (3, ((0, 0, 2, 0),), (1,)),
    # An atom at 2*h5 in mu_1: the transposition (h2 h3) fixes it, the
    # cycle (h2 ... h6) does not.
    (5, ((0, 0, 0, 0, 2, 0),), (1,)),
    # Atoms at h2 + 2*h3, h3 + 2*h4 and h4 + 2*h2 in mu_1: the cycle
    # (h2 h3 h4) maps mu_1 onto itself, the transposition (h2 h3) does not.
    (3, ((0, 1, 2, 0), (0, 0, 1, 2), (0, 2, 0, 1)), (1,)),
    # mu_1's chain steps by 2*h1, or twice along h1: every renaming of
    # h2..h4 fixes it, and it reads as built on A, but its run on h1 is
    # not its run on h2, so the exchanges of h1 and h_i move its J.
    (3, (), (2,)),
    (3, (), (1, 1)),
], ids=["moved-by-both", "moved-by-the-cycle", "moved-by-the-transposition",
        "runs-on-h1-step-by-2", "runs-on-h1-twice"])
def test_lemma44_fails_every_class_read_claim_an_uncertified_symmetry_reaches(
        monkeypatch, n, extra, h1_steps):
    # Each extra atom has a coordinate 2, so it leaves every mass on A as
    # it was. With no member moved by the cycle read, only the certificate
    # can see it: every claim fails, though each computed value equals its
    # expected one, and the full route does not stand in. Every claim reads
    # mu_1: d-only-first-closure-at-h1's mu_1 at h2 stands for
    # mu_2..mu_(n+1) at h1 by the exchanges, and d-mass-at-h1 reads mu as
    # their signed sum.
    units = [unit(s) for s in scenarios._standard_setup(n)[0]]
    extra = [(1, point_combine(zip(coeffs, units))) for coeffs in extra]
    monkeypatch.setattr(scenarios, "_CLASS_TURNS", 0)
    by = _lemma_with(monkeypatch, verify_lemma_4_4, n, extra, h1_steps)
    assert by["d-mass-at-h1"].computed == -1
    assert all(c.computed == c.expected and not c.passed for c in by.values())
    assert all(c.ref.endswith(f"; uncertified: a permutation of h2..h{n + 1} moves a or the "
                              "chain read, or its runs on h1 and h2 differ")
               for c in by.values())


def test_lemma44_other_members_must_read_as_their_representative(monkeypatch):
    # Atoms +1 at h2 + h4 and -1 at h2 + h3 + h4 in mu_1 leave every
    # representative's masses as they were, h2 + h3 + h4 among them, but
    # add 1 at the member h2 + h4 of class (0, 2). With the certificate
    # taken as passed, the members moved by the cycle alone fail the claims
    # read by class; the d-claims read h1 and h2.
    units = [unit(s) for s in scenarios._standard_setup(3)[0]]
    extra = [(1, units[1] + units[3]), (-1, units[1] + units[2] + units[3])]
    monkeypatch.setattr(scenarios, "_certified", lambda *args: True)
    by = _lemma_with(monkeypatch, verify_lemma_4_4, 3, extra)
    by_class = ("a-unit-mass-on-own-set", "b-zero-mass-off-set", "c-negative-only-at-h1",
                "e-positive-part-shift")
    assert [by[label].computed for label in by_class] == [False] * 4
    assert by["d-mass-at-h1"].passed and by["d-only-first-closure-at-h1"].passed
    monkeypatch.setattr(scenarios, "_CLASS_TURNS", 0)
    by = _lemma_with(monkeypatch, verify_lemma_4_4, 3, extra)
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


def test_lemma46_reads_mu_off_mu_1_where_mu_1_has_mass_off_a_1(monkeypatch):
    # With `_off_a_1`'s atoms put into mu_1, still certified, its mass on
    # the classes without h1 enters mu, and lemma 4.6 reads each claim as
    # the full route does with mu built as one chain over the same
    # exchanged atoms.
    for n in (1, 3, 5, 7):
        syms = scenarios._standard_setup(n)[0]
        mu_1, mu = _mu_1_and_mu(syms, _off_a_1(syms))
        monkeypatch.setattr(scenarios, "build_mu_i", lambda i, syms: mu_1)
        rep = verify_lemma_4_6(n)
        assert not rep.passed
        assert {c.label: c.computed for c in rep.claims} == lemma_4_6_full(n, mu), n


@pytest.mark.parametrize("a_at_last, extra", [
    # a(h4) = 2: the transposition (h2 h3) fixes a's values, the cycle does not.
    (2, ()),
    # Atoms at h2 + 2*h3, h3 + 2*h4 and h4 + 2*h2 in mu_1, and so in mu:
    # the cycle fixes mu_1's chain record, the transposition does not. They
    # leave every mass on A as it was.
    (1, ((0, 1, 2, 0), (0, 0, 1, 2), (0, 2, 0, 1))),
    # mu_1 read through a Sum of it alone: equal at every point, yet it
    # has no chain record to certify.
    (1, None),
], ids=["a-moved-by-the-cycle", "mu-moved-by-the-transposition", "mu-without-chain-record"])
def test_lemma46_fails_every_claim_an_uncertified_symmetry_reaches(monkeypatch, a_at_last, extra):
    # With no member moved by the cycle read, only the certificate can see
    # the moved values; every claim but the direct path's fails, even one
    # whose computed value equals its expected one, and the full route does
    # not stand in. The direct path reads f alone, and passes either way.
    units = [unit(s) for s in scenarios._standard_setup(3)[0]]
    monkeypatch.setattr(scenarios, "_CLASS_TURNS", 0)
    if extra is not None:
        extra = [(1, point_combine(zip(coeffs, units))) for coeffs in extra]
    by = _lemma_with(monkeypatch, verify_lemma_4_6, 3, extra, a_at_last=a_at_last)
    direct = by.pop("chain-direct-path")
    assert direct.passed and "uncertified" not in direct.ref
    assert not any(c.passed for c in by.values())
    atom = by["unit-atom-diff-at-top"]
    assert atom.computed == atom.expected == -1 and not atom.passed
    assert atom.ref.endswith("; uncertified: a permutation of h2..h4 moves a or the chain read, "
                             "or its runs on h1 and h2 differ")


def test_lemma46_other_members_must_read_as_their_representative(monkeypatch):
    # Atoms +1 at h2 + h4 and -1 at h2 + h3 + h4 in mu_1 leave every
    # representative's masses as they were, h2 + h3 + h4 among them, but
    # add 1 at the member h2 + h4 of class (0, 2). With the certificate
    # taken as passed, the members moved by the cycle alone fail the
    # pointwise claims.
    units = [unit(s) for s in scenarios._standard_setup(3)[0]]
    extra = [(1, units[1] + units[3]), (-1, units[1] + units[2] + units[3])]
    monkeypatch.setattr(scenarios, "_certified", lambda *args: True)
    by = _lemma_with(monkeypatch, verify_lemma_4_6, 3, extra)
    pointwise = ("additive-matches-mass-on-A", "mass-power-identity-on-A",
                 "binomial-reduction-on-A")
    assert [by[label].computed for label in pointwise] == [False, False, False]
    monkeypatch.setattr(scenarios, "_CLASS_TURNS", 0)
    by = _lemma_with(monkeypatch, verify_lemma_4_6, 3, extra)
    assert [by[label].computed for label in pointwise] == [True, True, True]


@pytest.mark.parametrize("verify, by_class", [
    (verify_lemma_4_4, ("a-unit-mass-on-own-set", "b-zero-mass-off-set",
                        "c-negative-only-at-h1", "e-positive-part-shift")),
    (verify_lemma_4_6, ("binomial-reduction-on-A",)),
], ids=["lemma44", "lemma46"])
def test_lemmas_read_a_at_other_members_as_at_their_representative(
        monkeypatch, verify, by_class):
    # a(h4) = 2 makes a(x) at a member moved by the cycle that holds h4
    # differ from its representative's, such as h2 + h4 of class (0, 2) at
    # n = 3, h2 + h3 moved two places, against h2 + h3. With the
    # certificate taken as passed, a's column alone fails each claim read
    # by class that reads no a: every mass is as built.
    monkeypatch.setattr(scenarios, "_certified", lambda *args: True)
    by = _lemma_with(monkeypatch, verify, 3, a_at_last=2)
    assert [by[label].computed for label in by_class] == [False] * len(by_class)
    monkeypatch.setattr(scenarios, "_CLASS_TURNS", 0)
    by = _lemma_with(monkeypatch, verify, 3, a_at_last=2)
    assert [by[label].computed for label in by_class] == [True] * len(by_class)


def test_theorem_and_chain_values_agree():
    for n in (1, 3, 5):
        fwd = claims_by_label(verify_theorem_2_3(n))["forward-diff-at-zero"].computed
        chain = claims_by_label(verify_lemma_4_6(n))["chain-measure-path"].computed
        assert fwd == chain == -1


def test_prop43_probes_are_the_full_box_sample(monkeypatch):
    # The probes are drawn by index into the box, not from the built box:
    # the probes' coordinates, and the draws that follow them, must be
    # those of rng.sample over lattice_box itself.
    def full_box(rng, syms, lo, hi, k):
        box = lattice_box([unit(s) for s in syms], lo, hi)
        return [coords_over(p, tuple(sorted(syms))) for p in rng.sample(box, k)]

    symbol_counts = set()
    for seed in range(40):
        fast_rng, full_rng = random.Random(seed), random.Random(seed)
        _, hs, basis, probes = scenarios._random_instance(fast_rng)
        with monkeypatch.context() as m:
            m.setattr(scenarios, "sample_box", full_box)
            _, full_hs, full_basis, full_probes = scenarios._random_instance(full_rng)
        assert (hs, basis) == (full_hs, full_basis)
        assert as_drawn(probes) == as_drawn(full_probes)
        assert fast_rng.getstate() == full_rng.getstate()
        assert {len(v) for v in probes} == {len(basis)}
        symbol_counts.add(len(basis))
    assert symbol_counts == {1, 2, 3}


def _point_combine_instance(rng):
    """The draws of ``scenarios._random_instance``, in the same order, with
    every point built by ``point_combine`` and the probes sampled from the
    built box: the symbols, ``(weight, atom)`` pairs, increments and
    probes."""
    nsym = rng.randint(1, 3)
    syms = tuple(Symbol(f"s{i + 1}", positive=True) for i in range(nsym))
    units = [unit(s) for s in syms]
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
    return syms, atoms, hs, probes


def test_prop43_instances_match_point_combine_draws():
    # Atoms, increments and probes are built from coordinate tuples; the
    # same draws through point_combine give the same points, and probes
    # with the same coordinates over the symbols, with the same scalar
    # forms, and leave the rng in the same state.
    def canonical(points):
        return [[(s, type(c), c) for s, c in p.terms] for p in points]

    for seed in range(300):
        rng, oracle = random.Random(seed), random.Random(seed)
        nu, hs, basis, probes = scenarios._random_instance(rng)
        syms, atoms, want_hs, want_probes = _point_combine_instance(oracle)
        assert [(c, child) for c, child, _ in nu.parts] == [(w, None) for w, _ in atoms]
        assert canonical(at for _, _, at in nu.parts) == canonical(p for _, p in atoms)
        assert canonical(hs) == canonical(want_hs)
        assert basis == syms
        assert as_drawn(probes) == as_drawn(coords_over(p, syms) for p in want_probes)
        assert rng.getstate() == oracle.getstate()


def test_prop43_probes_append_each_new_atom_once():
    # After the box sample come the tuples of the atoms that it missed, in
    # the order the atoms were drawn, each once however often it was drawn.
    seen_repeat = seen_sampled = False
    for seed in range(200):
        nu, _, basis, probes = scenarios._random_instance(random.Random(seed))
        atoms = [coords_over(at, basis) for _, _, at in nu.parts]
        sample = probes[:50]
        missed = [v for v in dict.fromkeys(atoms) if v not in sample]
        assert as_drawn(probes) == as_drawn(sample + missed)
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
