"""Built-in verification scenarios with structured reports.

Each runner constructs its instance from scratch, computes every claimed
value exactly, and compares against the expected value frozen in the
claim. Randomized runners take an explicit seed and name it in the
report, so every run is reproducible.
"""

from __future__ import annotations

import random

from .basis import (
    ZERO,
    AdditiveFunctional,
    Point,
    Symbol,
    point_combine,
    sample_box,
    symbols,
    unit,
)
from .differences import (
    backward_diff,
    backward_diffs,
    difference_table,
    forward_diff,
    group_sums,
    jensen_convexity_probe,
)
from .errors import EvenOrder, UnknownCandidate
from .functions import (
    Composite,
    MeasureMass,
    PointwisePower,
    PositivePartPower,
    tabulated_abs,
)
from .measures import (
    Dirac,
    Scale,
    Sum,
    atom_mass,
    build_a_sets,
    build_mu,
    build_mu_i,
    j_op,
    nabla,
    signed_sum,
)
from .reports import Claim, Report, make_claim


def require_odd(n: int) -> None:
    """Refuse an order the odd-order scenarios cannot run."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    if n % 2 == 0:
        raise EvenOrder(
            f"order {n} is even; only odd orders are verified here "
            "(see `probe even` for candidate probes)"
        )


def _standard_setup(n: int):
    """Symbols h1..h(n+1), the additive map with value -1 on h1 and 1
    elsewhere, and the composed positive-part power function."""
    syms = symbols(" ".join(f"h{i}" for i in range(1, n + 2)), positive=True)
    units = [unit(s) for s in syms]
    values = {syms[0]: -1}
    for s in syms[1:]:
        values[s] = 1
    a = AdditiveFunctional(values)
    f = Composite(PositivePartPower(n), a)
    top = point_combine((1, u) for u in units)
    return syms, units, a, f, top


def verify_theorem_2_3(n: int) -> Report:
    """Wright-convexity failure of the positive-part power of the signed
    additive map: the mixed difference over all n+1 increments at 0 is -1."""
    require_odd(n)
    _, units, _, f, top = _standard_setup(n)
    fwd = forward_diff(f, ZERO, units)
    bwd = backward_diff(f, top, units)
    return Report(
        f"theorem23(n={n})",
        (
            make_claim(
                "forward-diff-at-zero",
                f"mixed forward difference of (a(.))_+^{n} over h1..h{n + 1} at 0",
                fwd,
                -1,
            ),
            make_claim(
                "backward-diff-at-top",
                "same value through the backward form at h1+...+h%d" % (n + 1),
                bwd,
                -1,
            ),
        ),
        lambda: difference_table(f, ZERO, units),
        f"forward difference over [h1..h{n + 1}] at 0",
    )


# Frozen value table for the order-3 walkthrough, in subset-size order
# (size 4 first, subsets lexicographic within a size).
_WALKTHROUGH_VALUES = (8, 1, 1, 1, 27, 0, 0, 0, 8, 8, 8, 0, 1, 1, 1, 0)
_WALKTHROUGH_GROUP_SUMS = {4: 8, 3: 30, 2: 24, 1: 3, 0: 0}


def verify_section_3_1() -> Report:
    """The order-3 instance with every one of the 16 evaluations spelled
    out and the grouped alternating sum."""
    _, units, _, f, _ = _standard_setup(3)
    rows = difference_table(f, ZERO, units)
    groups = group_sums(rows)
    claims = (
        *(
            make_claim(
                f"value[{row.point}]",
                f"f(0 + {row.point}) with f = (a(.))_+^3",
                row.value,
                expected,
            )
            for row, expected in zip(rows, _WALKTHROUGH_VALUES)
        ),
        *(
            make_claim(
                f"group-sum-{size}",
                f"sum of the size-{size} evaluations",
                value,
                _WALKTHROUGH_GROUP_SUMS[size],
            )
            for size, _, value in groups
        ),
        make_claim(
            "alternating-total",
            "8 - 30 + 24 - 3 + 0",
            sum(sign * value for _, sign, value in groups),
            -1,
        ),
    )
    return Report("section31", claims, lambda: rows, "forward difference over [h1..h4] at 0")


def verify_section_3_2() -> Report:
    """Order-2 candidates: the tabulated quadratic-magnitude example and
    the three scaled-kernel propositions."""
    # Quadratic-magnitude table on a one-step lattice; raw values are the
    # signed ones, magnitudes taken at construction.
    s = Symbol("s", positive=True)
    su = unit(s)
    q_raw = {ZERO: -9, su: 4, 2 * su: 7, 3 * su: 0}
    q_abs = tabulated_abs(q_raw)
    f, x, h = _prop31_witness()
    grids = [(c, *_prop32_grid(c)) for c in (0, 1, 2)]
    squares = [(c, *_prop33_square(c)) for c in (-1, -2)]
    claims = (
        make_claim(
            "q-table-third-diff",
            "third equal-step difference of |Q| tabulated as 9, 4, 7, 0",
            forward_diff(q_abs, ZERO, (su, su, su)),
            -18,
        ),
        make_claim(
            "prop31-witness",
            "third difference -(a(x))^2 at the exact witness (a(x)=1, a(h)=-2)",
            forward_diff(f, x, (h,) * 3),
            -1,
        ),
        *(
            make_claim(
                f"prop32-grid-c={c}",
                f"violations of the third-difference sign for {c}^2*x_+^2 "
                "on x in [-3,3], h in {1,2}",
                len(jensen_convexity_probe(f, 2, grid)),
                0,
            )
            for c, f, grid in grids
        ),
        *(
            make_claim(
                f"prop33-c={c}",
                f"third difference of {c}^2*(-x)_+^2 at x=-1, h=1",
                forward_diff(f, x, (h,) * 3),
                -c * c,
            )
            for c, f, x, h in squares
        ),
    )
    return Report("section32", claims)


def verify_lemma_4_4(n: int) -> Report:
    """Mass pattern of the closure measures on the 0/1-combination sets."""
    require_odd(n)
    syms, units, _, _, _ = _standard_setup(n)
    mus = [build_mu_i(i, syms) for i in range(1, n + 2)]
    # mu is built from these closures, not fresh ones, so that its masses
    # reuse the memos the per-closure claims fill.
    mu = signed_sum(mus)
    a_sets = build_a_sets(syms)
    h1 = units[0]
    delta1 = Dirac(h1)

    ok_a = all(
        atom_mass(mus[i], x) == 1
        for i in range(n + 1)
        for x in a_sets.sets[i]
    )
    ok_b = all(
        atom_mass(mus[i], x) == 0
        for i in range(n + 1)
        for x in a_sets.union - a_sets.sets[i]
    )
    negatives = {x for x in a_sets.union if atom_mass(mu, x) < 0}
    only_first = atom_mass(mus[0], h1) == 1 and all(
        atom_mass(m, h1) == 0 for m in mus[1:]
    )
    ok_e = all(
        max(atom_mass(mu, x), 0) == atom_mass(mu, x) + atom_mass(delta1, x)
        for x in a_sets.union
    )
    claims = (
        make_claim(
            "a-unit-mass-on-own-set",
            "mu_i(x) = 1 for every x in A_i, for every i",
            ok_a,
            True,
        ),
        make_claim(
            "b-zero-mass-off-set",
            "mu_i(x) = 0 for every x in A outside A_i",
            ok_b,
            True,
        ),
        make_claim(
            "c-negative-only-at-h1",
            "mu(x) < 0 on A exactly at x = h1",
            negatives == {h1},
            True,
        ),
        make_claim("d-mass-at-h1", "mu(h1)", atom_mass(mu, h1), -1),
        make_claim(
            "d-only-first-closure-at-h1",
            "at h1 the first closure carries mass 1 and the others carry 0, "
            "so the signed combination is -1",
            only_first,
            True,
        ),
        make_claim(
            "e-positive-part-shift",
            "max(mu(x), 0) = mu(x) + [x = h1] on all of A",
            ok_e,
            True,
        ),
    )
    return Report(f"lemma44(n={n})", claims)


def verify_lemma_4_6(n: int) -> Report:
    """Pointwise mass identities on A and the backward-difference chain
    computed through measures and directly through the function."""
    require_odd(n)
    syms, units, a, f, top = _standard_setup(n)
    mu = build_mu(syms)
    a_sets = build_a_sets(syms)
    h1 = units[0]
    delta1 = Dirac(h1)
    sign_n = (-1) ** n

    ok_additive = all(a(x) == atom_mass(mu, x) for x in a_sets.union)
    combined_pow = PointwisePower(MeasureMass(Sum((mu, delta1))), n)
    ok_power = all(f.value(x) == combined_pow.value(x) for x in a_sets.union)
    ok_binom = all(
        combined_pow.value(x)
        == atom_mass(mu, x) ** n - sign_n * atom_mass(delta1, x)
        for x in a_sets.union
    )
    # The three measure-path differences share one expansion of the units.
    mu_pow_diff, atom_diff, measure_path = backward_diffs(
        (PointwisePower(MeasureMass(mu), n), MeasureMass(delta1), combined_pow), top, units
    )
    direct_path = backward_diff(f, top, units)
    claims = (
        make_claim(
            "additive-matches-mass-on-A",
            "a(x) = mu(x) for every x in A",
            ok_additive,
            True,
        ),
        make_claim(
            "mass-power-identity-on-A",
            f"f(x) = (mu + delta_h1)^{n}(x) pointwise on A",
            ok_power,
            True,
        ),
        make_claim(
            "binomial-reduction-on-A",
            f"(mu + delta_h1)^{n}(x) = mu^{n}(x) - (-1)^{n}*[x = h1] on A",
            ok_binom,
            True,
        ),
        make_claim(
            "power-mass-diff-at-top",
            f"backward difference of mu^{n} over h1..h{n + 1} at h1+...+h{n + 1}",
            mu_pow_diff,
            0,
        ),
        make_claim(
            "unit-atom-diff-at-top",
            f"backward difference of the unit atom mass at h1, value (-1)^{n}",
            atom_diff,
            sign_n,
        ),
        make_claim(
            "chain-measure-path",
            "backward difference of the combined mass power at the top point",
            measure_path,
            -1,
        ),
        make_claim(
            "chain-direct-path",
            "backward difference of f itself at the top point",
            direct_path,
            -1,
        ),
        make_claim(
            "paths-agree",
            "measure route and direct route produce the same value",
            measure_path == direct_path,
            True,
        ),
    )
    return Report(f"lemma46(n={n})", claims)


def _random_instance(rng: random.Random):
    """One randomized round-trip instance: a finite atomic measure with
    small nonnegative coordinates, 1-3 increments, and 50+ probe points.
    Atoms and increments are built from their coordinate tuples over the
    symbols, which ``s1 < s2 < s3`` already sorts."""
    nsym = rng.randint(1, 3)
    syms = tuple(Symbol(f"s{i + 1}", positive=True) for i in range(nsym))

    atoms = []
    for _ in range(rng.randint(1, 5)):
        p = Point.from_coords(syms, [rng.randint(0, 5) for _ in syms])
        w = rng.randint(1, 3)
        atoms.append((w, p))
    nu = Sum(tuple(Scale(w, Dirac(p)) for w, p in atoms))

    hs = []
    for _ in range(rng.randint(1, 3)):
        if nsym == 1 or rng.random() < 0.6:
            # A multiple of one unit: the multiple is drawn before the unit.
            coords = [0] * nsym
            k = rng.randint(1, 2)
            coords[rng.randrange(nsym)] = k
        else:
            coords = [rng.randint(0, 2) for _ in syms]
            if not any(coords):
                coords[rng.randrange(nsym)] = 1
        hs.append(Point.from_coords(syms, coords))

    hi = 55 if nsym == 1 else 7 if nsym == 2 else 5
    probes = sample_box(rng, [unit(s) for s in syms], -1, hi, 50)
    sampled = set(probes)
    probes.extend(p for p in dict.fromkeys(p for _, p in atoms) if p not in sampled)
    return nu, hs, probes


def verify_prop_4_3(trials: int, seed: int) -> Report:
    """Randomized closure/difference round trips, both directions, with
    exact pointwise comparison at 50+ probe points per trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 100_000:  # about 100 s, at about 1 ms per trial
        raise ValueError("trials must be <= 100000")
    rng = random.Random(seed)
    pass_recover = 0
    pass_fixed = 0
    min_probes = None
    for _ in range(trials):
        nu, hs, probes = _random_instance(rng)
        min_probes = len(probes) if min_probes is None else min(min_probes, len(probes))

        closed = j_op(nu, hs)
        recovered = nabla(closed, hs)
        if all(atom_mass(recovered, x) == atom_mass(nu, x) for x in probes):
            pass_recover += 1

        round_trip = j_op(recovered, hs)
        if all(atom_mass(round_trip, x) == atom_mass(closed, x) for x in probes):
            pass_fixed += 1

    claims = (
        make_claim(
            "recover-source-measure",
            "difference of the closure returns the source measure pointwise",
            pass_recover,
            trials,
        ),
        make_claim(
            "recover-closure-fixed-point",
            "closure of the difference returns the closed measure pointwise",
            pass_fixed,
            trials,
        ),
        make_claim(
            "probe-coverage-at-least-50",
            "every trial compared at 50 or more probe points",
            bool(min_probes is not None and min_probes >= 50),
            True,
        ),
    )
    return Report(f"prop43(trials={trials},seed={seed})", claims)


_OPEN_NOTE = (
    "candidate probes report failure modes only; the even-order class "
    "comparison stays open"
)


# The order-2 candidates, each defined once for `section32` and `probe even`.


def _prop31_witness():
    """(a(.))_+^2 with a(s) = 1, a(t) = -2, and the exact witness x = s,
    h = t, at which the third difference is -(a(x))^2 = -1."""
    s, t = Symbol("s", positive=True), Symbol("t", positive=True)
    a = AdditiveFunctional({s: 1, t: -2})
    return Composite(PositivePartPower(2), a), unit(s), unit(t)


def _prop32_grid(c: int):
    """The scaled squared positive part c^2*x_+^2, which for c >= 0 is
    (c*x)_+^2, and the integer grid x in [-3,3], h in {1,2}, on which it
    has no violations."""
    u = Symbol("u", positive=True)
    uu = unit(u)
    f = Composite(PositivePartPower(2), AdditiveFunctional({u: c}))
    return f, [(j * uu, h) for j in range(-3, 4) for h in (uu, 2 * uu)]


def _prop33_square(c: int):
    """The reflected square c^2*(-x)_+^2, which for c < 0 is (c*x)_+^2,
    with x = -1, h = 1, where the third difference is -c^2."""
    u = Symbol("u", positive=True)
    uu = unit(u)
    f = Composite(PositivePartPower(2), AdditiveFunctional({u: c}))
    return f, -1 * uu, uu


def _even_prop31_witness() -> tuple[Claim, ...]:
    f, x, h = _prop31_witness()
    violations = jensen_convexity_probe(f, 2, [(x, h)])
    return (
        make_claim(
            "jensen-violation-count",
            "the exact witness sample violates the third-difference sign",
            len(violations),
            1,
        ),
        make_claim(
            "jensen-violation-value",
            "violation value -(a(x))^2 at the witness",
            violations[0].value if violations else 0,
            -1,
        ),
    )


def _even_prop32_grid() -> tuple[Claim, ...]:
    f, grid = _prop32_grid(1)
    return (
        make_claim(
            "grid-violations",
            "x_+^2 stays clean on x in [-3,3], h in {1,2}; no counterexample here",
            len(jensen_convexity_probe(f, 2, grid)),
            0,
        ),
    )


def _even_prop33_witness() -> tuple[Claim, ...]:
    f, x, h = _prop33_square(-1)
    return (
        make_claim(
            "jensen-violation-value",
            "third difference of (-x)_+^2 at x=-1, h=1 is -c^2 with c=-1",
            forward_diff(f, x, (h,) * 3),
            -1,
        ),
    )


_EVEN_CASES = {
    2: {
        "prop31-witness": _even_prop31_witness,
        "prop32-grid": _even_prop32_grid,
        "prop33-witness": _even_prop33_witness,
    }
}


def even_candidates(n: int) -> tuple[str, ...]:
    return tuple(sorted(_EVEN_CASES.get(n, {})))


def probe_even(n: int, case: str) -> Report:
    """Run a documented even-order candidate probe; reports its failure
    mode and nothing more."""
    if n < 2 or n % 2:
        raise ValueError(f"probe order must be a positive even integer, got {n}")
    cases = _EVEN_CASES.get(n)
    if not cases or case not in cases:
        known = ", ".join(even_candidates(n)) or "none"
        raise UnknownCandidate(
            f"no documented candidate {case!r} for order {n} (known: {known})"
        )
    return Report(f"probe-even(n={n},case={case})", cases[case](), notes=(_OPEN_NOTE,))

