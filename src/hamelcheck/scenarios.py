"""Built-in verification scenarios with structured reports.

Each runner constructs its instance from scratch, computes every claimed
value exactly, and compares against the expected value frozen in the
claim. Randomized runners take an explicit seed and name it in the
report, so every run is reproducible. Both lemma runners share one
class read, `_class_reads`, which draws nothing: A as one batch of tuples
over its symmetry classes, each class's representative and it moved by
the certified cycle, mu_1 and delta_h1 each read once by `masses`, every
mu_i read as mu_1 renamed and mu as their signed sum, and one
certificate, `_certified`, on mu_1's chain. Where it fails, each fails
every claim it reads by class, with one note.
"""

from __future__ import annotations

import random
from itertools import compress, islice
from math import comb
from operator import itemgetter, mul

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
    difference_rows,
    difference_table,
    forward_diff,
    group_sums,
    jensen_convexity_probe,
)
from .errors import EvenOrder, UnknownCandidate
from .functions import (
    Composite,
    PositivePartPower,
    tabulated_abs,
)
from .measures import (
    Dirac,
    Form,
    build_mu_i,
    fixed_by,
    j_op,
    masses,
    nabla,
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
        lambda: difference_rows(f, ZERO, units),
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
    the claims of each candidate that `probe even` checks."""
    # Quadratic-magnitude table on a one-step lattice; raw values are the
    # signed ones, magnitudes taken at construction.
    s = Symbol("s", positive=True)
    su = unit(s)
    q_raw = {ZERO: -9, su: 4, 2 * su: 7, 3 * su: 0}
    q_abs = tabulated_abs(q_raw)
    claims = (
        make_claim(
            "q-table-third-diff",
            "third equal-step difference of |Q| tabulated as 9, 4, 7, 0",
            forward_diff(q_abs, ZERO, (su, su, su)),
            -18,
        ),
        *(claim for candidate in _EVEN_CASES[2].values() for claim in candidate()),
    )
    return Report("section32", claims)


def verify_lemma_4_4(n: int) -> Report:
    """Mass pattern of the closure measures mu_i = J(delta_h_i) on the
    0/1-combination set A, from the class read both lemmas share
    (`_class_reads`). Where J's runs are the same on every symbol, as
    `_certified` must certify, every renaming of the symbols fixes J, so
    mu_i is mu_1 with h1 and h_i exchanged, which maps A_i onto A_1:
    claims (a) and (b) read mu_1 on A_1 and on the rest of A, and claims
    (c), (d) and (e) mu, the sum of those exchanges at each class.
    Uncertified, every claim fails."""
    _, same, certified, (_, firsts, ms, ds) = _class_reads(n)
    # mu_i at h1, i >= 2, is mu_1 at h_i, carried to h2 by the renamings that fix h1.
    only_first = firsts[n + 1] == 1 and firsts[1] == 0
    # The class (0, 0), the empty subset's, is not in A.
    classes = [(b, k) for b in (0, 1) for k in range(n + 1)][1:]
    ok_a = all(f == 1 for (b, _), f in zip(classes, firsts[1:]) if b)
    ok_b = all(f == 0 for (b, _), f in zip(classes, firsts[1:]) if not b)
    negatives = [c for c, m in zip(classes, ms[1:]) if m < 0]
    ok_e = all(max(m, 0) == m + d for m, d in zip(ms[1:], ds[1:]))
    claims = (
        make_claim(
            "a-unit-mass-on-own-set",
            "mu_i(x) = 1 for every x in A_i, for every i",
            same and ok_a,
            True,
        ),
        make_claim(
            "b-zero-mass-off-set",
            "mu_i(x) = 0 for every x in A outside A_i",
            same and ok_b,
            True,
        ),
        make_claim(
            "c-negative-only-at-h1",
            "mu(x) < 0 on A exactly at x = h1",
            same and negatives == [(1, 0)],  # the class of h1 alone
            True,
        ),
        make_claim("d-mass-at-h1", "mu(h1)", ms[n + 1], -1),  # (1, 0): h1 alone
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
            same and ok_e,
            True,
        ),
    )
    if not certified:
        claims = _uncertified(claims, (), n)
    return Report(f"lemma44(n={n})", claims)


def _class_reads(n: int) -> tuple:
    """``(setup, same, certified, (av, firsts, ms, ds))``, the class read of
    both lemmas at odd order ``n``: `_standard_setup`'s values; a(x) (the sum
    of a's unit values over each member's units), mu_1 and delta_h1, each
    read once over the `_by_class` batch, at each class's representative,
    and whether every other member reads the same; whether `_certified`
    holds for a and mu_1; and mu off mu_1's values (`_mu_by_class`)."""
    require_odd(n)
    setup = syms, units, a, _, _ = _standard_setup(n)
    mu_1, delta1 = build_mu_i(1, syms), Dirac(units[0])
    basis, xs, sizes = _by_class(syms)
    at_units = [a(unit(s)) for s in basis]
    values, same = _per_class(sizes, ([sum(compress(at_units, v)) for v in xs],
                                      masses(mu_1, basis, xs), masses(delta1, basis, xs)))
    av, firsts, ds = map(list, zip(*values))
    return setup, same, _certified(syms, a, mu_1), (av, firsts, _mu_by_class(firsts), ds)


def _mu_by_class(firsts) -> list:
    """mu = mu_2 + ... + mu_(n+1) - mu_1 at each class (b, k), in `_by_class`
    order, from mu_1's value at each, ``firsts``, each mu_i mu_1 with h1 and
    h_i exchanged: k of the n exchanges move a member of (0, k) to
    (1, k - 1), and n - k move one of (1, k) to (0, k + 1); the rest fix it."""
    n = len(firsts) // 2 - 1
    # zero[k] is mu_1 at (0, k), one[k] at (1, k - 1).
    zero, one = [*firsts[:n + 1], 0], [0, *firsts[n + 1:]]
    return ([k * one[k] + (n - k - 1) * zero[k] for k in range(n + 1)]
            + [(k - 1) * one[k + 1] + (n - k) * zero[k + 1] for k in range(n + 1)])


# The other members of each class of A read beside its representative: the
# representative moved by the cycle (h2 ... h(n+1)) one to this many places.
_CLASS_TURNS = 2


def _by_class(syms: list[Symbol]) -> tuple:
    """``(basis, xs, sizes)``: the sorted ``syms``, and the members of each
    class (b, k) of the subsets S of their units under the permutations of
    ``syms[1:]``, b = [h1 in S] and k = |S - {h1}|, in the order (0, 0),
    ..., (1, n): tuples over ``basis``, and their counts per class. A
    class's representative b*h1 + h2 + ... + h(k+1) is first, then, if
    0 < k < n, it moved by the cycle (h2 ... h(n+1)), the one `_certified`
    checks, one to `_CLASS_TURNS` places."""
    n = len(syms) - 1
    basis = tuple(sorted(syms))
    to_basis = itemgetter(*map(syms.index, basis))
    xs, sizes = [], []
    for b in (0, 1):
        for k in range(n + 1):
            tail = (1,) * k + (0,) * (n - k)
            turns = range(_CLASS_TURNS + 1 if 0 < k < n else 1)
            xs += [to_basis((b, *tail[n - r:], *tail[:n - r])) for r in turns]
            sizes.append(len(turns))
    return basis, xs, sizes


def _per_class(sizes: list[int], columns) -> tuple[list, bool]:
    """Each representative's row of ``columns``, read over a `_by_class`
    batch of these ``sizes``, and whether every other member's is the same."""
    rows = zip(*columns)
    values, same = [], True
    for size in sizes:
        values.append(rep := next(rows))
        for row in islice(rows, size - 1):
            same &= row == rep
    return values, same


def _certified(syms: list[Symbol], a: AdditiveFunctional, mu_1) -> bool:
    """Whether the cycle (h2 ... h(n+1)) and the transposition (h2 h3), which
    generate the permutations of ``syms[1:]`` as renamings, each fix
    ``a``'s values at the units of ``syms`` and the chain record of
    ``mu_1``, the one chain both lemmas build (`fixed_by`), and whether its
    run on h1 is its run on h2, so that every renaming of ``syms`` fixes
    its J: the exchange of h1 and h_i carries mu_1 = J(delta_h1) onto
    J(delta_h_i). Below three symbols past h1 the transposition is the
    identity."""
    rest = syms[1:]
    values = {s: a(unit(s)) for s in syms}
    for g in (dict(zip(rest, rest[1:] + rest[:1])), dict(zip(rest[:2], rest[1::-1]))):
        if not (all(values[g.get(s, s)] == v for s, v in values.items()) and fixed_by(mu_1, g)):
            return False
    runs = {s: r for s, *r in mu_1._runs}
    return runs.get(syms[0]) == runs.get(syms[1])


def _uncertified(claims: tuple[Claim, ...], exempt: tuple[str, ...], n: int) -> tuple[Claim, ...]:
    """``claims`` with every one whose label is not in ``exempt`` failed,
    its reference noting that `_certified` does not hold at order ``n``."""
    note = (f"; uncertified: a permutation of h2..h{n + 1} moves a or the chain read, "
            "or its runs on h1 and h2 differ")
    return tuple(c if c.label in exempt else c._replace(ref=c.ref + note, passed=False)
                 for c in claims)


def verify_lemma_4_6(n: int) -> Report:
    """Pointwise mass identities on A and the backward-difference chain
    computed through measures and directly through the function. The
    measure route reads a, mu and delta_h1 by the 2(n+1) classes (b, k) of A
    (`_class_reads`, as lemma 4.4 does), f = K(a(.)) as K at a(x), and
    (mu + delta_h1)^n as the power of their sum. A pointwise claim reads
    each nonempty class; a difference at the top point is the class sum of
    C(n, k)*(-1)^(n+1-b-k) times the value at the representative.
    Uncertified, every claim but the direct path's fails."""
    (_, units, _, f, top), same, certified, (av, _, ms, ds) = _class_reads(n)
    sign_n = (-1) ** n
    # Per class; (0, 0), the empty subset's, is first and not in A.
    fs = [f.kernel.apply(t) for t in av]
    cs = [(m + d) ** n for m, d in zip(ms, ds)]
    weights = [comb(n, k) * (-1) ** (n + 1 - b - k) for b in (0, 1) for k in range(n + 1)]
    mu_pow_diff = sum(map(mul, weights, [m ** n for m in ms]))
    atom_diff = sum(map(mul, weights, ds))
    measure_path = sum(map(mul, weights, cs))
    direct_path = backward_diff(f, top, units)
    claims = (
        make_claim(
            "additive-matches-mass-on-A",
            "a(x) = mu(x) for every x in A",
            same and av[1:] == ms[1:],
            True,
        ),
        make_claim(
            "mass-power-identity-on-A",
            f"f(x) = (mu + delta_h1)^{n}(x) pointwise on A",
            same and fs[1:] == cs[1:],
            True,
        ),
        make_claim(
            "binomial-reduction-on-A",
            f"(mu + delta_h1)^{n}(x) = mu^{n}(x) - (-1)^{n}*[x = h1] on A",
            same and all(c == m ** n - sign_n * d for m, c, d in zip(ms[1:], cs[1:], ds[1:])),
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
    if not certified:
        claims = _uncertified(claims, ("chain-direct-path",), n)
    return Report(f"lemma46(n={n})", claims)


def _random_instance(rng: random.Random):
    """One randomized round-trip instance: a finite atomic measure with
    small nonnegative coordinates, 1-3 increments, the trial's basis, and
    50+ probe points as coordinate tuples over it. Atoms and increments
    are built from their coordinate tuples over the symbols, which
    ``s1 < s2 < s3`` already sorts, and the measure is one `Form` whose
    parts are its weighted atoms ``(w, None, p)``. The probes are the box
    sample, then the tuple of each atom the sample missed, in draw order,
    each once."""
    nsym = rng.randint(1, 3)
    syms = tuple(Symbol(f"s{i + 1}", positive=True) for i in range(nsym))

    atoms = []
    for _ in range(rng.randint(1, 5)):
        v = tuple([rng.randint(0, 5) for _ in syms])
        w = rng.randint(1, 3)
        atoms.append((w, v))
    nu = Form([(w, None, Point.from_coords(syms, v)) for w, v in atoms])

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
    probes = sample_box(rng, syms, -1, hi, 50)
    sampled = set(probes)
    probes.extend(v for v in dict.fromkeys(v for _, v in atoms) if v not in sampled)
    return nu, hs, syms, probes


def verify_prop_4_3(trials: int, seed: int) -> Report:
    """Randomized closure/difference round trips, both directions, with
    exact pointwise comparison at 50+ probe points per trial, each node
    read once over the trial's probe tuples."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 100_000:  # about 100 s, at 0.85-1.2 ms per trial (CPython 3.11, 2 cores)
        raise ValueError("trials must be <= 100000")
    rng = random.Random(seed)
    pass_recover = 0
    pass_fixed = 0
    min_probes = None
    for _ in range(trials):
        nu, hs, basis, probes = _random_instance(rng)
        min_probes = len(probes) if min_probes is None else min(min_probes, len(probes))

        closed = j_op(nu, hs)
        recovered = nabla(closed, hs)
        if masses(recovered, basis, probes) == masses(nu, basis, probes):
            pass_recover += 1

        round_trip = j_op(recovered, hs)
        if masses(round_trip, basis, probes) == masses(closed, basis, probes):
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


# The order-2 candidates, each checked once for `section32` and `probe even`.


def _prop31_claims() -> tuple[Claim, ...]:
    """(a(.))_+^2 with a(s) = 1, a(t) = -2 at the exact witness x = s,
    h = t, where the third difference is -(a(x))^2 = -1."""
    s, t = Symbol("s", positive=True), Symbol("t", positive=True)
    f = Composite(PositivePartPower(2), AdditiveFunctional({s: 1, t: -2}))
    return (
        make_claim(
            "prop31-witness",
            "third difference -(a(x))^2 at the exact witness (a(x)=1, a(h)=-2)",
            forward_diff(f, unit(s), (unit(t),) * 3),
            -1,
        ),
    )


def _scaled_square(c: int):
    """c^2*x_+^2 for c >= 0 and c^2*(-x)_+^2 for c < 0, both (c*x)_+^2,
    over one symbol, with that symbol's unit."""
    u = Symbol("u", positive=True)
    return Composite(PositivePartPower(2), AdditiveFunctional({u: c})), unit(u)


def _prop32_claims() -> tuple[Claim, ...]:
    """For c = 0, 1, 2, no violation of the third-difference sign on the
    integer grid x in [-3,3], h in {1,2}."""
    claims = []
    for c in (0, 1, 2):
        f, u = _scaled_square(c)
        grid = [(j * u, h) for j in range(-3, 4) for h in (u, 2 * u)]
        claims.append(make_claim(
            f"prop32-grid-c={c}",
            f"violations of the third-difference sign for {c}^2*x_+^2 "
            "on x in [-3,3], h in {1,2}",
            len(jensen_convexity_probe(f, 2, grid)),
            0,
        ))
    return tuple(claims)


def _prop33_claims() -> tuple[Claim, ...]:
    """For c = -1, -2, the third difference -c^2 at x = -1, h = 1."""
    claims = []
    for c in (-1, -2):
        f, u = _scaled_square(c)
        claims.append(make_claim(
            f"prop33-c={c}",
            f"third difference of ({c})^2*(-x)_+^2 at x=-1, h=1",
            forward_diff(f, -1 * u, (u,) * 3),
            -c * c,
        ))
    return tuple(claims)


_EVEN_CASES = {
    2: {
        "prop31-witness": _prop31_claims,
        "prop32-grid": _prop32_claims,
        "prop33-witness": _prop33_claims,
    }
}


def even_candidates(n: int) -> tuple[str, ...]:
    return tuple(sorted(_EVEN_CASES.get(n, {})))


def probe_even(n: int, case: str) -> Report:
    """Run a documented even-order candidate: the claims `section32` checks
    for it, with the note that the class comparison stays open."""
    if n < 2 or n % 2:
        raise ValueError(f"probe order must be a positive even integer, got {n}")
    cases = _EVEN_CASES.get(n)
    if not cases or case not in cases:
        known = ", ".join(even_candidates(n)) or "none"
        raise UnknownCandidate(
            f"no documented candidate {case!r} for order {n} (known: {known})"
        )
    return Report(f"probe-even(n={n},case={case})", cases[case](), notes=(_OPEN_NOTE,))

