"""Atomic signed measures as one linear form over closure leaves, with
exact pointwise atom-mass evaluation.

Closure nodes have infinite support, so measures are never materialized.
A node is a `JClosure` or a `Form`, every other measure, which `Dirac`,
`Shift`, `Scale`, `Sum`, `nabla` and `build_mu` build. Every node works
on coordinate tuples over its basis, the sorted symbols of its subtree's
points, and is folded at construction into one linear form there: merged
atoms, plus merged closure leaves, each at an offset and with a weight,
and a support floor, the minimum of the parts' floors. A tuple over one
basis is read over another by the positions of their shared symbols,
found once per pair of bases. `MeasureExpr._fill` builds every node, and
one that is its one part unchanged shares that part's form. A query of a
`Form` reads its atoms and its closures; nothing recurses through it.
The difference ∇ over k increments is one `Form`, which takes
``form − T_h form`` once per increment on its form alone; it has the
atoms and terms, in the same order, of the fold ``acc − T_h acc`` built
as nested sums, scalings and shifts, without their nodes. A closure over
a form with no closure term, or over a closure with a chain record, gets
a chain record when every distinct step of its chain has one nonzero
coordinate and no two share one (the axis-aligned case, which
`build_mu_i` and `build_mu` are). Its form is then its inner's atoms and
floor, with the step's symbol put into the basis, and it answers in
closed form, one read per atom, testing each atom only where it lies
above the floor; `fixed_by` says whether a renaming of the symbols maps
that record onto itself. Every other closure walks: it reads its inner
form at each translate down to its support floor.
`masses` reads one node at a batch of coordinate tuples over any sorted
basis, a closure one tuple at a time: from its memo, as 0 below its
floor, or else by `_mass`, which answers closures only and alone fills
their memos. A form keeps no memo: `_form_masses` reads its atoms and
then each closure term once over the batch, with no call where the
closure's memo answers or the point lies below the closure's floor.
`atom_mass` reads one `Point` as a batch of one. Each query charges the
work meter before its work: a walk its translates, less those a memoised
point saves, and a closed form its atom reads and its binomials' size,
weighed superlinearly. A closure is never cancelled against a
difference: it stays a leaf that its closed form or its walk evaluates.
"""

from __future__ import annotations

from math import comb, prod
from operator import add, floordiv, ge, itemgetter, mod, sub
from typing import NamedTuple, Sequence

from .basis import (
    ZERO, Frozen, Point, Scalar, Symbol, check_increment, exact, is_positive_increment, subset_sums,
    unit,
)
from .errors import InvalidIncrement, NonTerminatingJ, charge, superlinear


def _positions(basis: tuple[Symbol, ...], part: Sequence[Symbol]) -> list[int]:
    """The positions in ``basis`` of the symbols of ``part``, a sorted
    subset of it: each search starts where the last ended, so together
    they make one pass over ``basis``."""
    pos, i = [], 0
    for s in part:
        i = basis.index(s, i)
        pos.append(i)
    return pos


def _pick(idx: list[int]) -> itemgetter:
    """A getter of the tuple of the increasing positions ``idx``; a run, as
    0 or 1 positions are, is a slice."""
    if not idx or idx[-1] - idx[0] == len(idx) - 1:
        lo = idx[0] if idx else 0
        return itemgetter(slice(lo, lo + len(idx)))
    return itemgetter(*idx)


def _pickers(basis: tuple[Symbol, ...], part: Sequence[Symbol]) -> tuple:
    """``(pos, keep, drop)``: the positions in ``basis`` of the symbols of
    ``part`` (`_positions`), and tuple getters of them and of the others."""
    pos = _positions(basis, part)
    kept = set(pos)
    return pos, _pick(pos), _pick([i for i in range(len(basis)) if i not in kept])


def _place(t: tuple[Scalar, ...], pos: list[int] | None, n: int) -> tuple[Scalar, ...]:
    """``t`` written at the positions ``pos`` of ``n`` zeros; None: ``t``."""
    if pos is None:
        return t
    v = [0] * n
    for i, c in zip(pos, t):
        v[i] = c
    return tuple(v)


def _plus(a: tuple[Scalar, ...] | None, b: tuple[Scalar, ...] | None):
    """The sum of two offsets; None is the zero offset."""
    if a is None or b is None:
        return b if a is None else a
    return tuple(map(add, a, b))


def _difference(form: dict, shift) -> dict:
    """``form − T form`` for the translation ``shift`` of a key: the old keys,
    then the shifted ones, with the weights that cancel dropped."""
    merged = dict(form)
    for key, w in form.items():
        key = shift(key)
        merged[key] = merged.get(key, 0) - w
    return {key: w for key, w in merged.items() if w}


class MeasureExpr(Frozen):
    """Base class of `Form` and `JClosure`. Over `_basis`, `_floor` bounds
    every support coordinate below, as a tuple, and `_atoms` and `_terms`
    are the node's linear form (a closure's describes its inner measure,
    or with `_runs` its chain's atoms; a closure alone has `_runs`, None
    when it walks, and a walking closure alone `_step` and `_walk`, tuples).
    The form's mass at `v` is `_atoms.get(v, 0)` plus, for each term
    `(closure, offset, keep, drop, above, low, c)` with `w = v - offset` (`v`
    itself when `offset` is None), `c` times the closure's mass at `w`. When
    the closure's basis is smaller than the node's, the term counts only
    where `drop(w)` is all 0, at `keep(w)`; otherwise both are None. Where
    `v` is not below the node's floor, `w` is below the closure's floor
    exactly when `above(w)`, its coordinates where that floor (plus the
    offset) lies above the node's, is not at least `low`, the floor's
    there; `above` is None when there are none. A closure alone has a
    `_memo`, mapping each `w` that `_mass` has answered to its mass there.
    `_basis` is a tuple, shared with the node's first part when it is that
    part's basis; a node that is its one part unchanged shares all four."""

    def _fill(
        self, parts: Sequence[tuple[Scalar, MeasureExpr | None, Point | None]],
        own: Point | None = None, diffs: Sequence[Point] = (), record: bool = False, /,
        **fields,
    ) -> None:
        """Fold ``Σ c·T_at child`` over the parts ``(c, child, at)`` into this
        node's form, each child translated by its own offset ``at`` (None:
        not translated), then take ``form − T_h form`` for each increment
        ``h`` of ``diffs`` in turn: a `Form`'s parts and increments, or a
        closure's one part, its inner measure. A child of None is the unit
        atom at the origin, and a closure child is one term, or with
        ``record`` an inner chain whose atoms fold. ``own`` is a closure's
        step. The basis is the first part's, unless another part's basis, an
        offset, an increment or ``own`` brings a symbol it lacks; then it is
        a new tuple of the sorted symbols of all of them. A lone part of
        weight 1 that is no term, with no offset or increment and no symbol
        of ``own`` new to it, is the node unchanged: its form is shared.
        Otherwise the floor is the coordinatewise minimum of the parts'
        floors (the unit atom's is 0; a closure's is its inner's, since its
        support only grows upward), each translated by its part's offset;
        an increment is positive, so a difference keeps it."""
        c, first, at = parts[0]
        if (len(parts) == 1 and c == 1 and at is None and not diffs
                and (record or type(first) is Form)
                and (own is None or set(own.support).issubset(first._basis))):
            self.__dict__.update(fields, _basis=first._basis, _floor=first._floor,
                                 _atoms=first._atoms, _terms=first._terms)
            return
        basis = () if first is None else first._basis
        points = [at for _, _, at in parts if at is not None]
        points += diffs
        if own is not None:
            points.append(own)
        bases = [child._basis for _, child, _ in parts
                 if child is not None and child._basis != basis]
        new = {s for p in points for s, _ in p.terms}.union(*bases).difference(basis)
        if new:
            basis = tuple(sorted([*basis, *new]))
        offsets = [at and at.coords(basis) for _, _, at in parts]
        n = len(basis)
        floors = []
        atoms: dict[tuple[Scalar, ...], Scalar] = {}
        terms: dict[tuple[JClosure, tuple[Scalar, ...] | None], Scalar] = {}
        for (c, child, _), offset in zip(parts, offsets):
            if child is None:
                # The unit atom, at its offset or else at the origin.
                atom = offset or (0,) * n
                floors.append(atom)
                atoms[atom] = atoms.get(atom, 0) + c
                continue
            # The child's positions in the basis, found once (None: the same basis).
            pos = None if child._basis == basis else _positions(basis, child._basis)
            floors.append(_plus(_place(child._floor, pos, n), offset))
            if type(child) is JClosure and not record:
                key = child, offset
                terms[key] = terms.get(key, 0) + c
                continue
            for v, w in child._atoms.items():
                key = _plus(_place(v, pos, n), offset)
                atoms[key] = atoms.get(key, 0) + c * w
            for closure, off, *_, w in child._terms:
                key = closure, _plus(None if off is None else _place(off, pos, n), offset)
                terms[key] = terms.get(key, 0) + c * w
        for h in diffs:
            h = h.coords(basis)
            atoms = _difference(atoms, lambda v: tuple(map(add, v, h)))
            terms = _difference(terms, lambda key: (key[0], _plus(key[1], h)))
        floor = floors[0] if len(floors) == 1 else tuple(map(min, zip(*floors)))
        pickers: dict[JClosure, tuple] = {}
        form = []
        for (closure, off), w in terms.items():
            if not w:
                continue
            pick = pickers.get(closure)
            if pick is None:
                part = closure._basis
                if part == basis:
                    pick = range(n), None, None
                else:
                    pick = _pickers(basis, part)
                pickers[closure] = pick
            pos, keep, drop = pick
            # A point read here is not below this node's floor, so the
            # closure's floor needs testing only at the coordinates where
            # it, translated by the offset, lies above that floor.
            low = closure._floor
            lifted = low if off is None else [f + off[k] for k, f in zip(pos, low)]
            above = [i for i, (k, f) in enumerate(zip(pos, lifted)) if f > floor[k]]
            above = _pick(above) if above else None
            low = None if above is None else above(low)
            form.append((closure, off, keep, drop, above, low, exact(w)))
        self.__dict__.update(
            fields, _basis=basis, _floor=floor,
            _atoms={v: exact(w) for v, w in atoms.items() if w} if atoms else atoms,
            _terms=tuple(form),
        )


class Form(MeasureExpr):
    """Every measure that is not a closure: ``Σ c·T_at child`` over its
    ``parts`` ``(c, child, at)``, with ``Π(1 − T_h)`` taken over the
    increments ``diffs``. A child of None is the unit atom at the origin,
    so ``(w, None, p)`` is the atom of weight ``w`` at ``p``; an ``at`` of
    None translates nothing. `Dirac`, `Shift`, `Scale`, `Sum` and `nabla`
    each build one, and `build_mu` builds one for its signed unit atoms."""

    parts: tuple[tuple[Scalar, MeasureExpr | None, Point | None], ...]
    diffs: tuple[Point, ...]

    def __init__(
        self, parts: Sequence[tuple[Scalar, MeasureExpr | None, Point | None]],
        diffs: Sequence[Point] = (),
    ):
        parts = tuple(parts)
        if not parts:
            raise ValueError("sum of measures needs at least one term")
        diffs = tuple(map(check_increment, diffs))
        self._fill(parts, None, diffs, parts=parts, diffs=diffs)


class JClosure(MeasureExpr):
    """Geometric-series closure: the sum of all nonnegative-integer
    multiples of ``step`` applied as translations. `_fill` folds it over
    ``inner``, a chain over an inner chain's atoms, and it shares the form
    of a form or chain ``inner`` whose basis has ``step``'s symbol."""

    inner: MeasureExpr
    step: Point

    def __init__(self, inner: MeasureExpr, step: Point):
        if not is_positive_increment(step):
            raise NonTerminatingJ(f"closure step must be a positive increment: {step}")
        runs = _chain_runs(inner, step)
        self._fill([(1, inner, None)], step, (), runs is not None,
                   inner=inner, step=step, _runs=runs, _memo={})
        if runs is None:
            step = step.coords(self._basis)
            # (position, floor, step) at each nonzero step coordinate, the
            # only ones `_mass` reads a walk's length at.
            self.__dict__.update(_step=step, _walk=tuple(
                (i, f, s) for i, (f, s) in enumerate(zip(self._floor, step)) if s
            ))


def _chain_runs(inner: MeasureExpr, step: Point) -> tuple | None:
    """The chain record's runs of a closure of ``inner`` along ``step``,
    each ``(symbol, step value, multiplicity)``: ``inner``'s own runs (none
    for a form with no closure term) with ``step`` counted in. None, so
    that the closure walks, when ``inner`` is any other closure or form,
    when ``step`` has more than one nonzero coordinate, or when a run on
    its symbol has another step value. Translations commute, so the runs
    fix the chain whatever its order."""
    if type(inner) is JClosure:
        runs = inner._runs
    else:
        runs = None if inner._terms else ()
    if runs is None or len(step.terms) != 1:
        return None
    ((s, g),) = step.terms
    for r, (t, h, m) in enumerate(runs):
        if t == s:
            return runs[:r] + ((s, g, m + 1),) + runs[r + 1:] if h == g else None
    return runs + ((s, g, 1),)


def _chain_index(mu: JClosure) -> tuple:
    """What a closure with chain runs answers from, built at its first
    query: pickers of the runs' positions (``on``) and of the others
    (``off``), the step values over ``on``, the residues of a whole point
    when every step is 1 (all 0; else None), each multiplicity less one
    (None when every one is 0), the floor's quotients by the steps, and
    the form's atoms grouped by their ``off`` coordinates and their ``on``
    ones modulo the steps, each as its ``on`` coordinates floor-divided by
    the steps, its weight, and a getter of those quotients where they are
    above the floor's, with their values there. Two points of one group
    lie a whole number of steps apart on each run."""
    syms, steps, counts = zip(*sorted([(s, g, m - 1) for s, g, m in mu._runs]))
    _, on, off = _pickers(mu._basis, syms)
    zeros = (0,) * len(steps) if steps == (1,) * len(steps) else None
    low = tuple(map(floordiv, on(mu._floor), steps))
    groups: dict[tuple, list] = {}
    for p, w in mu._atoms.items():
        c = on(p)
        key = off(p), tuple(map(mod, c, steps))
        c = tuple(map(floordiv, c, steps))
        above = _pick([] if c == low else [i for i, (q, f) in enumerate(zip(c, low)) if q > f])
        groups.setdefault(key, []).append((c, w, above, above(c)))
    index = on, off, steps, zeros, counts if any(counts) else None, low, groups
    mu.__dict__["_index"] = index
    return index


def fixed_by(mu: MeasureExpr, perm: dict[Symbol, Symbol]) -> bool:
    """Whether renaming the symbols of ``mu`` by ``perm`` (a symbol it does
    not name stays) maps ``mu``'s chain record, its runs and its atoms with
    their weights, onto itself, so that the closed form gives the same mass
    at a point and at its renamed point. False when ``mu`` has no chain
    record, or when ``perm`` does not map its basis onto itself."""
    runs = getattr(mu, "_runs", None)
    if runs is None:
        return False
    where = dict(zip(mu._basis, range(len(mu._basis))))
    to = [where.get(perm.get(s, s)) for s in mu._basis]
    if None in to or len(set(to)) != len(to):
        return False
    atoms = mu._atoms
    return ({perm.get(s, s): r for s, *r in runs} == {s: r for s, *r in runs}
            and all(atoms.get(_place(v, to, len(v))) == w for v, w in atoms.items()))


def atom_mass(mu: MeasureExpr, x: Point) -> Scalar:
    """Exact signed mass of the atom of ``mu`` at ``x``: ``x`` read as a
    tuple over ``mu``'s basis by ``Point.coords``, which leaves ``x`` as it
    was, and that read by `masses` as a batch of one."""
    v = x.coords(mu._basis)
    # Every atom lies in the span of the basis, so a point off it has none.
    return 0 if v is None else masses(mu, mu._basis, (v,))[0]


def masses(
    mu: MeasureExpr, basis: tuple[Symbol, ...], vs: Sequence[tuple[Scalar, ...]]
) -> list[Scalar]:
    """The masses of ``mu`` at the coordinate tuples ``vs`` over ``basis``,
    a sorted tuple of symbols, in order: the batch read of one node. A
    tuple nonzero on a symbol ``mu``'s basis lacks is off its span and reads
    0; every other one is read at its picked coordinates, 0 on a symbol
    ``basis`` lacks: by `_form_masses` for a form, and for a closure one at
    a time, from its memo, as 0 below its floor, else by `_mass`."""
    own = mu._basis
    if basis != own:
        part = [s for s in own if s in basis]
        _, keep, drop = _pickers(basis, part)
        on = [i for i, v in enumerate(vs) if not any(drop(v))]
        ws = [keep(vs[i]) for i in on]
        if len(part) < len(own):
            pos = _positions(own, part)
            ws = [_place(w, pos, len(own)) for w in ws]
        out = [0] * len(vs)
        for i, m in zip(on, masses(mu, own, ws)):
            out[i] = m
        return out
    if type(mu) is not JClosure:
        return _form_masses(mu, vs)
    memo, floor, out = mu._memo, mu._floor, []
    for v in vs:
        m = memo.get(v)
        if m is None:
            m = _mass(mu, v) if all(map(ge, v, floor)) else 0
        out.append(m)
    return out


def _form_masses(mu: Form, vs: Sequence[tuple[Scalar, ...]]) -> list[Scalar]:
    """The masses of the form ``mu`` at the tuples ``vs`` over its basis, in
    order: its atoms, then each closure term once over the whole batch. A
    tuple below the form's floor reads 0 before any term. A term shifts the
    tuples by its offset in one list, drops those off its closure's span
    and picks the rest, and reads each as 0 below the closure's floor
    (tested by the term's ``above`` and ``low``), else from the closure's
    memo or by `_mass`. Nothing is stored here. The walk in `_mass` keeps
    its own copy of this loop inline: a reader split out of it halved the
    nesting that answers, from about 990 walking closures to about 500,
    since Python recursion would deepen by two frames per level, not one."""
    atoms, terms = mu._atoms, mu._terms
    out = [atoms.get(v, 0) for v in vs] if atoms else [0] * len(vs)
    if not terms:
        return out
    floor = mu._floor
    at = [i for i, v in enumerate(vs) if all(map(ge, v, floor))]
    vs = [vs[i] for i in at]
    for closure, off, keep, drop, above, low, c in terms:
        ws = vs if off is None else [tuple(map(sub, v, off)) for v in vs]
        memo = closure._memo
        for i, w in zip(at, ws):
            if keep is not None:
                if any(drop(w)):
                    continue
                w = keep(w)
            if above is not None and not all(map(ge, above(w), low)):
                continue
            m = memo.get(w)
            out[i] += c * (_mass(closure, w) if m is None else m)
    return out


def _mass(mu: JClosure, v: tuple[Scalar, ...]) -> Scalar:
    """The mass of the closure ``mu`` at the tuple ``v`` over its basis,
    where ``v`` is neither in its memo nor below its floor: the readers
    answer those without a call. A closure with chain runs answers from
    `_chain_mass`. Any other closure sums its inner form at ``v`` and every
    translate below it: J(v) = inner(v) + J(v - step), and J = 0 below the
    support floor, so the walk from ``v`` takes
    ``min((v_i - floor_i) // step_i)`` steps over the step's nonzero
    coordinates, charged to the work meter before the first, memoised
    points below it or not (1,000,000 took 1.3 s and 160 MiB). The walk
    stops at a memoised point, gives back the steps it saves, then reads
    the form at each pending point and adds upward, storing each total.
    No pending point is below the floor, so a closure term reads as in
    `_form_masses`: 0 below its closure's floor, else from the closure's
    memo or by a call here, so Python recursion deepens by one frame per
    nested walking closure, not per translate."""
    memo = mu._memo
    if mu._runs is not None:
        total = memo[v] = _chain_mass(mu, v)
        return total
    pending = [v]
    total = 0
    step = mu._step
    steps = min([(v[i] - f) // s for i, f, s in mu._walk])
    charge(steps, "closure query")
    for _ in range(steps):
        v = tuple(map(sub, v, step))
        m = memo.get(v)
        if m is not None:
            total = m
            charge(len(pending) - steps, "closure query")  # the steps the memo saves
            break
        pending.append(v)
    pending.reverse()
    atoms, terms = mu._atoms, mu._terms
    for p in pending:
        if atoms:
            total += atoms.get(p, 0)
        for closure, off, keep, drop, above, low, c in terms:
            w = p if off is None else tuple(map(sub, p, off))
            if keep is not None:
                if any(drop(w)):
                    continue
                w = keep(w)
            if above is not None and not all(map(ge, above(w), low)):
                continue
            m = closure._memo.get(w)
            total += c * (_mass(closure, w) if m is None else m)
        memo[p] = total
    return total


def _chain_mass(mu: JClosure, v: tuple[Scalar, ...]) -> Scalar:
    """The mass at ``v`` of a closure with chain runs, in closed form: the
    closures of one run, m of them along g, are ``Σ_c C(m − 1 + c, c)·T^{cg}``,
    so the mass is ``Σ_p w_p · Π_r C(m_r − 1 + c_r, c_r)`` over the form's
    atoms ``p``, where ``c_r = (v − p)[i_r] / g_r`` must be a whole number
    of steps, at least 0, and ``v − p`` must be 0 off the runs' positions.
    Before any is read, the work meter is charged for each atom read its
    runs and a bound on its binomials' 64-bit words, weighed by
    ``superlinear``."""
    on, off, steps, zeros, counts, low, groups = mu.__dict__.get("_index") or _chain_index(mu)
    u = on(v)
    # Over unit steps a point of int coordinates is its own quotient, with
    # residues 0; a sum with a Fraction in it is a Fraction.
    if zeros is not None and type(sum(u)) is int:
        rest = zeros
    else:
        u, rest = tuple(map(floordiv, u, steps)), tuple(map(mod, u, steps))
    atoms = groups.get((off(v), rest))
    if atoms is None:
        return 0
    words = 0
    if counts is not None:
        # c_r is at most u_r less the floor's quotient on run r.
        words = sum(min(k, m) * (k + m).bit_length()
                    for k, m in zip(map(sub, u, low), counts) if k > 0) >> 6
    charge(len(atoms) * (len(u) + superlinear(words)), "closure query")
    total = 0
    # A queried point is not below the floor, so ``u`` is at least an
    # atom's quotient wherever that is not above the floor's.
    for c, w, above, q in atoms:
        if all(map(ge, above(u), q)):
            if counts is not None:
                w *= prod(map(comb, map(add, map(sub, u, c), counts), counts))
            total += w
    return total


def Dirac(point: Point) -> Form:
    """Unit atom at a point."""
    return Form(((1, None, point),))


def Shift(inner: MeasureExpr, step: Point) -> Form:
    """Translation: mass at x taken from the inner measure at x - step."""
    if not is_positive_increment(step):
        raise InvalidIncrement(f"shift step must be a positive increment: {step}")
    return Form(((1, inner, step),))


def Sum(terms: Sequence[MeasureExpr]) -> Form:
    """The sum of at least one measure."""
    return Form([(1, t, None) for t in terms])


def Scale(factor: Scalar, inner: MeasureExpr) -> Form:
    """``inner`` times an exact factor."""
    return Form(((exact(factor), inner, None),))


def nabla(mu: MeasureExpr, hs: Sequence[Point]) -> MeasureExpr:
    """Iterated difference against the shift, ``Π(1 − T_h) mu`` over
    ``hs``: one `Form` of the part ``mu`` and the increments ``hs``, or
    ``mu`` itself when ``hs`` is empty."""
    hs = tuple(hs)
    return Form(((1, mu, None),), hs) if hs else mu


def j_op(nu: MeasureExpr, hs: Sequence[Point]) -> MeasureExpr:
    """Nested closures in the given order; the first increment is outermost."""
    acc = nu
    for h in reversed(tuple(hs)):
        acc = JClosure(acc, h)
    return acc


def _unit_increments(syms: Sequence[Symbol]) -> list[Point]:
    if len(set(syms)) != len(syms):
        raise ValueError("basis symbols must be distinct")
    pts = [unit(s) for s in syms]
    for p in pts:
        check_increment(p)
    return pts


def build_mu_i(i: int, syms: Sequence[Symbol]) -> MeasureExpr:
    """Closure of the unit atom at the i-th symbol (1-based) over all of
    the given symbols."""
    if not 1 <= i <= len(syms):
        raise ValueError(f"index {i} out of range 1..{len(syms)}")
    pts = _unit_increments(syms)
    return j_op(Dirac(pts[i - 1]), pts)


def build_mu(syms: Sequence[Symbol]) -> MeasureExpr:
    """``Σ_{i≥2} J(δ_{h_i}) − J(δ_{h_1})``, by J's linearity one chain of
    unit-step closures over the signed unit atoms, one `Form`. No scenario
    reads it (both lemmas read mu off mu_1's class values): tests hold that
    read equal to it, lemma 4.6's full-route oracle reads it, and the
    benchmark's tracer (perfbench/tracer.py) times it as a builder here."""
    pts = _unit_increments(syms)
    return j_op(Form([(1, None, p) for p in pts[1:]] + [(-1, None, pts[0])]), pts)


class ASets(NamedTuple):
    """The 0/1-combination evaluation sets: one per symbol plus the union.
    No scenario reads them: both lemmas read A by its symmetry classes, and
    the full routes that the tests keep as their oracles read these sets.
    They stay here, not among the tests, because the benchmark's tracer
    (perfbench/tracer.py) times `build_a_sets` as a builder of this module."""

    sets: tuple[frozenset[Point], ...]
    union: frozenset[Point]


def build_a_sets(syms: Sequence[Symbol]) -> ASets:
    """The 0/1 combinations of the unit points, enumerated once: ``A_i``
    is the sums whose subset contains index i, and the union is every
    nonempty subset's sum."""
    pts = _unit_increments(syms)
    parts: list[list[Point]] = [[] for _ in pts]
    for subset, p in subset_sums(ZERO, pts):
        for i in subset:
            parts[i].append(p)
    return ASets(tuple(map(frozenset, parts)), frozenset().union(*parts))
