"""Workload inputs, made from the seed, and the verdict check of a pass.

A workload is a list of operations. Each operation is one invocation of
the hamelcheck command line with ``--format jsonl``: in-process through
``hamelcheck.cli.main`` for the ``verify`` workloads, and in a CLI
process of its own (child.py) for ``cli-jensen``. The seed decides the
inputs; the amount of work is fixed by the constants below, so that runs
with different seeds measure comparable work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("wright-mixed", "closure-lattice", "prop43-roundtrip", "cli-jensen")

# Pass sizes. The baseline machine's speed drifts for seconds at a time,
# and the median over many short passes is steadier than over a few long
# ones, so the largest orders here are the ones that keep a pass near
# one second: theorem23 at n = 13 and lemma44 at n = 7 each take 2-4 s.
THEOREM23_ORDERS = (1, 3, 5, 7, 9, 11)
LEMMA44_ORDERS = (1, 3, 5)
LEMMA46_ORDERS = (1, 3, 5)
PROP43_CALLS, PROP43_TRIALS = 4, 10  # calls per pass, trials per call
SAMPLE_DEF = "samples/theorem23-n3.def"
# One generated definition file per entry: (coefficients of the additive
# functional, odd order, probe box low corner, box width, largest probe
# step); one positive symbol per coefficient. The probe box treats every
# symbol alike, so the seed, which assigns the coefficients to symbols in
# some order and picks the other values, leaves the probe's work the same.
GENERATED_DEFS = (((-2, 3), 5, -1, 8, 4), ((-1, 2, 3), 3, -1, 5, 3), ((1, -3), 7, -1, 4, 3))


@dataclass
class Op:
    argv: list[str]
    count: int  # claims the output must hold
    expect: dict = field(default_factory=dict)  # label -> exact computed value
    process: bool = False  # run in a CLI process of its own (child.py)
    # Expectations that need the library; computed after the timed pass.
    expect_later: Callable[[], dict] | None = None

    def expectations(self) -> dict:
        if self.expect_later is None:
            return self.expect
        return {**self.expect, **self.expect_later()}


# Seconds of a run per pass. A run of S seconds makes a warm-up pass
# (index -1) and S // NOMINAL_PASS_S - 1 timed passes (indices 0, 1, ...;
# at least MIN_PASSES), so its work depends on S alone. Each value is
# about the wall time of a pass with its worker start and reference loops
# on the baseline machine, except cli-jensen's: its passes take about 3 s
# and spread the most, so a run of 20 s is given seven of them.
NOMINAL_PASS_S = {
    "wright-mixed": 1.3, "closure-lattice": 1.3, "prop43-roundtrip": 1.75, "cli-jensen": 2.5,
}
MIN_PASSES = 3


def passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]) - 1)


def build(workload: str, seed: int, inputs: Path, index: int = 0) -> list[Op]:
    """The operations of pass ``index`` of a run with this seed."""
    rng = random.Random(seed)
    if workload == "wright-mixed":
        ops = [
            Op(["verify", "theorem23", "--n", str(n), "--allow-large"], 2,
               {"forward-diff-at-zero": Fraction(-1), "backward-diff-at-top": Fraction(-1)})
            for n in THEOREM23_ORDERS
        ]
        ops.append(Op(["verify", "section31"], 22, {"alternating-total": Fraction(-1)}))
        ops.append(Op(["verify", "section32"], 7))
    elif workload == "closure-lattice":
        ops = [
            Op(["verify", "lemma44", "--n", str(n)], 6, {"d-mass-at-h1": Fraction(-1)})
            for n in LEMMA44_ORDERS
        ]
        ops += [
            Op(["verify", "lemma46", "--n", str(n)], 8,
               {"chain-measure-path": Fraction(-1), "chain-direct-path": Fraction(-1)})
            for n in LEMMA46_ORDERS
        ]
    elif workload == "prop43-roundtrip":
        # Trial cost varies with the drawn instance (coefficient of
        # variation near 0.85): with trials drawn from the run seed, the
        # median of a run moved by up to 25 % from seed to seed. So pass i
        # of every run verifies the same trial sets, drawn from i alone;
        # as in the other in-process workloads, the seed orders the calls.
        draw = random.Random(f"prop43:{index}")
        trials = Fraction(PROP43_TRIALS)
        ops = [
            Op(["verify", "prop43", "--trials", str(PROP43_TRIALS),
                "--seed", str(draw.randrange(1 << 30))], 3,
               {"recover-source-measure": trials, "recover-closure-fixed-point": trials,
                "probe-coverage-at-least-50": True})
            for _ in range(PROP43_CALLS)
        ]
    elif workload == "cli-jensen":
        inputs.mkdir(parents=True, exist_ok=True)
        ops = [Op(["run", SAMPLE_DEF], 4, process=True, expect_later=_sample_expectations)]
        for number, shape in enumerate(GENERATED_DEFS, 1):
            path = inputs / f"jensen-{number}.def"
            text, count, expect_later = _generated_def(rng, *shape)
            path.write_text(text, encoding="utf-8")
            ops.append(Op(["run", str(path)], count, process=True, expect_later=expect_later))
        return ops
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # The verify scenarios take no input from the seed; it orders the calls.
    rng.shuffle(ops)
    return ops


def _sample_expectations() -> dict:
    """The claims of samples/theorem23-n3.def, the differences recomputed
    through the subset-sum route."""
    from hamelcheck import (
        AdditiveFunctional, Composite, PositivePartPower, Symbol, ZERO,
        forward_diff_closed, unit,
    )

    syms = [Symbol(f"h{i}", positive=True) for i in range(1, 5)]
    hs = [unit(s) for s in syms]
    a = AdditiveFunctional({s: (-1 if s.name == "h1" else 1) for s in syms})
    f = Composite(PositivePartPower(3), a)
    # The backward difference at top is the forward one at top - sum(hs) = 0.
    return {
        "forward-diff at 0 with [h1, h2, h3, h4] expect -1": forward_diff_closed(f, ZERO, hs),
        "backward-diff at top with [h1, h2, h3, h4] expect -1": forward_diff_closed(f, ZERO, hs),
        "jensen-probe n=3 grid=box(0..1)": Fraction(0),
        "atom-mass j1 at 3*h1 expect 1": Fraction(1),
    }


def _render(point: dict[str, int]) -> str:
    terms = [name if c == 1 else f"{c}*{name}" for name, c in sorted(point.items()) if c]
    return " + ".join(terms) or "0"


def _add(*points: dict[str, int], scale: int = 1) -> dict[str, int]:
    out: dict[str, int] = {}
    for i, p in enumerate(points):
        for name, c in p.items():
            out[name] = out.get(name, 0) + (scale * c if i else c)
    return {k: v for k, v in out.items() if v}


def _times(k: int, point: dict[str, int]) -> dict[str, int]:
    return {name: k * c for name, c in point.items() if k}


def _closure_count(source: dict, steps: list[dict], at: dict) -> int:
    """Representations at - source = sum k_i * steps[i] with k_i >= 0, by
    brute force over bounded k (steps have positive integer coordinates)."""
    gap = _add(at, source, scale=-1)
    if any(v < 0 for v in gap.values()):
        return 0
    bound = max(gap.values(), default=0)
    count = 0

    def walk(i: int, rest: dict) -> None:
        nonlocal count
        if i == len(steps):
            count += not rest
            return
        k = 0
        while k <= bound and all(v >= 0 for v in rest.values()):
            walk(i + 1, rest)
            rest = _add(rest, steps[i], scale=-1)
            k += 1

    walk(0, gap)
    return count


def _generated_def(rng: random.Random, coefficients: tuple[int, ...], order: int, lo: int,
                   width: int, max_step: int):
    """A definition file with one odd-order positive-part power, mixed
    forward and backward differences, an equal-increment Jensen probe and
    closure atom masses. Returns (text, claim count, expectations)."""
    nsym = len(coefficients)
    names = [f"g{i}" for i in range(1, nsym + 1)]
    values = dict(zip(names, rng.sample(coefficients, nsym)))

    def point(lo: int, hi: int) -> dict[str, int]:
        return {name: rng.randint(lo, hi) for name in names}

    def increment() -> dict[str, int]:
        chosen = rng.sample(names, rng.randint(1, nsym))
        return {name: rng.randint(1, 2) for name in chosen}

    lines = [f"symbol {name} positive" for name in names]
    lines += [f"additive a.{name} = {values[name]}" for name in names]
    lines.append(f"function pospartpow {order} of a")
    diffs = []
    for backward in (False, False, True, True):
        at = point(-2, 2)
        hs = [increment() for _ in range(order + 1)]
        label = (
            f"{'backward' if backward else 'forward'}-diff at {_render(at)} "
            f"with [{', '.join(_render(h) for h in hs)}]"
        )
        if label not in (d[0] for d in diffs):
            diffs.append((label, backward, at, hs))
    lines += [f"eval {d[0]}" for d in diffs]
    probe = f"jensen-probe n={order} grid=box({lo}..{lo + width - 1};steps=1..{max_step})"
    lines.append(f"eval {probe}")

    source = point(0, 2)
    steps = [increment(), increment()]
    lines.append(f"measure d = dirac({_render(source)})")
    lines.append(f"measure j1 = jclosure(d, {_render(steps[0])})")
    lines.append(f"measure j2 = jclosure(j1, {_render(steps[1])})")
    lines.append(f"measure t = shift(j2, {_render(steps[0])})")
    lines.append("measure u = scale(-1, t)")
    lines.append("measure v = sum(j2, u)")
    masses = {}
    for _ in range(3):
        at = _add(source, *(_times(rng.randint(0, 2), s) for s in steps))
        if rng.random() < 0.3:
            at = _add(at, {rng.choice(names): 1})
        on_j2 = _closure_count(source, steps, at)
        on_v = on_j2 - _closure_count(source, steps, _add(at, steps[0], scale=-1))
        for measure, mass in (("j2", on_j2), ("v", on_v)):
            label = f"atom-mass {measure} at {_render(at)} expect {mass}"
            if label not in masses:
                masses[label] = Fraction(mass)
                lines.append(f"eval {label}")

    def expect_later() -> dict:
        from hamelcheck import (
            AdditiveFunctional, Composite, Point, PositivePartPower, Symbol,
            forward_diff_closed,
        )

        syms = {name: Symbol(name, positive=True) for name in names}

        def pt(p: dict[str, int]) -> Point:
            return Point({syms[k]: v for k, v in p.items()})

        a = AdditiveFunctional({syms[k]: v for k, v in values.items()})
        f = Composite(PositivePartPower(order), a)
        out = {probe: Fraction(0), **masses}
        for label, backward, at, hs in diffs:
            # The backward difference at x is the forward one at x - sum(hs).
            base = _add(at, *hs, scale=-1) if backward else at
            out[label] = forward_diff_closed(f, pt(base), [pt(h) for h in hs])
        return out

    return "\n".join(lines) + "\n", len(diffs) + 1 + len(masses), expect_later


@dataclass
class Outcome:
    attempted: int
    failed: int
    rows: list
    errors: list[str]


def check(op: Op, code, out: str, err: str) -> Outcome:
    """Verdict check of one operation: every JSONL line parses, every
    claim passes, known values match exactly and the claim count is the
    one the generator expects. A CLI process counts as one more
    operation, failed on an exit code other than 0 or a traceback."""
    expect = op.expectations()
    rows, errors = [], []
    ok = 0
    for line in out.splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            row = None
        if not isinstance(row, dict):
            errors.append(f"{op.argv}: unparsable line {line[:80]!r}")
            continue
        rows.append(row)
        label = row.get("label")
        if row.get("pass") is not True:
            errors.append(f"{op.argv}: claim failed: {label}")
        elif label in expect and _value(row.get("computed")) != expect[label]:
            errors.append(
                f"{op.argv}: {label} computed {row.get('computed')}, expected {expect[label]}"
            )
        else:
            ok += 1
    attempted = max(op.count, len(out.splitlines()))
    failed = attempted - ok
    missing = set(expect) - {row.get("label") for row in rows}
    if missing:
        errors.append(f"{op.argv}: missing claims {sorted(missing)}")
        failed = max(failed, min(len(missing), attempted))
    if len(rows) != op.count:
        errors.append(f"{op.argv}: {len(rows)} claims, expected {op.count}")
        failed = max(failed, abs(len(rows) - op.count))
    if op.process:
        attempted += 1
        if code != 0 or "Traceback" in err:
            failed += 1
            errors.append(f"{op.argv}: exit {code} {err.strip()[-200:]}")
    elif code != 0:
        failed = max(failed, 1)
        errors.append(f"{op.argv}: exit {code} {err.strip()[-200:]}")
    return Outcome(attempted, failed, rows, errors)


def _value(text):
    if isinstance(text, bool):
        return text
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None
