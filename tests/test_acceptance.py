"""Acceptance gate: one test per criterion, exercised through the same
surfaces a user would touch (CLI where the criterion names a command,
library otherwise). All comparisons are exact; the only tolerances are
the stated wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

from hamelcheck import (
    ZERO,
    AdditiveFunctional,
    Composite,
    PositivePartPower,
    Symbol,
    backward_diff,
    forward_diff,
    forward_diff_closed,
    jensen_convexity_probe,
    unit,
)
from hamelcheck.cli import main
from hamelcheck.measures import build_a_sets
from helpers import random_tabulated_instance

PASS = "[PASS]"


def run_jsonl(capsys, *argv):
    start = time.perf_counter()
    code = main([*argv, "--format", "jsonl"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines()]
    return code, rows, elapsed


def test_criterion_1_theorem23_all_orders(capsys):
    for n in (1, 3, 5, 7, 9, 11):
        code, rows, elapsed = run_jsonl(capsys, "verify", "theorem23", "--n", str(n))
        assert code == 0, f"order {n} exited {code}"
        values = {r["label"]: r["computed"] for r in rows}
        assert values["forward-diff-at-zero"] == "-1", (n, values)
        assert values["backward-diff-at-top"] == "-1", (n, values)
        assert all(r["pass"] for r in rows)
        assert elapsed < 1.0, f"order {n} took {elapsed:.3f}s"
    print(f"{PASS} criterion 1: theorem23 reports -1 for n in 1..11 odd, <1s each")


def test_criterion_2_section31_value_table(capsys):
    code = main(["verify", "section31", "--trace"])
    human = capsys.readouterr().out
    assert code == 0
    for needle in (
        "[+] size 4: f(h1 + h2 + h3 + h4) = 8",
        "[-] size 3: f(h2 + h3 + h4) = 27",
        "[+] size 2: f(h2 + h3) = 8",
        "[-] size 1: f(h1) = 0",
        "[+] size 0: f(0) = 0",
        "group sums: +8 -30 +24 -3 +0 = -1",
    ):
        assert needle in human, needle

    code, rows, _ = run_jsonl(capsys, "verify", "section31")
    assert code == 0 and all(r["pass"] for r in rows)
    values = [r["computed"] for r in rows if r["label"].startswith("value[")]
    assert values == "8 1 1 1 27 0 0 0 8 8 8 0 1 1 1 0".split()
    groups = [r["computed"] for r in rows if r["label"].startswith("group-sum-")]
    assert groups == "8 30 24 3 0".split()
    assert [r["computed"] for r in rows if r["label"] == "alternating-total"] == ["-1"]
    print(f"{PASS} criterion 2: section31 trace reproduces the full value table")


def test_criterion_3_section32_claims(capsys):
    code, rows, _ = run_jsonl(capsys, "verify", "section32")
    assert code == 0 and all(r["pass"] for r in rows)
    values = {r["label"]: r["computed"] for r in rows}
    assert values["q-table-third-diff"] == "-18"
    assert values["prop31-witness"] == "-1"
    for c in (0, 1, 2):
        assert values[f"prop32-grid-c={c}"] == "0"
    assert values["prop33-c=-1"] == "-1"
    assert values["prop33-c=-2"] == "-4"
    print(f"{PASS} criterion 3: section32 reports -18, -1, clean grids, -1 and -4")


def test_criterion_4_lemma44_full_quantification(capsys):
    for n in (1, 3, 5):
        syms = [Symbol(f"h{i}", positive=True) for i in range(1, n + 2)]
        assert len(build_a_sets(syms).union) == 2 ** (n + 1) - 1
        code, rows, _ = run_jsonl(capsys, "verify", "lemma44", "--n", str(n))
        assert code == 0, f"order {n} exited {code}"
        assert all(r["pass"] for r in rows), (n, rows)
        labels = {r["label"] for r in rows}
        for prefix in ("a-", "b-", "c-", "d-", "e-"):
            assert any(lbl.startswith(prefix) for lbl in labels), (n, prefix)
    print(f"{PASS} criterion 4: lemma44 items (a)-(e) over all of A for n in {{1,3,5}}")


def test_criterion_5_lemma46_identities_and_paths(capsys):
    for n in (1, 3, 5):
        code, rows, _ = run_jsonl(capsys, "verify", "lemma46", "--n", str(n))
        assert code == 0, f"order {n} exited {code}"
        values = {r["label"]: r["computed"] for r in rows}
        assert values["mass-power-identity-on-A"] is True
        assert values["additive-matches-mass-on-A"] is True
        assert values["binomial-reduction-on-A"] is True
        assert values["power-mass-diff-at-top"] == "0"
        assert values["unit-atom-diff-at-top"] == str((-1) ** n)
        assert values["chain-measure-path"] == "-1"
        assert values["chain-direct-path"] == "-1"
        assert all(r["pass"] for r in rows), (n, rows)
    print(f"{PASS} criterion 5: lemma46 pointwise identities and both -1 paths")


def test_criterion_6_prop43_round_trips(capsys):
    code, rows, elapsed = run_jsonl(
        capsys, "verify", "prop43", "--trials", "100", "--seed", "42"
    )
    assert code == 0
    values = {r["label"]: r["computed"] for r in rows}
    assert values["recover-source-measure"] == "100"
    assert values["recover-closure-fixed-point"] == "100"
    assert values["probe-coverage-at-least-50"] is True
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"{PASS} criterion 6: prop43 100/100 round trips both ways in {elapsed:.2f}s")


def test_criterion_7_oracle_equivalence_suites():
    rng = random.Random(1729)
    agree = sym = ident = 0
    for _ in range(100):
        f, x, hs = random_tabulated_instance(rng, max_increments=5)
        primary = forward_diff(f, x, hs)
        if primary == forward_diff_closed(f, x, hs):
            agree += 1
        shuffled = list(hs)
        rng.shuffle(shuffled)
        if (
            forward_diff_closed(f, x, shuffled) == primary
            and forward_diff(f, x, shuffled) == primary
        ):
            sym += 1
        top = x
        for h in hs:
            top = top + h
        if backward_diff(f, top, hs) == primary:
            ident += 1
    assert (agree, sym, ident) == (100, 100, 100)
    print(f"{PASS} criterion 7: expansion/closed agreement, permutation symmetry, "
          "and the backward identity, 100/100 each")


def test_criterion_8_positive_part_power_stays_clean():
    for n in (1, 3):
        rng = random.Random(4200 + n)
        samples = []
        functions = []
        for _ in range(200):
            pool = [Symbol(f"g{i}", positive=True) for i in range(rng.randint(1, 5))]
            a = AdditiveFunctional(
                {s: Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for s in pool}
            )
            f = Composite(PositivePartPower(n), a)
            x = sum((rng.randint(0, 3) * unit(s) for s in pool), ZERO)
            h = unit(rng.choice(pool))
            functions.append(f)
            samples.append((x, h))
        violations = 0
        for f, (x, h) in zip(functions, samples):
            violations += len(jensen_convexity_probe(f, n, [(x, h)]))
        assert violations == 0, f"n={n}: {violations} violations"
    print(f"{PASS} criterion 8: 200 seeded samples per order, zero sign violations")
