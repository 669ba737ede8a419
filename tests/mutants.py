"""Mutation gate: each mutant is one textual edit to a module of src/, and
the test modules named beside it must fail on it.

Run from the root of the repository, with pytest installed:

    python tests/mutants.py

The unmutated tree must pass every named module first, within
``UNMUTATED_TIMEOUT`` seconds, and the script prints how long that took.
Then, for each
mutant, the tree (``src/``, ``tests/``, ``samples/``, ``pyproject.toml``
and ``perfbench/``, which ``tests/test_tracer.py`` imports) is copied into
a temporary directory, the edit is applied there (its text must occur in
the file exactly once), and the modules run with ``pytest -x``. A mutant
is killed when a test fails, or when its run outlasts ``TIMEOUT`` seconds
(a test that no longer ends); the script exits 1 if any survives or
cannot be applied. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "samples", "perfbench", "pyproject.toml")
FOLD = ("test_measures.py", "test_functions.py", "test_scenarios.py")
CLASSES = ("test_scenarios.py",)
# Seconds per mutant's run, past which it counts as killed (a test that
# no longer ends). A mutant's run takes 1-10 s (CPython 3.11, 2 cores).
TIMEOUT = 30
# Seconds for the unmutated run, which must pass: it runs every named
# module, and took 14.5-17.3 s alone and 23.4 s beside other test runs on
# 2 cores. UNMUTATED_TIMEOUT plus len(MUTANTS) runs at TIMEOUT must end
# inside the CI job's 26 minutes.
UNMUTATED_TIMEOUT = 90


class Mutant(NamedTuple):
    name: str
    path: str  # under src/hamelcheck
    old: str
    new: str
    modules: tuple[str, ...]


MUTANTS = (
    # The fold of a measure's parts, MeasureExpr._fill.
    Mutant("offset-dropped", "measures.py",
           "offsets = [at and at.coords(basis) for _, _, at in parts]",
           "offsets = [at and (0,) * len(basis) for _, _, at in parts]", FOLD),
    Mutant("weight-off-child-atoms", "measures.py",
           "atoms[key] = atoms.get(key, 0) + c * w", "atoms[key] = atoms.get(key, 0) + w", FOLD),
    Mutant("weight-off-child-terms", "measures.py",
           "terms[key] = terms.get(key, 0) + c * w", "terms[key] = terms.get(key, 0) + w", FOLD),
    # A chain closure folds its inner chain's atoms, not the chain as a
    # term, and a node shares its one part's form only when that part is
    # not a term and brings no new symbol.
    Mutant("chain-record-ignored", "measures.py",
           "if type(child) is JClosure and not record:", "if type(child) is JClosure:", FOLD),
    Mutant("shared-without-basis-test", "measures.py",
           "\n                and (own is None or set(own.support).issubset(first._basis))):",
           "):", FOLD),
    Mutant("closure-part-shared", "measures.py",
           "(record or type(first) is Form)", "first is not None", FOLD),
    Mutant("floor-of-first-part", "measures.py",
           "floor = floors[0] if len(floors) == 1 else tuple(map(min, zip(*floors)))",
           "floor = floors[0]", FOLD),
    Mutant("first-increment-only", "measures.py", "for h in diffs:", "for h in diffs[:1]:", FOLD),
    # A difference's weights: cancelled ones are dropped, and mu's signed
    # unit atoms add every one but the first.
    Mutant("cancelled-weights-kept", "measures.py",
           "return {key: w for key, w in merged.items() if w}", "return merged", FOLD),
    Mutant("signed-first-added", "measures.py",
           "(-1, None, pts[0])", "(1, None, pts[0])", FOLD),
    # The mass of a closure: a closure term below its closure's floor is 0
    # without a call, in the walk and in a form's batch read, where the
    # floor is tested only above the reading node's, and a closure asked a
    # point it has answered answers from its memo.
    Mutant("term-floor-check-dropped", "measures.py",
           "if above is not None and not all(map(ge, above(w), low)):\n"
           "                continue\n            m = memo.get(w)",
           "m = memo.get(w)", FOLD),
    Mutant("walk-term-floor-check-dropped", "measures.py",
           "if above is not None and not all(map(ge, above(w), low)):\n"
           "                continue\n            m = closure._memo.get(w)",
           "m = closure._memo.get(w)", FOLD),
    Mutant("memo-check-dropped", "measures.py",
           "m = memo.get(v)\n        if m is None:", "m = None\n        if m is None:", FOLD),
    # The reads of a node at tuples (atom_mass at one point, masses at a
    # list): a tuple below a closure's floor reads 0 without a call, and a
    # batch tuple with a coordinate off the node's span reads 0. A form
    # reads a batch one closure term at a time: a tuple below the form's
    # floor reads 0 before any term, and each term adds its weight times
    # its closure's mass at the batch positions it read.
    Mutant("read-floor-check-dropped", "measures.py",
           "m = _mass(mu, v) if all(map(ge, v, floor)) else 0", "m = _mass(mu, v)", FOLD),
    Mutant("batch-off-span-read", "measures.py",
           "on = [i for i, v in enumerate(vs) if not any(drop(v))]",
           "on = list(range(len(vs)))", FOLD),
    Mutant("form-floor-exit-dropped", "measures.py",
           "at = [i for i, v in enumerate(vs) if all(map(ge, v, floor))]",
           "at = list(range(len(vs)))", FOLD),
    Mutant("batch-term-weight-dropped", "measures.py",
           "out[i] += c * (_mass(closure, w) if m is None else m)",
           "out[i] += _mass(closure, w) if m is None else m", FOLD),
    Mutant("batch-index-shifted", "measures.py",
           "for i, w in zip(at, ws):", "for i, w in zip(range(len(ws)), ws):", FOLD),
    # The builders' mapping of their arguments to parts.
    Mutant("shift-step-dropped", "measures.py",
           "return Form(((1, inner, step),))", "return Form(((1, inner, None),))", FOLD),
    Mutant("scale-factor-dropped", "measures.py",
           "return Form(((exact(factor), inner, None),))", "return Form(((1, inner, None),))", FOLD),
    # The box decoder: the first symbol varies slowest, so an index's last
    # digit is the last symbol's coordinate.
    Mutant("box-digit-order-reversed", "basis.py",
           "pos = [basis.index(s) for s in reversed(syms)]",
           "pos = [basis.index(s) for s in syms]", ("test_basis.py", "test_scenarios.py")),
    # A zero read charges nothing, whatever the power, and any other read
    # of a word or more is charged before its power is computed.
    Mutant("pospartpow-zero-charged", "functions.py", "if t <= 0:", "if t < 0:",
           ("test_functions.py",)),
    Mutant("pospartpow-result-uncharged", "functions.py",
           'charge(superlinear(bits >> 6), "pospartpow result")', "pass", ("test_functions.py",)),
    # The expansion's binomial row and the subset table's signs.
    Mutant("binomial-off-by-one", "differences.py",
           "b = -b * j // (m - j + 1)", "b = -b * j // (m - j + 2)",
           ("test_differences.py",)),
    Mutant("table-sign-flipped", "differences.py",
           "-1 if (k - len(subset)) % 2 else 1", "1 if (k - len(subset)) % 2 else -1",
           ("test_differences.py",)),
    # A subset table is charged a unit a row before its first row, and the
    # human format builds each trace under its own budget. Both are killed
    # under a lowered work limit, never by building a table past it.
    Mutant("trace-charge-dropped", "differences.py",
           'charge(1 << k, "difference table")', 'charge(0, "difference table")',
           ("test_differences.py",)),
    Mutant("trace-unmetered", "reports.py", "with metered():", "if True:", ("test_reports.py",)),
    # Each expansion's read at the base point: the scalar line reads K at
    # a(x) + e, and a point-keyed expansion at the key shifted by x.
    Mutant("line-base-dropped", "differences.py",
           "evaluate(base + e)", "evaluate(e)", ("test_differences.py",)),
    Mutant("points-base-dropped", "differences.py",
           "map(add, base, e) if shift else e", "e", ("test_differences.py",)),
    # The even-order candidates' scaled square (c*x)_+^2.
    Mutant("scaled-square-sign-dropped", "scenarios.py", "{u: c}", "{u: abs(c)}", FOLD),
    # Lemma 4.6's class route: each class's weight and sign in the sums at
    # the top point, and its representative.
    Mutant("class-weight-off-by-one", "scenarios.py", "comb(n, k)", "comb(n + 1, k)", CLASSES),
    Mutant("class-sign-flipped", "scenarios.py",
           "(-1) ** (n + 1 - b - k)", "(-1) ** (n - b - k)", CLASSES),
    # Both lemmas read A as one batch of class members: each member's tuple
    # (with h1 where b = 1), the other members as the representative moved
    # by the cycle, and each moved member's row compared with its
    # representative's.
    Mutant("class-representative-without-h1", "scenarios.py",
           "to_basis((b, *tail[n - r:]", "to_basis((0, *tail[n - r:]", CLASSES),
    Mutant("class-members-not-moved", "scenarios.py",
           "*tail[n - r:], *tail[:n - r]", "*tail", CLASSES),
    Mutant("members-not-compared", "scenarios.py",
           "same &= row == rep", "same &= rep == rep", CLASSES),
    # The one class read: a(x) is compared at every member, as mu_1 and
    # delta_h1 are, not read at the representatives alone.
    Mutant("a-column-not-compared", "scenarios.py",
           "values, same = _per_class(sizes, ([sum(compress(at_units, v)) for v in xs],\n"
           "                                      masses(mu_1, basis, xs), masses(delta1, basis, xs)))\n"
           "    av, firsts, ds = map(list, zip(*values))",
           "values, same = _per_class(sizes, (masses(mu_1, basis, xs), masses(delta1, basis, xs)))\n"
           "    firsts, ds = map(list, zip(*values))\n"
           "    av = [sum(compress(at_units, xs[sum(sizes[:i])])) for i in range(len(sizes))]",
           CLASSES),
    # Lemma 4.6 reads (mu + delta_h1)^n as the power of their class values' sum.
    Mutant("combined-delta-dropped", "scenarios.py", "(m + d) ** n", "m ** n", CLASSES),
    # Lemma 4.4's class route: claim (b) reads mu_1 on the classes without
    # h1, and mu at each class is the sum of the exchanges of mu_1 there
    # (a coefficient, the -mu_1 term dropped from both kinds of class, and
    # the class each term of mu(1, k) reads, shifted by one).
    Mutant("off-set-class-filter-flipped", "scenarios.py",
           "zip(classes, firsts[1:]) if not b)", "zip(classes, firsts[1:]) if b)", CLASSES),
    Mutant("mu-class-coefficient-off-by-one", "scenarios.py",
           "k * one[k] +", "(k + 1) * one[k] +", CLASSES),
    Mutant("mu-first-term-dropped", "scenarios.py",
           "(n - k - 1) * zero[k] for k in range(n + 1)]\n            + [(k - 1) * one[k + 1]",
           "(n - k) * zero[k] for k in range(n + 1)]\n            + [k * one[k + 1]", CLASSES),
    Mutant("mu-class-index-shifted", "scenarios.py", "one[k + 1]", "one[k]", CLASSES),
    Mutant("mu-zero-class-index-shifted", "scenarios.py", "zero[k + 1]", "zero[k]", CLASSES),
    # The one certificate of both lemmas: each generator (the transposition,
    # then the cycle, replaced by the identity), the check of a's values,
    # and the check of the measure's run on h1 against its run on h2.
    Mutant("certificate-generator-dropped", "scenarios.py",
           "dict(zip(rest[:2], rest[1::-1]))", "{}", CLASSES),
    Mutant("certificate-cycle-dropped", "scenarios.py",
           "dict(zip(rest, rest[1:] + rest[:1]))", "{}", CLASSES),
    Mutant("certificate-values-dropped", "scenarios.py",
           "all(values[g.get(s, s)] == v for s, v in values.items())", "True", CLASSES),
    Mutant("h1-run-unchecked", "scenarios.py",
           "return runs.get(syms[0]) == runs.get(syms[1])", "return True", CLASSES),
)


def copy_tree(dst: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache", "out"))
        else:
            shutil.copy2(src, dst / name)


def run_tests(
    tree: Path, modules: tuple[str, ...], timeout: float = TIMEOUT
) -> tuple[int | None, str]:
    """Run ``modules`` of ``tree``'s tests with ``-x``: the exit status,
    None if the run outlasts ``timeout`` seconds, and the last line of the
    output."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(f"tests/{m}" for m in modules)],
            cwd=tree, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout} s"
    lines = run.stdout.strip().splitlines()
    return run.returncode, lines[-1] if lines else run.stderr.strip()


def main() -> int:
    modules = tuple(dict.fromkeys(m for mutant in MUTANTS for m in mutant.modules))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        start = time.perf_counter()
        status, last = run_tests(base, modules, UNMUTATED_TIMEOUT)
        print(f"unmutated: {last} in {time.perf_counter() - start:.1f} s")
        if status != 0:
            print("the unmutated tree must pass every named module", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            tree = Path(tmp) / mutant.name
            shutil.copytree(base, tree)
            path = tree / "src" / "hamelcheck" / mutant.path
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                print(f"{mutant.name}: its text occurs {count} times in {mutant.path}, not once")
                failed += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            status, last = run_tests(tree, mutant.modules)
            took = time.perf_counter() - start
            # 1: a test failed; None: the run did not end. Any other status
            # (no test run, a usage or collection error) is not a kill.
            killed = status in (1, None)
            print(f"{mutant.name}: {'killed' if killed else 'SURVIVED'} in {took:.1f} s ({last})")
            failed += not killed
            shutil.rmtree(tree)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
