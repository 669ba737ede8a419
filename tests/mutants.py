"""Mutation gate: each mutant is one textual edit to a module of src/, and
the test modules named beside it must fail on it.

Run from the root of the repository, with pytest installed:

    python tests/mutants.py

The unmutated tree must pass every named module first. Then, for each
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
# Seconds per run. The unmutated run takes about 13 s and a mutant's 1-9 s
# (CPython 3.11, 2 cores); (1 + len(MUTANTS)) runs, each at this limit,
# must end inside the CI job's 15 minutes.
TIMEOUT = 30


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
    # A chain closure's form: its inner's atoms with the step's new symbol
    # put in at its sorted place.
    Mutant("chain-coordinate-appended", "measures.py",
           "atoms = {(*v[:j], 0, *v[j:]): w for v, w in atoms.items()}",
           "atoms = {(*v, 0): w for v, w in atoms.items()}", FOLD),
    Mutant("floor-of-first-part", "measures.py",
           "floor = floors[0] if len(floors) == 1 else tuple(map(min, zip(*floors)))",
           "floor = floors[0]", FOLD),
    Mutant("first-increment-only", "measures.py", "for h in diffs:", "for h in diffs[:1]:", FOLD),
    # A difference's weights: cancelled ones are dropped, and every form
    # but the first of a signed combination is added.
    Mutant("cancelled-weights-kept", "measures.py",
           "return {key: w for key, w in merged.items() if w}", "return merged", FOLD),
    Mutant("signed-first-added", "measures.py", "(-1, *pairs[0])", "(1, *pairs[0])", FOLD),
    # The mass of a closure: a term below its closure's floor is 0 without
    # a call, and a point answered once is answered from the memo.
    Mutant("term-floor-check-dropped", "measures.py",
           "if not all(map(ge, w, closure._floor)):", "if False:", FOLD),
    Mutant("memo-check-dropped", "measures.py", "if total is not None:", "if False:", FOLD),
    # The builders' mapping of their arguments to parts.
    Mutant("shift-step-dropped", "measures.py",
           "return Form(((1, inner, step),))", "return Form(((1, inner, None),))", FOLD),
    Mutant("scale-factor-dropped", "measures.py",
           "return Form(((exact(factor), inner, None),))", "return Form(((1, inner, None),))", FOLD),
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
    # Each expansion's read at the base point: the scalar line reads K at
    # a(x) + e, and a point-keyed expansion at the key shifted by x.
    Mutant("line-base-dropped", "differences.py",
           "evaluate(base + e)", "evaluate(e)", ("test_differences.py",)),
    Mutant("points-base-dropped", "differences.py",
           "map(add, base, e) if shift else e", "e", ("test_differences.py",)),
    # The even-order candidates' scaled square (c*x)_+^2.
    Mutant("scaled-square-sign-dropped", "scenarios.py", "{u: c}", "{u: abs(c)}", FOLD),
    # Lemma 4.6's class route: each class's weight and sign in the sums at
    # the top point, its representative, and the certificate's generators.
    Mutant("class-weight-off-by-one", "scenarios.py", "comb(n, k)", "comb(n + 1, k)", CLASSES),
    Mutant("class-sign-flipped", "scenarios.py",
           "(-1) ** (n + 1 - b - k)", "(-1) ** (n - b - k)", CLASSES),
    Mutant("class-representative-without-h1", "scenarios.py",
           "for i in (0, *rest) if b else rest:", "for i in rest:", CLASSES),
    Mutant("certificate-generator-dropped", "scenarios.py",
           "for g in (cycle, swap)", "for g in (cycle,)", CLASSES),
    # Lemma 4.4's class route: the mu_i read for the pairs with h_i in S,
    # the family certificate's generators, and the unit outside S whose
    # mu_i reads 0.
    Mutant("pair-representative-off-by-one", "scenarios.py",
           "atom_mass(mus[rest[0]], x) if rest", "atom_mass(mus[rest[0] - 1], x) if rest", CLASSES),
    Mutant("family-generator-dropped", "scenarios.py",
           "for g in _generators(syms):", "for g in _generators(syms)[:1]:", CLASSES),
    Mutant("outside-unit-taken-from-s", "scenarios.py",
           "for i in range(n, 0, -1) if i not in rest", "for i in range(n, 0, -1)", CLASSES),
)


def copy_tree(dst: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache", "out"))
        else:
            shutil.copy2(src, dst / name)


def run_tests(tree: Path, modules: tuple[str, ...]) -> tuple[int | None, str]:
    """Run ``modules`` of ``tree``'s tests with ``-x``: the exit status,
    None if the run outlasts ``TIMEOUT``, and the last line of the output."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(f"tests/{m}" for m in modules)],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT} s"
    lines = run.stdout.strip().splitlines()
    return run.returncode, lines[-1] if lines else run.stderr.strip()


def main() -> int:
    modules = tuple(dict.fromkeys(m for mutant in MUTANTS for m in mutant.modules))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        status, last = run_tests(base, modules)
        print(f"unmutated: {last}")
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
