"""Default CLI output, byte for byte, against the files in tests/golden/,
and every claim's ref against tests/golden/refs.tsv.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

from hamelcheck import cli
from hamelcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FORMATS = ("human", "tsv", "jsonl")

COMMANDS = {
    "theorem23": ["verify", "theorem23"],
    "section31-trace": ["verify", "section31", "--trace"],
    "section32": ["verify", "section32"],
    "lemma44-n3": ["verify", "lemma44", "--n", "3"],
    "lemma46-n3": ["verify", "lemma46", "--n", "3"],
    "prop43-t5-s3": ["verify", "prop43", "--trials", "5", "--seed", "3"],
    "probe-prop31-witness": ["probe", "even", "--n", "2", "--case", "prop31-witness"],
    "probe-prop32-grid": ["probe", "even", "--n", "2", "--case", "prop32-grid"],
    "probe-prop33-witness": ["probe", "even", "--n", "2", "--case", "prop33-witness"],
    "run-theorem23-n3": ["run", str(ROOT / "samples" / "theorem23-n3.def")],
    "run-all-statements": ["run", str(ROOT / "samples" / "all-statements.def")],
}

CASES = [
    (f"{name}.{fmt}", argv + ["--format", fmt])
    for name, argv in COMMANDS.items()
    for fmt in FORMATS
]
CASES.append(("theorem23-n3-trace.human", ["verify", "theorem23", "--n", "3", "--trace"]))

# The human format prints a claim's ref only under a failing claim, so no
# output above shows one; refs.tsv holds each claim's ref once.
REF_COMMANDS = [*COMMANDS.values(), ["verify", "theorem23", "--n", "3"]]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def _refs():
    """One ``scenario, label, ref`` row per claim the commands report."""
    rows = []
    for argv in REF_COMMANDS:
        args = cli.parse_args(argv)
        runner = vars(cli)[args.runner]
        for call in cli._calls(args):
            report = runner(*call)
            rows.extend(f"{report.scenario}\t{c.label}\t{c.ref}\n" for c in report.claims)
    return "".join(dict.fromkeys(rows))


def pytest_generate_tests(metafunc):
    # A hook rather than a decorator: regeneration runs without pytest.
    if metafunc.function is test_output_matches_golden:
        metafunc.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])


def test_output_matches_golden(name, argv):
    assert _stdout(argv) == (GOLDEN / name).read_text(encoding="utf-8")


def test_refs_match_golden():
    assert _refs() == (GOLDEN / "refs.tsv").read_text(encoding="utf-8")


def test_loads_without_pytest(monkeypatch):
    # None in sys.modules makes `import pytest` fail; the run name is not
    # __main__, so nothing is written.
    monkeypatch.setitem(sys.modules, "pytest", None)
    namespace = runpy.run_path(__file__, run_name="golden_regeneration")
    assert len(namespace["CASES"]) == 34


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / name).write_text(_stdout(argv), encoding="utf-8")
    (GOLDEN / "refs.tsv").write_text(_refs(), encoding="utf-8")
