"""Default CLI output, byte for byte, against the files in tests/golden/.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

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
}

CASES = [
    (f"{name}.{fmt}", argv + ["--format", fmt])
    for name, argv in COMMANDS.items()
    for fmt in FORMATS
]
CASES.append(("theorem23-n3-trace.human", ["verify", "theorem23", "--n", "3", "--trace"]))


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv):
    assert _stdout(argv) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / name).write_text(_stdout(argv), encoding="utf-8")
