"""Command-line surface: formats, exit codes, flags."""

import json
from pathlib import Path

from hamelcheck.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jsonl_claim_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem23", "--n", "3", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"scenario", "label", "computed", "expected", "pass"}
        assert row["computed"] == "-1"
        assert row["pass"] is True


def test_tsv_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "section32", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert all(len(r) == 5 for r in rows)
    assert rows[0][0] == "section32"
    assert all(r[4] == "true" for r in rows)


def test_global_flag_position(capsys):
    code, out, _ = run_cli(capsys, "--format", "tsv", "verify", "section31")
    assert code == 0
    assert out.startswith("section31\t")


def test_human_trace(capsys):
    code, out, _ = run_cli(capsys, "verify", "section31", "--trace")
    assert code == 0
    assert "group sums: +8 -30 +24 -3 +0 = -1" in out
    assert "[+] size 4: f(h1 + h2 + h3 + h4) = 8" in out


def test_batch_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma44", "--format", "jsonl")
    assert code == 0
    scenarios = {json.loads(line)["scenario"] for line in out.strip().splitlines()}
    assert scenarios == {"lemma44(n=1)", "lemma44(n=3)", "lemma44(n=5)"}


def test_prop43_flags(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "prop43", "--trials", "3", "--seed", "5", "--format", "jsonl"
    )
    assert code == 0
    row = json.loads(out.strip().splitlines()[0])
    assert row["scenario"] == "prop43(trials=3,seed=5)"
    assert row["computed"] == "3"


def test_probe_even(capsys):
    code, out, _ = run_cli(capsys, "probe", "even", "--n", "2", "--case", "prop32-grid")
    assert code == 0
    assert "probe-even(n=2,case=prop32-grid)" in out
    assert "stays open" in out


def test_run_sample_file(capsys):
    code, out, _ = run_cli(capsys, "run", str(SAMPLES / "theorem23-n3.def"))
    assert code == 0
    assert "result: PASS" in out


def test_exit_code_failing_claim(tmp_path, capsys):
    path = tmp_path / "bad.def"
    path.write_text(
        "symbol s positive\nadditive a.s = 1\nfunction pospartpow 1 of a\n"
        "eval forward-diff at 0 with [s] expect 7\n"
    )
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "FAIL" in out


def test_exit_code_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "4")
    assert code == 2 and "even" in err

    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "13")
    assert code == 2 and "--allow-large" in err

    code, _, err = run_cli(capsys, "probe", "even", "--n", "3", "--case", "prop32-grid")
    assert code == 2

    code, _, err = run_cli(capsys, "probe", "even", "--n", "2", "--case", "nope")
    assert code == 2 and "no documented candidate" in err

    code, _, err = run_cli(capsys, "run", str(tmp_path / "missing.def"))
    assert code == 2

    bad = tmp_path / "parse.def"
    bad.write_text("symbol s positive\nwibble\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and "line 2" in err


def test_even_order_message_points_to_probe(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "2")
    assert code == 2
    assert "probe even" in err


def test_value_too_long_to_render_is_a_usage_error(tmp_path, capsys):
    # 4^20000 - 2^20000 has over 4300 digits, past str()'s default limit.
    big = tmp_path / "big.def"
    big.write_text(
        "symbol h positive\nadditive a.h = 2\nfunction pospartpow 20000 of a\n"
        "eval forward-diff at h with [h]\n"
    )
    code, out, err = run_cli(capsys, "run", str(big))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "integer string conversion" in err


def test_deep_difference_chain_is_a_usage_error(tmp_path, capsys):
    # 1,500 increments nest the operator chain past the recursion limit.
    deep = tmp_path / "deep.def"
    deep.write_text(
        "symbol h positive\nadditive a.h = 1\nfunction pospartpow 2 of a\n"
        f"eval forward-diff at 0 with [{', '.join(['h'] * 1500)}]\n"
    )
    code, out, err = run_cli(capsys, "run", str(deep))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "nests too deeply" in err


def test_deep_shift_nesting_is_a_usage_error(tmp_path, capsys):
    lines = ["symbol s positive", "measure m0 = dirac(s)"]
    lines += [f"measure m{i} = shift(m{i - 1}, s)" for i in range(1, 1201)]
    lines.append("eval atom-mass m1200 at 1201*s expect 1")
    deep = tmp_path / "deep.def"
    deep.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "run", str(deep))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "nests too deeply" in err
