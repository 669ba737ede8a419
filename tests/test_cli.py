"""Command-line surface: formats, exit codes, flags."""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hamelcheck import cli, errors, measures
from hamelcheck.cli import main
from hamelcheck.errors import HamelcheckError
from hamelcheck.functions import PositivePartPower
from hamelcheck.scenarios import verify_prop_4_3

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


# Golden file stem -> command. The section31 golden files were made with
# --trace; the other two reports have no trace table, so --trace leaves
# their output as their golden files hold it.
PLACED = {
    "section31-trace": ["verify", "section31"],
    "probe-prop31-witness": ["probe", "even", "--n", "2", "--case", "prop31-witness"],
    "run-theorem23-n3": ["run", str(SAMPLES / "theorem23-n3.def")],
}


@pytest.mark.parametrize("fmt", ("human", "tsv", "jsonl"))
@pytest.mark.parametrize("name", PLACED)
def test_output_flags_before_after_and_both(capsys, name, fmt):
    cmd = PLACED[name]
    other = "tsv" if fmt != "tsv" else "jsonl"
    expected = (0, (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8"), "")
    for argv in (
        ["--format", fmt, "--trace", *cmd],
        [*cmd, "--format", fmt, "--trace"],
        ["--trace", *cmd, "--format", fmt],
        ["--format", fmt, *cmd, "--trace"],
        # Given on both sides, the flag after the subcommand wins.
        ["--format", other, *cmd, "--format", fmt, "--trace"],
        ["--format", other, "--trace", *cmd, "--trace", "--format", fmt],
    ):
        assert run_cli(capsys, *argv) == expected, argv


def test_trace_is_off_unless_given(capsys):
    for argv in (["verify", "section31"], ["--format", "human", "verify", "section31"],
                 ["verify", "section31", "--format", "human"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "PASS" in out and "trace:" not in out, argv


LEAVES = [["verify", name] for name in (
    "theorem23", "section31", "section32", "lemma44", "lemma46", "prop43"
)] + [["probe", "even"], ["run"]]


@pytest.mark.parametrize("cmd", LEAVES, ids=" ".join)
def test_help_for_every_command(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: hamelcheck {' '.join(cmd)} [-h] [--format")
    assert "--trace" in out


# One passing argv for each command, with the name of its runner in cli.
COMMAND_RUNNERS = [
    (["verify", "theorem23", "--n", "1"], "verify_theorem_2_3"),
    (["verify", "section31"], "verify_section_3_1"),
    (["verify", "section32"], "verify_section_3_2"),
    (["verify", "lemma44", "--n", "1"], "verify_lemma_4_4"),
    (["verify", "lemma46", "--n", "1"], "verify_lemma_4_6"),
    (["verify", "prop43", "--trials", "1"], "verify_prop_4_3"),
    (["probe", "even", "--n", "2", "--case", "prop33-witness"], "probe_even"),
    (["run", str(SAMPLES / "theorem23-n3.def")], "run_definition_file"),
]


@pytest.mark.parametrize("argv, name", COMMAND_RUNNERS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_commands_call_the_runner_bound_in_cli(monkeypatch, capsys, argv, name):
    # The benchmark's tracer times each runner by rebinding its name in
    # this module after import; a runner captured at import, or when the
    # parser was built by an earlier call, bypasses it.
    assert run_cli(capsys, *argv)[0] == 0
    runner = getattr(cli, name)
    calls = []

    def wrapped(*args):
        calls.append(args)
        return runner(*args)

    monkeypatch.setattr(cli, name, wrapped)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv, name, cost", [
    (["lemma44", "--n", "53"], "verify_lemma_4_4",
     "54 chains of 54 closures read at 2*54 classes (time cubic in n)"),
    (["lemma46", "--n", "103"], "verify_lemma_4_6",
     "a chain of 104 closures read at 2*104 classes (time cubic in n)"),
    (["theorem23", "--trace", "--n", "13"], "verify_theorem_2_3",
     "a 2^14-row table for a human-format --trace"),
])
def test_large_orders_quote_their_own_cost(monkeypatch, capsys, argv, name, cost):
    # The error, the warning and --help read one cost per scenario: the
    # chains' class reads for lemma44 and for lemma46, the trace
    # table for theorem23, each at the first odd order above its limit.
    n = int(argv[-1])
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: order {n} needs {cost}; pass --allow-large to proceed\n"
    # With the flag the same cost is a warning; the runner is swapped for
    # order 1 so that the test stays fast.
    runner = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda n: runner(1))
    code, _, err = run_cli(capsys, "verify", *argv, "--allow-large")
    assert code == 0
    assert err == f"warning: order {n} needs {cost}; this may take a while\n"
    # Wide enough that argparse does not wrap the help at a hyphen.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["verify", argv[0], "--help"])
    symbolic = cost.replace(str(n + 1), "(n+1)").replace(str(n), "n")
    assert f"orders above {n - 2} that need {symbolic}" in " ".join(capsys.readouterr().out.split())


def test_theorem23_beyond_the_line_order_needs_the_flag(monkeypatch, capsys):
    # The scalar line costs time cubic in the order, so above LINE_ORDER
    # theorem23 needs the flag and warns with it; order 1001 needs neither.
    # Order 10^11 would never return: above LINE_CEILING it is refused
    # before anything is built.
    calls = []
    runner = cli.verify_theorem_2_3
    monkeypatch.setattr(cli, "verify_theorem_2_3", lambda n: calls.append(n) or runner(1))
    cost = "a scalar line of 100000000000 factors (time cubic in n)"
    code, out, err = run_cli(capsys, "verify", "theorem23", "--n", "99999999999", "--format", "jsonl")
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: order 99999999999 needs {cost}; refused above order {cli.LINE_CEILING}\n"

    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "1003", "--allow-large")
    assert (code, calls) == (0, [1003])
    assert err == ("warning: order 1003 needs a scalar line of 1004 factors (time cubic in n); "
                   "this may take a while\n")

    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "1001", "--format", "jsonl")
    assert (code, err, calls) == (0, "", [1003, 1001])
    # Past both orders a human-format trace quotes the exponential table.
    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "1003", "--trace")
    assert code == 2 and "2^1004-row table" in err and calls == [1003, 1001]

    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["verify", "theorem23", "--help"])
    assert (f"above {cli.LINE_ORDER} that need a scalar line of (n+1) factors (time cubic in n)"
            in " ".join(capsys.readouterr().out.split()))


def test_theorem23_above_the_line_ceiling_is_refused(monkeypatch, capsys):
    # The line's time grows as the cube of the order, so above LINE_CEILING
    # it is refused even with --allow-large, before the stubbed runner is
    # called (order 10^11 would never return).
    calls = []
    monkeypatch.setattr(cli, "verify_theorem_2_3",
                        lambda n: calls.append(n) or cli.verify_section_3_1())
    n = cli.LINE_CEILING + 2
    code, out, err = run_cli(capsys, "verify", "theorem23", "--n", str(n), "--allow-large",
                             "--format", "jsonl")
    assert (code, out, calls) == (2, "", [])
    assert err == (f"error: order {n} needs a scalar line of {n + 1} factors (time cubic in n); "
                   f"refused above order {cli.LINE_CEILING}\n")


def test_theorem23_human_trace_above_the_trace_order_is_refused(monkeypatch, capsys):
    # The trace table has 2^(n+1) rows, so above TRACE_ORDER a human-format
    # trace is refused even with --allow-large, before anything is built
    # (order 31 would need 2^32 rows and run out of memory). Up to that
    # order the flag still lets it run with a warning, and other formats
    # render no table.
    calls = []
    runner = cli.verify_theorem_2_3
    monkeypatch.setattr(cli, "verify_theorem_2_3", lambda n: calls.append(n) or runner(1))
    top = cli.TRACE_ORDER
    for n in (top + 2, 31, 1003):
        code, out, err = run_cli(capsys, "verify", "theorem23", "--n", str(n), "--trace",
                                 "--allow-large")
        assert (code, out, calls) == (2, "", [])
        assert err == (f"error: order {n} needs a 2^{n + 1}-row table for a human-format "
                       f"--trace; refused above order {top}\n")
    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", str(top), "--trace",
                           "--allow-large")
    assert (code, calls) == (0, [top]) and err.startswith(f"warning: order {top} needs a 2^")
    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", str(top + 2), "--trace",
                           "--format", "jsonl")
    assert (code, err, calls) == (0, "", [top, top + 2])


@pytest.mark.parametrize("scenario, name", [
    ("lemma44", "verify_lemma_4_4"), ("lemma46", "verify_lemma_4_6"),
])
def test_a_sets_above_the_ceiling_are_refused(monkeypatch, capsys, scenario, name):
    # Both lemmas read by symmetry classes, in time about cubic in the
    # order, so above PAIR_CEILING (lemma44, 2.1-2.5 s at order 151) and
    # CLASS_CEILING (lemma46) each is refused even with --allow-large,
    # before anything is built; CI runs each at its order without the flag.
    # At the ceiling the flag still reaches the runner, stubbed here so
    # nothing runs.
    top, cost, least = {
        "lemma44": (cli.PAIR_CEILING,
                    "{m} chains of {m} closures read at 2*{m} classes (time cubic in n)",
                    cli.PAIR_ORDER),
        "lemma46": (cli.CLASS_CEILING,
                    "a chain of {m} closures read at 2*{m} classes (time cubic in n)",
                    cli.CLASS_ORDER),
    }[scenario]
    calls = []
    monkeypatch.setattr(cli, name, lambda n: calls.append(n) or cli.verify_section_3_1())
    assert top > least
    for n in (top + 2, 99999999999):
        code, out, err = run_cli(capsys, "verify", scenario, "--n", str(n), "--allow-large",
                                 "--format", "jsonl")
        assert (code, out, calls) == (2, "", [])
        assert err == (f"error: order {n} needs {cost.format(n=n, m=n + 1)}; "
                       f"refused above order {top}\n")
    code, _, err = run_cli(capsys, "verify", scenario, "--n", str(top), "--allow-large",
                           "--format", "jsonl")
    assert (code, calls) == (0, [top])
    assert err == (f"warning: order {top} needs {cost.format(n=top, m=top + 1)}; "
                   "this may take a while\n")


def test_prop43_above_the_trial_maximum_is_refused(monkeypatch, capsys):
    # A count past 100,000 trials (about 100 s) is refused before the first
    # trial is drawn: 10^11 trials would never return.
    most = 100_000
    drawn = []

    def draw(rng):
        drawn.append(rng)
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr("hamelcheck.scenarios._random_instance", draw)
    for trials in ("99999999999", str(most + 1)):
        code, out, err = run_cli(capsys, "verify", "prop43", "--trials", trials,
                                 "--format", "jsonl")
        assert (code, out, drawn) == (2, "", [])
        assert err == f"error: trials must be <= {most}\n"
    # The maximum itself is accepted: its first trial is drawn.
    with pytest.raises(AssertionError, match="a trial was drawn"):
        verify_prop_4_3(most, 1)
    assert len(drawn) == 1


def test_prop43_needs_a_trial(capsys):
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        verify_prop_4_3(0, 1)
    assert run_cli(capsys, "verify", "prop43", "--trials", "0") == (
        2, "", "error: trials must be >= 1\n")


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    # Running out of memory is not a failed claim (exit 1) or a traceback:
    # it exits 2 with one line, as a recursion limit does.
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_section_3_2", exhausted)
    code, out, err = run_cli(capsys, "verify", "section32", "--format", "jsonl")
    assert (code, out) == (2, "")
    assert err == "error: out of memory (the input is too large to evaluate)\n"


def test_cli_main_loads_no_argparse():
    # Building the argparse tree cost every CLI process about 5 ms, and
    # importing argparse and gettext about 3 ms more. -S keeps
    # site-packages hooks from loading them first.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, hamelcheck.cli; code = hamelcheck.cli.main(['verify', 'section32']); "
            "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_nothing_leaks_between_calls(capsys):
    # Each argv after the first also follows a call that gave other flags.
    golden = {fmt: (GOLDEN / f"section32.{fmt}").read_text(encoding="utf-8")
              for fmt in ("human", "tsv", "jsonl")}
    for argv, fmt in (
        (["--format", "tsv", "verify", "section32", "--trace"], "tsv"),
        (["verify", "section32"], "human"),
        (["--format", "tsv", "verify", "section32", "--format", "jsonl"], "jsonl"),
        (["--format", "jsonl", "verify", "section32", "--format", "tsv"], "tsv"),
        (["verify", "section32"], "human"),
    ):
        assert run_cli(capsys, *argv) == (0, golden[fmt], ""), argv


@pytest.mark.parametrize("text", (
    "",
    "# a comment\n\n   # another\n",
    "symbol s positive\nadditive a.s = 1\nfunction pospartpow 3 of a\n"
    "measure m = dirac(s)\n",
), ids=("empty", "comments", "declarations"))
@pytest.mark.parametrize("fmt", ("human", "tsv", "jsonl"))
def test_a_file_with_no_eval_line_is_a_usage_error(tmp_path, capsys, text, fmt):
    path = tmp_path / "nothing.def"
    path.write_text(text)
    assert run_cli(capsys, "run", str(path), "--format", fmt) == (
        2, "", "error: no eval line: nothing to check\n"
    )


def test_a_byte_order_mark_is_ignored(tmp_path, capsys):
    # Same file name, so the scenario name matches the golden files.
    path = tmp_path / "theorem23-n3.def"
    path.write_bytes(b"\xef\xbb\xbf" + (SAMPLES / "theorem23-n3.def").read_bytes())
    for fmt in ("human", "tsv", "jsonl"):
        golden = (GOLDEN / f"run-theorem23-n3.{fmt}").read_text(encoding="utf-8")
        assert run_cli(capsys, "run", str(path), "--format", fmt) == (0, golden, "")

    # A parse error on line 1 has the same column with or without the mark.
    for first_line, column in (("   wibble", 4), ("point p = 2*q", 13)):
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + f"{first_line}\n".encode())
            code, out, err = run_cli(capsys, "run", str(path))
            assert (code, out) == (2, ""), bom
            assert err.startswith(f"error: line 1, col {column}: "), bom


def test_malformed_jensen_probe_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "probe.def"
    for spec in ("n=2 grid=box(-3..3) bogus nonsense", "n=2 grid=box(0..1) n=5"):
        path.write_text(
            "symbol u positive\nadditive a.u = 1\nfunction pospartpow 2 of a\n"
            f"eval jensen-probe {spec}\n"
        )
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 4, col 1: expected: eval jensen-probe")


def test_jensen_probe_that_could_never_finish_is_a_usage_error(tmp_path, capsys):
    # Each refused probe ran without end before: the order's binomial row
    # alone, or 8,000,120,000,600,001 box points times three increments.
    # The order ceiling and the work limit sit between these and probes
    # that finish in well under a second.
    one = "symbol h positive\nadditive a.h = 1\nfunction pospartpow 3 of a\n"
    three = (
        "symbol h positive\nsymbol k positive\nsymbol l positive\n"
        "additive a.h = 1\nadditive a.k = 2\nfunction pospartpow 3 of a\n"
    )
    two = "symbol h positive\nsymbol k positive\nadditive a.h = 1\nfunction pospartpow 3 of a\n"
    path = tmp_path / "probe.def"
    for head, probe, error in (
        (one, "n=99999999 grid=box(0..0)", "line 4, col 21: order must be <= 20000"),
        (one, "n=20001 grid=box(0..0)", "line 4, col 21: order must be <= 20000"),
        # 24000360001800003 and 2004002 samples, each reading 5 values.
        (three, "n=3 grid=box(-100000..100000)",
         "line 7: jensen-probe of 120001800009000015 units of work refused (work limit 200000)"),
        (two, "n=3 grid=box(0..1000)",
         "line 5: jensen-probe of 10020010 units of work refused (work limit 200000)"),
    ):
        path.write_text(f"{head}eval jensen-probe {probe}\n")
        assert run_cli(capsys, "run", str(path)) == (2, "", f"error: {error}\n"), probe
    for head, probe in ((one, "n=10001 grid=box(0..0)"), (two, "n=3 grid=box(0..100)")):
        path.write_text(f"{head}eval jensen-probe {probe}\n")
        code, out, err = run_cli(capsys, "run", str(path), "--format", "tsv")
        assert (code, err) == (0, ""), probe
        assert out.endswith(f"jensen-probe {probe}\t0\t0\ttrue\n"), probe


def test_a_box_too_wide_to_count_is_refused_at_once(tmp_path):
    # 10^4000 points a side over 2,000 symbols: multiplying the count out
    # took 5.3 s before the meter refused it. The bit lengths bound it
    # below, by 2^(2000 * 13287) points times 2000 * 5 reads each.
    names = [f"g{i}" for i in range(1, 2001)]
    path = tmp_path / "box.def"
    path.write_text("".join(f"symbol {g} positive\n" for g in names)
                    + "additive a.g1 = 1\nfunction pospartpow 3 of a\n"
                    f"eval jensen-probe n=3 grid=box(0..{'9' * 4000})\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hamelcheck", "run", str(path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: line 2003: jensen-probe of 2^26574013 or more units of work"
                           " refused (work limit 200000)\n")


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
    lines = out.splitlines()
    row = lines.index("  [FAIL] forward-diff at 0 with [s] expect 7  computed=1  expected=7")
    assert lines[row + 1] == "         (line 4)"
    assert "overall: FAIL" in out

    code, out, _ = run_cli(capsys, "run", str(path), "--format", "tsv")
    assert code == 1
    assert out.splitlines() == ["bad\tforward-diff at 0 with [s] expect 7\t1\t7\tfalse"]

    code, out, _ = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert code == 1
    assert out.splitlines() == [
        '{"scenario": "bad", "label": "forward-diff at 0 with [s] expect 7",'
        ' "computed": "1", "expected": "7", "pass": false}'
    ]


def test_exit_code_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "4")
    assert code == 2 and "even" in err

    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "13", "--trace")
    assert code == 2 and "--allow-large" in err

    code, _, err = run_cli(capsys, "verify", "lemma44", "--n", "53")
    assert code == 2 and "--allow-large" in err

    # An even order is refused as even before its cost is weighed: it is
    # neither asked for --allow-large nor warned about with it.
    code, _, err = run_cli(capsys, "verify", "lemma44", "--n", "12")
    assert code == 2 and "even" in err and "--allow-large" not in err

    code, _, err = run_cli(capsys, "verify", "theorem23", "--n", "14", "--trace", "--allow-large")
    assert code == 2 and "even" in err and "warning" not in err

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


@pytest.mark.parametrize("lines, error", [
    # Accepted, each would drop a value: the function holds a's values as
    # declared before it, and a table holds one value per point.
    (["symbol t positive", "additive a.s = 1", "function pospartpow 1 of a",
      "additive a.t = 5", "eval forward-diff at 0 with [t]"],
     "line 5, col 10: additive 'a' is already read by the function"),
    (["function tabulated {0: 1, s: 2, 1*s: 7}", "eval forward-diff at 0 with [s]"],
     "line 2, col 33: point '1*s' already tabulated"),
])
def test_a_definition_that_would_drop_a_value_is_a_usage_error(tmp_path, capsys, lines, error):
    path = tmp_path / "dropped.def"
    path.write_text("\n".join(["symbol s positive", *lines]) + "\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_probe_needing_an_untabulated_value_is_a_usage_error(tmp_path, capsys):
    # No sample of this probe can be evaluated: each needs 2s or -s.
    path = tmp_path / "partial.def"
    path.write_text(
        "symbol s positive\nfunction tabulated { 0 : 1, s : 5 }\n"
        "eval jensen-probe n=3 grid=box(-2..2)\n"
    )
    for fmt in ("human", "tsv", "jsonl"):
        code, out, err = run_cli(capsys, "run", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            "error: line 3: evaluation needs a value outside the tabulated domain "
            "(no tabulated value at 2*s)\n"
        )


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
    assert run_cli(capsys, "run", str(big)) == (
        2, "", f"error: line 4: value too long to print (more than {sys.get_int_max_str_digits()}"
        " digits)\n"
    )


def test_large_theorem23_order_needs_no_flag(capsys):
    # The claims take the scalar-line route; only the trace table is 2^(n+1).
    code, out, err = run_cli(capsys, "verify", "theorem23", "--n", "101", "--format", "jsonl")
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["computed"] for r in rows] == ["-1", "-1"]
    assert all(r["scenario"] == "theorem23(n=101)" for r in rows)

    # Only the human format renders the trace table, so only it is guarded.
    code, out, err = run_cli(
        capsys, "verify", "theorem23", "--n", "13", "--trace", "--format", "jsonl"
    )
    assert code == 0 and err == ""
    assert [json.loads(line)["computed"] for line in out.strip().splitlines()] == ["-1", "-1"]


def _deep_definition(tmp_path, function, k=1500):
    deep = tmp_path / "deep.def"
    deep.write_text(
        f"symbol h positive\nadditive a.h = 1\nfunction {function}\n"
        f"eval forward-diff at 0 with [{', '.join(['h'] * k)}]\n"
    )
    return str(deep)


def test_deep_tabulated_difference_evaluates(tmp_path, capsys):
    # The 1,000th difference of the indicator of 1000*h is 1; its 2^1000
    # subset sums are 1,001 points, each read once, and nothing nests.
    table = ", ".join(f"{j}*h: {int(j == 1000)}" for j in range(1001))
    code, out, err = run_cli(
        capsys, "run", _deep_definition(tmp_path, f"tabulated {{{table}}}", 1000),
        "--format", "jsonl",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["computed"] == "1"


def test_deep_tabulated_difference_names_its_first_missing_point(tmp_path, capsys):
    # The first point read is the sum of all 1,500 increments.
    code, out, err = run_cli(capsys, "run", _deep_definition(tmp_path, "tabulated {0: 1}"))
    assert (code, out) == (2, "")
    assert err == (
        "error: line 4: evaluation needs a value outside the tabulated domain "
        "(no tabulated value at 1500*h)\n"
    )


def test_deep_composite_difference_evaluates(tmp_path, capsys):
    # A Composite is keyed by the scalars a(h) along one line: the
    # 1,500th difference of t^2 on t >= 0 is 0.
    code, out, err = run_cli(
        capsys, "run", _deep_definition(tmp_path, "pospartpow 2 of a"), "--format", "jsonl"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["computed"] == "0"


def _measure_chain(tmp_path, constructor, depth, query, step="s"):
    lines = ["symbol s positive", "symbol t positive", "measure m0 = dirac(s)"]
    lines += [f"measure m{i} = {constructor}(m{i - 1}, {step})" for i in range(1, depth + 1)]
    lines.append(f"eval atom-mass m{depth} at {query}")
    chain = tmp_path / "chain.def"
    chain.write_text("\n".join(lines) + "\n")
    return str(chain)


def test_deep_shift_chain_evaluates(tmp_path, capsys):
    # Every measure that is not a closure is one Form, folded into one
    # linear form when it is built, so a query through 5,000 shifts reads
    # one atom and nothing recurses.
    code, out, err = run_cli(
        capsys, "run", _measure_chain(tmp_path, "shift", 5000, "5001*s expect 1"),
        "--format", "jsonl",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["computed"] == "1"


def test_deep_closure_nesting_is_a_usage_error(tmp_path, capsys):
    # A walking closure's query calls the closures of its inner form, so
    # walks nested past the recursion limit still exit 2, without a
    # traceback. Closures along s + t walk.
    code, out, err = run_cli(
        capsys, "run", _measure_chain(tmp_path, "jclosure", 1200, "s", "s + t")
    )
    assert code == 2
    assert out == "" and err.startswith("error: ") and "nests too deeply" in err
    assert err.startswith("error: line 1204: ")
    # 400 nested closures count the ways to split 2*(s + t) among them,
    # and 800 levels still evaluate: the walk takes one Python frame per
    # nested closure and no more, which keeps the limit near 990.
    for depth, expect in ((400, 80200), (800, 320400)):
        code, out, err = run_cli(
            capsys, "run",
            _measure_chain(tmp_path, "jclosure", depth, f"3*s + 2*t expect {expect}", "s + t"),
            "--format", "jsonl",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["computed"] == str(expect)
    # Closures along s keep a chain record and answer in closed form at any
    # depth: C(1199, 0) at s under 1,200 of them, C(5001, 2) at 3*s under
    # 5,000 (1,200 at s exited 2 when they walked).
    for depth, query, expect in ((1200, "s", 1), (5000, "3*s", 12502500)):
        code, out, err = run_cli(
            capsys, "run", _measure_chain(tmp_path, "jclosure", depth, f"{query} expect {expect}"),
            "--format", "jsonl",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["computed"] == str(expect)


def test_a_walk_past_the_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # The walk from 99999999999*(g1 + g2) down to the floor g1 + g2 stepped
    # without end (one memo entry per translate); it is now refused before
    # its first step. Under a work limit of 10, a query 10 steps above the
    # floor still evaluates.
    path = tmp_path / "walk.def"
    head = ("symbol g1 positive\nsymbol g2 positive\nmeasure d = dirac(g1 + g2)\n"
            "measure j = jclosure(d, g1 + g2)\n")
    path.write_text(f"{head}eval atom-mass j at 99999999999*g1 + 99999999999*g2\n")
    assert run_cli(capsys, "run", str(path)) == (
        2, "",
        "error: line 5: closure query of 99999999998 units of work refused (work limit 200000)\n",
    )
    # Along g1 alone the closure keeps a chain record, and the same query
    # reads its one atom.
    path.write_text("symbol g1 positive\nmeasure d = dirac(g1)\nmeasure j = jclosure(d, g1)\n"
                    "eval atom-mass j at 99999999999*g1 expect 1\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and json.loads(out)["computed"] == "1"
    monkeypatch.setattr(errors, "WORK_LIMIT", 10)
    path.write_text(f"{head}eval atom-mass j at 11*g1 + 11*g2 expect 1\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and json.loads(out)["computed"] == "1"
    path.write_text(f"{head}eval atom-mass j at 12*g1 + 12*g2 expect 1\n")
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 5: closure query of 11 units of work refused (work limit 10)\n"
    )
    # The charge is the distance from the floor, read before the walk
    # looks for a memoised point: after 11*(g1 + g2) fills the memo from
    # the floor up, 14*(g1 + g2) would stop there after 3 steps and is
    # refused all the same, while a repeat of 11*(g1 + g2) reads its own
    # entry.
    path.write_text(
        f"{head}eval atom-mass j at 11*g1 + 11*g2 expect 1\n"
        "eval atom-mass j at 11*g1 + 11*g2 expect 1\neval atom-mass j at 14*g1 + 14*g2 expect 1\n"
    )
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 7: closure query of 13 units of work refused (work limit 10)\n"
    )


def _distinct_symbols(k, values):
    """Declarations of k positive symbols g1..gk, with ``values`` (one
    per symbol, or None) as the additive map ``a`` behind a cube."""
    names = [f"g{i}" for i in range(1, k + 1)]
    head = "".join(f"symbol {name} positive\n" for name in names)
    if values is not None:
        head += "".join(f"additive a.{name} = {v}\n" for name, v in zip(names, values))
        head += "function pospartpow 3 of a\n"
    return head, names


def test_an_expansion_past_the_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Every term is built before the first read, so a difference over many
    # distinct increments ran for minutes or ran out of memory, and a long
    # equal run grew as its square. Each run of equal steps charges the
    # keys it could give before it is multiplied out; under a work limit
    # of 14, the 2 + 4 + 8 keys of three distinct steps still evaluate
    # (the cube's third difference over a = 1, 2, 4 is 3! * 8 = 48).
    path = tmp_path / "diff.def"
    monkeypatch.setattr(errors, "WORK_LIMIT", 14)
    line, names = _distinct_symbols(4, (1, 2, 4, 8))
    points, _ = _distinct_symbols(4, None)
    points += "function tabulated {0: 1}\n"
    for head, hs, refused in (
        (line, names, "16 units of work after 14"),   # the scalar line
        (points, names, "16 units of work after 14"), # coordinate tuples
        (line, ["g1"] * 14, "15 units of work"),      # one equal run
    ):
        path.write_text(f"{head}eval forward-diff at 0 with [{', '.join(hs)}]\n")
        assert run_cli(capsys, "run", str(path)) == (
            2, "", f"error: line {len(head.splitlines()) + 1}: difference expansion of {refused}"
            " refused (work limit 14)\n"
        ), hs
    for hs, expect in ((names[:3], 48), (["g1"] * 13, 0)):
        path.write_text(f"{line}eval forward-diff at 0 with [{', '.join(hs)}] expect {expect}\n")
        code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
        assert (code, err) == (0, "") and json.loads(out)["pass"] is True, hs
    # A probe charges its reads, 4 a sample at order 2, before it builds
    # anything, and then the 4 keys of each distinct increment's expansion
    # as it builds them: 6 samples read 24 values, and 2 samples over two
    # increments read 8 and build 8 keys.
    head = "symbol h positive\nadditive a.h = 1\nfunction pospartpow 3 of a\n"
    for grid, refused in (("0..1;steps=1..3", "jensen-probe of 24 units of work"),
                          ("0..0;steps=1..2", "difference expansion of 4 units of work after 12")):
        path.write_text(f"{head}eval jensen-probe n=2 grid=box({grid})\n")
        assert run_cli(capsys, "run", str(path)) == (
            2, "", f"error: line 4: {refused} refused (work limit 14)\n"
        ), grid
    path.write_text(f"{head}eval jensen-probe n=2 grid=box(0..1)\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True


def test_an_expansion_at_the_limit_evaluates_and_one_past_it_exits_2(tmp_path, capsys):
    # 16 distinct units are the 2^16 keys lemma46 --n 15 needs, and with
    # a(g_i) = 2^(i-1) every subset sum is a distinct key: the cube's 16th
    # difference over them is 0, and its runs charge 2 + 4 + ... + 2^16
    # keys, the most any test spends in one eval line. A table over 30
    # distinct symbols (a one entry table: it would fail at its first
    # missing point) is refused at the 17th symbol instead of building
    # 2^30 keys.
    path = tmp_path / "diff.def"
    head, names = _distinct_symbols(16, [2 ** i for i in range(16)])
    path.write_text(f"{head}eval forward-diff at 0 with [{', '.join(names)}] expect 0\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True
    head, names = _distinct_symbols(30, None)
    path.write_text(
        f"{head}function tabulated {{0: 1}}\neval forward-diff at 0 with [{', '.join(names)}]\n"
    )
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 32: difference expansion of 131072 units of work after 131070"
        " refused (work limit 200000)\n"
    )


def _unbounded_inputs():
    """Definition files that each ran past a 12 s timeout before the work
    meter, with the line that refuses them now and what it charges: two
    walks, along g1 + g3 and g2 + g3, nested at 1,000,000 steps each, a
    power of a 4,300-digit value (285 Mbit), and 4,096 powers of 20,000
    over twelve units with a(g_i) = 2^(i-1) (0.24 Mbit each)."""
    units = [f"g{i}" for i in range(1, 13)]
    return {
        "nested": (7, "closure query", "symbol g1 positive\nsymbol g2 positive\n"
                   "symbol g3 positive\nmeasure d = dirac(g1 + g2 + g3)\n"
                   "measure i = jclosure(d, g1 + g3)\nmeasure j = jclosure(i, g2 + g3)\n"
                   "eval atom-mass j at 1000001*g1 + 1000001*g2 + 2000001*g3\n"),
        "long-value": (4, "pospartpow result", f"symbol s positive\nadditive a.s = {'9' * 4300}\n"
                       "function pospartpow 20000 of a\neval forward-diff at s with [s]\n"),
        "twelve-units": (26, "pospartpow result", "".join(
            f"symbol {g} positive\nadditive a.{g} = {2 ** i}\n" for i, g in enumerate(units)
        ) + f"function pospartpow 20000 of a\neval forward-diff at 0 with [{', '.join(units)}]\n"),
    }


@pytest.mark.parametrize("name", ["nested", "long-value", "twelve-units"])
def test_inputs_that_ran_without_end_are_refused_at_their_line(tmp_path, capsys, monkeypatch, name):
    # Under a limit of 20,000 the twelve units build their 8,190 keys and
    # are refused at the fourth power, not by any one charge.
    line, what, text = _unbounded_inputs()[name]
    path = tmp_path / f"{name}.def"
    path.write_text(text)
    monkeypatch.setattr(errors, "WORK_LIMIT", 20_000)
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: {what} of ") and err.endswith(
        " refused (work limit 20000)\n"), err
    assert (" after " in err) == (name != "nested"), err


def test_inputs_that_ran_without_end_exit_2_at_the_real_limit(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    for name, (line, what, text) in _unbounded_inputs().items():
        path = tmp_path / f"{name}.def"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "hamelcheck", "run", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), name
        assert proc.stderr.startswith(f"error: line {line}: {what} of "), proc.stderr


def _chain_record_inputs():
    """Definition files whose closures all keep chain records, with the
    exit code and the start of the output each gives: two closures along g1
    and g2 nested over one atom, whose walks ran past a 12 s timeout and
    then hit the work limit, read it at once; 1,200 nested along s queried
    99999999998 steps up have a mass of about 10,000 digits, too long to
    print; and 5,000 queried a 4,000-digit multiple of s up are refused
    before their binomial is computed."""
    def chain(depth, query):
        return "symbol s positive\nmeasure m0 = dirac(s)\n" + "".join(
            f"measure m{i} = jclosure(m{i - 1}, s)\n" for i in range(1, depth + 1)
        ) + f"eval atom-mass m{depth} at {query}\n"

    return {
        "nested": (0, '{"scenario": "nested", "label": "atom-mass j at 1000001*g1 + 1000001*g2",'
                   ' "computed": "1"', "symbol g1 positive\nsymbol g2 positive\n"
                   "measure d = dirac(g1 + g2)\nmeasure i = jclosure(d, g1)\n"
                   "measure j = jclosure(i, g2)\neval atom-mass j at 1000001*g1 + 1000001*g2\n"),
        "far": (2, "error: line 1203: value too long to print (more than ",
                chain(1200, "99999999999*s")),
        "huge": (2, "error: line 5003: closure query of ", chain(5000, f"{'9' * 4000}*s")),
    }


def _address_space_cap():
    # As `ulimit -v 2000000` (KiB).
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)


@pytest.mark.parametrize("name", ["nested", "far", "huge"])
def test_chain_records_answer_or_refuse_at_once(tmp_path, name):
    code, start, text = _chain_record_inputs()[name]
    path = tmp_path / f"{name}.def"
    path.write_text(text)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hamelcheck", "run", str(path), "--format", "jsonl"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=10, preexec_fn=_address_space_cap,
    )
    assert proc.returncode == code, proc.stderr
    assert (proc.stderr if code else proc.stdout).startswith(start), (proc.stdout, proc.stderr)
    if code:
        assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_a_binomial_past_the_limit_is_refused_before_it_is_computed(tmp_path, capsys, monkeypatch):
    # C(4999 + c, 4999) for a 4,000-digit c has about 66 Mbit: the query's
    # charge, its one atom's run and 1,037,917 words weighed 32 times
    # (errors.superlinear), comes before math.comb is called.
    def comb(*args):
        raise AssertionError(f"comb{args} ran")

    monkeypatch.setattr(measures, "comb", comb)
    path = tmp_path / "huge.def"
    path.write_text(_chain_record_inputs()["huge"][2])
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out, err) == (2, "", "error: line 5003: closure query of 33213345 units of work"
                                " refused (work limit 200000)\n")


def test_a_power_past_the_limit_is_refused_before_it_is_computed(tmp_path, capsys):
    # x**20000 of a 190-digit x, about 198,000 words, was charged a unit a
    # word, under the limit, and ran 2.3 s before the next power was
    # refused. Weighed by errors.superlinear, the line spends 2 units on its
    # expansion's keys and its first read, (2x)**20000, is refused: 20,000
    # times the 632 bits of ceil(log2(2x)), 197,812 words, weighed 7 times.
    path = tmp_path / "power.def"
    path.write_text(f"symbol s positive\nadditive a.s = {'9' * 190}\n"
                    "function pospartpow 20000 of a\neval forward-diff at s with [s]\n")
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 4: pospartpow result of 1384684 units of work after 2 refused"
        " (work limit 200000)\n"
    )
    with errors.metered(), pytest.raises(HamelcheckError) as raised:
        PositivePartPower(20000).apply(2 * (10 ** 190 - 1))
    assert str(raised.value) == (
        "pospartpow result of 1384684 units of work refused (work limit 200000)")


def test_a_jensen_probe_with_no_positive_symbol_is_refused_at_its_line(tmp_path, capsys):
    # The samples take every positive symbol declared; with none there is
    # no increment to probe along.
    path = tmp_path / "none.def"
    path.write_text("symbol s\nadditive a.s = 1\nfunction pospartpow 3 of a\n"
                    "eval jensen-probe n=3 grid=box(0..1)\n")
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 4: jensen-probe needs at least one positive symbol\n")


def test_a_power_of_one_is_free_at_any_power(tmp_path, capsys):
    # f(s) = 1**(10^8) and f(0) = 0: a read of 1 has no bits to charge, so
    # the difference is 1. Charged by the bits of 1's numerator and
    # denominator, the read was refused as a result of 2*10^8 bits.
    path = tmp_path / "one.def"
    path.write_text("symbol s positive\nadditive a.s = 1\nfunction pospartpow 100000000 of a\n"
                    "eval forward-diff at 0 with [s] expect 1\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "")
    assert json.loads(out)["computed"] == "1"


def test_a_long_binomial_is_refused_before_comb_runs(tmp_path, capsys, monkeypatch):
    # 5,000 closures nested along s: at 3*s the one binomial, C(5001, 2),
    # is computed (an error prints no claim, so its line shows only in the
    # call). At a 770-digit multiple of s, a unit a word charged its
    # 199,803 words under the limit, and comb ran 6 s on a value then too
    # long to print; weighed 7 times, they are refused before comb runs.
    calls = []

    def comb(*args):
        calls.append(args)
        return math.comb(*args)

    monkeypatch.setattr(measures, "comb", comb)
    path = tmp_path / "chain.def"
    path.write_text("symbol s positive\nmeasure m0 = dirac(s)\n" + "".join(
        f"measure m{i} = jclosure(m{i - 1}, s)\n" for i in range(1, 5001)
    ) + f"eval atom-mass m5000 at 3*s expect 12502500\neval atom-mass m5000 at {'9' * 770}*s\n")
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 5004: closure query of 1398622 units of work refused"
        " (work limit 200000)\n")
    assert calls == [(5001, 4999)]


def test_the_work_budget_is_per_eval_line(tmp_path, capsys, monkeypatch):
    # Two lines each spend 10 units, just under a limit of 11 (two distinct
    # closures, so the second finds no memo). Closures nested in two
    # directions are charged the product of their walks: 10 outer steps,
    # then 10 inner ones from each of the 11 points the outer walk reads.
    head = ("symbol g1 positive\nsymbol g2 positive\nsymbol g3 positive\n"
            "measure d = dirac(g1 + g2 + g3)\nmeasure i = jclosure(d, g1 + g3)\n"
            "measure k = jclosure(d, g1 + g3)\nmeasure j = jclosure(i, g2 + g3)\n")
    path = tmp_path / "budget.def"
    path.write_text(f"{head}eval atom-mass i at 11*g1 + g2 + 11*g3 expect 1\n"
                    "eval atom-mass k at 11*g1 + g2 + 11*g3 expect 1\n")
    monkeypatch.setattr(errors, "WORK_LIMIT", 11)
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and [json.loads(row)["pass"] for row in out.splitlines()] == [
        True, True]
    monkeypatch.setattr(errors, "WORK_LIMIT", 119)
    path.write_text(f"{head}eval atom-mass j at 11*g1 + 11*g2 + 21*g3 expect 1\n")
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 8: closure query of 10 units of work after 110 refused"
        " (work limit 119)\n"
    )
    monkeypatch.setattr(errors, "WORK_LIMIT", 120)
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True
    # Along g1 and g2 alone the closures keep chain records: a query reads
    # each atom once per run, 1 unit for i and 2 for j.
    path.write_text("symbol g1 positive\nsymbol g2 positive\nmeasure d = dirac(g1 + g2)\n"
                    "measure i = jclosure(d, g1)\nmeasure j = jclosure(i, g2)\n"
                    "eval atom-mass i at 11*g1 + g2 expect 1\n"
                    "eval atom-mass j at 11*g1 + 11*g2 expect 1\n")
    monkeypatch.setattr(errors, "WORK_LIMIT", 1)
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 7: closure query of 2 units of work refused (work limit 1)\n"
    )
    monkeypatch.setattr(errors, "WORK_LIMIT", 2)
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and [json.loads(row)["pass"] for row in out.splitlines()] == [
        True, True]


def test_a_walk_gives_back_the_steps_a_memo_saves(tmp_path, capsys, monkeypatch):
    # The outer walk of jj from n*(h + k) reads the inner closure at 0,
    # h + k, ..., n*(h + k); each inner walk is charged its j steps, stops
    # at the entry one step below and gives back j - 1. A line spends at
    # most n + (n - 1) + n = 3n - 1 at once, where without the refund it
    # spent n + n(n+1)/2 (500,500 + 1,000 at 1000*(h + k)), and three
    # nested closures more.
    head = ("symbol h positive\nsymbol k positive\nmeasure d = dirac(0)\n"
            "measure j = jclosure(d, h + k)\nmeasure jj = jclosure(j, h + k)\n"
            "measure jjj = jclosure(jj, h + k)\n")
    path = tmp_path / "nested.def"
    path.write_text(f"{head}eval atom-mass jj at 1000*h + 1000*k expect 1001\n"
                    "eval atom-mass jjj at 1000*h + 1000*k expect 501501\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and [json.loads(row)["pass"] for row in out.splitlines()] == [
        True, True]
    path.write_text(f"{head}eval atom-mass jj at 10*h + 10*k expect 11\n")
    monkeypatch.setattr(errors, "WORK_LIMIT", 29)
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True
    monkeypatch.setattr(errors, "WORK_LIMIT", 28)
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "error: line 7: closure query of 10 units of work after 19 refused"
        " (work limit 28)\n"
    )
    # Along h alone the closures keep chain records, and each query reads
    # the one atom once, within a limit of 1.
    monkeypatch.setattr(errors, "WORK_LIMIT", 1)
    path.write_text("symbol h positive\nmeasure d = dirac(0)\nmeasure j = jclosure(d, h)\n"
                    "measure jj = jclosure(j, h)\nmeasure jjj = jclosure(jj, h)\n"
                    "eval atom-mass jj at 1000*h expect 1001\n"
                    "eval atom-mass jjj at 1000*h expect 501501\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "jsonl")
    assert (code, err) == (0, "") and [json.loads(row)["pass"] for row in out.splitlines()] == [
        True, True]


def test_a_charge_too_long_to_print_is_still_refused_at_its_line(tmp_path, capsys):
    # 10^8000 box points over two symbols at order 3: the count has more
    # digits than str() prints, so the message gives its power of two.
    units = 10 ** 8000 * 2 * 5
    path = tmp_path / "probe.def"
    path.write_text(
        "symbol h positive\nsymbol k positive\nadditive a.h = 1\nfunction pospartpow 3 of a\n"
        f"eval jensen-probe n=3 grid=box(0..{'9' * 4000})\n"
    )
    assert run_cli(capsys, "run", str(path)) == (
        2, "", f"error: line 5: jensen-probe of 2^{units.bit_length() - 1} or more units of work"
        " refused (work limit 200000)\n"
    )


@pytest.mark.parametrize("argv", [
    ["verify", "theorem23", "--n", "5"], ["verify", "lemma46", "--n", "3"],
    ["verify", "prop43", "--trials", "3"], ["probe", "even", "--n", "2", "--case", "prop32-grid"],
], ids=" ".join)
def test_verify_runners_are_not_metered(capsys, monkeypatch, argv):
    # Only a definition's eval lines arm the meter; a library caller that
    # arms it around a runner gets the same refusal.
    monkeypatch.setattr(errors, "WORK_LIMIT", 0)
    assert run_cli(capsys, *argv)[0] == 0
    args = cli.parse_args(argv)
    with pytest.raises(HamelcheckError, match=r"refused \(work limit 0\)$"):
        with errors.metered():
            getattr(cli, args.runner)(*cli._calls(args)[0])


def test_cli_import_loads_no_dataclasses():
    # Building dataclasses cost every CLI process about 20 ms of start-up,
    # and their module pulls in inspect, ast and dis, which nothing else
    # loads. -S keeps site-packages hooks from loading them first.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, hamelcheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_run_compiles_the_definition_front_end():
    # definitions.py is the package's largest compile, and only `run`
    # reads a definition file. The package registers the module unexecuted
    # (the benchmark's tracer looks the module up in sys.modules), so an
    # audit hook on `exec` shows whether its code ran. -S keeps
    # site-packages hooks from loading it first.
    src = Path(__file__).resolve().parent.parent / "src"
    *others, (run_argv, _) = COMMAND_RUNNERS
    code = f"""if True:
        import contextlib, io, json, sys
        ran = []
        sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0].co_filename))
        executed = lambda: any(name.endswith("definitions.py") for name in ran)
        import hamelcheck, hamelcheck.cli
        seen = {{}}
        with contextlib.redirect_stdout(io.StringIO()):
            seen["codes"] = [hamelcheck.cli.main(argv) for argv in {[argv for argv, _ in others]!r}]
            seen["registered"] = "hamelcheck.definitions" in sys.modules
            seen["after_others"] = executed()
            seen["codes"].append(hamelcheck.cli.main({run_argv!r}))
        seen["after_run"] = executed()
        from hamelcheck import parse_definition, run_definition, run_definition_file
        module = sys.modules["hamelcheck.definitions"]
        seen["same"] = [parse_definition is module.parse_definition,
                        run_definition is module.run_definition,
                        run_definition_file is module.run_definition_file]
        try:
            hamelcheck.nosuch
        except AttributeError as exc:
            seen["nosuch"] = str(exc)
        print(json.dumps(seen))
    """
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0] * len(COMMAND_RUNNERS), "registered": True, "after_others": False,
        "after_run": True, "same": [True] * 3,
        "nosuch": "module 'hamelcheck' has no attribute 'nosuch'",
    }


def test_a_closed_stdout_exits_2_without_a_traceback():
    # Order 11's trace table is about 240 kB, more than a pipe holds, so
    # the write is still under way when the reader closes after one line.
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "hamelcheck", "verify", "theorem23", "--n", "11", "--trace"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == "scenario: theorem23(n=11)\n"
    assert (code, err) == (2, "")


def _oracle():
    """The argparse tree the command line was parsed by, kept as the
    reference for the scanner: each command's parser sets ``runner``,
    ``takes``, ``batch`` and ``guards`` as ``cli.parse_args`` does."""
    def output_flags(parser, fmt=argparse.SUPPRESS, trace=argparse.SUPPRESS):
        parser.add_argument("--format", choices=("human", "tsv", "jsonl"), default=fmt)
        parser.add_argument("--trace", action="store_true", default=trace)
        return parser

    parser = output_flags(argparse.ArgumentParser(prog="hamelcheck"), "human", False)
    parser.set_defaults(takes=(), batch=(), guards=())
    flags = [output_flags(argparse.ArgumentParser(add_help=False))]
    sub = parser.add_subparsers(dest="command", required=True)
    vsub = sub.add_parser("verify").add_subparsers(dest="scenario", required=True)
    for name, runner, batch, guards in (
        ("theorem23", "verify_theorem_2_3", (1, 3, 5, 7, 9, 11), (
            (cli.LARGE_ORDER, cli._human_trace, "a 2^{m}-row table for a human-format --trace",
             cli.TRACE_ORDER),
            (cli.LINE_ORDER, cli._always, "a scalar line of {m} factors (time cubic in n)",
             cli.LINE_CEILING),
        )),
        ("section31", "verify_section_3_1", (), ()),
        ("section32", "verify_section_3_2", (), ()),
        ("lemma44", "verify_lemma_4_4", (1, 3, 5), (
            (cli.PAIR_ORDER, cli._always,
             "{m} chains of {m} closures read at 2*{m} classes (time cubic in n)", cli.PAIR_CEILING),
        )),
        ("lemma46", "verify_lemma_4_6", (1, 3, 5), (
            (cli.CLASS_ORDER, cli._always,
             "a chain of {m} closures read at 2*{m} classes (time cubic in n)", cli.CLASS_CEILING),
        )),
    ):
        p = vsub.add_parser(name, parents=flags)
        if batch:
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--allow-large", action="store_true")
        p.set_defaults(runner=runner, batch=batch, guards=guards)
    p = vsub.add_parser("prop43", parents=flags)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(runner="verify_prop_4_3", takes=("trials", "seed"))
    p = sub.add_parser("probe").add_subparsers(dest="kind", required=True).add_parser(
        "even", parents=flags)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--case", required=True)
    p.set_defaults(runner="probe_even", takes=("n", "case"))
    p = sub.add_parser("run", parents=flags)
    p.add_argument("path")
    p.set_defaults(runner="run_definition_file", takes=("path",))
    return parser


_COMPLETE = {" ".join(cmd): cmd for cmd in PLACED.values()}
_COMPLETE.update({" ".join(cmd): cmd for cmd in LEAVES if len(cmd) == 2 and cmd[0] == "verify"})
_FILE = str(SAMPLES / "theorem23-n3.def")


def _corpus():
    for cmd in _COMPLETE.values():
        yield cmd
        yield [*cmd, "-h"]
        yield [*cmd, "--he"]
        for flags in (["--format", "tsv"], ["--format=jsonl"], ["--fo=tsv"], ["--f", "jsonl"],
                      ["--trace"], ["--tr"], ["--t"], ["--trace", "--format", "tsv"]):
            yield [*flags, *cmd]
            yield [*cmd, *flags]
        yield ["--format", "jsonl", "--trace", *cmd, "--format", "tsv"]
        yield ["--format", "tsv", *cmd, "--format=human", "--trace"]
        for bad in (["--format", "TSV"], ["--format"], ["--format="], ["--trace=1"],
                    ["--bogus"], ["extra"], ["-x"], ["---format", "tsv"]):
            yield [*cmd, *bad]
        yield [*cmd, "--bogus", "-h"]
        yield [*cmd, "extra", "--help"]
        yield [*cmd, "--", "--trace"]
    for scenario in ("theorem23", "lemma44", "lemma46"):
        cmd = ["verify", scenario]
        for n in (["--n", "3"], ["--n=5"], ["--n", "-3"], ["--n=-3"], ["--n", "4"],
                  ["--n", "13"], ["--n", "13", "--allow-large"], ["--n", "13", "--a"],
                  ["--n", "13", "--trace", "--allow-large"], ["--allow-large", "--n", "3"],
                  ["--n", "3", "--n", "5"], ["--n", "x"], ["--n"], ["--n="], ["--n", "-"],
                  ["--n", "--trace"], ["--n", "--", "5"], ["--n", "3", "--", "5"],
                  ["--n", "3", "--allow-large=yes"], ["--n", "1003", "--allow-large"],
                  ["--n", "19", "--trace", "--allow-large"], ["--n", "99999999999"],
                  ["--n", "53"], ["--n", "153", "--allow-large"],
                  ["--n", "103"], ["--n", "303", "--allow-large"]):
            yield [*cmd, *n]
    for flags in (["--trials", "3"], ["--tri", "3", "--s", "5"], ["--trials=7", "--seed=-5"],
                  ["--seed", "-5"], ["--trials", "x"], ["--seed"], ["--tr", "3"],
                  ["--trials", "3", "--trials", "4"], ["--trace", "--trials", "2"]):
        yield ["verify", "prop43", *flags]
    probe = ["probe", "even"]
    for flags in (["--n", "2", "--case", "prop32-grid"], ["--case=prop33-witness", "--n=2"],
                  ["--c", "nope", "--n", "4"], ["--n", "2"], ["--case", "x"], [],
                  ["--n", "2", "--case"], ["--n", "2", "--case", "-x"], ["--n", "2", "--case", "--"], ["--n", "-2", "--case", "x"]):
        yield [*probe, *flags]
    for tail in (["--", _FILE], ["--format", "tsv", "--", _FILE], ["--", "-x.def"],
                 ["--", "--trace"], [_FILE, "--"], ["--", "--", _FILE], ["-3"], ["-"],
                 ["-- x"], ["-x y"], [], ["a", "b"], [_FILE, "--trace", "--format", "tsv"]):
        yield ["run", *tail]
    for argv in ([], ["-h"], ["--help"], ["--h"], ["verify"], ["verify", "-h"], ["verify", "--h"],
                 ["probe"], ["probe", "-h"], ["probe", "odd"], ["nosuch"], ["verify", "nosuch"],
                 ["verify", "nosuch", "-h"], ["--format", "tsv"], ["--n", "3", "verify", "theorem23"],
                 ["verify", "--trace", "section31"], ["-", "run", _FILE], ["--trace", "--", "run"]):
        yield argv


def _outcome(capsys, parse, argv):
    """What ``parse`` makes of ``argv``: the exit code of a usage error or
    of the help, else the runner, what ``cli._calls`` returns or raises for
    it (with what it prints), the format and the trace flag."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        return exc.code
    try:
        calls = cli._calls(args)
    except (HamelcheckError, ValueError) as exc:
        calls = repr(exc)
    return args.runner, calls, args.format, args.trace, capsys.readouterr().err


def test_the_scanner_reads_every_argv_as_argparse_did(capsys):
    oracle = _oracle().parse_args
    corpus = list(_corpus())
    assert len(corpus) > 300
    for argv in corpus:
        expected = _outcome(capsys, oracle, argv)
        capsys.readouterr()
        assert _outcome(capsys, cli.parse_args, argv) == expected, argv
        out, err = capsys.readouterr()
        if expected == 2:
            # The usage of the words read, then one error line.
            usage, error = err.splitlines()
            assert usage.startswith("usage: hamelcheck ") and error.startswith("hamelcheck: error: ")
            assert out == "", argv
        elif expected == 0:
            assert out.startswith("usage: hamelcheck ") and err == "", argv
