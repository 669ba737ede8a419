"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python perfbench/worker.py WORKLOAD SEED INDEX TRACED

Imports hamelcheck and makes the inputs (set-up), runs pass INDEX timed,
then checks its verdicts. TRACED=1 wraps every layer and reports the
per-layer summary.

Every operation's time is scaled by the speed reference timed around it
in the process that did the work (see child.py): by this worker around
an in-process operation, by the CLI process itself in ``cli-jensen``.
Set-up is scaled by the median of three reference times taken by the
worker right after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (the benchmark's own modules, beside this file)
from child import reference_s, scaled  # noqa: E402

CHILD_TIMEOUT_S = 100

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_inline(argv: list[str]) -> tuple[object, str, str]:
    import hamelcheck.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hamelcheck.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def run_process(argv: list[str], traced: bool, index: int) -> tuple[tuple, float, list[float]]:
    """One CLI process (child.py). Returns (code, stdout, stderr, layer
    summary), its wall time less its reference loops, and their times."""
    stats = OUT / f"cli-{index}.json"
    stats.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(stats), "1" if traced else "0", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (None, "", f"timed out after {CHILD_TIMEOUT_S} s", None), 0.0, []
    wall = time.perf_counter() - start
    if not stats.exists():
        return (proc.returncode, proc.stdout, proc.stderr, None), wall, []
    report = json.loads(stats.read_text())
    result = (proc.returncode, proc.stdout, proc.stderr, report["layers"])
    return result, wall - sum(report["ref_s"]), report["ref_s"]


def run_pass(workload: str, seed: int, traced: bool, ready: float, ops) -> dict:
    # A CLI process traces itself; see child.py.
    inline = not any(op.process for op in ops)
    tracer = None
    if traced and inline:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, op_s = [], []
    setup_ref = ref = statistics.median(reference_s() for _ in range(3))
    scaled_run_s = 0.0
    try:
        for index, op in enumerate(ops):
            argv = [*op.argv, "--format", "jsonl"]
            if op.process:
                result, seconds, refs = run_process(argv, traced, index)
                before, after = refs or (setup_ref, setup_ref)
            else:
                start = time.perf_counter()
                result = (*run_inline(argv), None)
                seconds = time.perf_counter() - start
                after = reference_s()
                before, ref = ref, after
            results.append(result)
            op_s.append(seconds)
            scaled_run_s += scaled(seconds, before, after)
    finally:
        if tracer is not None:
            tracer.restore()
    who = resource.RUSAGE_SELF if inline else resource.RUSAGE_CHILDREN
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024

    attempted = failed = 0
    errors: list[str] = []
    digest = hashlib.sha256()
    for op, (code, out, err, _) in zip(ops, results):
        outcome = workloads.check(op, code, out, err)
        attempted += outcome.attempted
        failed += outcome.failed
        errors += outcome.errors
        digest.update(json.dumps(outcome.rows, sort_keys=True).encode())

    layers = None
    if traced:
        from tracer import merge

        summaries = [s for *_, s in results if s is not None]
        if tracer is not None:
            summaries.append(tracer.summary())
            tracer.write_spans(OUT / f"spans-{workload}-{seed}.bin")
        layers = merge(summaries)
    return {
        "ready": ready, "run_s": sum(op_s), "scaled_run_s": scaled_run_s,
        "setup_scale": scaled(1.0, setup_ref, setup_ref), "peak_rss_mib": peak_rss_mib,
        "attempted": attempted, "failed": failed, "errors": errors[:10],
        "digest": digest.hexdigest(), "layers": layers,
    }


def main(argv: list[str]) -> int:
    workload, seed, index, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    import hamelcheck  # noqa: F401  (set-up includes the package import)
    import hamelcheck.cli  # noqa: F401

    OUT.mkdir(exist_ok=True)
    ops = workloads.build(workload, seed, OUT / "inputs", index)
    ready = time.monotonic()
    result = run_pass(workload, seed, traced, ready, ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
