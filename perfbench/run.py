"""hamelcheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass runs in a fresh worker
process, one process at a time. With ``--trace 0`` the run times passes
untraced and prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from worker import child_env  # noqa: E402
from workloads import WORKLOADS, passes  # noqa: E402

# Every worker must end before this many seconds into the run, so that
# the run ends within 180 s even if the program hangs.
DEADLINE_S = 165
IMPORT_SAMPLES = 5

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "pass_ratio": "ratio"}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "distinct_ratio": "ratio"}
PER_LAYER = {
    **{f"{layer}.{stat}": UNITS[stat] for layer, (*_, stats) in LAYERS.items() for stat in stats},
    "cli.import_s": "s",
    "trace_overhead": "ratio",
}
# Statistics that must repeat exactly between traced passes of one seed.
EXACT = ("calls", "distinct")


def launch(timeout: float, *args: str) -> tuple[dict | None, float, float, str]:
    """Run one worker; returns (its JSON result or None, start, wall, error)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, start, time.monotonic() - start, f"worker timed out: {args}"
    wall = time.monotonic() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = err.strip().splitlines()[-1:] or [""]
        return None, start, wall, f"worker {args} exited {proc.returncode}: {last[0][-300:]}"
    return json.loads(lines[-1]), start, wall, ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class Run:
    """The passes of one benchmark run and their verdict totals."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, str(seed)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.records: list[dict] = []
        self.repeats = 0  # passes whose timings are reported
        self.deadline = time.monotonic() + DEADLINE_S

    def step(self, index: int, traced: bool = False) -> tuple[dict | None, float, float]:
        """Pass ``index`` in a fresh worker; returns (result, start, wall)."""
        timeout = self.deadline - time.monotonic()
        if timeout < 1:
            result, start, wall, error = None, time.monotonic(), 0.0, "run deadline reached"
        else:
            result, start, wall, error = launch(
                timeout, self.workload, self.seed, str(index), "1" if traced else "0"
            )
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.errors.append(error)
        else:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.errors += result["errors"]
            self.records.append({"index": index, "traced": traced, **result, "wall_s": wall})
        return result, start, wall


def timed(run: Run, seconds: float) -> dict[str, list[float]]:
    """An untimed warm-up pass (the first pass of a run is often slow on
    a shared machine; its verdicts are still checked), then a fixed number
    of timed passes. Each pass's worker gives one sample of every metric;
    times are scaled by the worker's speed reference (worker.py)."""
    samples: dict[str, list[float]] = {
        "run_s": [], "setup_s": [], "peak_rss_mib": [], "wall_run_s": [], "wall_setup_s": [],
    }
    if run.step(-1)[0] is None:
        return samples
    for index in range(passes(run.workload, seconds)):
        result, start, _ = run.step(index)
        if result is None:
            break
        setup = result["ready"] - start
        samples["wall_setup_s"].append(setup)
        samples["wall_run_s"].append(result["run_s"])
        samples["setup_s"].append(setup * result["setup_scale"])
        samples["run_s"].append(result["scaled_run_s"])
        samples["peak_rss_mib"].append(result["peak_rss_mib"])
        run.repeats += 1
    return samples


def import_seconds(deadline: float) -> list[float]:
    code = ("import time; t = time.perf_counter(); import hamelcheck.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_SAMPLES):
        try:
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            break
        if proc.returncode == 0:
            out.append(float(proc.stdout))
    return out


def traced(run: Run) -> dict[str, list[float]]:
    """After an untraced warm-up, untraced and traced passes of pass 0 in
    the order U T T U. The traced passes' counts must agree exactly and
    all verdicts must be equal."""
    if run.step(-1)[0] is None:
        return {}
    plain, layered = [], []
    for kind in (False, True, True, False):
        result, _, _ = run.step(0, kind)
        if result is None:
            return {}
        (layered if kind else plain).append(result)
    if run.failed:  # a verdict or a CLI process failed; the layers are incomplete
        return {}
    # The self-test counts as operations: one verdict comparison and one
    # count comparison per further traced pass.
    run.attempted += len(layered)
    digests = {r["digest"] for r in plain + layered}
    if len(digests) != 1:
        run.failed += 1
        run.errors.append("traced verdicts differ from untraced verdicts")
    first = layered[0]["layers"]
    for other in layered[1:]:
        differ = [
            f"{layer}.{key}" for layer, row in first.items() for key in EXACT
            if row.get(key) != other["layers"].get(layer, {}).get(key)
        ]
        if differ:
            run.failed += 1
            run.errors.append(f"counts differ between traced passes: {differ}")
    run.repeats = len(layered)
    samples: dict[str, list[float]] = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if layer not in LAYERS:
            continue
        rows = [result["layers"].get(layer) for result in layered]
        if stat == "calls":  # equal across traced passes, checked above
            values = [rows[0]["calls"]]
        elif stat == "distinct_ratio":
            row = rows[0]
            values = [row["distinct"] / row["calls"] if row["calls"] else 0.0]
        else:
            values = [row[stat] for row in rows]
        samples[metric] = values
    samples["cli.import_s"] = import_seconds(run.deadline)
    # Scaled times, since the passes ran at different machine speeds.
    overhead = statistics.median(r["scaled_run_s"] for r in layered) / statistics.median(
        r["scaled_run_s"] for r in plain
    )
    samples["trace_overhead"] = [overhead]
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hamelcheck" / "__init__.py").is_file():
        print(f"error: no hamelcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    samples = traced(run) if args.trace else timed(run, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace and run.attempted:
        samples["pass_ratio"] = [(run.attempted - run.failed) / run.attempted]
    correct = run.failed == 0 and run.attempted > 0 and all(samples.get(m) for m in units)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "repeats": run.repeats, "worker_passes": len(run.records),
    }
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    metrics, stats = {}, {}
    # The unscaled times are printed and recorded beside the metrics.
    unscaled = {name: "s" for name in ("wall_run_s", "wall_setup_s") if name in samples}
    for name, unit in {**units, **unscaled}.items():
        values = samples.get(name) or []
        if values:
            q1, median, q3 = quartiles(values)
            stats[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
            print(f"# {name:<36} {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        if name in units:
            # A run whose verdicts fail reports its timings as invalid.
            value = stats.get(name, {}).get("median") if correct or unit != "s" else None
            metrics[name] = {"value": value, "unit": unit}
    for error in run.errors[:10]:
        print(f"# error: {error}")
    record = {**meta, "correct": correct, "attempted": run.attempted, "failed": run.failed,
              "stats": stats, "errors": run.errors, "passes_detail": [
                  {k: v for k, v in r.items() if k != "layers"} for r in run.records]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
