"""One CLI process of the ``cli-jensen`` workload, and the speed reference.

    python perfbench/child.py STATS TRACED ARG...

Runs the hamelcheck command line with ARG... in this fresh interpreter,
as ``python -m hamelcheck`` does: stdout, stderr and the exit code are
the command line's. The speed reference is timed in this process before
``hamelcheck`` is imported and after the command returns, and written to
STATS with, for TRACED=1, the per-layer summary; the spans then go to
STATS with the suffix ``.bin``.

The speed reference. The baseline machine is shared, and its speed for
allocation-heavy Python drifts by up to 1.5-2x for tens of seconds at a
time, differently in each process. A loop of exact Fraction arithmetic on
dicts and sorted tuples, the kind of work hamelcheck does, slows in step
with the program in the same process (a plain integer loop does not, nor
does the loop in another process). Each operation's time is therefore
scaled by REF_NOMINAL_S / (the mean of the loop times around it, in the
process that did the work). REF_NOMINAL_S is the loop's time on the
baseline machine in a quiet minute, so scaled times read as seconds on
that machine at that speed.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

REF_NOMINAL_S = 0.034


def reference_loop() -> int:
    acc: dict[tuple[int, int], Fraction] = {}
    x = Fraction(1, 3)
    for i in range(6000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + x * Fraction(i % 5 + 1, 7)
    return hash(tuple(sorted(acc.items())))


def reference_s() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REF_NOMINAL_S / (before + after)


def main(argv: list[str]) -> int:
    stats, traced, cli_argv = Path(argv[0]), argv[1] == "1", argv[2:]
    before = reference_s()
    import hamelcheck.cli

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return hamelcheck.cli.main(cli_argv)
    finally:
        if tracer is not None:
            tracer.restore()
        after = reference_s()
        layers = None
        if tracer is not None:
            layers = tracer.summary()
            tracer.write_spans(stats.with_suffix(".bin"))
        stats.write_text(json.dumps({"ref_s": [before, after], "layers": layers}))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
