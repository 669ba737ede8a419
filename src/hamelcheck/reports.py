"""Structured pass/fail reports and their human/tsv/jsonl renderings.

All comparisons are exact; a claim passes iff computed equals expected,
unless its runner fails it because the route to its value is not
certified (the lemmas' symmetry classes). Runners build each ``Report``
directly from the ``make_claim`` values they compute. The human format
builds each report's trace under its own work budget (``errors.metered``),
so a table past the work limit is refused before its first row.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .basis import Scalar, exact
from .differences import TableRow, group_sums
from .errors import metered

Value = Union[Scalar, bool]


class Claim(NamedTuple):
    label: str
    ref: str
    computed: Value
    expected: Value
    passed: bool


def make_claim(label: str, ref: str, computed: Value, expected: Value) -> Claim:
    """Build a claim; rationals and booleans never cross-compare."""
    if isinstance(computed, bool) or isinstance(expected, bool):
        if not (isinstance(computed, bool) and isinstance(expected, bool)):
            raise TypeError(f"claim {label!r} mixes boolean and rational values")
    else:
        computed = exact(computed)
        expected = exact(expected)
    return Claim(label, ref, computed, expected, computed == expected)


class Report(NamedTuple):
    """One scenario's claims. ``make_trace`` gives the rows of its
    evaluation table, a tuple or rows read one at a time; only ``--trace``
    output calls it."""

    scenario: str
    claims: tuple[Claim, ...]
    make_trace: Callable[[], Iterable[TableRow]] = tuple
    trace_title: str = ""
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


def render_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _json_value(v: Value):
    return v if isinstance(v, bool) else str(v)


def render_trace(rows: Iterable[TableRow]) -> list[str]:
    """Evaluation table grouped by subset size, with per-group signed sums.
    Each row is formatted, and added to its group's sum, as it comes, so a
    table read from ``difference_rows`` is never held whole. No rows: no
    lines."""
    lines = []

    def line(row: TableRow) -> TableRow:
        sign = "+" if row.sign > 0 else "-"
        lines.append(f"    [{sign}] size {row.size}: f({row.point}) = {row.value}")
        return row

    sums = group_sums(map(line, rows))
    if not sums:
        return lines
    total = sum(sign * s for _, sign, s in sums)
    grouped = " ".join(f"{'+' if sign > 0 else '-'}{s}" for _, sign, s in sums)
    lines.append(f"    group sums: {grouped} = {total}")
    return lines


def render_human(reports: Sequence[Report], show_trace: bool = False) -> str:
    lines: list[str] = []
    for rep in reports:
        lines.append(f"scenario: {rep.scenario}")
        for note in rep.notes:
            lines.append(f"  note: {note}")
        width = max((len(c.label) for c in rep.claims), default=0)
        for c in rep.claims:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.label:<{width}}  computed={render_value(c.computed)}"
                f"  expected={render_value(c.expected)}"
            )
            if not c.passed and c.ref:
                lines.append(f"         ({c.ref})")
        if show_trace:
            with metered():
                trace = render_trace(rep.make_trace())
            if trace:
                lines.append(f"  trace: {rep.trace_title or 'evaluation table'}")
                lines.extend(trace)
        n_pass = sum(c.passed for c in rep.claims)
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append(f"  result: {verdict} ({n_pass}/{len(rep.claims)} claims)")
        lines.append("")
    total = sum(len(r.claims) for r in reports)
    ok = all(r.passed for r in reports)
    lines.append(
        f"overall: {'PASS' if ok else 'FAIL'} "
        f"({total} claims across {len(reports)} scenario{'s' if len(reports) != 1 else ''})"
    )
    return "\n".join(lines)


def render_tsv(reports: Sequence[Report]) -> str:
    lines = []
    for rep in reports:
        for c in rep.claims:
            lines.append(
                "\t".join(
                    (
                        rep.scenario,
                        c.label,
                        render_value(c.computed),
                        render_value(c.expected),
                        "true" if c.passed else "false",
                    )
                )
            )
    return "\n".join(lines)


def render_jsonl(reports: Sequence[Report]) -> str:
    lines = []
    for rep in reports:
        for c in rep.claims:
            lines.append(
                json.dumps(
                    {
                        "scenario": rep.scenario,
                        "label": c.label,
                        "computed": _json_value(c.computed),
                        "expected": _json_value(c.expected),
                        "pass": c.passed,
                    }
                )
            )
    return "\n".join(lines)


def render(reports: Sequence[Report], fmt: str, show_trace: bool = False) -> str:
    if fmt == "human":
        return render_human(reports, show_trace)
    if fmt == "tsv":
        return render_tsv(reports)
    if fmt == "jsonl":
        return render_jsonl(reports)
    raise ValueError(f"unknown format: {fmt}")
