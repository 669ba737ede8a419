"""Outside-in tracing of hamelcheck's layers.

The tracer wraps the public functions of each package module where they
are looked up, so nothing under ``src/`` changes. A module-level function
is bound under its own name in every module that did ``from .x import f``;
each such binding is replaced, so ``scenarios.forward_diff``,
``definitions.atom_mass`` and the ``forward_diff`` that
``differences.jensen_convexity_probe`` calls are all traced. A method
(``Point.__add__``, ``AdditiveFunctional.__call__``, each ``value`` of the
``functions`` module) is replaced on its class. ``restore`` puts every
original back.

Each call becomes a span (name, start, end, parent) kept in memory in
flat arrays and written out by ``write_spans`` when the run ends. Per
name the tracer reports ``calls``, ``busy_s`` (inclusive; a call nested
inside a call of the same name is not counted twice), ``self_s`` (span
time not covered by child spans) and, for keyed layers, the number of
distinct ``(object, point)`` arguments, the useful share of the work a
memo could keep.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# The one table of traced layers: layer name -> (module, names, statistics
# reported). A name is a module-level function, wrapped in every module
# that bound it, or ``Class.method``, wrapped on the class; ``*.value`` is
# the ``value`` method of every PointFunction subclass of the module.
# Several names may share a layer; busy time then counts the outermost
# call only.
CALLS = ("calls", "busy_s", "self_s")
LAYERS = {
    "basis.point_add": ("basis", ("Point.__add__",), CALLS),
    "basis.point_sub": ("basis", ("Point.__sub__",), CALLS),
    "basis.functional_call": ("basis", ("AdditiveFunctional.__call__",), CALLS),
    "functions.eval": ("functions", ("*.value",), ("calls", "distinct_ratio", "self_s")),
    "differences.forward_diff": ("differences", ("forward_diff",), CALLS),
    "differences.backward_diff": ("differences", ("backward_diff",), CALLS),
    "differences.difference_table": ("differences", ("difference_table",), CALLS),
    "differences.jensen_probe": ("differences", ("jensen_convexity_probe",), CALLS),
    "measures.atom_mass": ("measures", ("atom_mass",), (*CALLS, "distinct_ratio")),
    "measures.build": (
        "measures", ("build_mu", "build_mu_i", "build_a_sets", "j_op", "nabla"), ("busy_s",),
    ),
    "definitions.parse": ("definitions", ("parse_definition",), ("busy_s",)),
    "definitions.run": ("definitions", ("run_definition",), ("busy_s",)),
    "reports.render": ("reports", ("render",), ("busy_s",)),
    "cli.main": ("cli", ("main",), ("busy_s",)),
    "scenarios.theorem23": ("scenarios", ("verify_theorem_2_3",), ("busy_s",)),
    "scenarios.section31": ("scenarios", ("verify_section_3_1",), ("busy_s",)),
    "scenarios.section32": ("scenarios", ("verify_section_3_2",), ("busy_s",)),
    "scenarios.lemma44": ("scenarios", ("verify_lemma_4_4",), ("busy_s",)),
    "scenarios.lemma46": ("scenarios", ("verify_lemma_4_6",), ("busy_s",)),
    "scenarios.prop43": ("scenarios", ("verify_prop_4_3",), ("busy_s",)),
}

# Layers whose first two arguments (object, point) identify the work done.
KEYED = {"measures.atom_mass", "functions.eval"}


class MissingLayer(LookupError):
    """A traced name the program no longer defines. The tracer refuses to
    run rather than report the layer as 0 calls, which would read as a
    gain; rename it in LAYERS instead."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._busy: list[float] = []
        self._keys: dict[int, set] = {}
        # Keyed objects stay alive so that no id is reused within a run.
        self._alive: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self._busy.append(0.0)
            if name in KEYED:
                self._keys[nid] = set()
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, depth, busy = self._stack, self._depth, self._busy
        keys, alive = self._keys.get(nid), self._alive
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                obj = args[0]
                alive[id(obj)] = obj
                keys.add((id(obj), args[1]))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            d = depth[nid]
            depth[nid] = d + 1
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                depth[nid] = d
                stack.pop()
                if not d:
                    busy[nid] += t1 - t0

        return traced

    def install(self) -> None:
        """Wrap every layer; hamelcheck must already be imported. Raises
        MissingLayer, with every name it could not resolve, before
        wrapping anything."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "hamelcheck" or key.startswith("hamelcheck."))
        ]
        plan, missing = [], []
        for layer, (module, names, _) in LAYERS.items():
            self._name_id(layer)
            home = sys.modules.get(f"hamelcheck.{module}")
            for name in names:
                found = _resolve(home, name)
                if not found:
                    missing.append(f"hamelcheck.{module}.{name}")
                plan += [(layer, owner, attr) for owner, attr in found]
        if missing:
            raise MissingLayer(f"traced names not found: {', '.join(missing)}")
        for layer, owner, attr in plan:
            original = vars(owner)[attr]
            wrapper = self.wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, busy_s, self_s and (keyed layers) distinct."""
        n = len(self.span_start)
        covered = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - covered[i]
        out = {}
        for nid, name in enumerate(self.names):
            row = {"calls": calls[nid], "busy_s": self._busy[nid], "self_s": self_s[nid]}
            if nid in self._keys:
                row["distinct"] = len(self._keys[nid])
            out[name] = row
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then the name, parent, start and end
        arrays in native byte order."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            "clock": "time.perf_counter",
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)


def _resolve(module, name: str) -> list[tuple[object, str]]:
    """The (owner, attribute) pairs a LAYERS name stands for; empty if the
    module does not define it."""
    if module is None:
        return []
    cls_name, _, attr = name.rpartition(".")
    if cls_name == "*":
        base = getattr(module, "PointFunction", None)
        return [
            (cls, attr) for cls in vars(module).values()
            if isinstance(cls, type) and base is not None and issubclass(cls, base)
            and cls is not base and cls.__module__ == module.__name__ and attr in vars(cls)
        ]
    if cls_name:
        cls = getattr(module, cls_name, None)
        return [(cls, attr)] if isinstance(cls, type) and attr in vars(cls) else []
    return [(module, attr)] if callable(vars(module).get(attr)) else []


def merge(summaries: list[dict]) -> dict[str, dict]:
    """Sum per-process summaries (the CLI workload traces each process)."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
    return out
