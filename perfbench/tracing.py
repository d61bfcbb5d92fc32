"""Spans recorded around calls into the package's public functions.

A Tracer replaces each listed function, in every coevent module that holds
a reference to it, with a wrapper that records one span: name, start, end
and the span that was open when it was called.  Spans stay in memory and
are written out as JSON lines when the run ends.  Nothing inside the
package changes; uninstall() puts the original functions back.  While
``active`` is False the wrappers record nothing, so traced and untraced
rounds can alternate under one installed Tracer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

# (layer, module, public functions).  linalg only builds bases and kets; its
# time is counted inside scenarios.build_scenario.
TRACED = (
    ("cli", "coevent.cli", ("main",)),
    ("scenarios", "coevent.scenarios",
     ("build_scenario", "run_scenario", "analyze_df", "emit_report", "theta_sweep",
      "schema_from_json", "raw_df_from_json")),
    ("histories", "coevent.histories",
     ("enumerate_histories", "build_df", "raw_df", "validate_df")),
    ("measure_analysis", "coevent.measure_analysis",
     ("find_zero_sets", "find_decoherent_partitions", "ZeroSetCatalog.maximal_zero_events")),
    ("coevents", "coevent.coevents",
     ("enumerate_primitive_coevents", "distinguishability_report")),
    ("composition", "coevent.composition", ("tensor_df", "composition_anomalies")),
)
LAYERS = tuple(layer for layer, _, _ in TRACED)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _histories(name: str, args) -> int:
    """Histories of the DF a constructor is asked for, known before it runs."""
    if name == "histories.build_df":
        n = 1
        for s in args[0].slices:
            n *= len(s.decomposition)
        return n
    if name == "histories.raw_df":
        return len(args[0])
    return args[0].size * args[1].size


def _result_count(name: str, result) -> int:
    """The work count a span carries: bytes, events or co-events."""
    if name == "scenarios.emit_report":
        return len(result)
    if name == "measure_analysis.find_zero_sets":
        return result.counts()["zero_sectorwise"]
    if name in ("measure_analysis.maximal_zero_events",
                "coevents.enumerate_primitive_coevents"):
        return len(result)
    return 0


DF_CONSTRUCTORS = ("histories.build_df", "histories.raw_df", "composition.tensor_df")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        # While False, the installed wrappers call straight through.
        self.active = True

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=len(self.spans), name=name, parent=parent, start=time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s: Span):
        s.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            s = self._open(name)
            try:
                if name in DF_CONSTRUCTORS:
                    # Counted before the call, so a build that fails still counts.
                    s.count = _histories(name, args)
                result = fn(*args, **kwargs)
                if name not in DF_CONSTRUCTORS:
                    s.count = _result_count(name, result)
                return result
            finally:
                self._close(s)
        return traced

    def install(self):
        """Patch every traced function where the package's modules see it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "coevent" or key.startswith("coevent.")]
        for layer, module_name, names in TRACED:
            home = sys.modules[module_name]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{meth}", original))
                    continue
                original = getattr(home, qual)
                wrapped = self._wrap(f"{layer}.{qual}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "count": s.count}))
                fh.write("\n")


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def totals(spans: list[Span]) -> dict:
    """Per span name: total seconds and summed counts; per layer: calls and self time."""
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = {}
    by_layer: dict[str, list[float]] = {layer: [0, 0.0] for layer in LAYERS}
    for s in spans:
        row = by_name.setdefault(s.name, [0, 0.0, 0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += s.count
        if s.layer in by_layer:
            by_layer[s.layer][0] += 1
            by_layer[s.layer][1] += selfs[s.id]
    return {"names": by_name, "layers": by_layer}
