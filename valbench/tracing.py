"""Per-layer tracing from outside the program.

The traced run swaps timing wrappers in for module-level callables of
``joi_ray``, then puts the originals back.  Nothing under ``joi_ray/``
changes: the wrappers work because the engine and the stage reach these callables
through module globals and class attributes at call time.

A span is ``[name, start, end, parent, phase]``; spans stay in memory and are
written out when the run ends.  A layer's self time is its span's duration
minus the time its child spans cover.  Calls that happen thousands of times
per batch (``eval_node``, ``render``) are counted, not timed.
"""

from __future__ import annotations

import json
import sys
import time

CLOCK = time.perf_counter


def _count_violation_rows(tracer, args, out):
    tracer.count("engine.violation_rows", out.num_rows)


# (module, attribute path, span or count name, kind, hook run on the output)
TARGETS = [
    ("joi_ray.pipelines.validate", "ValidatorStage.__call__", "pipelines.validate.stage", "span", None),
    ("joi_ray.pipelines.validate", "ValidatorStage._referential", "pipelines.validate.referential", "span", None),
    ("joi_ray.engine", "CompiledSchema.__init__", "engine.compile", "span", None),
    ("joi_ray.engine", "CompiledSchema.validate_table", "engine.validate_table", "span", None),
    ("joi_ray.engine", "CompiledSchema._assemble_violations", "engine.assemble_violations", "span",
     _count_violation_rows),
    ("joi_ray.engine", "build", "spec.build", "span", None),
    ("tools.diffref", "build_spec_py", "spec.build", "span", None),
    ("joi_ray.engine", "eval_node", "engine.eval_node_calls", "count", None),
    ("joi_ray.engine", "render", "kernels.messages.render_calls", "count", None),
    ("joi_ray.sketches", "ColumnStats.update", "sketches.update", "span", None),
    ("joi_ray.sketches", "ColumnStats.to_bytes", "sketches.encode", "span", None),
]

# per_layer metric -> (source, aggregation, unit).  "call": total self time
# (or count) over the timed calls / number of timed calls.  "occurrence":
# total self time / number of outermost spans of that name, set-up included
# (the flagship compiles once, in set-up).
LAYER_METRICS = {
    "engine.validate_table_ms": ("engine.validate_table", "call", "ms"),
    "engine.eval_node_calls": ("engine.eval_node_calls", "call", "count"),
    "engine.assemble_violations_ms": ("engine.assemble_violations", "call", "ms"),
    "engine.violation_rows": ("engine.violation_rows", "call", "count"),
    "kernels.messages.render_calls": ("kernels.messages.render_calls", "call", "count"),
    "pipelines.validate.referential_ms": ("pipelines.validate.referential", "call", "ms"),
    "sketches.update_ms": ("sketches.update", "call", "ms"),
    "sketches.encode_ms": ("sketches.encode", "call", "ms"),
    "pipelines.validate.stage_self_ms": ("pipelines.validate.stage", "call", "ms"),
    "spec.build_ms": ("spec.build", "occurrence", "ms"),
    "engine.compile_ms": ("engine.compile", "occurrence", "ms"),
}
_SCALE = {"ms": 1e3, "count": 1}
# the layers inside ValidatorStage.__call__; their sum should match the stage total
STAGE_LAYERS = ("pipelines.validate.stage_self_ms", "engine.validate_table_ms", "engine.assemble_violations_ms",
                "pipelines.validate.referential_ms", "sketches.update_ms", "sketches.encode_ms")


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the module is not
    loaded in this process; raises AttributeError when the callable is gone."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    owner = mod
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.phase = "setup"
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def count(self, name: str, n: float = 1):
        per_phase = self.counts.setdefault(self.phase, {})
        per_phase[name] = per_phase.get(name, 0) + n

    def _span_wrapper(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            rec = [name, CLOCK(), 0.0, self._stack[-1] if self._stack else -1, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = CLOCK()
                self._stack.pop()
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    def _count_wrapper(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.count(name)
            return out

        return wrapper

    # -- installing --------------------------------------------------------
    def install(self):
        """Wrap every target whose module is loaded.  A target whose module
        is loaded but whose callable has disappeared is listed as absent."""
        if self._saved:
            return
        for module, path, name, kind, hook in TARGETS:
            try:
                found = _resolve(module, path)
            except AttributeError:
                if f"{module}.{path}" not in self.absent:
                    self.absent.append(f"{module}.{path}")
                continue
            if found is None:
                continue
            owner, attr, fn = found
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            setattr(owner, attr, make(fn, name, hook))
            self._saved.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self, n_calls: int) -> dict[str, float]:
        """Every LAYER_METRICS entry; a layer this workload never reached reads 0."""
        selfs = self.self_times()
        timed_total: dict[str, float] = {}
        all_total: dict[str, float] = {}
        outermost: dict[str, int] = {}
        for (name, _, _, parent, phase), s in zip(self.spans, selfs):
            all_total[name] = all_total.get(name, 0.0) + s
            if phase == "timed":
                timed_total[name] = timed_total.get(name, 0.0) + s
            if parent < 0 or self.spans[parent][0] != name:
                outermost[name] = outermost.get(name, 0) + 1
        timed_counts = self.counts.get("timed", {})
        out = {}
        for metric, (src, agg, unit) in LAYER_METRICS.items():
            if agg == "occurrence":
                value = all_total.get(src, 0.0) / outermost[src] if outermost.get(src) else 0.0
            else:
                value = (timed_total.get(src, 0.0) + timed_counts.get(src, 0)) / max(n_calls, 1)
            out[metric] = value * _SCALE[unit]
        return out

    def reached(self) -> set[str]:
        names = {s[0] for s in self.spans}
        for per_phase in self.counts.values():
            names.update(per_phase)
        return {m for m, (src, _, _) in LAYER_METRICS.items() if src in names}

    def stage_total_ms(self, n_calls: int) -> float:
        """Duration of the timed ``ValidatorStage.__call__`` spans per call."""
        total = sum(e - b for name, b, e, _, phase in self.spans
                    if name == "pipelines.validate.stage" and phase == "timed")
        return total * 1e3 / max(n_calls, 1)

    def write(self, path: str):
        with open(path, "w") as f:
            for name, start, end, parent, phase in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "phase": phase}) + "\n")
            f.write(json.dumps({"counts": self.counts}) + "\n")
