"""Out-of-program tracing for the benchmark's traced run.

The traced run wraps the public entry point of each ``src/repro``
module from here, so the program itself is never edited to be
measured.  Every wrapped call records one span ``(name, start, end,
parent)`` in memory; a layer's self time is its spans' busy time minus
the busy time of their direct children.  Generator entry points (the
catalog's request streams) are timed per ``next()`` and their busy time
is the sum of those calls, so a stream consumed lazily by a simulator
is charged to the catalog, not to the simulator driving it.

Wrappers are applied before a traced op and removed after it, so the
untraced ops of the same run execute the unmodified program.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, Optional

_clock = time.perf_counter


class Span:
    """One recorded call: ``busy`` is its duration (or summed ``next()`` time)."""

    __slots__ = ("name", "start", "end", "parent", "busy", "items", "kernel_s")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.busy = 0.0
        self.items = 0
        self.kernel_s = 0.0


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, _clock(), parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        span = self.spans[index]
        span.end = _clock()
        span.busy = span.end - span.start

    def self_times(self) -> list[float]:
        """Busy time of each span minus the busy time of its children."""
        own = [span.busy for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.busy
        return own


def _wrap_call(tracer: Tracer, name: str, fn: Callable, record) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if record is not None:
            record(tracer.spans[index], args, result)
        return result

    return traced


def _wrap_stream(tracer: Tracer, name: str, fn: Callable, batched: bool) -> Callable:
    """Time a request stream per ``next()``; ``fn`` returns an iterator."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        spans = tracer.spans
        stack = tracer._stack
        index = len(spans)
        span = Span(name, _clock(), stack[-1] if stack else -1)
        spans.append(span)
        while True:
            stack.append(index)
            start = _clock()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span.end = _clock()
                span.busy += span.end - start
                stack.pop()
            span.items += len(item) if batched else 1
            yield item

    return traced


def _record_requests(span: Span, args: tuple, result) -> None:
    span.items = int(result.requests)


def _record_sharded(span: Span, args: tuple, result) -> None:
    span.kernel_s = float(result.kernel_seconds)


def _record_points(span: Span, args: tuple, result) -> None:
    span.items = len(args[0])


def _record_batch(span: Span, args: tuple, result) -> None:
    span.items = len(result)


class Patches:
    """The set of (owner, attribute, original, wrapper) swaps for one tracer.

    Module-level functions are replaced in every loaded ``repro``
    module that imported them by name, so calls through any import
    path land in the wrapper.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._swaps: list[tuple[object, str, object, object]] = []

    def method(self, cls: type, attr: str, name: str, record=None) -> None:
        fn = cls.__dict__[attr]
        self._swaps.append((cls, attr, fn, _wrap_call(self.tracer, name, fn, record)))

    def stream(self, cls: type, attr: str, name: str, *, batched: bool) -> None:
        fn = cls.__dict__[attr]
        self._swaps.append(
            (cls, attr, fn, _wrap_stream(self.tracer, name, fn, batched))
        )

    def function(self, fn: Callable, name: str, record=None) -> None:
        wrapper = _wrap_call(self.tracer, name, fn, record)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._swaps.append((module, attr, fn, wrapper))

    def mapping(self, table: dict, key: str, name: str) -> None:
        fn = table[key]
        self._swaps.append((table, key, fn, _wrap_call(self.tracer, name, fn, None)))

    def apply(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            _set(owner, attr, wrapper)

    def revert(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            _set(owner, attr, original)


def _set(owner: object, attr: str, value: object) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def build_patches(tracer: Tracer) -> Patches:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.adaptive.estimator import ExponentEstimator
    from repro.adaptive.tracker import WarmStrategyTracker
    from repro.analysis import experiments, reporting
    from repro.catalog import workload as catalog_workload
    from repro.ccn.engine import BatchedCCNEngine
    from repro.core import batch_solver, optimizer
    from repro.service import ingest, loop
    from repro.simulation import sharded, simulator
    from repro.topology import datasets, generators, hierarchy

    patches = Patches(tracer)
    # catalog: every request stream the workload classes generate.
    for cls in vars(catalog_workload).values():
        if not (
            isinstance(cls, type)
            and issubclass(cls, catalog_workload.Workload)
            and cls.__module__ == catalog_workload.__name__
        ):
            continue
        for attr in ("requests", "batches", "sample_batch"):
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if attr == "sample_batch":
                patches.method(cls, attr, "catalog.sample_batch", _record_batch)
            else:
                patches.stream(
                    cls, attr, f"catalog.{attr}", batched=attr == "batches"
                )
    # core: the scalar optimizer and the batch solver.
    patches.function(optimizer.optimal_strategy, "core.optimizer")
    patches.function(batch_solver.solve_batch, "core.batch_solver", _record_points)
    patches.function(
        batch_solver.resolve_incremental, "core.batch_solver", _record_points
    )
    # topology: named datasets and generated graphs.
    patches.function(datasets.load_topology, "topology.load")
    patches.function(hierarchy.generate_hierarchy, "topology.generate")
    for fn_name in generators.__all__:
        patches.function(getattr(generators, fn_name), "topology.generate")
    # simulation: both simulators' run methods and the sharded runner.
    patches.method(
        simulator.SteadyStateSimulator, "run", "simulation.steady", _record_requests
    )
    patches.method(
        simulator.DynamicSimulator, "run", "simulation.dynamic", _record_requests
    )
    patches.function(sharded.run_sharded, "simulation.sharded", _record_sharded)
    # ccn: the batched packet engine.
    patches.method(BatchedCCNEngine, "__init__", "ccn.construct")
    patches.method(BatchedCCNEngine, "install_strategy", "ccn.install")
    patches.method(BatchedCCNEngine, "run_workload", "ccn.engine")
    patches.method(BatchedCCNEngine, "run_schedule", "ccn.engine")
    # adaptive: the online estimator and the warm strategy tracker.
    patches.method(ExponentEstimator, "observe", "adaptive.observe")
    patches.method(ExponentEstimator, "estimate", "adaptive.estimate")
    patches.method(WarmStrategyTracker, "solve", "adaptive.tracker")
    # service: wire-format parsing and the control-loop tick.
    patches.function(ingest.parse_line, "service.parse")
    patches.method(loop.OptimizerService, "ingest", "service.ingest")
    # analysis: one span per report section, plus the report itself.
    for key in list(experiments.ALL_EXPERIMENTS):
        patches.mapping(experiments.ALL_EXPERIMENTS, key, f"analysis.experiment.{key}")
    patches.function(reporting.generate_report, "analysis.report")
    return patches


#: Span name -> per-op self-time metric (ms).  ``ccn.engine`` is split
#: by contention tier in :func:`op_layer_metrics`.
SELF_TIME_METRICS = {
    "catalog.requests": "catalog.sample_ms",
    "catalog.batches": "catalog.sample_ms",
    "catalog.sample_batch": "catalog.sample_ms",
    "core.optimizer": "core.optimizer_ms",
    "core.batch_solver": "core.batch_solver_ms",
    "topology.load": "topology.load_ms",
    "topology.generate": "topology.generate_ms",
    "simulation.steady": "simulation.steady_ms",
    "simulation.dynamic": "simulation.dynamic_ms",
    "simulation.sharded": "simulation.sharded_self_ms",
    "ccn.construct": "ccn.construct_ms",
    "ccn.install": "ccn.install_ms",
    "adaptive.observe": "adaptive.observe_ms",
    "adaptive.estimate": "adaptive.estimate_ms",
    "adaptive.tracker": "adaptive.tracker_self_ms",
    "service.parse": "service.parse_ms",
    "service.ingest": "service.ingest_self_ms",
    "analysis.report": "analysis.render_self_ms",
}


def op_layer_metrics(tracer: Tracer, tier: Optional[str]) -> dict:
    """Per-op layer figures from one traced op's spans.

    The op's own span is the first one recorded; its self time is the
    part of the op no layer span covers.
    """
    own = tracer.self_times()
    out: dict[str, float] = {
        "op_s": tracer.spans[0].busy,
        "unattributed_s": own[0],
    }

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for span, self_s in zip(tracer.spans[1:], own[1:]):
        name = span.name
        if name == "ccn.engine":
            add(f"ccn.engine_ms.{tier}", self_s * 1e3)
        elif name.startswith("analysis.experiment."):
            key = name[len("analysis.experiment."):]
            add(f"analysis.experiment_ms.{key}", span.busy * 1e3)
        else:
            add(SELF_TIME_METRICS[name], self_s * 1e3)
        parent = tracer.spans[span.parent].name if span.parent >= 0 else ""
        if name.startswith("catalog.") and not parent.startswith("catalog."):
            add("catalog.requests", span.items)
        elif name == "core.optimizer":
            add("core.optimizer_calls", 1)
        elif name == "core.batch_solver":
            add("core.batch_solver_points", span.items)
        elif name in ("simulation.steady", "simulation.dynamic"):
            add("simulation.requests", span.items)
        elif name == "simulation.sharded":
            add("simulation.kernel_ms", span.kernel_s * 1e3)
    return out


#: Report sections, in `repro report` order (``analysis.experiment_ms.<id>``).
EXPERIMENT_IDS = (
    "scorecard", "table1", "table2", "table3", "table4", "figure4", "figure5",
    "figure6", "figure7", "figure8", "figure9", "figure10", "figure11",
    "figure12", "figure13", "theorem2", "model-vs-sim", "metric-duality",
    "coverage", "robustness", "irm-vs-locality", "assignment", "pareto",
    "convergence",
)

CCN_TIERS = ("independent", "contended", "queued")

#: Per-op self times (ms), reported as the median over traced ops.
MS_METRICS = (
    "catalog.sample_ms",
    "core.optimizer_ms",
    "core.batch_solver_ms",
    "topology.load_ms",
    "topology.generate_ms",
    "simulation.steady_ms",
    "simulation.dynamic_ms",
    "simulation.sharded_self_ms",
    "simulation.kernel_ms",
    "ccn.construct_ms",
    "ccn.install_ms",
    "adaptive.observe_ms",
    "adaptive.estimate_ms",
    "adaptive.tracker_self_ms",
    "service.parse_ms",
    "service.ingest_self_ms",
    "analysis.render_self_ms",
) + tuple(f"analysis.experiment_ms.{key}" for key in EXPERIMENT_IDS)

#: Work counted by the wrappers, as a mean per traced op.
SPAN_COUNTS = (
    "catalog.requests",
    "core.optimizer_calls",
    "core.batch_solver_points",
    "simulation.requests",
)

#: Work counted by the program's own obs counters, as a mean per traced op.
OBS_COUNTS = {
    "ccn.cohorts": "ccn.engine.cohorts",
    "ccn.aggregations": "ccn.engine.aggregations",
    "ccn.queued": "ccn.engine.queued",
    "ccn.rejected": "ccn.engine.rejected",
    "adaptive.tracker_cold": "adaptive.tracker.cold_solves",
    "adaptive.tracker_warm": "adaptive.tracker.warm_solves",
    "adaptive.tracker_skipped": "adaptive.tracker.skipped",
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    names = [(name, "ms") for name in MS_METRICS]
    names += [(f"ccn.engine_ms.{tier}", "ms") for tier in CCN_TIERS]
    names += [(name, "count/op") for name in SPAN_COUNTS]
    names += [("core.zipf_table_builds", "count/op"), ("core.zipf_table_hits", "count/op")]
    names += [(name, "count/op") for name in OBS_COUNTS]
    names += [
        ("ccn.simulated_frac", "ratio"),
        ("service.tick_p95_ms", "ms"),
        ("service.tick_p95_tail", "count"),
        ("service.tick_p99_ms", "ms"),
        ("service.tick_p99_tail", "count"),
        ("service.tick_samples", "count"),
        ("unattributed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.ops", "count"),
    ]
    return names


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(samples_ms: list[float], percent: int) -> tuple[float, int]:
    """The ``percent``-th percentile and how many samples lie beyond it."""
    if len(samples_ms) < 2:
        return 0.0, 0
    cut = statistics.quantiles(samples_ms, n=100)[percent - 1]
    return cut, sum(1 for value in samples_ms if value > cut)


def layer_metrics(loop) -> dict:
    """The traced run's per-layer metrics from a finished loop."""
    ops = loop.layer_ops
    n_ops = max(len(ops), 1)
    values: dict[str, float] = {}
    for name in MS_METRICS:
        values[name] = _median([m.get(name, 0.0) for _, m in ops])
    for tier in CCN_TIERS:
        key = f"ccn.engine_ms.{tier}"
        values[key] = _median([m.get(key, 0.0) for t, m in ops if t == tier])
    for name in SPAN_COUNTS:
        values[name] = sum(m.get(name, 0.0) for _, m in ops) / n_ops
    values["core.zipf_table_builds"] = loop.zipf["builds"] / n_ops
    values["core.zipf_table_hits"] = loop.zipf["hits"] / n_ops
    for name, counter in OBS_COUNTS.items():
        values[name] = loop.counters.get(counter, 0.0) / n_ops
    issued = loop.counters.get("ccn.engine.requests", 0.0)
    values["ccn.simulated_frac"] = (
        loop.counters.get("ccn.engine.simulated", 0.0) / issued if issued else 0.0
    )
    ticks_ms = (
        [op[0] * 1e3 for op in loop.ops]
        if loop.workload.name == "serve_replay"
        else []
    )
    values["service.tick_p95_ms"], values["service.tick_p95_tail"] = _tail(ticks_ms, 95)
    values["service.tick_p99_ms"], values["service.tick_p99_tail"] = _tail(ticks_ms, 99)
    values["service.tick_samples"] = len(ticks_ms)
    op_total = sum(m["op_s"] for _, m in ops)
    values["unattributed_frac"] = (
        sum(m["unattributed_s"] for _, m in ops) / op_total if op_total else 0.0
    )
    traced = _median(loop.scaled_round_seconds(True))
    untraced = _median(loop.scaled_round_seconds(False))
    values["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    values["trace.ops"] = len(ops)
    # Times are scaled to the reference machine's speed, as end to end.
    speed = loop.speed
    return {
        name: {"value": values[name] * (speed if unit == "ms" else 1.0), "unit": unit}
        for name, unit in per_layer_names()
    }
