"""Outside-in layer trace: spans around the calls the driver makes.

:class:`LayerTracer` replaces, for the length of one traced pass, the
names ``repro.core.driver`` binds to each layer's public functions (and
the executor and run-log methods those calls reach) with wrappers that
record a span per call, then restores the originals.  Nothing under
``src/`` changes.  Generators such as ``blocks_csr`` get one span per
``next()``.  Executor calls keep a reference to the ``last_trace`` each
call installed, before the next call replaces it, so every recursion
level's :class:`~repro.mce.instrumentation.ExecutionTrace` is kept.

The decision and mce layers run inside block analysis, in pool workers
for the executor workloads, where no wrapper reaches.  Their metrics come
from each ``BlockReport``'s own timing (``seconds`` and
``extra["selection_seconds"]``).

Spans are kept in memory and written on request as Chrome trace-event
JSON (``ph: "X"`` complete events, viewable in Perfetto).
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

ROOT = "driver.find_max_cliques"

# Layers that get spans; decision and mce are read from block reports.
SPAN_LAYERS = (
    "driver",
    "graph",
    "feasibility",
    "blocks",
    "block_analysis",
    "cliquestore",
    "filtering",
    "executor",
    "runs",
)

PIPELINE_SESSION_METHODS = ("publish_level", "submit", "end_level", "finish", "close")


@dataclass
class ExecutorCall:
    """One ``map_blocks`` call or one pipeline session, seen from the parent."""

    start: float
    end: float
    workers: int
    trace: object = None
    reports: list = field(default_factory=list)


class LayerTracer:
    """Collects spans and per-layer counts while installed."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        # [name, start, end, parent index, run]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = 0
        self.reports: list = []
        self.calls: list[ExecutorCall] = []
        self._sessions: dict[int, ExecutorCall] = {}
        self.feasible = 0
        self.hubs = 0
        self.blocks = 0
        self.block_nodes = 0
        self.flush_bytes = 0
        self.flushes = 0
        self.replayed = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span per call; ``after(result, args, kwargs)`` sees results."""
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap_generator(self, fn, name: str, after_item):
        """Generator ``fn`` with a span per ``next()``."""
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                after_item(item)
                yield item

        return traced

    # -- per-layer counts ----------------------------------------------------
    def _on_cut(self, result, args, kwargs) -> None:
        feasible, hubs = result
        self.feasible += len(feasible)
        self.hubs += len(hubs)

    def _on_blocks(self, blocks, args, kwargs) -> None:
        for block in blocks:
            self._on_block(block)

    def _on_block(self, block) -> None:
        self.blocks += 1
        self.block_nodes += block.size

    def _on_report(self, report, args, kwargs) -> None:
        self.reports.append(report)

    def _on_flush(self, flush, args, kwargs) -> None:
        self.flushes += 1
        self.flush_bytes += flush.segment_bytes

    def _on_replay(self, report, args, kwargs) -> None:
        self.replayed += 1

    # -- executors -----------------------------------------------------------
    def _wrap_map_blocks(self, fn, name: str):
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(executor, *args, **kwargs):
            before = executor.last_trace
            index = tracer._open(name)
            try:
                reports = fn(executor, *args, **kwargs)
            finally:
                tracer._close(index)
            span = tracer.spans[index]
            trace = executor.last_trace
            tracer.calls.append(
                ExecutorCall(
                    start=span[1],
                    end=span[2],
                    workers=_workers_of(executor),
                    trace=trace if trace is not before else None,
                    reports=list(reports),
                )
            )
            return reports

        return traced

    def _on_open_pipeline(self, session, args, kwargs) -> None:
        # Opening a session makes no other traced call, so the span just
        # closed is the open_pipeline span.
        call = ExecutorCall(
            start=self.spans[-1][1],
            end=self.spans[-1][2],
            workers=_workers_of(args[0]),
            trace=session.trace,
        )
        self.calls.append(call)
        self._sessions[id(session)] = call

    def _on_finish(self, grouped, args, kwargs) -> None:
        call = self._sessions[id(args[0])]
        call.reports = [r for level in grouped.values() for r in level.values()]

    def _on_close(self, result, args, kwargs) -> None:
        call = self._sessions.pop(id(args[0]), None)
        if call is not None:
            call.end = time.perf_counter()

    # -- install / restore ---------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from repro.core import driver
        from repro.core.cliquestore import GlobalCliqueIndex
        from repro.distributed import executor
        from repro.runs.runlog import RunLog

        wrap = self.wrap
        for owner, attr, name, after in (
            (driver, "find_max_cliques", ROOT, None),
            (driver, "cut", "feasibility.cut", self._on_cut),
            (driver, "cut_csr", "feasibility.cut_csr", self._on_cut),
            (driver, "build_blocks", "blocks.build_blocks", self._on_blocks),
            (driver, "analyze_block", "block_analysis.analyze_block", self._on_report),
            (driver, "CSRGraph", "graph.CSRGraph", None),
            (executor, "CSRGraph", "graph.CSRGraph", None),
            (driver, "induced_subgraph", "graph.induced_subgraph", None),
            (driver, "induced_csr", "graph.induced_csr", None),
            (driver, "contained_mask", "filtering.contained_mask", None),
            (driver, "filter_min_size", "filtering.filter_min_size", None),
            (GlobalCliqueIndex, "add", "cliquestore.GlobalCliqueIndex.add", None),
            (driver, "fingerprint_run", "runs.fingerprint_run", None),
            (RunLog, "record", "runs.RunLog.record", self._on_flush),
            (RunLog, "replay_report", "runs.RunLog.replay_report", self._on_replay),
            (RunLog, "finalize", "runs.RunLog.finalize", None),
            (RunLog, "close", "runs.RunLog.close", None),
            (
                executor.SharedMemoryExecutor,
                "open_pipeline",
                "executor.open_pipeline",
                self._on_open_pipeline,
            ),
        ):
            self._patch(owner, attr, wrap(getattr(owner, attr), name, after))
        # Opening a resumed RunLog recovers every spilled segment, so it
        # gets its own span name: it is replay work, a fresh open is not.
        fresh = wrap(driver.RunLog, "runs.RunLog.open")
        resumed = wrap(driver.RunLog, "runs.RunLog.recover")
        self._patch(
            driver,
            "RunLog",
            lambda *args, **kwargs: (resumed if kwargs.get("resume") else fresh)(
                *args, **kwargs
            ),
        )
        self._patch(
            driver,
            "blocks_csr",
            self.wrap_generator(driver.blocks_csr, "blocks.blocks_csr", self._on_block),
        )
        for cls in (executor.SerialExecutor, executor.SharedMemoryExecutor):
            self._patch(
                cls,
                "map_blocks",
                self._wrap_map_blocks(
                    cls.map_blocks, f"executor.{cls.__name__}.map_blocks"
                ),
            )
        hooks = {"finish": self._on_finish, "close": self._on_close}
        for method in PIPELINE_SESSION_METHODS:
            self._patch(
                executor.PipelineSession,
                method,
                wrap(
                    getattr(executor.PipelineSession, method),
                    f"executor.PipelineSession.{method}",
                    hooks.get(method),
                ),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def layer_seconds(self) -> dict[str, float]:
        """Seconds per span name."""
        totals: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def coverage(self) -> tuple[float, float]:
        """(root seconds, seconds covered by the roots' direct children)."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == ROOT}
        root_s = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        covered = sum(
            span[2] - span[1] for span in self.spans if span[3] in roots
        )
        return root_s, covered

    def metrics(self, final_cliques: int) -> dict[str, float]:
        """The per-layer metrics of the traced pass (see README.md)."""
        by_name = self.layer_seconds()

        def seconds(*prefixes: str) -> float:
            return sum(v for k, v in by_name.items() if k.startswith(prefixes))

        reports = list(self.reports)
        for call in self.calls:
            reports.extend(call.reports)
        analysed = [r for r in reports if not r.extra.get("replayed")]
        block_s = sum(r.seconds for r in analysed)
        select_s = sum(r.extra.get("selection_seconds", 0.0) for r in analysed)
        merged_in = sum(len(r.cliques) for r in reports)

        map_s = busy_s = overhead_s = capacity = 0.0
        publish_s = 0.0
        publish_bytes = dispatch_bytes = retries = worker_rss_kb = 0
        for call in self.calls:
            interval = call.end - call.start
            trace = call.trace
            if trace is not None and trace.timings:
                busy = trace.worker_busy_seconds()
            else:
                busy = {0: sum(
                    r.seconds for r in call.reports if not r.extra.get("replayed")
                )}
            map_s += interval
            capacity += call.workers * interval
            busy_s += sum(busy.values())
            overhead_s += interval - max(busy.values(), default=0.0)
            if trace is not None:
                publish_s += trace.publish_seconds
                publish_bytes += trace.publish_bytes
                dispatch_bytes += trace.total_dispatch_bytes
                retries += len(trace.retried_blocks) + len(trace.retried_subtasks)
                worker_rss_kb = max(worker_rss_kb, trace.max_peak_rss_kb)

        root_s, covered = self.coverage()
        csr_s = seconds("graph.CSRGraph")
        induce_s = seconds("graph.induced")
        return {
            "graph.build_s": csr_s + induce_s,
            "graph.csr_build_s": csr_s,
            "graph.induce_s": induce_s,
            "graph.levels": float(
                sum(1 for span in self.spans if span[0].startswith("feasibility."))
            ),
            "feasibility.cut_s": seconds("feasibility."),
            "feasibility.hub_frac": _ratio(self.hubs, self.feasible + self.hubs),
            "blocks.build_s": seconds("blocks."),
            "blocks.count": float(self.blocks),
            "blocks.redundancy": _ratio(self.block_nodes, self.feasible),
            "decision.select_s": select_s,
            "block_analysis.block_s": block_s,
            "block_analysis.max_block_s": max(
                (r.seconds for r in analysed), default=0.0
            ),
            "mce.kernel_s": block_s - select_s,
            "mce.cliques_emitted": float(sum(len(r.cliques) for r in analysed)),
            "cliquestore.index_s": seconds("cliquestore."),
            "filtering.merge_s": seconds("filtering."),
            "filtering.kept_frac": _ratio(final_cliques, merged_in),
            "executor.map_s": map_s,
            "executor.submit_s": seconds("executor.PipelineSession.submit"),
            "executor.publish_s": publish_s,
            "executor.publish_bytes": float(publish_bytes),
            "executor.dispatch_bytes": float(dispatch_bytes),
            "executor.worker_busy_s": busy_s,
            "executor.idle_frac": (1.0 - busy_s / capacity) if capacity else 0.0,
            "executor.drain_s": seconds("executor.PipelineSession.finish"),
            "executor.overhead_s": overhead_s,
            "executor.retries": float(retries),
            "executor.worker_peak_rss_mb": worker_rss_kb / 1024.0,
            "runs.flush_s": seconds("runs.RunLog.record"),
            "runs.flush_bytes": float(self.flush_bytes),
            "runs.flushes": float(self.flushes),
            "runs.replay_s": seconds(
                "runs.RunLog.recover", "runs.RunLog.replay_report"
            ),
            "runs.replayed": float(self.replayed),
            "driver.self_s": root_s - covered,
            "trace.coverage": _ratio(covered, root_s),
        }

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (one track: the parent)."""
        pid = os.getpid()
        events = []
        for name, start, end, parent, run in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": {
                        "parent": self.spans[parent][0] if parent >= 0 else None,
                        "run": run,
                    },
                }
            )
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def _workers_of(executor) -> int:
    # SerialExecutor has no pool; a SharedMemoryExecutor without an
    # explicit size uses one worker per CPU.
    if not hasattr(executor, "max_workers"):
        return 1
    return executor.max_workers or os.cpu_count() or 1


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
