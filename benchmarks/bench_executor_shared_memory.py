"""Shared-memory executor — dispatch traffic and parallel speed-up.

The zero-copy executor publishes the level graph once as CSR segments
and ships each block as a tiny descriptor (three ``int64`` id arrays),
while ``ProcessExecutor`` pickles every block — nodes, edges, labels —
onto the pipe.  This bench quantifies both claims:

* per-block dispatch bytes: descriptors must be strictly smaller than
  pickled blocks, and the gap should widen with block size;
* wall-clock: on a multicore box (>= 4 cores) the shared executor must
  beat the serial baseline by >= 2x on a Barabasi-Albert graph.

The graph size defaults to a smoke-test scale so the module stays inside
CI budgets; set ``REPRO_BENCH_EXECUTOR_NODES=20000`` to reproduce the
acceptance-scale run from the issue.
"""

from __future__ import annotations

import os
import time

from conftest import ratio_to_m
from repro.analysis.report import format_table
from repro.core.block_analysis import analyze_blocks, descriptors_of
from repro.core.blocks import build_blocks
from repro.core.feasibility import cut
from repro.distributed.executor import (
    SharedMemoryExecutor,
    pickled_block_bytes,
)
from repro.graph.generators import barabasi_albert

NODES = int(os.environ.get("REPRO_BENCH_EXECUTOR_NODES", "4000"))
ATTACHMENT = 3
SEED = 7
RATIO = 0.5
WORKERS = min(4, os.cpu_count() or 1)


def _blocks():
    graph = barabasi_albert(NODES, ATTACHMENT, seed=SEED)
    m = ratio_to_m(graph, RATIO)
    feasible, _ = cut(graph, m)
    return graph, build_blocks(graph, feasible, m)


def test_shared_dispatch_bytes_beat_pickled_blocks(benchmark, emit):
    graph, blocks = _blocks()

    def run():
        executor = SharedMemoryExecutor(max_workers=WORKERS)
        executor.map_blocks(*descriptors_of(blocks, graph))
        return executor.last_trace

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    pickled = sum(pickled_block_bytes(block) for block in blocks)
    descriptor = trace.total_dispatch_bytes
    rows = [
        ["process (pickled blocks)", len(blocks), pickled, pickled // len(blocks)],
        ["shared (descriptors)", len(blocks), descriptor, descriptor // len(blocks)],
        ["shared one-time publish", 1, trace.publish_bytes, trace.publish_bytes],
    ]
    emit(
        "executor_dispatch_bytes",
        format_table(
            ["channel", "messages", "total bytes", "bytes/message"],
            rows,
            title=(
                f"Dispatch traffic on BA(n={NODES}, m={ATTACHMENT}) — "
                "descriptors vs pickled blocks"
            ),
        ),
    )
    # The tentpole claim: per-block traffic collapses once the graph is
    # published out of band.  The one-time publish is amortised across
    # the whole level, so it is reported but not charged per block.
    assert descriptor < pickled
    assert descriptor / len(blocks) < pickled / len(blocks)


def test_shared_executor_speedup_over_serial(benchmark, emit):
    graph, blocks = _blocks()

    start = time.perf_counter()
    serial_cliques, _ = analyze_blocks(blocks)
    serial_seconds = time.perf_counter() - start

    executor = SharedMemoryExecutor(max_workers=WORKERS)

    def run():
        return executor.map_blocks(*descriptors_of(blocks, graph))

    start = time.perf_counter()
    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    shared_seconds = time.perf_counter() - start

    shared_cliques = [c for report in reports for c in report.cliques]
    assert len(shared_cliques) == len(serial_cliques)

    speedup = serial_seconds / shared_seconds if shared_seconds else 0.0
    trace = executor.last_trace
    rows = [
        ["serial", 1, serial_seconds, 1.0],
        ["shared", WORKERS, shared_seconds, speedup],
    ]
    emit(
        "executor_shared_speedup",
        format_table(
            ["executor", "workers", "wall-clock (s)", "speed-up"],
            rows,
            title=(
                f"Shared-memory executor vs serial on BA(n={NODES}) — "
                f"{len(blocks)} blocks, publish {trace.publish_seconds:.3f}s, "
                f"peak worker RSS {trace.max_peak_rss_kb} kB"
            ),
        ),
    )
    # The >= 2x acceptance bar needs real cores; on smaller machines the
    # run still validates correctness and records the measured ratio.
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0
