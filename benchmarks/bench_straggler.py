#!/usr/bin/env python
"""Straggler benchmark — anchor-level splitting vs whole-block dispatch.

The worst case for block-level parallelism is one block whose
Bron–Kerbosch cost dwarfs every other block's: whichever worker draws it
becomes the makespan while the rest drain the tiny blocks and idle
(reference [38] of the paper: "the analysis of few blocks takes far more
time than the rest").  Anchor-level splitting breaks that block into
per-anchor subtasks, so its cost spreads over the pool.

Methodology — same as ``bench_distributed_speedup.py``: per-task costs
are **measured** on a single worker (clean numbers, no contention), then
replayed under LPT onto a simulated 4-worker cluster
(:mod:`repro.distributed.simulation` is the local stand-in for the
paper's OpenMPI deployment).  The headline is the ratio of the replayed
makespans — unsplit over split — together with each schedule's
worker-idle fraction.  Real wall-clock times are reported alongside but
not gated: on a CI box with few free cores they measure the machine, not
the scheduler.

Both modes are verified clique-for-clique against the serial reference
before any number is reported; a mismatch aborts the run.

The full run exits nonzero when the makespan improvement misses the
``--target`` (default 1.5×); ``--quick`` (the CI smoke gate) only fails
on an outright regression (< 1.0×) or a clique mismatch.

Usage::

    PYTHONPATH=src python benchmarks/bench_straggler.py [--quick]
        [--output BENCH_straggler.json] [--workers 4] [--target 1.5]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.block_analysis import analyze_blocks, descriptors_of
from repro.core.blocks import build_blocks
from repro.core.feasibility import cut
from repro.decision.features import adaptive_split_threshold
from repro.distributed.cluster import ClusterSpec
from repro.distributed.executor import SharedMemoryExecutor
from repro.distributed.scheduler import Schedule, Task, schedule_lpt
from repro.graph.generators import planted_straggler

SEED = 41


def canonical(cliques) -> set:
    return {frozenset(map(repr, clique)) for clique in cliques}


def idle_fraction(schedule: Schedule) -> float:
    """Fraction of worker-seconds spent waiting under ``schedule``."""
    workers = len(schedule.worker_loads)
    if schedule.makespan == 0.0 or workers == 0:
        return 0.0
    return 1.0 - schedule.total_work / (workers * schedule.makespan)


def local_cluster(workers: int) -> ClusterSpec:
    """A shared-memory 'cluster': one machine, no network cost."""
    return ClusterSpec(
        machines=1,
        workers_per_machine=workers,
        latency_seconds=0.0,
        bandwidth_bytes_per_second=1e15,
    )


def replay(costs: list[float], workers: int) -> Schedule:
    tasks = [
        Task(task_id=index, cost_seconds=cost) for index, cost in enumerate(costs)
    ]
    return schedule_lpt(tasks, local_cluster(workers))


def measured_run(executor: SharedMemoryExecutor, blocks, graph):
    """One timed ``map_blocks``; returns (reports, trace, wall_seconds)."""
    start = time.perf_counter()
    reports = executor.map_blocks(*descriptors_of(blocks, graph))
    wall = time.perf_counter() - start
    return reports, executor.last_trace, wall


def fragment_costs(trace) -> list[float]:
    """Replayable per-task seconds of a split-mode run.

    Split blocks contribute one task per fragment (their merged
    block-level timing would double-count); unsplit blocks contribute
    their whole-block timing.
    """
    split_ids = set(trace.split_block_ids)
    costs = [t.seconds for t in trace.subtasks]
    costs.extend(
        t.seconds for t in trace.timings if t.block_id not in split_ids
    )
    return costs


def run_scenario(quick: bool, workers: int) -> dict:
    if quick:
        graph = planted_straggler(
            dense_nodes=26, dense_p=0.5, tiny_blocks=14, tiny_size=5, seed=SEED
        )
        m, subtasks = 32, 6
    else:
        graph = planted_straggler(
            dense_nodes=40, dense_p=0.5, tiny_blocks=30, tiny_size=6, seed=SEED
        )
        m, subtasks = 48, 8
    feasible, _ = cut(graph, m)
    blocks = build_blocks(graph, feasible, m)
    serial_cliques, serial_reports = analyze_blocks(blocks)
    reference = canonical(serial_cliques)

    # Measurement pass: one worker each, so per-task seconds are clean.
    # The split run uses the threshold the simulated cluster would pick.
    unsplit = SharedMemoryExecutor(max_workers=1)
    unsplit_reports, unsplit_trace, wall_unsplit = measured_run(
        unsplit, blocks, graph
    )
    threshold = adaptive_split_threshold(
        [report.features.estimated_cost() for report in serial_reports], workers
    )
    split = SharedMemoryExecutor(
        max_workers=1,
        split=True,
        split_threshold=threshold,
        split_subtasks=subtasks,
    )
    split_reports, split_trace, wall_split = measured_run(split, blocks, graph)

    for label, reports in (("unsplit", unsplit_reports), ("split", split_reports)):
        got = canonical(c for r in reports for c in r.cliques)
        if got != reference:
            raise SystemExit(f"{label} run lost cliques vs the serial reference")
    if not split_trace.splits:
        raise SystemExit("straggler block never crossed the split threshold")

    # Replay the measured costs onto the simulated cluster.
    unsplit_schedule = replay(
        [timing.seconds for timing in unsplit_trace.timings], workers
    )
    split_schedule = replay(fragment_costs(split_trace), workers)

    # Wall-clock comparison at the requested worker count (reported, not
    # gated: with fewer free cores than workers it measures the box).
    _, _, wall_unsplit_pool = measured_run(
        SharedMemoryExecutor(max_workers=workers), blocks, graph
    )
    _, _, wall_split_pool = measured_run(
        SharedMemoryExecutor(
            max_workers=workers,
            split=True,
            split_threshold=threshold,
            split_subtasks=subtasks,
        ),
        blocks,
        graph,
    )

    return {
        "scenario": "planted-straggler",
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "m": m,
        "blocks": len(blocks),
        "cliques": len(serial_cliques),
        "workers": workers,
        "split_threshold": threshold,
        "split_subtasks": subtasks,
        "blocks_split": len(split_trace.splits),
        "fragments": len(split_trace.subtasks),
        "unsplit_makespan_seconds": unsplit_schedule.makespan,
        "split_makespan_seconds": split_schedule.makespan,
        "makespan_improvement": unsplit_schedule.makespan
        / split_schedule.makespan,
        "unsplit_idle_fraction": idle_fraction(unsplit_schedule),
        "split_idle_fraction": idle_fraction(split_schedule),
        "unsplit_serial_seconds": unsplit_schedule.total_work,
        "split_serial_seconds": split_schedule.total_work,
        "wall_unsplit_1worker_seconds": wall_unsplit,
        "wall_split_1worker_seconds": wall_split,
        "wall_unsplit_pool_seconds": wall_unsplit_pool,
        "wall_split_pool_seconds": wall_split_pool,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller straggler, gate only on regression",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_straggler.json"),
        help="where to write the machine-readable results",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="simulated cluster width for the makespan replay",
    )
    parser.add_argument(
        "--target",
        type=float,
        default=1.5,
        help="required makespan improvement (full mode only)",
    )
    args = parser.parse_args(argv)

    result = run_scenario(args.quick, args.workers)
    result["quick"] = args.quick
    result["target"] = args.target
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    improvement = result["makespan_improvement"]
    print(
        f"straggler @ {args.workers} simulated workers: "
        f"makespan {result['unsplit_makespan_seconds']:.4f}s -> "
        f"{result['split_makespan_seconds']:.4f}s "
        f"({improvement:.2f}x, target {args.target:.2f}x)"
    )
    print(
        f"idle fraction {result['unsplit_idle_fraction']:.1%} -> "
        f"{result['split_idle_fraction']:.1%}; "
        f"{result['blocks_split']} block(s) split into "
        f"{result['fragments']} fragments"
    )
    print(f"wrote {args.output}")

    floor = 1.0 if args.quick else args.target
    if improvement < floor:
        print(
            f"FAIL: improvement {improvement:.2f}x below "
            f"{'regression floor' if args.quick else 'target'} {floor:.2f}x",
            file=sys.stderr,
        )
        return 1
    if args.quick and improvement < args.target:
        print(
            f"note: quick-mode improvement {improvement:.2f}x is below the "
            f"full-run target {args.target:.2f}x (gate is regression-only)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
