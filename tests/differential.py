"""Differential-testing harness for the block executors.

Every executor must produce the *same cliques* for the same blocks, for
every (algorithm × backend) combination the decision tree can choose —
the executors differ only in where the work runs and how it is shipped.
This module provides the canonical form used to compare outputs and the
helpers that run one configuration end to end; the actual matrix lives
in ``test_differential_executors.py``.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Callable, Iterable

from repro.core.block_analysis import BlockReport, descriptors_of
from repro.core.blocks import Block, build_blocks
from repro.core.driver import find_max_cliques
from repro.core.feasibility import cut
from repro.distributed.executor import (
    ProcessExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
)
from repro.graph.adjacency import Graph, Node
from repro.mce.registry import Combo

# Executor factories under differential test.  Two workers keep the
# process-based executors honest (real cross-process traffic) without
# oversubscribing CI machines.  ``shared-split`` forces anchor-level
# splitting on every splittable block (threshold 0, small chunks) so the
# subtask/steal/merge machinery is exercised even on the small test
# graphs whose blocks would never cross the adaptive threshold.
# ``serial-batch``/``shared-batch`` force multi-block bucket dispatch
# with an explicit cutoff large enough that every test-graph block
# batches, exercising the fused-kernel packing/demux path.
EXECUTOR_FACTORIES: dict[str, Callable[[], object]] = {
    "serial": SerialExecutor,
    "serial-batch": lambda: SerialExecutor(batch_blocks=True, batch_cutoff=64),
    "process": lambda: ProcessExecutor(max_workers=2),
    "shared": lambda: SharedMemoryExecutor(max_workers=2),
    "shared-split": lambda: SharedMemoryExecutor(
        max_workers=2, split=True, split_threshold=0.0, split_subtasks=3
    ),
    "shared-batch": lambda: SharedMemoryExecutor(
        max_workers=2, batch_blocks=True, batch_cutoff=64
    ),
}

# Full-driver configurations: every executor in barrier mode, plus the
# streaming decompose→dispatch pipeline (a driver mode riding on the
# shared-memory executor, not a separate executor class), with and
# without forced anchor-level splitting.  The ``-spill`` variants run
# the same configuration as a durable run (spill_dir into a throwaway
# directory), proving the record/replay plumbing changes nothing about
# the cliques produced.
DRIVER_MODES: tuple[str, ...] = (
    *sorted(EXECUTOR_FACTORIES),
    "shared-pipeline",
    "shared-pipeline-split",
    "shared-pipeline-batch",
    "shared-spill",
    "shared-pipeline-split-spill",
)

Canonical = tuple[tuple[str, ...], ...]


def canonical_cliques(cliques: Iterable[frozenset[Node]]) -> Canonical:
    """Order-independent canonical form of a clique collection.

    Each clique becomes a sorted tuple of ``repr`` strings (labels may be
    of mixed types), and the cliques themselves are sorted — two clique
    multisets are equal iff their canonical forms are equal.
    """
    return tuple(sorted(tuple(sorted(map(repr, clique))) for clique in cliques))


def canonical_report_cliques(reports: Iterable[BlockReport]) -> Canonical:
    """Canonical form of all cliques across a batch of block reports."""
    return canonical_cliques(
        clique for report in reports for clique in report.cliques
    )


def blocks_of(graph: Graph, m: int) -> list[Block]:
    """First-level blocks of ``graph`` at block size ``m``."""
    feasible, _ = cut(graph, m)
    return build_blocks(graph, feasible, m)


def run_blocks(
    executor_name: str,
    blocks: list[Block],
    graph: Graph,
    combo: Combo | None = None,
) -> Canonical:
    """Analyse ``blocks`` on the named executor; canonicalized output."""
    executor = EXECUTOR_FACTORIES[executor_name]()
    reports = executor.map_blocks(*descriptors_of(blocks, graph), combo=combo)
    return canonical_report_cliques(reports)


def run_driver(
    mode: str, graph: Graph, m: int, combo: Combo | None = None
) -> Canonical:
    """Full two-level enumeration through the named driver mode."""
    result = driver_result(mode, graph, m, combo=combo)
    return canonical_cliques(result.cliques)


def run_driver_levels(
    mode: str, graph: Graph, m: int, combo: Combo | None = None
) -> dict[int, Canonical]:
    """Per-recursion-level canonical clique sets of one driver run.

    The clique→level provenance is invariant to the kernel partition (a
    clique belongs to the first level where all its members are still
    present and one is feasible), so these sets must agree between
    every driver mode.
    """
    result = driver_result(mode, graph, m, combo=combo)
    by_level: dict[int, list] = {}
    for clique in result.cliques:
        by_level.setdefault(result.provenance[clique], []).append(clique)
    return {
        level: canonical_cliques(cliques) for level, cliques in by_level.items()
    }


def run_driver_floor(
    mode: str,
    graph: Graph,
    m: int,
    min_clique_size: int,
    combo: Combo | None = None,
) -> Canonical:
    """Floored enumeration through the named driver mode.

    The invariant under test: a floored run must equal the unfloored run
    of the same mode filtered to ``len(c) >= min_clique_size`` — block
    and anchor skipping may only remove work, never answers.
    """
    result = driver_result(
        mode, graph, m, combo=combo, min_clique_size=min_clique_size
    )
    return canonical_cliques(result.cliques)


def driver_result(
    mode: str,
    graph: Graph,
    m: int,
    combo: Combo | None = None,
    min_clique_size: int = 0,
    collect_reports: bool = False,
):
    """The :class:`CliqueResult` of one run through the named driver mode."""
    spill = mode.endswith("-spill")
    if spill:
        mode = mode[: -len("-spill")]
    # ``shared-prune`` is the shared-memory executor with a pruning floor
    # baked in; the floor argument still applies on top (max wins) so the
    # mode is usable from run_driver_floor as well.
    if mode == "shared-prune":
        mode = "shared"
        min_clique_size = max(min_clique_size, 3)
    pipeline = mode.startswith("shared-pipeline")
    if pipeline:
        if mode.endswith("-split"):
            executor_name = "shared-split"
        elif mode.endswith("-batch"):
            executor_name = "shared-batch"
        else:
            executor_name = "shared"
    else:
        executor_name = mode
    executor = (
        None if executor_name == "serial" else EXECUTOR_FACTORIES[executor_name]()
    )
    spill_dir = tempfile.mkdtemp(prefix="repro-spill-") if spill else None
    try:
        return find_max_cliques(
            graph,
            m,
            combo=combo,
            executor=executor,
            pipeline=pipeline,
            spill_dir=spill_dir,
            min_clique_size=min_clique_size,
            collect_reports=collect_reports,
        )
    finally:
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
