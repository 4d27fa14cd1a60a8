"""``FIND-MAX-CLIQUES`` (Alg. 1): the recursive two-level decomposition.

Each round (one "first-level decomposition" iteration):

1. ``CUT`` splits the current graph into feasible nodes and hubs;
2. ``BLOCKS`` partitions the feasible nodes into blocks;
3. ``BLOCK-ANALYSIS`` enumerates, per block, the maximal cliques touching
   that block's kernel — together these are exactly the maximal cliques
   of the current graph containing at least one feasible node;
4. the next round recurses on the subgraph induced by the hubs, whose
   degrees are strongly reduced.

Every driver mode runs steps 1, 2 and 4 through one walk
(:class:`Decomposition`) over CSR snapshots: ``cut_csr`` →
``blocks_csr`` → floor pricing → ``induced_csr``.  The barrier loop
analyses each level's descriptors with one ``map_blocks`` call; the
pipeline streams them into a worker pool as they are grown.

When the recursion bottoms out, levels are merged bottom-up with the
Lemma 1 filter: a deeper (hub-only) clique survives unless some
shallower clique contains it.  Theorem 1 guarantees the recursion
terminates whenever ``m`` exceeds the degeneracy of the input; the
driver enforces this with a convergence guard whose behaviour is chosen
by the ``fallback`` argument.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# analyze_block is unused here, but benchmarks/e2e/layertrace.py patches it
# and fails without it; drop it once that tracer spans executor analysis.
from repro.core.block_analysis import (  # noqa: F401
    BlockDescriptor,
    analyze_block,
    block_clique_bound_csr,
)
from repro.core.blocks import blocks_csr, build_blocks
from repro.core.cliquestore import CliqueStore, GlobalCliqueIndex
from repro.core.feasibility import cut, cut_csr
from repro.core.filtering import contained_mask, filter_min_size
from repro.core.result import CliqueResult, LevelStats
from repro.decision.features import BlockFeatures
from repro.decision.paper_tree import paper_tree, select_combo
from repro.decision.persistence import resolve_tree
from repro.decision.tree import DecisionTree
from repro.errors import ConvergenceError, ExecutorError
from repro.graph.adjacency import Graph, Node
from repro.graph.csr import BitmapScratch, CSRGraph, induced_csr
from repro.graph.views import induced_subgraph
from repro.mce.instrumentation import BlockBound
from repro.mce.registry import Combo
from repro.runs.manifest import fingerprint_run
from repro.runs.runlog import RunLog

FALLBACK_MODES: tuple[str, ...] = ("exact", "raise")


def find_max_cliques(
    graph: Graph,
    m: int,
    tree: "DecisionTree | str | None" = None,
    combo: Combo | None = None,
    fallback: str = "exact",
    min_adjacency: int = 1,
    collect_reports: bool = False,
    executor=None,
    pipeline: bool = False,
    split: bool = False,
    split_threshold: float | None = None,
    batch_blocks: bool = False,
    batch_cutoff: int | None = None,
    min_clique_size: int = 0,
    spill_dir=None,
    resume: bool = False,
) -> CliqueResult:
    """Enumerate every maximal clique of ``graph`` with block size ``m``.

    Parameters
    ----------
    graph:
        The network; it is not modified.
    m:
        Maximum number of nodes per block.  Completeness requires
        ``m > degeneracy(graph)`` (Theorem 1); smaller values trigger the
        ``fallback`` behaviour on the irreducible core.
    tree:
        Decision tree selecting the per-block (algorithm × structure)
        combination; defaults to the paper's published tree.  Also
        accepts a specification string resolved by
        :func:`repro.decision.persistence.resolve_tree`: ``"paper"``,
        ``"extended"``, a path to a saved tree JSON, or ``"auto"`` —
        the tree installed by ``repro tune`` (falling back to the paper
        tree when none is installed).  The resolved tree flows through
        every dispatch path: the serial loop, the shared-memory barrier
        (whole, split, and batched), and the streaming pipeline.
    combo:
        Force a fixed combination for every block instead of the tree.
    fallback:
        ``"exact"`` (default) — if some recursion level has no feasible
        node at all, run the best-fit exact MCE on the residual core and
        warn; ``"raise"`` — raise :class:`ConvergenceError` instead.
    min_adjacency:
        Density threshold for block growth (see
        :func:`repro.core.blocks.blocks_csr`).
    collect_reports:
        When true, keep every per-block :class:`BlockReport` (grouped by
        recursion level) on the result; the distributed simulator replays
        those measured costs.
    executor:
        An object with the executors' ``map_blocks`` interface (see
        :mod:`repro.distributed.executor`) used to analyse each level's
        blocks; ``None`` (the default) analyses them serially in-process
        through a :class:`~repro.distributed.executor.SerialExecutor`.
        The clique output is identical for every executor.
    pipeline:
        When true, stream each level's :class:`BlockDescriptor`\\ s into
        the executor's worker pool while the rest of the level and later
        levels are still being decomposed, instead of analysing one
        level at a time.  Both modes run the same decomposition over CSR
        snapshots, so they produce the same blocks and a byte-identical
        clique store.  Requires a
        :class:`~repro.distributed.executor.SharedMemoryExecutor` (one
        is constructed when ``executor`` is ``None``).
    split:
        Enable anchor-level splitting of straggler blocks (see
        ``docs/scheduling.md``): blocks whose estimated cost exceeds the
        split threshold are expanded into independently scheduled
        subtasks.  Requires a shared-memory executor (barrier or
        pipeline mode); the clique output is identical either way.
    split_threshold:
        Override the adaptive split threshold with a fixed cost value;
        requires ``split=True``.
    batch_blocks:
        Enable multi-block batched dispatch (see ``docs/batching.md``):
        small same-padded-shape blocks are packed into buckets and each
        bucket runs as one fused multi-block kernel, amortizing per-block
        dispatch overhead in the many-small-blocks regime.  Works with
        the serial in-process path, a
        :class:`~repro.distributed.executor.SerialExecutor`, or a
        :class:`~repro.distributed.executor.SharedMemoryExecutor`
        (barrier or pipeline, with or without ``split``); the clique
        output is identical either way.
    batch_cutoff:
        Override the adaptive node-count cutoff below which blocks are
        batched; requires ``batch_blocks=True``.
    min_clique_size:
        Enumeration floor (see ``docs/maximum.md``): only maximal
        cliques with at least this many members are returned.  Beyond
        filtering the output, the floor *prunes the search*: every block
        is priced with a cheap clique upper bound
        (:func:`repro.core.block_analysis.block_clique_bound_csr`) and
        skipped outright when the bound falls below the floor, and
        inside analysed blocks, anchors whose candidate neighbourhood
        cannot reach the floor are skipped before their Bron–Kerbosch
        sweep.  The returned cliques are exactly the size-``≥ floor``
        subset of an unfloored run; the ``pruning`` digest on the result
        records how much work the bounds avoided.  ``0`` (the default)
        disables the floor entirely.
    spill_dir:
        Directory for a *durable* run (see ``docs/durability.md``): as
        blocks finish, their reports are appended to CRC-checked segment
        files and the completed block ids are recorded in an atomically
        updated manifest, so a crash loses at most the blocks in flight.
        Works with every executor, in barrier and pipeline modes.
    resume:
        Continue a durable run that crashed (or finished) in
        ``spill_dir``: the manifest is validated against the current
        graph/config fingerprint, every completed block is skipped and
        its spilled report replayed, and a torn final record left by a
        crash mid-write is truncated.  The clique output is identical to
        an uninterrupted run.  Requires ``spill_dir``.

    Returns
    -------
    CliqueResult
        All maximal cliques with per-clique provenance (the recursion
        level that produced each) and per-level statistics.

    Raises
    ------
    ValueError
        On a non-positive ``m``, an unknown ``fallback`` mode, or a
        setting that would be ignored (``split_threshold`` without
        ``split``, ``batch_cutoff`` without ``batch_blocks``, ``resume``
        without ``spill_dir``).
    ConvergenceError
        With ``fallback="raise"`` when ``m`` is at most the degeneracy of
        the residual graph at some level.
    """
    _check_m_and_fallback(m, fallback)
    if resume and spill_dir is None:
        raise ValueError("resume=True requires spill_dir")
    if split_threshold is not None and not split:
        raise ValueError("split_threshold requires split=True")
    if batch_cutoff is not None and not batch_blocks:
        raise ValueError("batch_cutoff requires batch_blocks=True")
    if min_clique_size < 0:
        raise ValueError("min_clique_size must be non-negative")
    resolved_tree = resolve_tree(tree)
    selection_tree = resolved_tree if resolved_tree is not None else paper_tree()
    if split:
        executor = _configure_split(executor, split_threshold, pipeline)
    if batch_blocks:
        executor = _configure_batch(executor, batch_cutoff, pipeline)
    if executor is None:
        from repro.distributed.executor import SerialExecutor, SharedMemoryExecutor

        executor = SharedMemoryExecutor() if pipeline else SerialExecutor()
    if min_clique_size > 0:
        executor = _configure_prune(executor, min_clique_size)
    run_log: RunLog | None = None
    if spill_dir is not None:
        # Recorded block ids name the blocks_csr partition.  Barrier runs
        # once recorded ids of a different partition under mode
        # "barrier", so barrier runs carry "barrier/csr" and never
        # resume such a directory.  The floor changes which blocks are
        # recorded, so it is part of the run's identity too.
        mode = "pipeline" if pipeline else "barrier/csr"
        if min_clique_size > 0:
            mode += f"+floor{min_clique_size}"
        run_log = RunLog(
            spill_dir,
            fingerprint_run(
                graph,
                m,
                min_adjacency,
                mode=mode,
                combo=combo.name if combo is not None else None,
            ),
            resume=resume,
        )
    walk = Decomposition(m, fallback, min_adjacency, min_clique_size)
    enumerate_levels = _pipeline_levels if pipeline else _barrier_levels
    try:
        levels = enumerate_levels(
            walk, CSRGraph(graph), selection_tree, combo, executor, run_log
        )
        return _assemble(
            walk,
            levels,
            selection_tree,
            combo,
            collect_reports,
            min_clique_size,
            executor,
            run_log,
        )
    finally:
        if run_log is not None:
            run_log.close()


def _check_m_and_fallback(m: int, fallback: str) -> None:
    if m < 1:
        raise ValueError("block size m must be at least 1")
    if fallback not in FALLBACK_MODES:
        raise ValueError(
            f"unknown fallback mode {fallback!r}; known: {', '.join(FALLBACK_MODES)}"
        )


@dataclass
class _Level:
    """One recursion level: what the walk found and what analysis made of it.

    ``block_ids`` lists the dispatched blocks (the floor-skipped ones are
    absent) in emission order; ``reports`` follows it.
    """

    level: int
    num_nodes: int
    num_edges: int
    num_feasible: int
    num_hubs: int
    start: float
    blocks: Iterator[BlockDescriptor] = field(default_factory=lambda: iter(()))
    block_ids: list[int] = field(default_factory=list)
    decomposition_seconds: float = 0.0
    analysis_seconds: float = 0.0
    reports: list = field(default_factory=list)

    def stats(self, cliques_found: int, fallback_used: bool = False) -> LevelStats:
        return LevelStats(
            level=self.level,
            num_nodes=self.num_nodes,
            num_edges=self.num_edges,
            num_feasible=self.num_feasible,
            num_hubs=self.num_hubs,
            num_blocks=len(self.block_ids),
            decomposition_seconds=self.decomposition_seconds,
            analysis_seconds=self.analysis_seconds,
            cliques_found=cliques_found,
            fallback_used=fallback_used,
        )


class Decomposition:
    """Alg. 1's recursion over CSR snapshots, one level at a time.

    :meth:`levels` walks down from the input's CSR and yields each level
    with its CSR: ``cut_csr`` splits it, ``induced_csr`` builds the next
    level from the hubs, and
    ``level.blocks`` streams the ``blocks_csr`` descriptors that survive
    the floor (blocks whose ``block_clique_bound_csr`` falls below
    ``min_clique_size`` are recorded in :attr:`bounds` and skipped).
    Consume a level's blocks before asking for the next level.  A level
    with no feasible node ends the walk: ``fallback="raise"`` raises
    :class:`ConvergenceError`, otherwise the residual core is kept in
    :attr:`residual` with its level.
    """

    def __init__(
        self,
        m: int,
        fallback: str,
        min_adjacency: int = 1,
        min_clique_size: int = 0,
        seed_order: str = "insertion",
    ) -> None:
        self.m = m
        self.fallback = fallback
        self.min_adjacency = min_adjacency
        self.min_clique_size = min_clique_size
        self.seed_order = seed_order
        self.blocks_total = 0
        self.blocks_skipped = 0
        self.bounds: list[BlockBound] = []
        self.residual: tuple[_Level, CSRGraph] | None = None

    def levels(self, current: CSRGraph) -> Iterator[tuple[_Level, CSRGraph]]:
        level = 0
        while current.num_nodes > 0:
            start = time.perf_counter()
            feasible_ids, hub_ids = cut_csr(current, self.m)
            if not len(feasible_ids):
                if self.fallback == "raise":
                    raise ConvergenceError(
                        f"no feasible node at recursion level {level}: block "
                        f"size {self.m} does not exceed the degeneracy of the "
                        f"residual graph ({current.num_nodes} nodes remain)",
                        core_size=current.num_nodes,
                    )
                core = _Level(
                    level,
                    current.num_nodes,
                    current.num_edges,
                    0,
                    current.num_nodes,
                    start,
                    decomposition_seconds=time.perf_counter() - start,
                )
                self.residual = (core, current)
                return
            next_csr = induced_csr(current, hub_ids) if len(hub_ids) else None
            info = _Level(
                level,
                current.num_nodes,
                current.num_edges,
                len(feasible_ids),
                len(hub_ids),
                start,
            )
            info.blocks = self._kept(info, current, feasible_ids)
            yield info, current
            if next_csr is None:
                return
            current = next_csr
            level += 1

    def _kept(
        self, info: _Level, csr: CSRGraph, feasible_ids
    ) -> Iterator[BlockDescriptor]:
        floor = self.min_clique_size
        scratch = BitmapScratch() if floor > 1 else None
        for descriptor in blocks_csr(
            csr,
            feasible_ids,
            self.m,
            min_adjacency=self.min_adjacency,
            seed_order=self.seed_order,
        ):
            self.blocks_total += 1
            if floor > 1:
                # A block whose bound falls below the floor cannot emit
                # a surviving clique, so it never reaches an executor.
                bound = block_clique_bound_csr(
                    descriptor, csr.indptr, csr.indices, scratch
                )
                skipped = bound < floor
                self.bounds.append(
                    BlockBound(
                        level=info.level,
                        block_id=descriptor.block_id,
                        bound=bound,
                        floor=floor,
                        skipped=skipped,
                    )
                )
                if skipped:
                    self.blocks_skipped += 1
                    continue
            info.block_ids.append(descriptor.block_id)
            yield descriptor


def _barrier_levels(
    walk: Decomposition,
    csr: CSRGraph,
    selection_tree: DecisionTree,
    combo: Combo | None,
    executor,
    run_log: RunLog | None,
) -> list[_Level]:
    """The level-synchronous loop: one ``map_blocks`` call per level."""
    levels: list[_Level] = []
    for level, csr in walk.levels(csr):
        descriptors = list(level.blocks)
        analysis_start = time.perf_counter()
        level.decomposition_seconds = analysis_start - level.start
        level.reports = executor.map_blocks(
            descriptors,
            csr,
            tree=selection_tree,
            combo=combo,
            run_log=run_log,
            level=level.level,
        )
        level.analysis_seconds = time.perf_counter() - analysis_start
        levels.append(level)
    return levels


def _pipeline_levels(
    walk: Decomposition,
    csr: CSRGraph,
    selection_tree: DecisionTree,
    combo: Combo | None,
    executor,
    run_log: RunLog | None,
) -> list[_Level]:
    """The streaming loop: descriptors enter the pool as they are grown.

    Each level's CSR is published before its blocks stream into the
    :class:`~repro.distributed.executor.PipelineSession`, whose workers
    analyse them while later levels are still being decomposed; the
    single synchronization point is ``session.finish()`` after the
    *last* level.  A level's ``analysis_seconds`` is therefore the
    serial-equivalent sum of its per-block times, not a wall-clock
    interval (blocks of different levels overlap by design).
    """
    from repro.distributed.executor import SharedMemoryExecutor

    if not isinstance(executor, SharedMemoryExecutor):
        raise ExecutorError(
            "pipeline mode streams BlockDescriptors over shared memory and "
            f"requires a SharedMemoryExecutor, got {type(executor).__name__}"
        )
    levels: list[_Level] = []
    session = executor.open_pipeline(
        tree=selection_tree, combo=combo, run_log=run_log
    )
    try:
        for level, csr in walk.levels(csr):
            session.publish_level(level.level, csr)
            for descriptor in level.blocks:
                session.submit(level.level, descriptor)
            level.decomposition_seconds = time.perf_counter() - level.start
            session.end_level(
                level.level,
                level.decomposition_seconds,
                len(level.block_ids),
                level.num_feasible,
                level.num_hubs,
            )
            levels.append(level)
        grouped = session.finish()
    finally:
        session.close()
    for level in levels:
        by_id = grouped.get(level.level, {})
        level.reports = [by_id[block_id] for block_id in level.block_ids]
        level.analysis_seconds = sum(report.seconds for report in level.reports)
    return levels


def _assemble(
    walk: Decomposition,
    levels: list[_Level],
    selection_tree: DecisionTree,
    combo: Combo | None,
    collect_reports: bool,
    min_clique_size: int,
    executor,
    run_log: RunLog | None,
) -> CliqueResult:
    """The :class:`CliqueResult` of a walk whose levels were analysed.

    Each level's cliques join the run-wide id space in level order, a
    non-convergent residual core is enumerated exactly (with a warning)
    as the last level, and the levels merge bottom-up under Lemma 1.
    """
    level_cliques: list[CliqueStore] = []
    level_stats: list[LevelStats] = []
    level_reports: list[list] = []
    combo_counter: Counter[str] = Counter()
    clique_index = GlobalCliqueIndex()
    anchors_skipped = 0
    for level in levels:
        cliques = filter_min_size(
            _level_cliques_of(level.reports, clique_index), min_clique_size
        )
        for report in level.reports:
            combo_counter[report.combo.name] += 1
            anchors_skipped += int(report.extra.get("anchors_skipped", 0.0))
        if collect_reports:
            level_reports.append(level.reports)
        level_cliques.append(cliques)
        level_stats.append(level.stats(len(cliques)))
    if walk.residual is not None:
        level, core = walk.residual
        warnings.warn(
            f"FIND-MAX-CLIQUES did not converge at level {level.level} "
            f"(m={walk.m} <= degeneracy of the residual core of "
            f"{core.num_nodes} nodes); falling back to exact "
            "enumeration on the core",
            RuntimeWarning,
            stacklevel=3,
        )
        cliques, level.analysis_seconds, used = _exact_core(
            core.to_graph(), selection_tree, combo
        )
        combo_counter[used.name] += 1
        cliques = filter_min_size(clique_index.add(cliques), min_clique_size)
        level_cliques.append(cliques)
        level_stats.append(level.stats(len(cliques), fallback_used=True))
    store = _lemma1_merge(level_cliques)
    # The executor's trace is reset on every map_blocks call, so the
    # bound records are replayed into the *final* trace, where they
    # describe the whole run.
    trace = getattr(executor, "last_trace", None)
    if trace is not None:
        for record in walk.bounds:
            trace.record_bound(record)
    run_info = None
    if run_log is not None:
        run_log.finalize()
        run_info = _run_info(run_log)
    return CliqueResult(
        store=store,
        levels=level_stats,
        m=walk.m,
        fallback_used=walk.residual is not None,
        block_combos=dict(combo_counter),
        block_reports=level_reports,
        run_info=run_info,
        pruning=_pruning_info(
            min_clique_size, walk.blocks_total, walk.blocks_skipped, anchors_skipped
        ),
    )


def _pruning_info(
    min_clique_size: int,
    blocks_total: int,
    blocks_skipped: int,
    anchors_skipped: int,
) -> dict | None:
    """Bound-pruning digest for :attr:`CliqueResult.pruning`."""
    if min_clique_size <= 0:
        return None
    return {
        "min_clique_size": min_clique_size,
        "blocks_total": blocks_total,
        "blocks_skipped": blocks_skipped,
        "anchors_skipped": anchors_skipped,
    }


def _run_info(run_log: RunLog) -> dict:
    """Durability digest attached to the result of a spill run."""
    return {
        "spill_dir": str(run_log.directory),
        "resumed": run_log.resumed,
        "blocks_replayed": run_log.num_recovered,
        "blocks_recorded": len(run_log.flushes),
        "flush_seconds": sum(flush.seconds for flush in run_log.flushes),
        "flush_bytes": sum(flush.segment_bytes for flush in run_log.flushes),
        "segments": list(run_log.manifest.segments),
    }


def decompose_only(
    graph: Graph, m: int, min_adjacency: int = 1, fallback: str = "exact"
) -> tuple[list[LevelStats], int]:
    """The dict-``Graph`` reference decomposition, skipping clique analysis.

    Alg. 2/3 as the paper writes them, over ``Graph`` objects: ``cut``,
    ``build_blocks`` and ``induced_subgraph`` per level.  No driver mode
    runs this walk (they run :func:`decompose_only_csr`'s); the
    paper-figure benchmarks time it and the tests compare against it.
    Its partition may differ from the driver's, but the per-level
    node, edge, feasible and hub counts do not.  Returns the per-level
    statistics (analysis fields zeroed) and the number of first-level
    iterations performed.

    Raises
    ------
    ConvergenceError
        With ``fallback="raise"`` on a non-convergent ``m``.
    """
    _check_m_and_fallback(m, fallback)
    stats: list[LevelStats] = []
    current = graph
    level = 0
    while current.num_nodes > 0:
        start = time.perf_counter()
        feasible, hubs = cut(current, m)
        if not feasible:
            if fallback == "raise":
                raise ConvergenceError(
                    f"no feasible node at recursion level {level}",
                    core_size=current.num_nodes,
                )
            break
        blocks = build_blocks(current, feasible, m, min_adjacency=min_adjacency)
        seconds = time.perf_counter() - start
        stats.append(
            LevelStats(
                level=level,
                num_nodes=current.num_nodes,
                num_edges=current.num_edges,
                num_feasible=len(feasible),
                num_hubs=len(hubs),
                num_blocks=len(blocks),
                decomposition_seconds=seconds,
                analysis_seconds=0.0,
                cliques_found=0,
            )
        )
        if not hubs:
            break
        current = induced_subgraph(current, hubs)
        level += 1
    return stats, len(stats)


def _configure_split(executor, split_threshold: float | None, pipeline: bool):
    """Apply the driver's split settings to the executor.

    Splitting happens inside the shared-memory dispatch loop, so it
    needs a :class:`~repro.distributed.executor.SharedMemoryExecutor`
    (in barrier or pipeline mode); asking for it on the serial or
    process executor is an error rather than a silent no-op.
    """
    from repro.distributed.executor import SharedMemoryExecutor

    if executor is None and pipeline:
        executor = SharedMemoryExecutor()
    if not isinstance(executor, SharedMemoryExecutor):
        raise ExecutorError(
            "anchor-level splitting (split=True) requires a "
            "SharedMemoryExecutor; got "
            f"{type(executor).__name__ if executor is not None else 'the serial in-process path'}"
        )
    executor.split = True
    if split_threshold is not None:
        executor.split_threshold = split_threshold
    return executor


def _configure_batch(executor, batch_cutoff: int | None, pipeline: bool):
    """Apply the driver's batching settings to the executor.

    Batched dispatch is implemented by the serial and shared-memory
    executors (the process executor maps single descriptors and has no
    bucket path); asking for it elsewhere is an error rather than a
    silent no-op.  With no executor given, a
    batching :class:`~repro.distributed.executor.SerialExecutor` (or, in
    pipeline mode, a :class:`~repro.distributed.executor.SharedMemoryExecutor`)
    is constructed.
    """
    from repro.distributed.executor import SerialExecutor, SharedMemoryExecutor

    if executor is None:
        executor = SharedMemoryExecutor() if pipeline else SerialExecutor()
    if not isinstance(executor, (SerialExecutor, SharedMemoryExecutor)):
        raise ExecutorError(
            "batched dispatch (batch_blocks=True) requires a SerialExecutor "
            f"or a SharedMemoryExecutor; got {type(executor).__name__}"
        )
    executor.batch_blocks = True
    if batch_cutoff is not None:
        executor.batch_cutoff = batch_cutoff
    return executor


def _configure_prune(executor, min_clique_size: int):
    """Propagate the enumeration floor to the executor's workers.

    Every executor that carries a ``min_clique_size`` field forwards it
    to the block-analysis workers, which then skip anchors whose
    candidate neighbourhood cannot reach the floor.  Executors without
    the field (e.g. the replay simulator) simply analyse every anchor —
    the floor stays *correct* regardless, because the driver prices and
    skips whole blocks itself and floor-filters each level's cliques;
    worker-side anchor skipping is purely an optimisation.
    """
    if executor is not None and hasattr(executor, "min_clique_size"):
        executor.min_clique_size = min_clique_size
    return executor


def decompose_only_csr(
    graph: Graph | CSRGraph,
    m: int,
    min_adjacency: int = 1,
    seed_order: str = "insertion",
    fallback: str = "exact",
) -> tuple[list[LevelStats], int]:
    """The driver's decomposition walk, without clique analysis.

    Runs ``cut_csr`` → ``blocks_csr`` → ``induced_csr`` per level
    exactly as :func:`find_max_cliques` does, consuming the descriptor
    stream without dispatching it.  Accepts a dict ``Graph`` (converted
    once up front) or an existing :class:`CSRGraph`; the per-level
    statistics mirror :func:`decompose_only`, so the decomposition
    benchmark compares the two paths like for like.  A non-convergent
    level ends the walk quietly under ``fallback="exact"``.

    Raises
    ------
    ConvergenceError
        With ``fallback="raise"`` on a non-convergent ``m``.
    """
    _check_m_and_fallback(m, fallback)
    walk = Decomposition(
        m, fallback, min_adjacency=min_adjacency, seed_order=seed_order
    )
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
    stats: list[LevelStats] = []
    for level, _ in walk.levels(csr):
        for _ in level.blocks:
            pass
        level.decomposition_seconds = time.perf_counter() - level.start
        stats.append(level.stats(0))
    return stats, len(stats)


def _exact_core(
    graph: Graph, tree: DecisionTree, combo: Combo | None
) -> tuple[list[frozenset[Node]], float, Combo]:
    """Best-fit exact enumeration on a non-convergent residual core."""
    chosen = combo if combo is not None else select_combo(
        tree, BlockFeatures.of(graph)
    )
    start = time.perf_counter()
    cliques = list(chosen.run(graph))
    return cliques, time.perf_counter() - start, chosen


def _level_cliques_of(
    reports: list, clique_index: GlobalCliqueIndex
) -> CliqueStore:
    """Assemble one level's cliques from its block reports.

    Each report is remapped into the run-wide vertex-id space — one
    small Python loop over the block's member labels plus one vectorized
    gather — and the stores are concatenated as raw buffers; no clique
    is decoded.  A report replayed from a legacy pickled spill record
    carries a frozenset list, which :meth:`GlobalCliqueIndex.add` packs.
    """
    merged = CliqueStore.concat(
        [clique_index.add(report.cliques) for report in reports]
    )
    if merged.labels is None:
        merged = merged.with_labels(clique_index.labels)
    return merged


def _lemma1_merge(level_stores: list[CliqueStore]) -> CliqueStore:
    """Merge per-level cliques bottom-up with the Lemma 1 filter.

    Deeper levels are filtered against shallower ones, so a hub-only
    clique survives only when no feasible-side clique contains it.
    Containment runs in int space
    (:func:`~repro.core.filtering.contained_mask`) and the provenance is
    the merged store's per-clique ``levels`` array.  All stores share the
    driver's run-wide id space, so survivors concatenate as raw buffers.
    """
    merged = CliqueStore.empty()
    labels = next(
        (store.labels for store in level_stores if store.labels is not None),
        None,
    )
    for level in range(len(level_stores) - 1, -1, -1):
        feasible_side = level_stores[level]
        feasible_side.levels = np.full(
            len(feasible_side), level, dtype=np.int32
        )
        surviving = merged.select(~contained_mask(merged, feasible_side))
        merged = CliqueStore.concat([feasible_side, surviving])
    if merged.labels is None and labels is not None:
        merged = merged.with_labels(labels)
    if merged.levels is None:
        merged.levels = np.zeros(len(merged), dtype=np.int32)
    return merged
