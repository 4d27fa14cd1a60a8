"""Harvesting selector training rows from real execution traces.

The paper fits its Section-4 decision tree once, on whole-graph timings
of a 50-graph corpus (Table 1).  This module closes the loop at the
granularity the selector actually operates on — *blocks*: every
enumeration already measures ``(block features, chosen combo, wall
time)`` per block, and those measurements are a free training corpus.

Three row sources feed the autotuner (``repro tune``):

* **live rows** — what the run actually did, read from collected
  :class:`~repro.core.block_analysis.BlockReport` lists, from an
  :class:`~repro.mce.instrumentation.ExecutionTrace` (every dispatch
  path records the chosen combo and feature vector in its
  :class:`~repro.mce.instrumentation.BlockTiming`), or replayed from a
  spill directory's segment files without re-running anything;
* **counterfactual rows** — the Table-1 labelling done per block: a
  sampled subset of the workload's blocks is re-analysed under *every*
  combination in the registry, so the learner sees what each block
  would have cost under the roads not taken;
* :func:`harvest_workload` — the one-call combination: enumerate once
  for live rows, then counterfactually relabel a sample of blocks.

Rows are deliberately dumb records; grouping rows into per-block
``(features → argmin combo)`` training samples is the job of
:func:`repro.decision.training.train_from_rows`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.decision.features import FEATURE_NAMES, BlockFeatures
from repro.errors import TrainingError
from repro.graph.adjacency import Graph
from repro.mce.instrumentation import ExecutionTrace
from repro.mce.registry import ALL_COMBOS, Combo

if TYPE_CHECKING:  # pragma: no cover - block_analysis imports the decision layer
    from repro.core.block_analysis import BlockDescriptor, BlockReport
    from repro.graph.csr import CSRGraph

# extra-dict flags worth keeping on a row: the dispatch knobs in effect
# when the measurement was taken (a batched measurement of a block is
# not interchangeable with a whole-block one).
_KNOB_FLAGS = ("batched", "split", "replayed", "retried")


@dataclass(frozen=True)
class TrainingRow:
    """One (features, combo, measured seconds) observation of one block.

    ``source`` is ``"live"`` (the run's own measurement), ``"replayed"``
    (recovered from a spill segment), or ``"counterfactual"`` (a forced
    re-run under a combo the selector did not pick).  ``knobs`` lists
    the dispatch flags in effect (``batched``/``split``/...), so a
    trainer can separate fused-bucket timings from whole-block ones.
    ``level``/``block_id`` identify the block within its run — rows
    sharing both describe the *same* block under different combos,
    which is what argmin labelling groups on.
    """

    features: BlockFeatures
    combo: str
    seconds: float
    source: str = "live"
    level: int = 0
    block_id: int = -1
    knobs: tuple[str, ...] = ()

    def vector(self) -> tuple[float, ...]:
        """The row's feature vector in :data:`FEATURE_NAMES` order."""
        return self.features.vector()


def _knobs_of(extra: dict) -> tuple[str, ...]:
    return tuple(flag for flag in _KNOB_FLAGS if extra.get(flag))


def rows_from_reports(
    reports, level: int = 0, source: str = "live"
) -> list[TrainingRow]:
    """One live row per :class:`BlockReport`, in block order."""
    rows: list[TrainingRow] = []
    for block_id, report in enumerate(reports):
        rows.append(
            TrainingRow(
                features=report.features,
                combo=report.combo.name,
                seconds=report.seconds,
                source="replayed" if report.extra.get("replayed") else source,
                level=level,
                block_id=block_id,
                knobs=_knobs_of(report.extra),
            )
        )
    return rows


def rows_from_result(result) -> list[TrainingRow]:
    """Live rows from a ``find_max_cliques(collect_reports=True)`` result.

    Raises
    ------
    TrainingError
        When the result carries no reports (run without
        ``collect_reports=True``).
    """
    if not result.block_reports:
        raise TrainingError(
            "result carries no block reports; run find_max_cliques with "
            "collect_reports=True to harvest from it"
        )
    rows: list[TrainingRow] = []
    for level, reports in enumerate(result.block_reports):
        rows.extend(rows_from_reports(reports, level=level))
    return rows


def rows_from_trace(trace: ExecutionTrace, level: int = 0) -> list[TrainingRow]:
    """Live rows from an executor's :class:`ExecutionTrace`.

    Every dispatch path (whole, split, batched, pipeline) records the
    chosen combo and feature vector in its block timings; records
    predating those fields (or replayed with zero measured time) are
    skipped rather than fabricated.
    """
    rows: list[TrainingRow] = []
    for timing in trace.timings:
        if not timing.combo or len(timing.features) != len(FEATURE_NAMES):
            continue
        if timing.replayed and timing.seconds == 0.0:
            continue
        rows.append(
            TrainingRow(
                features=BlockFeatures(
                    num_nodes=int(timing.features[0]),
                    num_edges=int(timing.features[1]),
                    density=timing.features[2],
                    degeneracy=int(timing.features[3]),
                    d_star=int(timing.features[4]),
                ),
                combo=timing.combo,
                seconds=timing.seconds,
                source="live",
                level=level,
                block_id=timing.block_id,
                knobs=("retried",) if timing.retried else (),
            )
        )
    return rows


def rows_from_run_dir(spill_dir: str | Path) -> list[TrainingRow]:
    """Replay a spill directory's segments into rows, re-running nothing.

    Reads every ``*.seg`` file with the torn-tail-tolerant recovery
    reader, so a crashed run's partial progress still harvests.  The
    stored reports carry their combo, features, and measured seconds —
    the time the block cost when it actually ran, not the (free) replay.

    Raises
    ------
    TrainingError
        When the directory holds no segment files at all.
    CorruptSegmentError
        On mid-file corruption (a torn tail is truncated, not an error).
    """
    from repro.runs.runlog import SEGMENT_SUFFIX
    from repro.runs.segments import decode_block_record, recover_segment

    directory = Path(spill_dir)
    paths = sorted(directory.glob(f"*{SEGMENT_SUFFIX}"))
    if not paths:
        raise TrainingError(f"no spill segments in {directory}")
    rows: list[TrainingRow] = []
    for path in paths:
        payloads, _ = recover_segment(path)
        for payload in payloads:
            level, block_id, report = decode_block_record(payload)
            rows.append(
                TrainingRow(
                    features=report.features,
                    combo=report.combo.name,
                    seconds=report.seconds,
                    source="replayed",
                    level=level,
                    block_id=block_id,
                    knobs=_knobs_of(report.extra),
                )
            )
    return rows


def counterfactual_rows(
    blocks: "list[tuple[int, int, LevelBlock]]",
    combos: tuple[Combo, ...] = ALL_COMBOS,
    repeats: int = 1,
) -> list[TrainingRow]:
    """Re-run each ``(level, block_id, block)`` under every combo.

    The paper's Table-1 labelling, done per block: every combination is
    timed on the same block (best of ``repeats``), so downstream
    argmin labelling knows the block's true winner rather than only the
    cost of whatever the current selector picked.  As a safety net the
    clique sets of all combos are compared — a combo that disagrees is
    a correctness bug, and silently training on its timing would be
    worse than crashing.

    Raises
    ------
    TrainingError
        On an empty combo tuple, a non-positive ``repeats``, or a
        clique-set disagreement between combos.
    """
    if not combos:
        raise TrainingError("no combinations to compare")
    if repeats < 1:
        raise TrainingError("repeats must be at least 1")
    rows: list[TrainingRow] = []
    for level, block_id, block in blocks:
        reference: set | None = None
        for combo in combos:
            best = float("inf")
            for _ in range(repeats):
                report = block.analyze(combo)
                best = min(best, report.seconds)
            cliques = {frozenset(clique) for clique in report.cliques}
            if reference is None:
                reference = cliques
            elif cliques != reference:
                raise TrainingError(
                    f"combo {combo.name} disagrees on block "
                    f"{level}.{block_id}: {len(cliques)} cliques vs "
                    f"{len(reference)} from {combos[0].name}"
                )
            rows.append(
                TrainingRow(
                    features=report.features,
                    combo=combo.name,
                    seconds=best,
                    source="counterfactual",
                    level=level,
                    block_id=block_id,
                )
            )
    return rows


@dataclass(frozen=True, eq=False)
class LevelBlock:
    """One block a run dispatches: a priced descriptor and its level CSR."""

    descriptor: "BlockDescriptor"
    csr: "CSRGraph"

    def analyze(self, combo: Combo | None = None) -> "BlockReport":
        """The driver's analysis of this block (``analyze_block_csr``)."""
        from repro.core.block_analysis import analyze_block_csr

        csr = self.csr
        return analyze_block_csr(
            self.descriptor, csr.indptr, csr.indices, csr.labels, combo=combo
        )


def workload_blocks(
    graph: Graph, m: int, min_adjacency: int = 1
) -> "list[tuple[int, int, LevelBlock]]":
    """Every ``(level, block_id, block)`` the decomposition would run.

    Walks the driver's own decomposition
    (:class:`repro.core.driver.Decomposition`) without analysing
    anything, so each ``(level, block_id)`` names the block that a run
    of ``find_max_cliques(graph, m)`` reports under the same key.  A
    level with no feasible node ends the walk (the driver's
    exact-fallback regime has no blocks to harvest).
    """
    from repro.core.driver import Decomposition
    from repro.graph.csr import CSRGraph

    out: list[tuple[int, int, LevelBlock]] = []
    walk = Decomposition(m, "exact", min_adjacency=min_adjacency)
    for level, csr in walk.levels(CSRGraph(graph)):
        for descriptor in level.blocks:
            block = LevelBlock(descriptor.priced(csr), csr)
            out.append((level.level, descriptor.block_id, block))
    return out


def sample_blocks(
    blocks: "list[tuple[int, int, LevelBlock]]",
    sample: int,
    seed: int = 0,
) -> "list[tuple[int, int, LevelBlock]]":
    """A deterministic sample of blocks, biased toward the expensive end.

    Half the budget goes to the costliest blocks (by the descriptors'
    estimated cost — they dominate total analysis time, so their labels
    matter most), the rest to a uniform draw over the remainder so
    small-block regimes stay represented.
    """
    if sample <= 0 or sample >= len(blocks):
        return list(blocks)
    by_cost = sorted(
        blocks,
        key=lambda item: item[2].descriptor.estimated_cost,
        reverse=True,
    )
    top = by_cost[: max(1, sample // 2)]
    rest = by_cost[len(top):]
    rng = random.Random(seed)
    fill = rng.sample(rest, min(sample - len(top), len(rest)))
    chosen = top + fill
    chosen.sort(key=lambda item: (item[0], item[1]))
    return chosen


@dataclass
class Harvest:
    """Outcome of :func:`harvest_workload`: the rows plus provenance."""

    rows: list[TrainingRow] = field(default_factory=list)
    blocks_total: int = 0
    blocks_sampled: int = 0

    @property
    def live_rows(self) -> int:
        return sum(1 for row in self.rows if row.source == "live")

    @property
    def counterfactual_rows(self) -> int:
        return sum(1 for row in self.rows if row.source == "counterfactual")


def harvest_workload(
    graph: Graph,
    m: int,
    combos: tuple[Combo, ...] = ALL_COMBOS,
    sample: int = 16,
    repeats: int = 1,
    seed: int = 0,
    min_adjacency: int = 1,
) -> Harvest:
    """Enumerate once for live rows, then counterfactually label a sample.

    The live pass runs the serial driver with ``collect_reports=True``
    (every block's chosen combo and measured time); the counterfactual
    pass re-runs ``sample`` blocks — picked by :func:`sample_blocks` —
    under every combo in ``combos``.  ``sample <= 0`` relabels *every*
    block (the full Table-1 treatment; expensive but exhaustive).
    """
    from repro.core.driver import find_max_cliques

    result = find_max_cliques(graph, m, collect_reports=True,
                              min_adjacency=min_adjacency)
    rows = rows_from_result(result)
    blocks = workload_blocks(graph, m, min_adjacency=min_adjacency)
    chosen = sample_blocks(blocks, sample, seed=seed) if blocks else []
    rows.extend(counterfactual_rows(chosen, combos=combos, repeats=repeats))
    return Harvest(
        rows=rows,
        blocks_total=len(blocks),
        blocks_sampled=len(chosen),
    )
