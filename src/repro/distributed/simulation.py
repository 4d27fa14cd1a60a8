"""Replay-based cluster simulation.

The paper's wall-clock numbers come from OpenMPI on a physical cluster;
here the same question — *how long would this decomposition take on N
machines?* — is answered by replaying each block's **measured**
single-worker analysis time under a scheduling policy and the cluster's
network-cost model (DESIGN.md §2).  Because block analyses are mutually
independent (that is the whole point of the decomposition), makespan
under a schedule is an exact model of the parallel runtime, up to the
scheduler's own quality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.block_analysis import BlockDescriptor, BlockReport
from repro.core.blocks import Block
from repro.distributed.cluster import ClusterSpec
from repro.distributed.scheduler import SCHEDULERS, Schedule, Task
from repro.errors import SchedulingError
from repro.graph.csr import CSRGraph

# Serialised size model: one 8-byte id per node plus two per edge, which
# matches the ⟨n1, e, n2⟩ triple encoding with hashed labels.
_BYTES_PER_ID = 8


def block_bytes(block: Block) -> int:
    """Estimated serialised size of a block shipped to a worker."""
    return _BYTES_PER_ID * (block.graph.num_nodes + 2 * block.graph.num_edges)


def descriptor_bytes(descriptor: BlockDescriptor, csr: CSRGraph) -> int:
    """:func:`block_bytes` of the block ``descriptor`` names in ``csr``."""
    return _BYTES_PER_ID * (descriptor.size + 2 * descriptor.induced_edges(csr))


@dataclass(frozen=True)
class SimulatedRun:
    """Outcome of replaying one level's block analyses on a cluster."""

    schedule: Schedule
    serial_seconds: float
    makespan_seconds: float
    communication_seconds: float

    @property
    def speedup(self) -> float:
        """Serial time divided by simulated parallel time."""
        if self.makespan_seconds == 0.0:
            return 1.0
        return self.serial_seconds / self.makespan_seconds

    @property
    def skew(self) -> float:
        """Load imbalance of the underlying schedule."""
        return self.schedule.skew


def simulate_level(
    blocks: list[Block],
    reports: list[BlockReport],
    cluster: ClusterSpec,
    policy: str = "lpt",
) -> SimulatedRun:
    """Replay one recursion level's measured block costs on ``cluster``.

    Parameters
    ----------
    blocks, reports:
        Parallel lists from the decomposition and its analysis; report
        ``i`` must describe block ``i``.
    cluster:
        The target cluster description.
    policy:
        One of ``"lpt"``, ``"round_robin"``, ``"hash"``.

    Raises
    ------
    SchedulingError
        On mismatched inputs or an unknown policy.
    """
    if len(blocks) != len(reports):
        raise SchedulingError(
            f"{len(blocks)} blocks but {len(reports)} reports"
        )
    return simulate_tasks(
        [block_bytes(block) for block in blocks], reports, cluster, policy
    )


def simulate_reports(
    reports: list[BlockReport],
    cluster: ClusterSpec,
    policy: str = "lpt",
) -> SimulatedRun:
    """Replay measured block costs when block bodies are unavailable.

    Data-transfer cost is estimated from each report's feature record
    (node and edge counts) instead of the block graph itself, so results
    collected with ``collect_reports=True`` can be simulated without
    keeping the blocks alive.
    """
    return simulate_tasks(
        [
            _BYTES_PER_ID
            * (report.features.num_nodes + 2 * report.features.num_edges)
            for report in reports
        ],
        reports,
        cluster,
        policy,
    )


def simulate_tasks(
    data_bytes: list[int],
    reports: list[BlockReport],
    cluster: ClusterSpec,
    policy: str = "lpt",
) -> SimulatedRun:
    """Replay measured block costs, block ``i`` shipping ``data_bytes[i]``.

    Raises
    ------
    SchedulingError
        On an unknown policy.
    """
    try:
        scheduler = SCHEDULERS[policy]
    except KeyError:
        raise SchedulingError(
            f"unknown policy {policy!r}; known: {', '.join(SCHEDULERS)}"
        ) from None
    tasks = [
        Task(task_id=index, cost_seconds=report.seconds, data_bytes=size)
        for index, (size, report) in enumerate(zip(data_bytes, reports))
    ]
    schedule = scheduler(tasks, cluster)
    serial = sum(report.seconds for report in reports)
    communication = sum(
        cluster.transfer_seconds(task.data_bytes) for task in tasks
    )
    return SimulatedRun(
        schedule=schedule,
        serial_seconds=serial,
        makespan_seconds=schedule.makespan,
        communication_seconds=communication,
    )


def scaling_curve(
    reports: list[BlockReport],
    machine_counts: list[int],
    workers_per_machine: int = 16,
    policy: str = "lpt",
) -> list[tuple[int, float, float]]:
    """Simulated makespan and speed-up as the cluster grows.

    Returns one ``(machines, makespan_seconds, speedup)`` row per entry
    of ``machine_counts`` — the scalability experiment of Section 6.
    """
    rows: list[tuple[int, float, float]] = []
    for machines in machine_counts:
        cluster = ClusterSpec(
            machines=machines, workers_per_machine=workers_per_machine
        )
        run = simulate_reports(reports, cluster, policy=policy)
        rows.append((machines, run.makespan_seconds, run.speedup))
    return rows
