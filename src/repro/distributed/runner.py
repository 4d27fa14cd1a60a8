"""End-to-end distributed ``FIND-MAX-CLIQUES``.

:func:`run_distributed` is :func:`repro.core.driver.find_max_cliques`
with the blocks of every level dispatched through one executor —
by default a :class:`SimulatedExecutor`, which analyses the blocks
serially and replays their measured costs onto a simulated cluster.
The driver runs the recursion and the Lemma-1 merge; this module only
collects the executor's per-level :class:`SimulatedRun` records, so the
benchmarks can report both the exact clique output and the simulated
cluster wall-clock for the paper's Section 6 experiments.
"""

from __future__ import annotations

from repro.core.driver import find_max_cliques
from repro.core.result import CliqueResult
from repro.decision.tree import DecisionTree
from repro.distributed.cluster import ClusterSpec, paper_cluster
from repro.distributed.executor import SimulatedExecutor
from repro.distributed.simulation import SimulatedRun
from repro.graph.adjacency import Graph
from repro.mce.registry import Combo


class DistributedResult(CliqueResult):
    """A :class:`CliqueResult` extended with per-level simulated runs."""

    def __init__(self, base: CliqueResult, runs: list[SimulatedRun]) -> None:
        super().__init__(
            store=base.store,
            levels=base.levels,
            m=base.m,
            fallback_used=base.fallback_used,
            block_combos=base.block_combos,
            block_reports=base.block_reports,
        )
        self.runs = runs

    def simulated_makespan(self) -> float:
        """Total simulated cluster seconds across all recursion levels."""
        return sum(run.makespan_seconds for run in self.runs)

    def simulated_speedup(self) -> float:
        """Serial seconds over simulated seconds across all levels."""
        serial = sum(run.serial_seconds for run in self.runs)
        makespan = self.simulated_makespan()
        if makespan == 0.0:
            return 1.0
        return serial / makespan


def run_distributed(
    graph: Graph,
    m: int,
    cluster: ClusterSpec | None = None,
    executor=None,
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    fallback: str = "exact",
    min_adjacency: int = 1,
    policy: str = "lpt",
) -> DistributedResult:
    """Run the two-level decomposition with distributed block analysis.

    Either pass a ``cluster`` (a :class:`SimulatedExecutor` is built for
    it, scheduling under ``policy``) or an explicit ``executor`` (any
    object with the executors' ``map_blocks`` interface).  With neither,
    the paper's 10-machine testbed is simulated.  All other arguments
    match :func:`repro.core.driver.find_max_cliques`, which performs the
    run, so the clique output is the driver's.  ``runs`` holds one
    :class:`SimulatedRun` per analysed level when the executor is a
    :class:`SimulatedExecutor`, and is empty otherwise.

    Raises
    ------
    ValueError
        On a non-positive ``m``, or when both ``cluster`` and
        ``executor`` are given (the cluster would be ignored).
    ConvergenceError
        With ``fallback="raise"`` when ``m`` does not exceed the
        degeneracy of some residual level.
    """
    if cluster is not None and executor is not None:
        raise ValueError(
            "pass either cluster= or executor=, not both: the cluster only "
            "configures the SimulatedExecutor built when no executor is given"
        )
    if executor is None:
        executor = SimulatedExecutor(
            cluster=cluster if cluster is not None else paper_cluster(),
            policy=policy,
        )
    simulated = isinstance(executor, SimulatedExecutor)
    first_run = len(executor.runs) if simulated else 0
    result = find_max_cliques(
        graph,
        m,
        tree=tree,
        combo=combo,
        fallback=fallback,
        min_adjacency=min_adjacency,
        executor=executor,
    )
    runs = executor.runs[first_run:] if simulated else []
    return DistributedResult(result, runs)
