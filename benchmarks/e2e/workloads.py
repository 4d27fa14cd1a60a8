"""The four end-to-end workloads: inputs, warm-up, and the calls they time.

Every workload is a list of :class:`Case` s, each one call of
``find_max_cliques``.  A *pass* runs every case once, in order.  Inputs
are built from the workload seed alone, so the same seed always yields
the same graphs and the same cases.

Seed 0 is the calibrated input set (the dataset stand-ins, the
``bench_resultplane`` dense corpus, the hub graph).  Any other seed
relabels every graph through a seeded permutation of its nodes: node ids
and insertion order change, so the decomposition grows its blocks in a
different order, but the graph stays isomorphic.  Every seed therefore
has the same clique count and the same maximum degree and degeneracy
(hence the same ``m``), and the spread across seeds measures the
program, not the generator.  Regenerating the graphs from a new generator
seed instead moves the paper-sweep clique count between 377k and 440k,
which is larger than any regression bound the benchmark could hold.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Pool size for the two executor workloads; equals nproc on the
# reference machine (see README.md).
WORKERS = 2

RATIOS: tuple[float, ...] = (0.9, 0.7, 0.5, 0.3, 0.1)
# The reduced stand-ins keep their planted cliques, so at m/d 0.1 the
# block size falls below their degeneracy and the driver falls back to
# exact enumeration; quick mode samples the sweep's two ends above that.
QUICK_RATIOS: tuple[float, ...] = (0.9, 0.3)
DURABLE_RATIO = 0.5


@dataclass(frozen=True)
class Case:
    """One timed call: ``find_max_cliques`` on ``graph`` with block size ``m``.

    ``mode`` picks the call: ``serial`` (defaults), ``pipeline`` and
    ``barrier`` (a two-worker ``SharedMemoryExecutor``), ``record`` (a
    durable run into a fresh spill directory) and ``resume`` (a resume of
    the ``record`` case on the same graph earlier in the pass).
    """

    label: str
    graph: str
    m: int
    mode: str


@dataclass
class Inputs:
    """Everything a workload process builds before timing starts."""

    graphs: dict
    cases: list[Case]
    warmup: list[Case]


def shuffled(graph, seed: int, salt: str):
    """``graph`` under a seeded node permutation (identity for seed 0)."""
    if seed == 0:
        return graph
    from repro.graph.adjacency import Graph

    order = list(graph.nodes())
    random.Random(f"{salt}:{seed}").shuffle(order)
    new_id = {node: i for i, node in enumerate(order)}
    out = Graph(nodes=range(len(order)))
    out.add_edges((new_id[u], new_id[v]) for u, v in graph.edges())
    return out


def _standins(seed: int, quick: bool) -> dict:
    from repro.graph.datasets import DATASETS

    graphs = {}
    for name, spec in DATASETS.items():
        if quick:
            spec = dataclasses.replace(spec, nodes=spec.nodes // 8)
        graphs[name] = shuffled(spec.build(), seed, name)
    return graphs


def _ratio_m(graph, ratio: float) -> int:
    return max(2, int(ratio * graph.max_degree()))


def paper_sweep(seed: int, quick: bool) -> Inputs:
    graphs = _standins(seed, quick)
    cases = [
        Case(f"{name}@{ratio}", name, _ratio_m(graph, ratio), "serial")
        for name, graph in graphs.items()
        for ratio in (QUICK_RATIOS if quick else RATIOS)
    ]
    warmup = Case("warmup", "google+", _ratio_m(graphs["google+"], 0.9), "serial")
    return Inputs(graphs, cases, [warmup])


def _hub_graph(nodes: int, seed: int):
    from repro.graph.generators import social_network

    graph = social_network(
        nodes, attachment=6, closure_probability=0.3, planted_cliques=(8, 7, 6), seed=5
    )
    return shuffled(graph, seed, f"hub{nodes}")


def hub_recursion(seed: int, quick: bool) -> Inputs:
    from repro.graph.cores import degeneracy

    graphs = {
        "hub": _hub_graph(800 if quick else 8000, seed),
        "warmup": _hub_graph(300 if quick else 800, seed),
    }
    return Inputs(
        graphs,
        [Case("hub", "hub", degeneracy(graphs["hub"]) + 2, "pipeline")],
        [Case("warmup", "warmup", degeneracy(graphs["warmup"]) + 2, "pipeline")],
    )


def dense_communities(seed: int, quick: bool) -> Inputs:
    from repro.graph.generators import disjoint_union, erdos_renyi

    communities, nodes, p, m = (4, 40, 0.80, 40) if quick else (16, 44, 0.86, 48)
    parts = [erdos_renyi(nodes, p, seed=41 + i) for i in range(communities)]
    graphs = {
        "dense": shuffled(disjoint_union(parts), seed, "dense"),
        "warmup": shuffled(parts[0], seed, "dense-warmup"),
    }
    return Inputs(
        graphs,
        [Case("dense", "dense", m, "barrier")],
        [Case("warmup", "warmup", m, "barrier")],
    )


def durable_resume(seed: int, quick: bool) -> Inputs:
    graphs = _standins(seed, quick)
    ms = {name: _ratio_m(graph, DURABLE_RATIO) for name, graph in graphs.items()}
    cases = [Case(f"{name}:record", name, ms[name], "record") for name in graphs]
    cases += [Case(f"{name}:resume", name, ms[name], "resume") for name in graphs]
    warmup = [
        Case("warmup:record", "google+", ms["google+"], "record"),
        Case("warmup:resume", "google+", ms["google+"], "resume"),
    ]
    return Inputs(graphs, cases, warmup)


WORKLOADS = {
    "paper-sweep": paper_sweep,
    "hub-recursion": hub_recursion,
    "dense-communities": dense_communities,
    "durable-resume": durable_resume,
}

# Seconds one pass takes on the reference machine (2 vCPUs).  A run of T
# seconds makes T / nominal passes, rounded, at least one.  The count is
# fixed before timing starts: stopping once T seconds have passed would
# stop early exactly when the first pass was slow, and bias the median.
NOMINAL_PASS_S = {
    "paper-sweep": 25.0,
    "hub-recursion": 9.0,
    "dense-communities": 6.5,
    "durable-resume": 10.5,
}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, math.floor(seconds / NOMINAL_PASS_S[workload] + 0.5))


def run_case(case: Case, graphs: dict, spill_root: Path):
    """Make the case's one call into the program and return its result.

    ``find_max_cliques`` is looked up on the driver module at call time,
    so the layer trace can wrap it as the root span of the case.
    """
    from repro.core import driver
    from repro.distributed.executor import SharedMemoryExecutor

    graph = graphs[case.graph]
    if case.mode == "serial":
        return driver.find_max_cliques(graph, case.m)
    if case.mode in ("pipeline", "barrier"):
        return driver.find_max_cliques(
            graph,
            case.m,
            executor=SharedMemoryExecutor(max_workers=WORKERS),
            pipeline=case.mode == "pipeline",
        )
    spill_dir = spill_root / case.label.split(":")[0]
    return driver.find_max_cliques(
        graph, case.m, spill_dir=spill_dir, resume=case.mode == "resume"
    )
