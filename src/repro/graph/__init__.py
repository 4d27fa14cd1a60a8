"""Graph substrate: containers, properties, generators, serialisation."""

from repro.graph.adjacency import Graph, Node
from repro.graph.csr import CSRGraph, SharedCSR, SharedCSRHandle, induced_csr
from repro.graph.cores import (
    core_numbers,
    core_numbers_csr,
    degeneracy,
    degeneracy_csr,
    degeneracy_ordering,
    k_core,
    peel_iterations,
    peel_masks,
)
from repro.graph.datasets import DATASET_NAMES, DATASETS, load_all, load_dataset
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    disjoint_union,
    erdos_renyi,
    h_n,
    social_network,
    star_graph,
    stochastic_block_model,
    watts_strogatz,
)
from repro.graph.io import read_cliques, read_triples, write_cliques, write_triples
from repro.graph.streams import EdgeEvent, apply_stream, edge_stream
from repro.graph.properties import (
    GraphSummary,
    d_star,
    degree_histogram,
    hub_fraction,
    power_law_exponent,
    summarize,
)
from repro.graph.views import connected_components, induced_subgraph, relabel

__all__ = [
    "Graph",
    "Node",
    "CSRGraph",
    "SharedCSR",
    "SharedCSRHandle",
    "induced_csr",
    "core_numbers",
    "core_numbers_csr",
    "degeneracy",
    "degeneracy_csr",
    "degeneracy_ordering",
    "k_core",
    "peel_masks",
    "peel_iterations",
    "DATASET_NAMES",
    "DATASETS",
    "load_all",
    "load_dataset",
    "barabasi_albert",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "erdos_renyi",
    "h_n",
    "social_network",
    "star_graph",
    "stochastic_block_model",
    "watts_strogatz",
    "read_cliques",
    "read_triples",
    "write_cliques",
    "write_triples",
    "GraphSummary",
    "d_star",
    "degree_histogram",
    "hub_fraction",
    "power_law_exponent",
    "summarize",
    "connected_components",
    "induced_subgraph",
    "relabel",
    "EdgeEvent",
    "apply_stream",
    "edge_stream",
]
