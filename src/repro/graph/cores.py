"""Core decomposition, degeneracy, and degeneracy orderings.

Sparsity is the property the paper's convergence guarantee rests on
(Section 5): the first-level decomposition terminates iff the block-size
limit ``m`` exceeds the graph's degeneracy.  This module implements the
linear-time core-decomposition algorithm of Batagelj and Zaversnik
(reference [4] of the paper) with a bucket queue, plus the derived
quantities the rest of the library needs:

* :func:`core_numbers` — the core number of every node;
* :func:`degeneracy` — the maximum core number (a.k.a. coreness);
* :func:`degeneracy_ordering` — the peeling order used by the
  Eppstein–Strash MCE algorithm;
* :func:`peel_masks` — the same peel over Python-int adjacency masks,
  which is how every block analysis gets its features and anchor order;
* :func:`k_core` — the node set of the ``k``-core, used by the convergence
  guard and by Theorem 1 experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.adjacency import Graph, Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (csr imports Graph)
    from repro.graph.csr import CSRGraph


def core_numbers(graph: Graph) -> dict[Node, int]:
    """Return the core number of every node of ``graph``.

    The core number of ``v`` is the largest ``k`` such that ``v`` belongs to
    the ``k``-core (the maximal subgraph whose minimum degree is ``k``).
    Runs in ``O(|N| + |E|)`` using the bucket-queue peeling of Batagelj and
    Zaversnik.
    """
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    if not degrees:
        return {}
    max_degree = max(degrees.values())
    # Bucket i holds the not-yet-peeled nodes of current degree i.
    buckets: list[list[Node]] = [[] for _ in range(max_degree + 1)]
    for node, degree in degrees.items():
        buckets[degree].append(node)

    core: dict[Node, int] = {}
    remaining_degree = dict(degrees)
    peeled: set[Node] = set()
    current = 0
    processed = 0
    total = len(degrees)
    while processed < total:
        while current <= max_degree and not buckets[current]:
            current += 1
        node = buckets[current].pop()
        if node in peeled or remaining_degree[node] != current:
            # Stale bucket entry: the node moved to a lower bucket when a
            # neighbour was peeled.  Skip it; the fresh entry is elsewhere.
            continue
        core[node] = current
        peeled.add(node)
        processed += 1
        for other in graph.neighbors(node):
            if other in peeled:
                continue
            degree = remaining_degree[other]
            if degree > current:
                remaining_degree[other] = degree - 1
                buckets[degree - 1].append(other)
    return core


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy (maximum core number) of ``graph``; 0 if empty.

    A graph is ``d``-degenerate when every subgraph has a node of degree at
    most ``d``.  Real-world social networks have low degeneracy relative to
    their maximum degree, which is exactly what makes the paper's two-level
    decomposition converge quickly on them.
    """
    numbers = core_numbers(graph)
    if not numbers:
        return 0
    return max(numbers.values())


def core_numbers_csr(csr: "CSRGraph") -> np.ndarray:
    """Core numbers of a :class:`~repro.graph.csr.CSRGraph`, by dense index.

    The same Batagelj–Zaversnik bucket peeling as :func:`core_numbers`,
    but operating on the CSR arrays directly — degrees come from one
    ``indptr`` difference and neighbour scans are array slices — so the
    CSR-native planner never expands a snapshot back into a dict
    ``Graph`` just to size its blocks.
    """
    n = csr.num_nodes
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core
    indptr, indices = csr.indptr, csr.indices
    remaining = csr.degree_array().copy()
    max_degree = int(remaining.max())
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for node, degree in enumerate(remaining.tolist()):
        buckets[degree].append(node)
    peeled = np.zeros(n, dtype=bool)
    current = 0
    processed = 0
    while processed < n:
        while current <= max_degree and not buckets[current]:
            current += 1
        node = buckets[current].pop()
        if peeled[node] or remaining[node] != current:
            continue  # stale entry; the fresh one sits in a lower bucket
        core[node] = current
        peeled[node] = True
        processed += 1
        for other in indices[indptr[node] : indptr[node + 1]].tolist():
            if peeled[other]:
                continue
            degree = int(remaining[other])
            if degree > current:
                remaining[other] = degree - 1
                buckets[degree - 1].append(other)
    return core


def degeneracy_csr(csr: "CSRGraph") -> int:
    """Degeneracy of a CSR snapshot (maximum core number; 0 if empty)."""
    numbers = core_numbers_csr(csr)
    if not len(numbers):
        return 0
    return int(numbers.max())


def degeneracy_ordering(graph: Graph) -> list[Node]:
    """Return a degeneracy ordering of the nodes of ``graph``.

    The ordering repeatedly removes a minimum-degree node; every node has at
    most ``degeneracy(graph)`` neighbours *later* in the order.  This is the
    outer-loop order of the Eppstein–Strash algorithm (reference [17] of the
    paper) and is computed with the same bucket queue as
    :func:`core_numbers`, so it also runs in linear time.

    Ties are broken by insertion order, making the ordering deterministic.
    """
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    if not degrees:
        return []
    max_degree = max(degrees.values())
    buckets: list[dict[Node, None]] = [dict() for _ in range(max_degree + 1)]
    for node, degree in degrees.items():
        buckets[degree][node] = None

    order: list[Node] = []
    remaining_degree = dict(degrees)
    removed: set[Node] = set()
    current = 0
    while len(order) < len(degrees):
        while current <= max_degree and not buckets[current]:
            current += 1
        node = next(iter(buckets[current]))
        del buckets[current][node]
        order.append(node)
        removed.add(node)
        for other in graph.neighbors(node):
            if other in removed:
                continue
            degree = remaining_degree[other]
            if other in buckets[degree]:
                del buckets[degree][other]
            remaining_degree[other] = degree - 1
            buckets[degree - 1][other] = None
            if degree - 1 < current:
                current = degree - 1
    return order


def peel_masks(masks: list[int]) -> tuple[list[int], int]:
    """Degeneracy order and degeneracy of a graph given as int masks.

    ``masks[i]`` has bit ``j`` set iff ``i ~ j``.  Removes a minimum
    residual degree node, smallest index first (the order of
    :func:`repro.mce.bitmatrix.degeneracy_order_packed`); per-degree
    bucket masks make that ``O(n + e)`` bit operations in total.
    """
    degrees = [mask.bit_count() for mask in masks]
    buckets = [0] * (max(degrees, default=0) + 1)
    for node, degree in enumerate(degrees):
        buckets[degree] |= 1 << node
    alive = (1 << len(masks)) - 1
    order: list[int] = []
    degeneracy_seen = 0
    current = 0
    for _ in range(len(masks)):
        while not buckets[current]:
            current += 1
        bucket = buckets[current]
        low = bucket & -bucket
        buckets[current] = bucket ^ low
        alive ^= low
        node = low.bit_length() - 1
        order.append(node)
        if current > degeneracy_seen:
            degeneracy_seen = current
        neighbors = masks[node] & alive
        while neighbors:
            bit = neighbors & -neighbors
            neighbors ^= bit
            other = bit.bit_length() - 1
            degree = degrees[other]
            buckets[degree] ^= bit
            buckets[degree - 1] |= bit
            degrees[other] = degree - 1
        if current:
            # A removal lowers neighbours by one, so the next minimum is
            # at least one below the current bucket.
            current -= 1
    return order, degeneracy_seen


def k_core(graph: Graph, k: int) -> frozenset[Node]:
    """Return the node set of the ``k``-core of ``graph`` (possibly empty).

    The ``k``-core is obtained by recursively deleting nodes of degree less
    than ``k``.  The paper's Theorem 1 states that the first-level recursion
    converges exactly when the ``m``-core is empty, which callers check via
    ``not k_core(graph, m)``.
    """
    if k <= 0:
        return frozenset(graph.nodes())
    numbers = core_numbers(graph)
    return frozenset(node for node, core in numbers.items() if core >= k)


def peel_iterations(graph: Graph, threshold: int) -> int:
    """Count rounds of simultaneous low-degree removal until a fixpoint.

    Each round removes, *simultaneously*, every node whose degree in the
    current residual graph is below ``threshold``.  This mirrors the paper's
    first-level recursion (each ``CUT`` call removes all feasible nodes at
    once) without building blocks, so experiments can measure the recursion
    depth cheaply.  Returns the number of rounds executed until either the
    graph is empty (convergence) or a round removes nothing (the residual is
    the ``threshold``-core and the recursion would never terminate).
    """
    remaining: set[Node] = set(graph.nodes())
    degree = {node: graph.degree(node) for node in remaining}
    rounds = 0
    while remaining:
        doomed = [node for node in remaining if degree[node] < threshold]
        if not doomed:
            break
        rounds += 1
        doomed_set = set(doomed)
        for node in doomed:
            for other in graph.neighbors(node):
                if other in remaining and other not in doomed_set:
                    degree[other] -= 1
        remaining -= doomed_set
    return rounds
