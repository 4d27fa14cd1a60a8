"""Block feature extraction for best-fit algorithm selection.

Section 4: "The parameters we used to classify blocks are the following:
(a) number of nodes; (b) number of edges; (c) density; (d) degeneracy;
and (e) the maximum value d* for which the graph has at least d* nodes
with degree greater or equal than d*."

Features are bundled as a :class:`BlockFeatures` record whose field order
is the canonical feature-vector order used by the tree learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.cores import degeneracy as graph_degeneracy
from repro.graph.cores import peel_masks
from repro.graph.properties import d_star as graph_d_star

FEATURE_NAMES: tuple[str, ...] = (
    "num_nodes",
    "num_edges",
    "density",
    "degeneracy",
    "d_star",
)


@dataclass(frozen=True)
class BlockFeatures:
    """The five easy-to-compute block parameters of Section 4."""

    num_nodes: int
    num_edges: int
    density: float
    degeneracy: int
    d_star: int

    @classmethod
    def of(cls, graph: Graph) -> "BlockFeatures":
        """Extract the features of ``graph`` (linear time except density)."""
        return cls(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            density=graph.density(),
            degeneracy=graph_degeneracy(graph),
            d_star=graph_d_star(graph),
        )

    def vector(self) -> tuple[float, ...]:
        """Return the features as floats in :data:`FEATURE_NAMES` order."""
        return tuple(float(getattr(self, f.name)) for f in fields(self))

    def value(self, name: str) -> float:
        """Return a single feature by name.

        Raises
        ------
        KeyError
            If ``name`` is not one of :data:`FEATURE_NAMES`.
        """
        if name not in FEATURE_NAMES:
            raise KeyError(
                f"unknown feature {name!r}; known: {', '.join(FEATURE_NAMES)}"
            )
        return float(getattr(self, name))

    def estimated_cost(self) -> float:
        """Dispatch-ordering cost estimate; see :func:`estimate_analysis_cost`."""
        return estimate_analysis_cost(self.num_nodes, self.num_edges)

    def clique_upper_bound(self) -> int:
        """Structural clique bound: ``min(n, degeneracy + 1)``.

        Every k-clique needs k mutually adjacent vertices, each of
        degree ≥ k−1 inside the clique, so ω ≤ degeneracy + 1 (and
        trivially ω ≤ n).  The block-pruning layer tightens this with a
        greedy colouring over the packed rows — see
        :func:`repro.mce.maximum.clique_upper_bound_packed`.
        """
        return min(self.num_nodes, self.degeneracy + 1)


def extract_features(graph: Graph) -> BlockFeatures:
    """Return :class:`BlockFeatures.of(graph)`; a readable free function."""
    return BlockFeatures.of(graph)


def features_from_bitmap(bitmap: np.ndarray) -> BlockFeatures:
    """Extract :class:`BlockFeatures` from a packed adjacency bitmap.

    The bitmap-direct twin of :meth:`BlockFeatures.of`: the rows become
    Python-int masks (:func:`~repro.graph.csr.bitmap_masks`) and go
    through the same single peel every block analysis runs
    (:func:`peel_features`), so the five parameters agree exactly with
    the ``Graph``-based extraction on the same subgraph and the decision
    tree selects the same combination no matter which path materialized
    the block.
    """
    from repro.graph.csr import bitmap_masks

    return peel_features(bitmap_masks(bitmap))[0]


def peel_features(masks: "list[int]") -> "tuple[BlockFeatures, list[int]]":
    """The five features and the degeneracy order of a block, from one peel.

    ``masks[i]`` is member ``i``'s adjacency as a Python-int bitmask.
    Degrees are popcounts, the degeneracy and the peel order come from
    :func:`~repro.graph.cores.peel_masks`, and ``d*`` from the degree
    sequence — so a block analysis pays one peel for both its selector
    input and its kernel anchor order.
    """
    n = len(masks)
    degrees = [mask.bit_count() for mask in masks]
    num_edges = sum(degrees) // 2
    order, degeneracy = peel_masks(masks)
    features = BlockFeatures(
        num_nodes=n,
        num_edges=num_edges,
        density=2.0 * num_edges / (n * (n - 1)) if n > 1 else 0.0,
        degeneracy=degeneracy,
        d_star=_d_star_of_degrees(degrees),
    )
    return features, order


def _d_star_of_degrees(degrees: "list[int]") -> int:
    """Degree h-index from a degree list (same convention as ``d_star``)."""
    descending = sorted(degrees, reverse=True)
    return sum(1 for rank, degree in enumerate(descending, 1) if degree >= rank)


def estimate_analysis_cost(num_nodes: int, num_edges: int) -> float:
    """Heuristic analysis cost of a block, for dispatch ordering.

    Moon–Moser bounds the clique count by ``3^(n/3)``, but within one
    decomposition the blocks share the size cap ``m``, so what separates
    cheap blocks from expensive ones is density; the estimate scales the
    node count by an exponential in the largest clique the edge count
    can support — ``k(k-1)/2 ≤ e`` gives ``k = (1 + sqrt(1 + 8e)) / 2``
    — capped at ``n``.  Only the ordering matters (LPT dispatch and the
    split threshold feed costly blocks to workers first), so constant
    factors are irrelevant; what the schedulers rely on is that the
    estimate is non-negative, monotone non-decreasing in both node and
    edge count, and computable in O(1) from counts the block graph
    already maintains.  (The earlier ``n * 3^(avg_degree/3)`` form was
    *not* monotone in ``n``: adding an isolated node to a dense block
    lowered its estimate.)

    Blocks large and dense enough that the exponential exceeds float
    range saturate to ``inf`` instead of raising ``OverflowError`` —
    the magnitude check runs in log-space, so the estimate stays
    monotone across the saturation boundary (everything past it is the
    shared ``inf`` plateau, and LPT sorts it first either way).
    """
    if num_nodes <= 0:
        return 0.0
    clique_bound = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * max(num_edges, 0)))
    exponent = min(float(num_nodes), clique_bound)
    # log of the estimate; float max is exp(709.78...), saturate with a
    # safety margin so the pow below can never overflow.
    log_cost = math.log(num_nodes) + (exponent / 3.0) * math.log(3.0)
    if log_cost >= 700.0:
        return float("inf")
    return num_nodes * 3.0 ** (exponent / 3.0)


def adaptive_batch_cutoff(block_sizes: "list[int]", floor: int = 64) -> int:
    """Node-count cutoff below which blocks join a batched bucket.

    Batched multi-block dispatch amortizes numpy call overhead across
    many *small* blocks; big blocks already amortize it internally (and
    are the ones split/steal handles).  The cutoff is the batch's median
    block size rounded up to the next multiple of 8 (the bucket padding
    quantum), floored at ``floor`` so the common regime — thousands of
    tiny blocks next to a handful of large ones — batches everything
    that fits in one ``uint64`` word row.  Returns ``floor`` for an
    empty batch.
    """
    if not block_sizes:
        return floor
    ordered = sorted(block_sizes)
    median = ordered[len(ordered) // 2]
    padded = ((median + 7) // 8) * 8
    return max(floor, padded)


def adaptive_split_threshold(costs: "list[float]", num_workers: int) -> float:
    """Cost above which a block is worth splitting into anchor subtasks.

    Derived from the batch's own cost distribution, not a hardcoded
    constant: a block is a straggler when its estimated cost exceeds the
    batch's *fair share* (total cost / workers) — by definition such a
    block makes its worker the makespan even under a perfect assignment
    of everything else.  On batches with more blocks than workers the
    threshold is additionally floored at twice the median positive cost
    so that a near-uniform batch (where every block sits close to the
    fair share) is not shredded into subtasks for no makespan win.

    Returns ``inf`` (never split) for serial execution or an
    empty/zero-cost batch.
    """
    if num_workers <= 1:
        return float("inf")
    positive = sorted(cost for cost in costs if cost > 0.0)
    if not positive:
        return float("inf")
    fair_share = sum(positive) / num_workers
    if len(positive) < num_workers:
        # Fewer tasks than workers: splitting is the only parallelism.
        return fair_share
    typical = positive[len(positive) // 2]
    return max(fair_share, 2.0 * typical)
