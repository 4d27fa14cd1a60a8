"""Uniform-size second-level decomposition — the [10]-style comparator.

Section 3.2: "Here, we model blocks similarly to [10] but allow for
blocks of heterogeneous sizes and leverage the adjacency of the nodes
to put dense subgraphs into the same block."  To measure what that
buys, this module implements the *other* design: hub-aware (only
feasible nodes become kernels, so completeness is preserved) but with
kernel sets grown in plain insertion order up to a uniform target —
no density seeking, no heterogeneity.

The ablation benchmark runs both second-level strategies under the
same driver and compares block homogeneity, internal density, and
analysis time; the clique output must be identical (both decompositions
satisfy the same invariants).
"""

from __future__ import annotations

from repro.core.blocks import Block
from repro.errors import DecompositionError
from repro.graph.adjacency import Graph, Node


def build_uniform_blocks(
    graph: Graph, feasible: list[Node], m: int
) -> list[Block]:
    """Partition ``feasible`` into insertion-order kernel sets.

    Kernels are taken in the given order, each block growing until the
    next feasible node (with its neighbourhood) would overflow ``m`` —
    no preference for adjacency, which tends to produce blocks of
    similar size whose members are unrelated.  All Block invariants of
    :func:`repro.core.blocks.validate_blocks` still hold, so the result
    is a drop-in replacement for the density-seeking decomposition.

    Raises
    ------
    ValueError
        If ``m`` is not positive.
    DecompositionError
        If a supposedly feasible node overflows an empty block.
    """
    if m < 1:
        raise ValueError("block size m must be at least 1")
    blocks: list[Block] = []
    used_kernels: set[Node] = set()
    pending = list(feasible)
    position = 0
    while position < len(pending):
        kernel: list[Node] = []
        kernel_set: set[Node] = set()
        closed: set[Node] = set()
        while position < len(pending):
            candidate = pending[position]
            addition = graph.closed_neighborhood(candidate)
            if len(closed | addition) > m:
                if not kernel:
                    raise DecompositionError(
                        f"seed {candidate!r} alone overflows block size {m}"
                    )
                break
            kernel.append(candidate)
            kernel_set.add(candidate)
            closed |= addition
            position += 1
        neighborhood = closed - kernel_set
        visited = frozenset(neighborhood & used_kernels)
        border = frozenset(neighborhood - visited)
        blocks.append(Block.induced(tuple(kernel), border, visited, graph))
        used_kernels |= kernel_set
    return blocks


def block_size_spread(blocks: list[Block]) -> float:
    """Return max/mean block size; 0.0 for an empty decomposition.

    The density-seeking strategy produces *heterogeneous* sizes (high
    spread around dense regions), the uniform strategy flattens them.
    """
    if not blocks:
        return 0.0
    sizes = [block.size for block in blocks]
    return max(sizes) * len(sizes) / sum(sizes)


def mean_block_density(blocks: list[Block]) -> float:
    """Return the mean edge density over blocks (0.0 if none)."""
    if not blocks:
        return 0.0
    return sum(block.graph.density() for block in blocks) / len(blocks)
