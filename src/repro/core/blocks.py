"""Second-level decomposition into blocks (``BLOCKS``, Alg. 3).

A **block** is a small subgraph processed independently by one worker.
Each block has three kinds of nodes (Section 3.2):

* **kernel** nodes — feasible nodes assigned to this block; kernel sets
  across all blocks form a partition of the feasible set ``Nf``, and the
  block contains the *entire* neighbourhood of every kernel node;
* **visited** nodes — block members that already served as kernel nodes
  of an earlier block (their cliques were fully reported there);
* **border** nodes — the remaining neighbours of the kernel set.

Blocks are grown greedily and density-seekingly: starting from a seed,
the next kernel node is the unassigned feasible border node with the
most adjacencies to the current kernel set, until adding any candidate
would overflow the block-size limit ``m`` or every candidate falls below
the adjacency threshold.  This "leverage[s] the adjacency of the nodes
to put dense subgraphs into the same block", producing internally
homogeneous chunks that an exact MCE algorithm then refines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import DecompositionError
from repro.graph.adjacency import Graph, Node
from repro.graph.csr import CSRGraph
from repro.graph.views import induced_subgraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (block_analysis imports us)
    from repro.core.block_analysis import BlockDescriptor


class Block:
    """One unit of distributed work produced by the decomposition.

    ``kernel`` preserves assignment order (the order in which nodes were
    promoted from border to kernel), which :mod:`repro.core.block_analysis`
    uses for its deterministic anchored sweep.  ``graph`` is the subgraph
    of the input induced by ``kernel ∪ border ∪ visited``, with nodes in
    :attr:`members` order.

    Blocks from :func:`build_blocks` build ``graph`` on first access
    (:meth:`induced`): the analysis path reads a block's adjacency from
    the level CSR, so most blocks never need their own ``Graph``.  The
    level graph must not change while such a block is in use.  Pickling
    ships the induced graph, never the level graph.  Blocks are
    immutable.
    """

    __slots__ = ("kernel", "border", "visited", "_graph", "_level")

    def __init__(
        self,
        kernel: tuple[Node, ...],
        border: frozenset[Node],
        visited: frozenset[Node],
        graph: Graph,
    ) -> None:
        _set = object.__setattr__
        _set(self, "kernel", kernel)
        _set(self, "border", border)
        _set(self, "visited", visited)
        _set(self, "_graph", graph)
        _set(self, "_level", None)

    @classmethod
    def induced(
        cls,
        kernel: tuple[Node, ...],
        border: frozenset[Node],
        visited: frozenset[Node],
        level: Graph,
    ) -> "Block":
        """A block whose ``graph`` is induced from ``level`` when first read."""
        block = cls(kernel, border, visited, None)  # type: ignore[arg-type]
        object.__setattr__(block, "_level", level)
        return block

    @property
    def graph(self) -> Graph:
        """The induced subgraph of the block's members."""
        if self._graph is None:
            object.__setattr__(
                self, "_graph", induced_subgraph(self._level, self.members)
            )
            object.__setattr__(self, "_level", None)
        return self._graph

    @property
    def members(self) -> list[Node]:
        """Kernel (assignment order), then border and visited sorted by ``str``."""
        return [
            *self.kernel,
            *sorted(self.border, key=str),
            *sorted(self.visited, key=str),
        ]

    @property
    def size(self) -> int:
        """Total number of nodes in the block."""
        return len(self.kernel) + len(self.border) + len(self.visited)

    def node_kind(self, node: Node) -> str:
        """Return ``"kernel"``, ``"border"`` or ``"visited"`` for a member.

        Raises
        ------
        KeyError
            If ``node`` is not in the block.
        """
        if node in self.border:
            return "border"
        if node in self.visited:
            return "visited"
        if node in self.kernel:
            return "kernel"
        raise KeyError(f"node {node!r} is not in this block")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Block is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return (self.kernel, self.border, self.visited, self.graph) == (
            other.kernel,
            other.border,
            other.visited,
            other.graph,
        )

    __hash__ = None  # type: ignore[assignment]  # the graph is mutable

    def __reduce__(self):
        return (Block, (self.kernel, self.border, self.visited, self.graph))

    def __repr__(self) -> str:
        return (
            f"Block(kernel={len(self.kernel)}, border={len(self.border)}, "
            f"visited={len(self.visited)})"
        )


SEED_ORDERS: tuple[str, ...] = ("insertion", "min_degree", "max_degree")


def build_blocks(
    graph: Graph,
    feasible: list[Node],
    m: int,
    min_adjacency: int = 1,
    seed_order: str = "insertion",
) -> list[Block]:
    """Partition ``feasible`` into kernel sets and return the blocks.

    Parameters
    ----------
    graph:
        The (current recursion level's) network.
    feasible:
        The feasible nodes of ``graph`` for block size ``m``, in the
        deterministic order produced by :func:`repro.core.feasibility.cut`.
    m:
        Maximum number of nodes per block; every feasible node's closed
        neighbourhood fits by definition.
    min_adjacency:
        Growth stops when no candidate border node has at least this many
        adjacencies with the current kernel set (the paper's "specified
        threshold").  The default of 1 accepts any adjacent candidate.
    seed_order:
        The paper's ``select(Nf)`` strategy for picking each block's
        first kernel node: ``"insertion"`` (the default, deterministic
        input order), ``"min_degree"`` (peel loose nodes first —
        reference [10] suggests increasing degree order), or
        ``"max_degree"`` (start blocks at local hubs).  The clique
        output is invariant; only block shapes change.

    Raises
    ------
    ValueError
        On a non-positive ``m`` or ``min_adjacency`` or an unknown
        ``seed_order``.
    DecompositionError
        If a supposedly feasible node does not fit in an empty block,
        which indicates ``feasible`` was not produced for this ``m``.
    """
    if m < 1:
        raise ValueError("block size m must be at least 1")
    if min_adjacency < 1:
        raise ValueError("min_adjacency must be at least 1")
    if seed_order not in SEED_ORDERS:
        raise ValueError(
            f"unknown seed_order {seed_order!r}; known: {', '.join(SEED_ORDERS)}"
        )
    ordered = list(feasible)
    if seed_order == "min_degree":
        ordered.sort(key=graph.degree)
    elif seed_order == "max_degree":
        ordered.sort(key=graph.degree, reverse=True)
    unassigned: dict[Node, None] = dict.fromkeys(ordered)
    used_kernels: set[Node] = set()
    blocks: list[Block] = []
    while unassigned:
        seed = next(iter(unassigned))
        block = _grow_block(graph, seed, unassigned, used_kernels, m, min_adjacency)
        blocks.append(block)
        used_kernels.update(block.kernel)
    return blocks


def _grow_block(
    graph: Graph,
    seed: Node,
    unassigned: dict[Node, None],
    used_kernels: set[Node],
    m: int,
    min_adjacency: int,
) -> Block:
    """Grow one block from ``seed``, consuming nodes from ``unassigned``."""
    kernel: list[Node] = []
    kernel_set: set[Node] = set()
    closed: set[Node] = set()  # kernel ∪ N(kernel), the block-size measure
    # candidate -> number of adjacencies with the current kernel set.
    adjacency_count: dict[Node, int] = {}

    candidate: Node | None = seed
    while candidate is not None:
        addition = graph.closed_neighborhood(candidate)
        if len(closed | addition) > m:
            if not kernel:
                raise DecompositionError(
                    f"seed {candidate!r} alone overflows block size {m}; "
                    "was the feasible set computed for a different m?"
                )
            break
        del unassigned[candidate]
        kernel.append(candidate)
        kernel_set.add(candidate)
        closed |= addition
        adjacency_count.pop(candidate, None)
        for neighbor in graph.neighbors(candidate):
            if neighbor in unassigned:
                adjacency_count[neighbor] = adjacency_count.get(neighbor, 0) + 1
        candidate = _select_candidate(adjacency_count, min_adjacency)

    neighborhood = closed - kernel_set
    visited = frozenset(neighborhood & used_kernels)
    border = frozenset(neighborhood - visited)
    return Block.induced(tuple(kernel), border, visited, graph)


def _select_candidate(
    adjacency_count: dict[Node, int], min_adjacency: int
) -> Node | None:
    """Pick the unassigned border node most adjacent to the kernel set.

    Returns ``None`` when no candidate reaches ``min_adjacency``.  Ties
    break toward the candidate discovered first (dict insertion order),
    keeping block construction deterministic.
    """
    best: Node | None = None
    best_count = min_adjacency - 1
    for node, count in adjacency_count.items():
        if count > best_count:
            best = node
            best_count = count
    return best


def blocks_csr(
    csr: CSRGraph,
    feasible_ids: np.ndarray,
    m: int,
    min_adjacency: int = 1,
    seed_order: str = "insertion",
) -> Iterator["BlockDescriptor"]:
    """``BLOCKS`` over a CSR snapshot: one :class:`BlockDescriptor` per block.

    The decomposition every driver mode runs.  It is Alg. 3 as
    :func:`build_blocks` writes it, over dense ids: the level's
    ``indptr``/``indices`` become Python lists once per call, and each
    block grows from its seed by promoting the unassigned feasible
    candidate with the most adjacencies to the kernel set, ties going to
    the candidate counted first.  Neighbour rows are read in ascending
    id order, and ``border_ids``/``visited_ids`` are ascending ids too,
    where :func:`build_blocks` follows the ``Graph``'s neighbour order
    and sorts labels by ``str``.  So the two partitions may differ;
    the clique output does not depend on the partition.

    Descriptors are yielded as soon as each block's growth stops, which
    is what lets the pipeline driver dispatch them to workers while the
    rest of the level (and later levels) is still being decomposed.
    They are unpriced (``estimated_cost`` 0.0): the executors that order
    by cost price them (:meth:`BlockDescriptor.priced`).

    Parameters
    ----------
    csr:
        The current recursion level's graph as a CSR snapshot.
    feasible_ids:
        Strictly increasing dense ids of the feasible nodes of ``csr``
        for this ``m``, as produced by
        :func:`repro.core.feasibility.cut_csr`.
    m, min_adjacency, seed_order:
        As in :func:`build_blocks`.

    Raises
    ------
    ValueError
        On a non-positive ``m`` or ``min_adjacency`` or an unknown
        ``seed_order``.
    DecompositionError
        If a supposedly feasible node overflows an empty block
        (``feasible_ids`` computed for a different ``m``).
    """
    from repro.core.block_analysis import BlockDescriptor

    if m < 1:
        raise ValueError("block size m must be at least 1")
    if min_adjacency < 1:
        raise ValueError("min_adjacency must be at least 1")
    if seed_order not in SEED_ORDERS:
        raise ValueError(
            f"unknown seed_order {seed_order!r}; known: {', '.join(SEED_ORDERS)}"
        )
    indptr: list[int] = csr.indptr.tolist()
    indices: list[int] = csr.indices.tolist()
    ordered: list[int] = np.asarray(feasible_ids, dtype=np.int64).tolist()
    if seed_order != "insertion":
        ordered.sort(
            key=lambda node: indptr[node + 1] - indptr[node],
            reverse=seed_order == "max_degree",
        )
    # Per node: 0 = hub, 1 = unassigned feasible, 2 = kernel node.
    state = bytearray(csr.num_nodes)
    for node in ordered:
        state[node] = 1

    block_id = 0
    for seed in ordered:
        if state[seed] != 1:
            continue
        kernel: list[int] = []
        closed: set[int] = set()  # kernel ∪ N(kernel), the block-size measure
        # candidate -> adjacencies with the kernel set, in discovery order.
        adjacency_count: dict[int, int] = {}
        candidate: int | None = seed
        while candidate is not None:
            row = indices[indptr[candidate] : indptr[candidate + 1]]
            fresh = [node for node in row if node not in closed]
            if candidate not in closed:
                fresh.append(candidate)
            if len(closed) + len(fresh) > m:
                if not kernel:
                    raise DecompositionError(
                        f"seed {csr.label(candidate)!r} alone overflows block "
                        f"size {m}; was the feasible set computed for a "
                        "different m?"
                    )
                break
            closed.update(fresh)
            state[candidate] = 2
            kernel.append(candidate)
            adjacency_count.pop(candidate, None)
            for neighbor in row:
                if state[neighbor] == 1:
                    adjacency_count[neighbor] = adjacency_count.get(neighbor, 0) + 1
            candidate = None
            if adjacency_count:
                best = max(adjacency_count, key=adjacency_count.__getitem__)
                if adjacency_count[best] >= min_adjacency:
                    candidate = best

        closed.difference_update(kernel)
        neighborhood = sorted(closed)
        yield BlockDescriptor(
            block_id=block_id,
            kernel_ids=np.array(kernel, dtype=np.int64),
            border_ids=np.array(
                [node for node in neighborhood if state[node] != 2], dtype=np.int64
            ),
            visited_ids=np.array(
                [node for node in neighborhood if state[node] == 2], dtype=np.int64
            ),
        )
        block_id += 1


def decomposition_overlap(blocks: list[Block]) -> float:
    """Return the node-replication factor of a decomposition.

    ``(Σ block sizes) / #distinct nodes`` — 1.0 means no node appears
    in more than one block.  Section 6.3 attributes the slowdown at
    very small m/d to "an increasing overlap among the neighborhood of
    each block"; this is that quantity.  Returns 0.0 for an empty
    decomposition.
    """
    total = sum(block.size for block in blocks)
    distinct: set[Node] = set()
    for block in blocks:
        distinct.update(block.kernel, block.border, block.visited)
    if not distinct:
        return 0.0
    return total / len(distinct)


def validate_blocks(
    graph: Graph, blocks: list[Block], feasible: list[Node], m: int
) -> None:
    """Check every structural invariant of a block decomposition.

    Raises
    ------
    DecompositionError
        With a description of the first violated invariant:

        1. kernel sets partition the feasible set;
        2. no block exceeds ``m`` nodes;
        3. every block contains the full neighbourhood of each kernel node;
        4. kernel/border/visited are disjoint and cover the block;
        5. a visited node was a kernel node of an *earlier* block;
        6. each block graph is the induced subgraph of its member set.
    """
    seen_kernels: set[Node] = set()
    for index, block in enumerate(blocks):
        kernel_set = set(block.kernel)
        if len(kernel_set) != len(block.kernel):
            raise DecompositionError(f"block {index}: duplicate kernel nodes")
        if kernel_set & seen_kernels:
            raise DecompositionError(
                f"block {index}: kernel nodes reused from an earlier block"
            )
        if block.size > m:
            raise DecompositionError(
                f"block {index}: {block.size} nodes exceed block size {m}"
            )
        members = kernel_set | block.border | block.visited
        if len(members) != len(kernel_set) + len(block.border) + len(block.visited):
            raise DecompositionError(
                f"block {index}: kernel/border/visited sets overlap"
            )
        if set(block.graph.nodes()) != members:
            raise DecompositionError(
                f"block {index}: block graph nodes do not match member sets"
            )
        for node in block.kernel:
            for neighbor in graph.neighbors(node):
                if neighbor not in members:
                    raise DecompositionError(
                        f"block {index}: kernel node {node!r} is missing "
                        f"neighbour {neighbor!r}"
                    )
        for node in block.visited:
            if node not in seen_kernels:
                raise DecompositionError(
                    f"block {index}: visited node {node!r} was never a kernel"
                )
        for u in block.graph.nodes():
            for v in block.graph.neighbors(u):
                if not graph.has_edge(u, v):
                    raise DecompositionError(
                        f"block {index}: edge ({u!r}, {v!r}) absent from input"
                    )
            for v in graph.neighbors(u):
                if v in members and not block.graph.has_edge(u, v):
                    raise DecompositionError(
                        f"block {index}: induced edge ({u!r}, {v!r}) missing"
                    )
        seen_kernels |= kernel_set
    if seen_kernels != set(feasible):
        raise DecompositionError(
            "kernel sets across blocks do not partition the feasible set"
        )
