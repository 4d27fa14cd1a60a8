"""Per-block clique detection (``BLOCK-ANALYSIS``, Alg. 4).

For one block the goal is: *all maximal cliques that have at least one
kernel node and no visited node.*  Those two conditions together make the
union over all blocks emit each feasible-touching maximal clique exactly
once — the clique is reported from the block whose kernel contains its
earliest-kernelised member, and suppressed everywhere else because that
member is "visited" there.

The procedure anchors one enumeration per kernel node ``k``, restricted
to ``N(k)``: candidates start as ``kernel ∪ border`` and excluded as
``visited``; after ``k`` is processed it moves from the candidate side to
the excluded side, exactly as in the paper's pseudo-code.  Kernel nodes
are anchored in **degeneracy order** (sparsest first): which kernel node
reports a clique shifts with the order, but the per-block clique *set*
is invariant — a clique is always reported at whichever of its kernel
members is anchored first — and peeling-order anchors leave denser
candidate sets to later anchors whose exclusion sets have already grown,
so the pivot prunes harder.  Maximality against the *whole* network
follows from the block invariant that every neighbour of a kernel node
is inside the block.

The enumeration combination (algorithm × data structure) is chosen per
block by a decision tree over the block's features (``bestfit``, line 1).
Every analysis path — whole blocks, split probes, anchor-range
subtasks, and parent retries — materializes a block the same way
(:func:`_materialize_csr`): a :class:`BlockDescriptor` of member ids over
the level's CSR snapshot becomes packed adjacency rows and one
Python-int mask per member in one flat gather, and one peel over the
masks yields both the block features and the kernel anchor order; the
chosen backend is built from those rows, never from a ``Graph``.
:func:`analyze_block` accepts a :class:`~repro.core.blocks.Block` and
delegates to the same path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.blocks import Block
from repro.core.cliquestore import CliqueBuffer, CliqueStore
from repro.decision.features import (
    BlockFeatures,
    estimate_analysis_cost,
    peel_features,
)
from repro.decision.paper_tree import paper_tree, select_combo
from repro.decision.tree import DecisionTree
from repro.graph.adjacency import Graph, Node
from repro.graph.csr import (
    BitmapScratch,
    CSRGraph,
    bitmap_masks,
    extract_block_bitmap,
    induced_edge_count,
)
from repro.mce.anchored import enumerate_anchored_native
from repro.mce.backends import Backend, backend_from_bitmap
from repro.mce.bitmatrix import (
    BitMatrixBackend,
    bits_to_indices,
    degeneracy_orders_many,
    enumerate_anchored_packed,
    expand_batched_many,
    pack_indices,
    pivot_kind_of,
    popcount_rows,
    words_for,
)
from repro.mce.maximum import clique_upper_bound_packed
from repro.mce.registry import Combo, get_pivot_rule


@dataclass
class BlockReport:
    """Outcome of analysing one block.

    ``cliques`` is a packed :class:`~repro.core.cliquestore.CliqueStore`
    (vertex ids into the store's own member-label table, so pickling
    across IPC ships raw array buffers plus one small label list).  A
    report replayed from a legacy pickled spill record carries the
    ``list[frozenset]`` it was written with; the driver packs it with
    :meth:`~repro.core.cliquestore.GlobalCliqueIndex.add`.
    """

    cliques: CliqueStore
    combo: Combo
    features: BlockFeatures
    seconds: float
    kernel_nodes: int = 0
    extra: dict[str, float] = field(default_factory=dict)


def analyze_block(
    block: Block,
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    min_clique_size: int = 0,
) -> BlockReport:
    """Enumerate the block's contribution to the global clique set.

    Delegates to :func:`analyze_block_csr`: the block's induced graph
    becomes a block-sized CSR snapshot and the block one
    :class:`BlockDescriptor` over it (:func:`descriptors_of`), so the
    report, down to the clique emission order, is the one any executor
    produces for the same block.

    Parameters
    ----------
    block:
        A block produced by :func:`repro.core.blocks.build_blocks`.
    tree:
        Decision tree used to pick the enumeration combo from the block's
        features; defaults to the paper's published tree (Figure 3).
    combo:
        Bypass the tree and force a specific combination (used by the
        ablation benchmarks that compare the tree against fixed combos).
    min_clique_size:
        Enumeration floor: anchors whose subproblem cannot reach a
        clique of this size are skipped (their cliques are all smaller,
        see :func:`_anchor_below_floor`); the skip count lands in
        ``extra["anchors_skipped"]``.  ``0`` disables the pruning.

    Returns
    -------
    BlockReport
        The cliques found (each has ≥ 1 kernel node and no visited node),
        the combination used, the block features, and the wall-clock time.
    """
    (descriptor,), csr = descriptors_of([block], block.graph)
    return analyze_block_csr(
        descriptor,
        csr.indptr,
        csr.indices,
        csr.labels,
        tree=tree,
        combo=combo,
        min_clique_size=min_clique_size,
    )


def _anchor_below_floor(
    backend: Backend, anchor: int, candidates, min_clique_size: int
) -> bool:
    """Whether an anchored sweep cannot reach the enumeration floor.

    Every clique the anchor's sweep emits lies inside ``{anchor} ∪
    (N(anchor) ∩ candidates)`` — a member processed as an earlier
    anchor sits on the excluded side, and one already moved out of
    ``candidates`` would make the clique non-maximal there.  So when
    ``1 + |N(anchor) ∩ candidates| < floor`` the whole sweep is below
    the floor and can be skipped.  The anchor must still rotate to the
    excluded side afterwards: later anchors see exactly the states the
    unpruned sweep would have left them, which is what keeps the ≥-floor
    clique set identical (the exclusion side never depends on whether
    the anchor's own sweep ran).
    """
    return (
        min_clique_size > 1
        and 1 + backend.common_count(anchor, candidates) < min_clique_size
    )


def block_clique_bound_csr(
    descriptor: "BlockDescriptor",
    indptr: np.ndarray,
    indices: np.ndarray,
    scratch: BitmapScratch | None = None,
) -> int:
    """Upper bound on any clique the block can emit.

    Every reported clique lies inside kernel ∪ border (visited members
    are excluded by construction), so the bound is
    :func:`repro.mce.maximum.clique_upper_bound_packed` over that
    induced subgraph.  The driver prices each block with this before
    dispatch and skips those falling below ``min_clique_size``.
    """
    member_ids = np.concatenate([descriptor.kernel_ids, descriptor.border_ids])
    if len(member_ids) == 0:
        return 0
    bitmap = extract_block_bitmap(indptr, indices, member_ids, scratch)
    return clique_upper_bound_packed(bitmap)


def _emit_anchored(
    emitter, backend: Backend, anchor, candidates, excluded, pivot_rule
) -> None:
    """The single emission seam: one anchored sweep into one buffer.

    Every analysis path (:func:`_sweep` — and, through
    :meth:`~repro.core.cliquestore.CliqueBuffer.extend_prefixed`, the
    bucket demux) funnels its cliques into a
    :class:`~repro.core.cliquestore.CliqueBuffer`.  The packed-bitmap
    backend emits array-natively — the batched kernel's spine columns
    land straight in the packed buffers, no per-clique tuple or
    frozenset — while other backends' tuple streams are bulk-flattened
    by the buffer.  Emission order matches the legacy frozenset loops
    exactly.
    """
    if isinstance(backend, BitMatrixBackend):
        enumerate_anchored_packed(
            backend, anchor, candidates, excluded, pivot_rule, sink=emitter
        )
        return
    emitter.extend(
        enumerate_anchored_native(backend, anchor, candidates, excluded, pivot_rule)
    )


@dataclass(frozen=True)
class BlockDescriptor:
    """A block reduced to node-id arrays over a level CSR snapshot.

    This is what every executor analyses, and what the shared-memory
    executor ships to a worker instead of a pickled subgraph: three
    small ``int64`` arrays naming the block's members by their dense
    indices in the level graph's :class:`repro.graph.csr.CSRGraph`.
    ``kernel_ids`` preserves kernel assignment order.
    :func:`repro.core.blocks.blocks_csr` emits ``border_ids`` and
    ``visited_ids`` in ascending dense id; :func:`descriptors_of` keeps
    a reference :class:`~repro.core.blocks.Block`'s ``str``-sorted
    order.  Either way the member order is kernel, border, visited, and
    the analysis is a pure function of it.  ``block_id`` names the block
    in results, traces and spill records.  ``estimated_cost`` stays
    ``0.0`` until an executor that orders by cost prices the descriptor
    (:meth:`priced`).
    """

    block_id: int
    kernel_ids: np.ndarray
    border_ids: np.ndarray
    visited_ids: np.ndarray
    estimated_cost: float = 0.0

    def priced(self, csr, scratch: BitmapScratch | None = None) -> "BlockDescriptor":
        """This descriptor with ``estimated_cost`` set from ``csr``.

        The cost (:func:`~repro.decision.features.estimate_analysis_cost`)
        comes from the member count and the induced edge count, gathered
        from the ``indptr``/``indices`` of ``csr`` (a
        :class:`~repro.graph.csr.CSRGraph` or a published
        :class:`~repro.graph.csr.SharedCSR`).
        """
        edges = self.induced_edges(csr, scratch)
        return replace(self, estimated_cost=estimate_analysis_cost(self.size, edges))

    def induced_edges(self, csr, scratch: BitmapScratch | None = None) -> int:
        """Edges among the block's members, gathered from ``csr``'s rows."""
        member_ids = np.concatenate(
            (self.kernel_ids, self.border_ids, self.visited_ids)
        )
        return induced_edge_count(csr.indptr, csr.indices, member_ids, scratch)

    def nbytes(self) -> int:
        """Bytes of payload actually dispatched for this block."""
        return int(
            self.kernel_ids.nbytes + self.border_ids.nbytes + self.visited_ids.nbytes
        )

    @property
    def size(self) -> int:
        """Total number of nodes in the described block."""
        return len(self.kernel_ids) + len(self.border_ids) + len(self.visited_ids)


def descriptors_of(
    blocks: list[Block], graph: Graph
) -> tuple[list[BlockDescriptor], CSRGraph]:
    """Unpriced descriptors of reference blocks over one CSR of ``graph``.

    The one conversion for callers that hold
    :class:`~repro.core.blocks.Block` s (from
    :func:`~repro.core.blocks.build_blocks`) and want an executor's
    ``map_blocks(descriptors, csr)``: ``graph`` is the level graph the
    blocks were cut from, and block ``i`` becomes descriptor ``i``.  No
    block's own ``graph`` is read.
    """
    csr = CSRGraph(graph)
    descriptors = []
    for block_id, block in enumerate(blocks):
        member_ids = np.fromiter(
            map(csr.index_of, block.members), dtype=np.int64, count=block.size
        )
        border_start = len(block.kernel)
        visited_start = border_start + len(block.border)
        descriptors.append(
            BlockDescriptor(
                block_id=block_id,
                kernel_ids=member_ids[:border_start],
                border_ids=member_ids[border_start:visited_start],
                visited_ids=member_ids[visited_start:],
            )
        )
    return descriptors, csr


def analyze_block_csr(
    descriptor: BlockDescriptor,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    min_clique_size: int = 0,
) -> BlockReport:
    """Analyse one block directly from CSR views — no ``Graph`` rebuild.

    The block analysis every executor runs, serial or in a pool worker:
    :func:`_materialize_csr` packs the block's induced subgraph straight
    from the CSR rows, one peel over its int-mask rows yields the
    features and the kernel anchor order, the decision tree picks the
    combo, and the chosen backend is built from the same rows.
    ``min_clique_size`` skips below-floor anchors (see
    :func:`_anchor_below_floor`).
    """
    return analyze_block_csr_splittable(
        descriptor,
        indptr,
        indices,
        labels,
        tree=tree,
        combo=combo,
        scratch=scratch,
        min_clique_size=min_clique_size,
    )


@dataclass(frozen=True)
class _Materialization:
    """Everything an analysis path reads about one block.

    ``order`` is the peel order of all members; ``selection_seconds``
    is ``0.0`` when a forced combo bypassed the tree.  ``bitmap`` may be
    a scratch buffer, valid until the next same-sized block.
    """

    bitmap: np.ndarray
    features: BlockFeatures
    order: list[int]
    combo: Combo
    backend: Backend
    pivot_rule: object
    member_labels: list[Node]
    selection_seconds: float

    def kernel_order(self, num_kernel: int) -> list[int]:
        """Kernel member positions in degeneracy (peeling) order."""
        return [i for i in self.order if i < num_kernel]


def _materialize_csr(
    descriptor: "BlockDescriptor | SubtaskDescriptor",
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None,
    combo: Combo | None,
    scratch: BitmapScratch | None,
) -> _Materialization:
    """The one CSR→backend materialization of every analysis path.

    One flat gather packs the member rows
    (:func:`~repro.graph.csr.extract_block_bitmap`); the rows become
    Python-int masks, and one bucket-mask peel over them
    (:func:`~repro.decision.features.peel_features`) yields both the
    features and the peel order; the selected backend is built from the
    packed rows.  The member ordering (kernel, then border, then visited) is a pure
    function of the descriptor's id arrays, so every fragment of a split
    block sees the identical rows, features, and combo choice as an
    unsplit analysis of the same block — ``member_labels`` doubles as
    the emitters' per-block decode table.
    """
    member_ids = np.concatenate(
        [descriptor.kernel_ids, descriptor.border_ids, descriptor.visited_ids]
    )
    bitmap = extract_block_bitmap(indptr, indices, member_ids, scratch)
    masks = bitmap_masks(bitmap)
    features, order = peel_features(masks)
    selection_seconds = 0.0
    if combo is None:
        select_start = time.perf_counter()
        combo = select_combo(tree if tree is not None else paper_tree(), features)
        selection_seconds = time.perf_counter() - select_start
    member_labels = [labels[i] for i in member_ids.tolist()]
    return _Materialization(
        bitmap=bitmap,
        features=features,
        order=order,
        combo=combo,
        backend=backend_from_bitmap(combo.backend, member_labels, bitmap),
        pivot_rule=get_pivot_rule(combo.algorithm),
        member_labels=member_labels,
        selection_seconds=selection_seconds,
    )


def _sweep(
    block: _Materialization,
    anchors: list[int],
    candidates,
    excluded,
    emitter,
    min_clique_size: int,
    overrun=None,
) -> tuple[int, int]:
    """The anchored kernel sweep of Alg. 4 over ``anchors``, in order.

    Each anchor enumerates its cliques into ``emitter`` (unless it is
    below the floor) and then moves from the candidate to the excluded
    side.  ``overrun(done)`` may stop the sweep after any anchor.
    Returns ``(anchors done, anchors skipped)``.
    """
    backend = block.backend
    skipped = 0
    for done, anchor in enumerate(anchors, 1):
        if _anchor_below_floor(backend, anchor, candidates, min_clique_size):
            skipped += 1
        else:
            _emit_anchored(
                emitter, backend, anchor, candidates, excluded, block.pivot_rule
            )
        candidates = backend.remove(candidates, anchor)
        excluded = backend.add(excluded, anchor)
        if overrun is not None and overrun(done):
            return done, skipped
    return len(anchors), skipped


def _extra_of(anchors_skipped: int, selection_seconds: float) -> dict[str, float]:
    """The ``BlockReport.extra`` counters every analysis path reports."""
    extra: dict[str, float] = {}
    if anchors_skipped:
        extra["anchors_skipped"] = float(anchors_skipped)
    if selection_seconds:
        # The measured price of consulting the selector for this block;
        # harvests and benchmarks check it stays a vanishing fraction
        # of the analysis time (the <1% selection-overhead budget).
        extra["selection_seconds"] = selection_seconds
    return extra


# ----------------------------------------------------------------------
# Multi-block batched dispatch (bucket formation + demux)
# ----------------------------------------------------------------------
#
# Thousands of tiny blocks each pay a full per-block round-trip —
# bitmap extraction, two degeneracy peels, backend construction, and a
# batched-kernel launch per anchor — even though each launch advances
# only a handful of states.  Bucketing groups small blocks by padded
# shape so the whole group shares ONE lockstep peel and ONE multi-block
# kernel run (:func:`repro.mce.bitmatrix.expand_batched_many`): the
# per-sweep numpy dispatch cost is amortized over every block in the
# bucket.  The demux reproduces exactly the per-block clique sets and
# report structure of :func:`analyze_block_csr`, so buckets are a pure
# execution strategy — invisible to everything downstream.

# Blocks are padded to the next multiple of this quantum; buckets are
# keyed by the padded size, bounding padding waste below 1/PAD_QUANTUM
# of the bucket's rows in the worst case.
PAD_QUANTUM = 8


def padded_size(size: int) -> int:
    """Bucket key of a block: its size rounded up to the padding quantum."""
    return max(PAD_QUANTUM, ((size + PAD_QUANTUM - 1) // PAD_QUANTUM) * PAD_QUANTUM)


@dataclass(frozen=True)
class BlockBucket:
    """A group of same-padded-shape small blocks dispatched as one unit."""

    n_pad: int
    descriptors: tuple[BlockDescriptor, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.descriptors)

    @property
    def estimated_cost(self) -> float:
        """Summed cost estimate — buckets schedule like one big block."""
        return float(sum(d.estimated_cost for d in self.descriptors))

    def nbytes(self) -> int:
        """Bytes of descriptor payload dispatched for this bucket."""
        return int(sum(d.nbytes() for d in self.descriptors))

    @property
    def padding_waste(self) -> float:
        """Fraction of padded adjacency rows that hold no real node."""
        total = self.num_blocks * self.n_pad
        if total == 0:
            return 0.0
        used = sum(d.size for d in self.descriptors)
        return 1.0 - used / total


def form_buckets(
    descriptors: "list[BlockDescriptor]",
    cutoff: int,
    max_bucket: int | None = None,
) -> "tuple[list[BlockBucket], list[BlockDescriptor]]":
    """Partition descriptors into shape buckets and pass-through blocks.

    Blocks of at most ``cutoff`` nodes are grouped by padded size
    (:func:`padded_size`); everything larger — the blocks where
    split/steal parallelism matters and one kernel launch is already
    well amortized — is returned unchanged for the per-block path.
    ``max_bucket`` (parallel executors) chunks each shape group so one
    popular shape does not collapse into a single giant work unit.
    Bucket membership preserves the input (LPT/stream) order within
    each bucket, and buckets are emitted smallest shape first, so the
    partition is deterministic.
    """
    by_shape: dict[int, list[BlockDescriptor]] = {}
    large: list[BlockDescriptor] = []
    for descriptor in descriptors:
        if descriptor.size > cutoff:
            large.append(descriptor)
        else:
            by_shape.setdefault(padded_size(descriptor.size), []).append(descriptor)
    buckets: list[BlockBucket] = []
    for n_pad, group in sorted(by_shape.items()):
        step = max_bucket if max_bucket is not None else len(group)
        for lo in range(0, len(group), max(step, 1)):
            buckets.append(
                BlockBucket(n_pad=n_pad, descriptors=tuple(group[lo : lo + step]))
            )
    return buckets, large


def analyze_bucket_csr(
    bucket: BlockBucket,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    batch_stats: dict | None = None,
    min_clique_size: int = 0,
) -> list[BlockReport]:
    """Analyse a whole bucket through one multi-block kernel run.

    Produces one :class:`BlockReport` per descriptor, in bucket order,
    with exactly the clique set :func:`analyze_block_csr` would report
    for the same block (the anchored sweep's root states are
    reconstructed per anchor from the lockstep degeneracy peel, so
    exact-once accounting is untouched).  Features, tree selection, and
    report fields match the per-block path; ``seconds`` is the bucket's
    wall-clock split evenly across its blocks (per-block attribution
    inside one fused kernel run is not observable), and ``extra``
    carries ``batched``/``bucket_blocks`` markers.

    A forced ``combo`` whose pivot rule the batched kernel cannot
    vectorize falls back to per-block analysis (identical output,
    per-block speed).  ``batch_stats`` (optional dict) receives the
    bucket-level counters the executor turns into a
    :class:`~repro.mce.instrumentation.BatchDispatch` record.
    """
    start = time.perf_counter()
    descriptors = bucket.descriptors
    num_blocks = len(descriptors)
    if num_blocks == 0:
        return []
    if combo is not None and pivot_kind_of(get_pivot_rule(combo.algorithm)) is None:
        return [
            analyze_block_csr(
                descriptor,
                indptr,
                indices,
                labels,
                tree,
                combo,
                scratch,
                min_clique_size=min_clique_size,
            )
            for descriptor in descriptors
        ]
    n_pad = bucket.n_pad
    words = words_for(n_pad)
    sizes = np.fromiter(
        (d.size for d in descriptors), dtype=np.int64, count=num_blocks
    )
    stacked = np.zeros((num_blocks, n_pad, words), dtype=np.uint64)
    member_ids_of: list[np.ndarray] = []
    for b, descriptor in enumerate(descriptors):
        member_ids = np.concatenate(
            [descriptor.kernel_ids, descriptor.border_ids, descriptor.visited_ids]
        )
        member_ids_of.append(member_ids)
        bitmap = extract_block_bitmap(indptr, indices, member_ids, scratch)
        stacked[b, : bitmap.shape[0], : bitmap.shape[1]] = bitmap
    # One lockstep peel yields every block's degeneracy (a feature) AND
    # its kernel anchor order — the per-block path's one-peel-for-both,
    # vectorized across the bucket.
    degrees = popcount_rows(stacked.reshape(-1, words)).reshape(num_blocks, n_pad)
    orders, degeneracies = degeneracy_orders_many(stacked, sizes)
    num_edges = degrees.sum(axis=1) // 2
    d_stars = _d_stars_of_degree_matrix(degrees, n_pad)
    features_of: list[BlockFeatures] = []
    combos_of: list[Combo] = []
    selection_of: list[float] = []
    for b in range(num_blocks):
        n = int(sizes[b])
        e = int(num_edges[b])
        features = BlockFeatures(
            num_nodes=n,
            num_edges=e,
            density=2.0 * e / (n * (n - 1)) if n > 1 else 0.0,
            degeneracy=int(degeneracies[b]),
            d_star=int(d_stars[b]),
        )
        features_of.append(features)
        select_start = time.perf_counter()
        combos_of.append(
            combo
            if combo is not None
            else select_combo(tree if tree is not None else paper_tree(), features)
        )
        selection_of.append(
            time.perf_counter() - select_start if combo is None else 0.0
        )
    # One vectorizable pivot kind drives the whole bucket (the clique
    # set is pivot-invariant); a unanimous recognized selection keeps
    # its kind, mixed selections default to tomita.
    kinds = {pivot_kind_of(get_pivot_rule(c.algorithm)) for c in combos_of}
    kind = kinds.pop() if len(kinds) == 1 and None not in kinds else "tomita"
    # Root (P, X) states, one per kernel anchor in degeneracy order:
    # anchors already processed move from the candidate to the excluded
    # side, reconstructed with a cumulative-OR over anchor bits exactly
    # as the serial sweep does incrementally.
    task_block_parts: list[np.ndarray] = []
    roots_p_parts: list[np.ndarray] = []
    roots_x_parts: list[np.ndarray] = []
    anchors_of: list[np.ndarray] = []
    skipped_of = np.zeros(num_blocks, dtype=np.int64)
    one = np.uint64(1)
    for b, descriptor in enumerate(descriptors):
        num_kernel = len(descriptor.kernel_ids)
        num_candidates = num_kernel + len(descriptor.border_ids)
        num_members = int(sizes[b])
        order_row = orders[b, :num_members]
        kernel_order = order_row[order_row < num_kernel]
        k = len(kernel_order)
        if k == 0:
            anchors_of.append(kernel_order)
            continue
        rows = stacked[b][kernel_order]
        anchor_bits = np.zeros((k, words), dtype=np.uint64)
        anchor_bits[np.arange(k), kernel_order >> 6] = one << (
            kernel_order.astype(np.uint64) & np.uint64(63)
        )
        previous = np.zeros_like(anchor_bits)
        if k > 1:
            np.bitwise_or.accumulate(anchor_bits[:-1], axis=0, out=previous[1:])
        cand0 = pack_indices(range(num_candidates), words)
        excl0 = pack_indices(range(num_candidates, num_members), words)
        roots_p = rows & cand0 & ~previous
        roots_x = rows & (excl0 | previous)
        if min_clique_size > 1:
            # Vectorized twin of _anchor_below_floor: an anchor whose
            # root state holds < floor−1 candidates cannot emit a clique
            # of floor size.  Rotation is already baked into the
            # cumulative-OR masks, so dropping a root row changes
            # nothing for the surviving ones.
            keep = 1 + popcount_rows(roots_p) >= min_clique_size
            skipped_of[b] = int(k - keep.sum())
            kernel_order = kernel_order[keep]
            roots_p = roots_p[keep]
            roots_x = roots_x[keep]
            k = len(kernel_order)
        anchors_of.append(kernel_order)
        if k == 0:
            continue
        roots_p_parts.append(roots_p)
        roots_x_parts.append(roots_x)
        task_block_parts.append(np.full(k, b, dtype=np.int64))
    if task_block_parts:
        task_blocks = np.concatenate(task_block_parts)
        roots_p = np.vstack(roots_p_parts)
        roots_x = np.vstack(roots_x_parts)
    else:
        task_blocks = np.empty(0, dtype=np.int64)
        roots_p = np.empty((0, words), dtype=np.uint64)
        roots_x = np.empty((0, words), dtype=np.uint64)
    kernel_stats: dict = {}
    extensions = expand_batched_many(
        stacked.reshape(-1, words),
        task_blocks,
        roots_p,
        roots_x,
        n_pad,
        kind,
        stats=kernel_stats,
    )
    elapsed = time.perf_counter() - start
    if batch_stats is not None:
        batch_stats["num_blocks"] = float(num_blocks)
        batch_stats["num_tasks"] = float(len(task_blocks))
        batch_stats["n_pad"] = float(n_pad)
        batch_stats["padding_waste"] = bucket.padding_waste
        batch_stats["sweeps"] = float(kernel_stats.get("sweeps", 0))
        batch_stats["seconds"] = elapsed
    reports: list[BlockReport] = []
    per_block_seconds = elapsed / num_blocks
    cursor = 0
    for b, descriptor in enumerate(descriptors):
        member_labels = [labels[i] for i in member_ids_of[b].tolist()]
        emitter = CliqueBuffer(labels=member_labels)
        for j, anchor in enumerate(anchors_of[b].tolist()):
            emitter.extend_prefixed(anchor, extensions[cursor + j])
        cursor += len(anchors_of[b])
        extra = {
            "batched": 1.0,
            "bucket_blocks": float(num_blocks),
            **_extra_of(int(skipped_of[b]), selection_of[b]),
        }
        reports.append(
            BlockReport(
                cliques=emitter.build(),
                combo=combos_of[b],
                features=features_of[b],
                seconds=per_block_seconds,
                kernel_nodes=len(descriptor.kernel_ids),
                extra=extra,
            )
        )
    return reports


def _d_stars_of_degree_matrix(degrees: np.ndarray, n_pad: int) -> np.ndarray:
    """Per-row degree h-index of a padded degree matrix.

    Padding entries are zero-degree, which cannot satisfy ``degree >=
    rank`` for any rank ≥ 1, so the extra columns never change the
    h-index — each row agrees with :func:`_d_star_of_degrees` on the
    block's true degree sequence.
    """
    descending = -np.sort(-degrees, axis=1)
    at_least = descending >= np.arange(1, n_pad + 1)[None, :]
    has_any = at_least.any(axis=1)
    last_true = n_pad - np.argmax(at_least[:, ::-1], axis=1)
    return np.where(has_any, last_true, 0).astype(np.int64)


# ----------------------------------------------------------------------
# Anchor-level splitting (intra-block parallelism)
# ----------------------------------------------------------------------
#
# The anchored sweep of Algorithm 4 processes kernel nodes one at a
# time, and the (candidates, excluded) state at anchor position t is a
# *pure function* of the degeneracy order: candidates start as
# kernel ∪ border minus the anchors already processed, excluded as
# visited plus those anchors.  A contiguous range of anchor positions is
# therefore an independently computable subtask — run anywhere, in any
# order, the union over a partition of [0, K) is exactly the block's
# clique set, each clique exactly once, because the exclusion-set
# discipline that makes blocks non-overlapping also makes anchor ranges
# within a block non-overlapping.


@dataclass(frozen=True)
class SubtaskDescriptor:
    """A contiguous anchor range of one block's kernel sweep.

    Carries the same id arrays as the parent :class:`BlockDescriptor`
    (the worker re-extracts the identical bitmap from shared CSR) plus
    the precomputed degeneracy order of the kernel positions and the
    half-open range ``[start, stop)`` of that order this subtask owns.
    Anchors in ``kernel_order[:start]`` are treated as already processed
    (moved to the excluded side) so maximality and exact-once accounting
    are preserved without any cross-subtask communication.
    """

    block_id: int
    subtask_id: int
    kernel_ids: np.ndarray
    border_ids: np.ndarray
    visited_ids: np.ndarray
    kernel_order: np.ndarray
    start: int
    stop: int
    estimated_cost: float = 0.0

    def nbytes(self) -> int:
        """Bytes of payload actually dispatched for this subtask."""
        return int(
            self.kernel_ids.nbytes
            + self.border_ids.nbytes
            + self.visited_ids.nbytes
            + self.kernel_order.nbytes
        )


@dataclass(frozen=True)
class SplitResult:
    """A worker's answer when it split a block instead of finishing it.

    ``partial`` holds the cliques of anchor positions ``[0, done)``
    (empty for a pure probe, where the worker only computed the order
    and the per-anchor costs); the parent turns the remaining positions
    into :class:`SubtaskDescriptor` chunks via :func:`build_subtasks`.
    """

    block_id: int
    partial: BlockReport
    kernel_order: np.ndarray
    done: int
    anchor_costs: np.ndarray


def anchor_cost_estimates(
    bitmap: np.ndarray, kernel_order: list[int], num_candidates: int
) -> np.ndarray:
    """Estimated cost of each anchored enumeration, in sweep order.

    Position ``t``'s subproblem is the anchor plus ``P_t = N(anchor) ∩
    candidates_t``, where ``candidates_t`` excludes the anchors already
    processed — the same shrinking-candidate-set effect that makes late
    anchors cheap in degeneracy order.  Each estimate feeds
    :func:`~repro.decision.features.estimate_analysis_cost` with the
    subproblem's node and edge counts, so subtask chunking balances on
    the same scale the block scheduler uses.
    """
    words = bitmap.shape[1] if bitmap.ndim == 2 else 0
    costs = np.zeros(len(kernel_order), dtype=np.float64)
    if words == 0 or not kernel_order:
        return costs
    cand = pack_indices(range(num_candidates), words)
    anchor_bit = np.zeros(words, dtype=np.uint64)
    for t, anchor in enumerate(kernel_order):
        p = bitmap[anchor] & cand
        members = bits_to_indices(p)
        size = len(members)
        edges_within = (
            int(popcount_rows(bitmap[members] & p).sum()) // 2 if size else 0
        )
        costs[t] = estimate_analysis_cost(size + 1, edges_within + size)
        anchor_bit[:] = 0
        anchor_bit[anchor >> 6] = np.uint64(1) << np.uint64(anchor & 63)
        cand &= ~anchor_bit
    return costs


def build_subtasks(
    descriptor: BlockDescriptor,
    kernel_order: np.ndarray,
    anchor_costs: np.ndarray,
    done: int,
    target: int,
) -> list[SubtaskDescriptor]:
    """Chunk the unprocessed anchor positions into ``target`` subtasks.

    Greedy contiguous chunking: walk positions ``[done, K)`` in sweep
    order, closing a chunk once it accumulates its proportional share of
    the remaining estimated cost.  Contiguity keeps the per-subtask
    bitmap re-extraction overhead bounded by the chunk count (not the
    anchor count) and makes the merged clique order equal to the serial
    sweep.  Deterministic: same inputs, same chunks.
    """
    total_positions = len(kernel_order)
    remaining = total_positions - done
    if remaining <= 0:
        return []
    chunks = max(1, min(target, remaining))
    remaining_cost = float(anchor_costs[done:].sum())
    share = remaining_cost / chunks if remaining_cost > 0.0 else 0.0
    subtasks: list[SubtaskDescriptor] = []
    start = done
    accumulated = 0.0
    for position in range(done, total_positions):
        accumulated += float(anchor_costs[position])
        positions_left = total_positions - (position + 1)
        chunks_left = chunks - len(subtasks) - 1
        close = accumulated >= share and chunks_left > 0
        if (close and position + 1 > start) or positions_left == chunks_left:
            if position + 1 > start:
                subtasks.append(
                    _subtask_of(
                        descriptor, kernel_order, start, position + 1, accumulated
                    )
                )
                start = position + 1
                accumulated = 0.0
    if start < total_positions:
        subtasks.append(
            _subtask_of(
                descriptor, kernel_order, start, total_positions, accumulated
            )
        )
    return subtasks


def _subtask_of(
    descriptor: BlockDescriptor,
    kernel_order: np.ndarray,
    start: int,
    stop: int,
    cost: float,
) -> SubtaskDescriptor:
    return SubtaskDescriptor(
        block_id=descriptor.block_id,
        subtask_id=len_prefix_id(start),
        kernel_ids=descriptor.kernel_ids,
        border_ids=descriptor.border_ids,
        visited_ids=descriptor.visited_ids,
        kernel_order=np.asarray(kernel_order, dtype=np.int64),
        start=start,
        stop=stop,
        estimated_cost=cost,
    )


def len_prefix_id(start: int) -> int:
    """Subtask id of the chunk beginning at anchor position ``start``.

    Using the start position itself (rather than a running counter)
    keeps ids stable across re-splits and retries: the fragment covering
    positions ``[s, t)`` is always subtask ``s`` of its block, which is
    what the fault-injection spec ``kill:<block>.<subtask>`` targets.
    """
    return start


def analyze_block_csr_splittable(
    descriptor: BlockDescriptor,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    probe: bool = False,
    budget_seconds: float | None = None,
    min_clique_size: int = 0,
) -> "BlockReport | SplitResult":
    """Analyse a block, possibly yielding a split instead of a report.

    With ``probe=True`` (the parent's cost threshold flagged the block
    before dispatch) the worker computes the bitmap, features, kernel
    degeneracy order, and per-anchor cost estimates, then returns a
    :class:`SplitResult` immediately — all sweep work is delegated to
    subtasks.  Otherwise the block is analysed normally, except that
    when ``budget_seconds`` is set and the sweep overruns it with at
    least two anchors still pending, the worker stops after the current
    anchor and returns a :class:`SplitResult` carrying the cliques found
    so far — the mid-run re-split that lets an under-estimated straggler
    shed its tail onto idle workers.

    Blocks with fewer than two kernel anchors never split.
    """
    start_time = time.perf_counter()
    block = _materialize_csr(descriptor, indptr, indices, labels, tree, combo, scratch)
    num_kernel = len(descriptor.kernel_ids)
    num_candidates = num_kernel + len(descriptor.border_ids)
    kernel_order = block.kernel_order(num_kernel)
    splittable = len(kernel_order) >= 2
    emitter = CliqueBuffer(labels=block.member_labels)

    def report(anchors_skipped: int) -> BlockReport:
        return BlockReport(
            cliques=emitter.build(),
            combo=block.combo,
            features=block.features,
            seconds=time.perf_counter() - start_time,
            kernel_nodes=num_kernel,
            extra=_extra_of(anchors_skipped, block.selection_seconds),
        )

    def split(partial: BlockReport, done: int) -> SplitResult:
        return SplitResult(
            block_id=descriptor.block_id,
            partial=partial,
            kernel_order=np.asarray(kernel_order, dtype=np.int64),
            done=done,
            anchor_costs=anchor_cost_estimates(
                block.bitmap, kernel_order, num_candidates
            ),
        )

    if probe and splittable:
        return split(report(0), 0)
    overrun = None
    if budget_seconds is not None and splittable:

        def overrun(done: int) -> bool:
            return (
                len(kernel_order) - done >= 2
                and time.perf_counter() - start_time > budget_seconds
            )

    done, anchors_skipped = _sweep(
        block,
        kernel_order,
        block.backend.make(range(num_candidates)),
        block.backend.make(range(num_candidates, len(block.member_labels))),
        emitter,
        min_clique_size,
        overrun,
    )
    if done < len(kernel_order):
        return split(report(anchors_skipped), done)
    return report(anchors_skipped)


def analyze_subtask_csr(
    subtask: SubtaskDescriptor,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    min_clique_size: int = 0,
) -> BlockReport:
    """Run one anchor range of a split block's kernel sweep.

    The (candidates, excluded) state is reconstructed from the
    precomputed degeneracy order: anchors before ``subtask.start`` are
    excluded exactly as if this worker had processed them itself, so the
    fragment reports precisely the cliques the serial sweep reports at
    positions ``[start, stop)`` — no more, no fewer.  A
    ``min_clique_size`` floor skips below-floor anchors of the range
    (same test as the unsplit sweep, so fragments stay bit-compatible).
    """
    start_time = time.perf_counter()
    block = _materialize_csr(subtask, indptr, indices, labels, tree, combo, scratch)
    num_kernel = len(subtask.kernel_ids)
    num_candidates = num_kernel + len(subtask.border_ids)
    processed = subtask.kernel_order[: subtask.start].tolist()
    processed_set = set(processed)
    backend = block.backend
    emitter = CliqueBuffer(labels=block.member_labels)
    _, anchors_skipped = _sweep(
        block,
        subtask.kernel_order[subtask.start : subtask.stop].tolist(),
        backend.make(i for i in range(num_candidates) if i not in processed_set),
        backend.make(
            list(range(num_candidates, len(block.member_labels))) + processed
        ),
        emitter,
        min_clique_size,
    )
    return BlockReport(
        cliques=emitter.build(),
        combo=block.combo,
        features=block.features,
        seconds=time.perf_counter() - start_time,
        kernel_nodes=subtask.stop - subtask.start,
        extra=_extra_of(anchors_skipped, block.selection_seconds),
    )


def merge_fragment_reports(
    block_id: int,
    num_kernel: int,
    total_positions: int,
    fragments: list[tuple[int, int, BlockReport]],
) -> BlockReport:
    """Merge ``(start, stop, report)`` fragments into one block report.

    Exact-once accounting is verified structurally: the fragment ranges
    must tile ``[0, total_positions)`` with no gap and no overlap, which
    — given that each fragment reports exactly its range's cliques — is
    the per-block version of the paper's visited/exclusion-set argument.
    Cliques concatenate in range order, reproducing the serial sweep's
    emission order; ``seconds`` sums to the serial-equivalent time.

    Raises
    ------
    ValueError
        When the fragment ranges do not tile the sweep.
    """
    ordered = sorted(fragments, key=lambda fragment: fragment[0])
    position = 0
    for start, stop, _ in ordered:
        if start != position or stop < start:
            raise ValueError(
                f"block {block_id}: fragment ranges do not tile the kernel "
                f"sweep (expected start {position}, got [{start}, {stop}))"
            )
        position = stop
    if position != total_positions:
        raise ValueError(
            f"block {block_id}: fragments cover {position} of "
            f"{total_positions} anchor positions"
        )
    first = ordered[0][2]
    cliques = CliqueStore.concat([report.cliques for _, _, report in ordered])
    seconds = 0.0
    extra: dict[str, float] = {}
    for _, _, report in ordered:
        seconds += report.seconds
        for counter in ("anchors_skipped", "selection_seconds"):
            value = float(report.extra.get(counter, 0.0))
            if value:
                extra[counter] = extra.get(counter, 0.0) + value
        extra["dispatch_bytes"] = extra.get("dispatch_bytes", 0.0) + float(
            report.extra.get("dispatch_bytes", 0.0)
        )
        extra["peak_rss_kb"] = max(
            extra.get("peak_rss_kb", 0.0), float(report.extra.get("peak_rss_kb", 0.0))
        )
        if report.extra.get("retried"):
            extra["retried"] = 1.0
    extra["split"] = 1.0
    extra["subtasks"] = float(len(ordered))
    if "worker_pid" in first.extra:
        extra["worker_pid"] = first.extra["worker_pid"]
    return BlockReport(
        cliques=cliques,
        combo=first.combo,
        features=first.features,
        seconds=seconds,
        kernel_nodes=num_kernel,
        extra=extra,
    )


def analyze_blocks(
    blocks: list[Block],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    min_clique_size: int = 0,
) -> tuple[list[frozenset[Node]], list[BlockReport]]:
    """Analyse every block serially; return all cliques plus the reports.

    The distributed runner (:mod:`repro.distributed.runner`) dispatches
    the same per-block work across simulated or real workers; this serial
    form is the reference implementation the others are tested against.
    """
    all_cliques: list[frozenset[Node]] = []
    reports: list[BlockReport] = []
    for block in blocks:
        report = analyze_block(
            block, tree=tree, combo=combo, min_clique_size=min_clique_size
        )
        all_cliques.extend(report.cliques)
        reports.append(report)
    return all_cliques, reports
