"""Packed clique result plane: CSR-style buffers from kernel to result.

The hot output path of the enumeration used to materialize every maximal
clique as a ``frozenset`` of Python labels — one object per clique, one
boxed reference per member — and then pickle those objects through IPC
and spill segments.  On clique-dense social networks the emission cost
dwarfs the bitmatrix kernel time (the GPU formulation of Almasri et al.,
arXiv:2212.01473, and the shared-memory design of Das et al.,
arXiv:1807.09417, both flatten clique output into packed buffers for
exactly this reason).

:class:`CliqueStore` is the packed representation used everywhere now:

* ``offsets`` — ``uint64`` array of length ``num_cliques + 1``; clique
  ``i`` occupies ``vertices[offsets[i]:offsets[i + 1]]``;
* ``vertices`` — flat ``uint32`` member ids, one run per clique, in
  emission order;
* ``levels`` — optional per-clique ``int32`` provenance (the recursion
  level that produced each clique); ``None`` on block-level stores;
* ``labels`` — optional decode table: ``labels[id]`` is the node label
  of vertex id ``id``.  Block-level stores carry their block's member
  labels (small); the driver's merged store carries the run-wide table.

Stores are append-only by construction and never mutated after
:meth:`CliqueBuffer.build`, so views may be shared freely.  The
``frozenset`` API every downstream consumer expects (iteration, ``len``,
``in``, indexing) is preserved by on-demand decode.

:class:`CliqueBuffer` is the growing emitter the block-analysis paths
write into (amortized-doubling flat arrays, no per-clique Python
object), and :class:`GlobalCliqueIndex` unifies per-block label spaces
into one run-wide id space with a single vectorized gather per block.
Cliques take no other form between the kernel's emit and the Lemma-1
merge (see ``docs/resultplane.md``).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

_OFFSET_DTYPE = np.uint64
_VERTEX_DTYPE = np.uint32
_LEVEL_DTYPE = np.int32


class CliqueStore:
    """An ordered collection of cliques as packed CSR-style arrays.

    Behaves like the ``list[frozenset]`` it replaced — ``len``,
    iteration, indexing, ``in`` and ``==`` all decode on demand — while
    the aggregate statistics every report and result needs
    (:meth:`max_size`, :meth:`mean_size`, :meth:`size_histogram`,
    :meth:`top_k`) are O(1)-per-clique vectorized reads of the offsets
    array, touching no Python objects at all.
    """

    __slots__ = ("offsets", "vertices", "levels", "labels", "_decoded")

    def __init__(
        self,
        offsets: np.ndarray,
        vertices: np.ndarray,
        levels: np.ndarray | None = None,
        labels: Sequence | None = None,
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=_OFFSET_DTYPE)
        self.vertices = np.asarray(vertices, dtype=_VERTEX_DTYPE)
        self.levels = (
            None if levels is None else np.asarray(levels, dtype=_LEVEL_DTYPE)
        )
        self.labels = labels
        self._decoded: list[frozenset] | None = None
        if len(self.offsets) == 0:
            raise ValueError("offsets must have at least one entry")
        if int(self.offsets[-1]) != len(self.vertices):
            raise ValueError(
                f"offsets claim {int(self.offsets[-1])} vertices, "
                f"buffer holds {len(self.vertices)}"
            )
        if self.levels is not None and len(self.levels) != len(self.offsets) - 1:
            raise ValueError(
                f"levels length {len(self.levels)} does not match "
                f"{len(self.offsets) - 1} cliques"
            )

    # -- construction --------------------------------------------------
    @classmethod
    def empty(cls, labels: Sequence | None = None) -> "CliqueStore":
        """A store holding no cliques."""
        return cls(
            np.zeros(1, dtype=_OFFSET_DTYPE),
            np.empty(0, dtype=_VERTEX_DTYPE),
            labels=labels,
        )

    @classmethod
    def concat(cls, stores: "Sequence[CliqueStore]") -> "CliqueStore":
        """Concatenate stores sharing one id space, preserving order.

        The caller is responsible for the stores living in the same
        vertex-id space (fragments of one block, or per-block stores
        already remapped by a :class:`GlobalCliqueIndex`).  Labels are
        taken from the first store that has any.
        """
        stores = [s for s in stores if s is not None]
        if not stores:
            return cls.empty()
        labels = next((s.labels for s in stores if s.labels is not None), None)
        counts = [len(s) for s in stores]
        total = sum(counts)
        offsets = np.zeros(total + 1, dtype=_OFFSET_DTYPE)
        cursor = 0
        base = np.uint64(0)
        for store in stores:
            k = len(store)
            offsets[cursor + 1 : cursor + k + 1] = store.offsets[1:] + base
            base = offsets[cursor + k]
            cursor += k
        vertices = (
            np.concatenate([s.vertices for s in stores])
            if total
            else np.empty(0, dtype=_VERTEX_DTYPE)
        )
        merged = cls(offsets, vertices, labels=labels)
        if any(s.levels is not None for s in stores):
            merged.levels = np.concatenate(
                [
                    s.levels
                    if s.levels is not None
                    else np.zeros(len(s), dtype=_LEVEL_DTYPE)
                    for s in stores
                ]
            ) if total else np.empty(0, dtype=_LEVEL_DTYPE)
        return merged

    def with_labels(self, labels: Sequence) -> "CliqueStore":
        """This store with a decode table attached (arrays shared)."""
        return CliqueStore(self.offsets, self.vertices, self.levels, labels)

    # -- vectorized aggregates ----------------------------------------
    @property
    def num_cliques(self) -> int:
        return len(self.offsets) - 1

    @property
    def sizes(self) -> np.ndarray:
        """Per-clique member counts (``int64``), one ``np.diff``."""
        return np.diff(self.offsets).astype(np.int64)

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed buffers (labels excluded)."""
        nbytes = self.offsets.nbytes + self.vertices.nbytes
        if self.levels is not None:
            nbytes += self.levels.nbytes
        return int(nbytes)

    def max_size(self) -> int:
        """Largest clique size, or 0 when empty."""
        if self.num_cliques == 0:
            return 0
        return int(self.sizes.max())

    def mean_size(self) -> float:
        """Mean clique size, or 0.0 when empty."""
        if self.num_cliques == 0:
            return 0.0
        return float(len(self.vertices)) / self.num_cliques

    def size_histogram(self) -> "dict[int, int]":
        """``{size: count}`` over all cliques, via one bincount."""
        if self.num_cliques == 0:
            return {}
        counts = np.bincount(self.sizes)
        return {
            int(size): int(count)
            for size, count in enumerate(counts)
            if count
        }

    def top_k(self, k: int) -> np.ndarray:
        """Indices of the ``k`` largest cliques plus all boundary ties.

        An :func:`np.argpartition` on the offsets diff — the returned
        indices cover every clique whose size reaches the ``k``-th
        largest, so a caller applying a deterministic tie-break sees
        every candidate.  Sorted by size descending (stable).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        n = self.num_cliques
        if k == 0 or n == 0:
            return np.empty(0, dtype=np.int64)
        sizes = self.sizes
        if k < n:
            threshold = sizes[np.argpartition(-sizes, k - 1)[k - 1]]
            candidates = np.flatnonzero(sizes >= threshold)
        else:
            candidates = np.arange(n, dtype=np.int64)
        order = np.argsort(-sizes[candidates], kind="stable")
        return candidates[order]

    # -- selection / remapping ----------------------------------------
    def select(self, which: np.ndarray) -> "CliqueStore":
        """A new store holding the cliques picked by mask or indices."""
        which = np.asarray(which)
        indices = np.flatnonzero(which) if which.dtype == bool else which
        sizes = self.sizes[indices]
        offsets = np.zeros(len(indices) + 1, dtype=_OFFSET_DTYPE)
        np.cumsum(sizes, out=offsets[1:])
        if len(indices):
            starts = self.offsets[indices].astype(np.int64)
            gather = _span_gather(starts, sizes)
            vertices = self.vertices[gather]
        else:
            vertices = np.empty(0, dtype=_VERTEX_DTYPE)
        levels = None if self.levels is None else self.levels[indices]
        return CliqueStore(offsets, vertices, levels, self.labels)

    def remap(self, table: np.ndarray, labels: Sequence | None = None) -> "CliqueStore":
        """A new store with every vertex id mapped through ``table``."""
        vertices = table[self.vertices].astype(_VERTEX_DTYPE)
        return CliqueStore(self.offsets, vertices, self.levels, labels)

    # -- decode (the frozenset back-compat surface) -------------------
    def members(self, i: int) -> np.ndarray:
        """Vertex-id view of clique ``i`` (no decode, no copy)."""
        return self.vertices[int(self.offsets[i]) : int(self.offsets[i + 1])]

    def decode(self, i: int) -> frozenset:
        """Clique ``i`` as a frozenset of labels (ids when unlabeled)."""
        row = self.members(i).tolist()
        labels = self.labels
        if labels is None:
            return frozenset(row)
        return frozenset(labels[v] for v in row)

    def to_list(self) -> "list[frozenset]":
        """Every clique decoded, in emission order (cached)."""
        if self._decoded is None:
            labels = self.labels
            offsets = self.offsets.tolist()
            flat = self.vertices.tolist()
            if labels is not None:
                flat = [labels[v] for v in flat]
            self._decoded = [
                frozenset(flat[offsets[i] : offsets[i + 1]])
                for i in range(self.num_cliques)
            ]
        return self._decoded

    def __len__(self) -> int:
        return self.num_cliques

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.to_list())

    def __getitem__(self, item):
        return self.to_list()[item]

    def __contains__(self, clique) -> bool:
        return clique in self.to_list()

    def __eq__(self, other) -> bool:
        if isinstance(other, CliqueStore):
            return self.to_list() == other.to_list()
        if isinstance(other, list):
            return self.to_list() == other
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"CliqueStore(cliques={self.num_cliques}, "
            f"vertices={len(self.vertices)}, "
            f"labeled={self.labels is not None})"
        )

    # -- pickling (the decode cache never crosses a process) ----------
    def __getstate__(self):
        return (self.offsets, self.vertices, self.levels, self.labels)

    def __setstate__(self, state):
        self.offsets, self.vertices, self.levels, self.labels = state
        self._decoded = None


def _span_gather(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat gather indices for contiguous spans ``[start, start+size)``.

    Vectorized: one ``repeat`` for the bases plus a segmented ramp
    (zero-length spans simply contribute nothing).
    """
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    bases = np.repeat(starts, sizes)
    span_starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=span_starts[1:])
    ramp = np.arange(total, dtype=np.int64) - np.repeat(span_starts, sizes)
    return bases + ramp


class CliqueBuffer:
    """Growing packed emitter: kernels write here, no per-clique object.

    Maintains amortized-doubling flat ``vertices``/``counts`` arrays;
    :meth:`build` snapshots them into an immutable :class:`CliqueStore`.
    Three entry points cover every emission shape in the codebase:

    * :meth:`extend` — an iterable of int tuples (the stack kernel and
      the native backends), flattened with one C-level ``fromiter``;
    * :meth:`extend_prefixed` — the bucket demux: per-anchor extension
      lists with the anchor scattered in front, fully vectorized;
    * :meth:`append_columns` — the batched kernel's array-native sink:
      one emit record's spine columns land as a single 2-D fill.
    """

    __slots__ = ("labels", "_vertices", "_used", "_counts", "_num")

    def __init__(self, labels: Sequence | None = None) -> None:
        self.labels = labels
        self._vertices = np.empty(256, dtype=_VERTEX_DTYPE)
        self._used = 0
        self._counts = np.empty(64, dtype=np.int64)
        self._num = 0

    # -- growth --------------------------------------------------------
    def _reserve_vertices(self, extra: int) -> None:
        needed = self._used + extra
        if needed > len(self._vertices):
            grown = max(needed, 2 * len(self._vertices))
            buffer = np.empty(grown, dtype=_VERTEX_DTYPE)
            buffer[: self._used] = self._vertices[: self._used]
            self._vertices = buffer

    def _reserve_counts(self, extra: int) -> None:
        needed = self._num + extra
        if needed > len(self._counts):
            grown = max(needed, 2 * len(self._counts))
            buffer = np.empty(grown, dtype=np.int64)
            buffer[: self._num] = self._counts[: self._num]
            self._counts = buffer

    def _append_flat(self, flat: np.ndarray, counts: np.ndarray) -> None:
        total = len(flat)
        self._reserve_vertices(total)
        self._vertices[self._used : self._used + total] = flat
        self._used += total
        k = len(counts)
        self._reserve_counts(k)
        self._counts[self._num : self._num + k] = counts
        self._num += k

    # -- emission entry points ----------------------------------------
    def append(self, members: Iterable[int]) -> None:
        """Emit one clique given as an iterable of vertex ids."""
        flat = np.fromiter(members, dtype=_VERTEX_DTYPE)
        self._append_flat(flat, np.array([len(flat)], dtype=np.int64))

    def extend(self, cliques: Iterable[Iterable[int]]) -> None:
        """Emit many cliques (int tuples); one C-level flatten."""
        if not isinstance(cliques, (list, tuple)):
            cliques = list(cliques)
        if not cliques:
            return
        counts = np.fromiter(map(len, cliques), dtype=np.int64, count=len(cliques))
        total = int(counts.sum())
        flat = np.fromiter(
            chain.from_iterable(cliques), dtype=_VERTEX_DTYPE, count=total
        )
        self._append_flat(flat, counts)

    def extend_prefixed(
        self, prefix_id: int, extensions: "Sequence[tuple[int, ...]]"
    ) -> None:
        """Emit ``(prefix, *extension)`` for each extension, vectorized.

        The multi-block demux path: the anchor id is scattered into the
        first slot of every clique with one fancy-index store, the
        extension bodies with one masked store.
        """
        if not extensions:
            return
        k = len(extensions)
        counts = (
            np.fromiter(map(len, extensions), dtype=np.int64, count=k) + 1
        )
        total = int(counts.sum())
        flat = np.empty(total, dtype=_VERTEX_DTYPE)
        starts = np.zeros(k, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        flat[starts] = prefix_id
        body = np.ones(total, dtype=bool)
        body[starts] = False
        flat[body] = np.fromiter(
            chain.from_iterable(extensions), dtype=_VERTEX_DTYPE, count=total - k
        )
        self._append_flat(flat, counts)

    def append_columns(
        self, prefix: "tuple[int, ...]", columns: "list[np.ndarray]"
    ) -> None:
        """Emit one batched-kernel record: ``k`` cliques as columns.

        ``columns[d][j]`` is member ``d`` of clique ``j`` (root-first
        spine order); the shared ``prefix`` is broadcast in front.  The
        whole record lands with one 2-D fill — no tuples, no zip.
        """
        k = len(columns[0]) if columns else 0
        if k == 0:
            return
        width = len(prefix) + len(columns)
        body = np.empty((k, width), dtype=_VERTEX_DTYPE)
        for d, value in enumerate(prefix):
            body[:, d] = value
        for d, column in enumerate(columns):
            body[:, len(prefix) + d] = column
        self._append_flat(
            body.reshape(-1), np.full(k, width, dtype=np.int64)
        )

    # -- finalize ------------------------------------------------------
    def __len__(self) -> int:
        return self._num

    def build(self) -> CliqueStore:
        """Snapshot the buffers into an immutable :class:`CliqueStore`."""
        offsets = np.zeros(self._num + 1, dtype=_OFFSET_DTYPE)
        np.cumsum(self._counts[: self._num], out=offsets[1:])
        return CliqueStore(
            offsets,
            self._vertices[: self._used].copy(),
            labels=self.labels,
        )


def store_of(cliques) -> CliqueStore:
    """Normalize a report's ``cliques`` field to a :class:`CliqueStore`.

    Stores pass through; frozenset lists (hand-built reports, the
    exact-core fallback, replays of legacy pickled spill records) are
    packed with a local label table in first-appearance order.
    """
    if isinstance(cliques, CliqueStore):
        return cliques
    index: dict = {}
    labels: list = []
    buffer = CliqueBuffer(labels=labels)
    for clique in cliques:
        ids = []
        for node in clique:
            node_id = index.get(node)
            if node_id is None:
                node_id = index[node] = len(labels)
                labels.append(node)
            ids.append(node_id)
        buffer.append(ids)
    return buffer.build()


class GlobalCliqueIndex:
    """Unify per-block label spaces into one run-wide vertex-id space.

    The driver feeds every block report through :meth:`add`; each call
    costs one small Python loop over the block's *member labels* (tens
    of nodes) plus one vectorized gather over its clique buffer
    (potentially millions of entries).  The shared ``labels`` list is
    append-only, so stores remapped earlier stay valid as it grows.
    """

    def __init__(self) -> None:
        self._index: dict = {}
        self.labels: list = []

    def ids_for(self, labels: Sequence) -> np.ndarray:
        """Global ids of a block's label table (registering new ones)."""
        index = self._index
        table = self.labels
        out = np.empty(len(labels), dtype=np.int64)
        for i, label in enumerate(labels):
            node_id = index.get(label)
            if node_id is None:
                node_id = index[label] = len(table)
                table.append(label)
            out[i] = node_id
        return out

    def add(self, cliques) -> CliqueStore:
        """Remap one report's cliques into the global id space."""
        store = store_of(cliques)
        if store.labels is None:
            # Unlabeled stores are already in a caller-managed id space;
            # treat ids as labels so the invariant (one global space)
            # holds for hand-built int cliques too.
            used = np.unique(store.vertices)
            table = self.ids_for([int(v) for v in used])
            mapping = np.zeros(
                int(used.max()) + 1 if len(used) else 1, dtype=np.int64
            )
            mapping[used] = table
            return store.remap(mapping, labels=self.labels)
        table = self.ids_for(store.labels)
        return store.remap(table, labels=self.labels)
