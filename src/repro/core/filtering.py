"""Redundant-clique filtering (Lemma 1, Alg. 1 line 7).

Lemma 1: for any bipartition ``(N1, N2)`` of the nodes, the maximal
cliques of ``G`` are ``C1 ∪ C2'``, where ``C1`` are the maximal cliques
touching ``N1``, ``C2`` the maximal cliques of the subgraph induced by
``N2``, and ``C2'`` is ``C2`` with every clique *contained in* some
clique of ``C1`` filtered out.  The driver applies this at every level of
the hub recursion: hub-only cliques that extend with a feasible node are
exactly the ones some feasible-side clique contains.

The filter is indexed rather than quadratic: cliques of ``C1`` are
indexed by member node, and a candidate ``c`` is dropped iff the index
sets of all its members intersect — i.e. some single ``C1`` clique
contains every member of ``c``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.cliquestore import CliqueStore
from repro.graph.adjacency import Node


def filter_contained(
    candidates: Iterable[frozenset[Node]],
    reference: Sequence[frozenset[Node]],
) -> list[frozenset[Node]]:
    """Return the candidates not contained in any reference clique.

    A candidate equal to a reference clique is also dropped (it is
    "contained" and would be a duplicate).  The empty candidate set is
    always dropped when any reference clique exists.

    Complexity: ``O(Σ|c| · avg-membership)`` — each candidate intersects
    the per-node posting lists of its members, smallest list first.
    """
    membership: dict[Node, set[int]] = {}
    for index, clique in enumerate(reference):
        for node in clique:
            membership.setdefault(node, set()).add(index)

    kept: list[frozenset[Node]] = []
    for candidate in candidates:
        if _is_contained(candidate, membership, bool(reference)):
            continue
        kept.append(candidate)
    return kept


def _is_contained(
    candidate: frozenset[Node],
    membership: dict[Node, set[int]],
    any_reference: bool,
) -> bool:
    """Return whether some indexed reference clique ⊇ ``candidate``."""
    if not candidate:
        return any_reference
    posting_lists: list[set[int]] = []
    for node in candidate:
        postings = membership.get(node)
        if not postings:
            return False  # some member appears in no reference clique
        posting_lists.append(postings)
    posting_lists.sort(key=len)
    common = set(posting_lists[0])
    for postings in posting_lists[1:]:
        common &= postings
        if not common:
            return False
    return True


def filter_min_size(cliques: CliqueStore, min_clique_size: int) -> CliqueStore:
    """Return the cliques with at least ``min_clique_size`` members.

    The enumeration floor behind ``find_max_cliques(min_clique_size=f)``.
    Applying it per level *before* Lemma 1 merging is sound: a hub
    clique of size ≥ f contained in some feasible clique is contained
    in one of size ≥ f (containment never shrinks the container), so
    every reference that matters for deduplication survives the floor;
    and a clique lost from a bound-skipped block is itself < f, so any
    hub clique it contains is < f and is dropped here anyway.

    One vectorized mask on the store's offsets diff; nothing is decoded.
    """
    if min_clique_size <= 1:
        return cliques
    return cliques.select(cliques.sizes >= min_clique_size)


def contained_mask(
    candidates: CliqueStore, reference: CliqueStore
) -> np.ndarray:
    """Packed Lemma-1 test: which candidates lie inside a reference clique.

    Both stores must share one vertex-id space (the driver's
    :class:`~repro.core.cliquestore.GlobalCliqueIndex` guarantees this).
    Returns a boolean array over the candidates, ``True`` where some
    reference clique contains the candidate (equality counts).  The
    posting lists are built only for vertex ids that actually occur in a
    candidate (one ``np.isin`` prefilter), then each candidate
    intersects its members' lists smallest-first — the same indexed
    algorithm as :func:`filter_contained`, in pure int space.
    """
    num = candidates.num_cliques
    contained = np.zeros(num, dtype=bool)
    if num == 0:
        return contained
    if reference.num_cliques == 0:
        # Only empty candidates are "contained" when nothing references.
        return contained
    cand_nodes = np.unique(candidates.vertices)
    ref_nodes = reference.vertices
    ref_ids = np.repeat(
        np.arange(reference.num_cliques, dtype=np.int64), reference.sizes
    )
    relevant = np.isin(ref_nodes, cand_nodes)
    ref_nodes = ref_nodes[relevant]
    ref_ids = ref_ids[relevant]
    order = np.argsort(ref_nodes, kind="stable")
    ref_nodes = ref_nodes[order]
    ref_ids = ref_ids[order]
    uniques, starts = np.unique(ref_nodes, return_index=True)
    bounds = np.append(starts, len(ref_nodes))
    postings: dict[int, set[int]] = {
        int(node): set(ref_ids[bounds[i] : bounds[i + 1]].tolist())
        for i, node in enumerate(uniques.tolist())
    }
    offsets = candidates.offsets.tolist()
    flat = candidates.vertices.tolist()
    for i in range(num):
        members = flat[offsets[i] : offsets[i + 1]]
        if not members:
            contained[i] = True
            continue
        posting_lists: list[set[int]] = []
        for node in members:
            posting = postings.get(node)
            if not posting:
                break
            posting_lists.append(posting)
        else:
            posting_lists.sort(key=len)
            common = set(posting_lists[0])
            for posting in posting_lists[1:]:
                common &= posting
                if not common:
                    break
            contained[i] = bool(common)
    return contained


def merge_level(
    feasible_cliques: list[frozenset[Node]],
    hub_cliques: list[frozenset[Node]],
) -> list[frozenset[Node]]:
    """Combine one recursion level per Algorithm 1 line 7–8.

    Returns ``Cf ∪ filter(Ch, Cf)`` with the feasible cliques first, the
    order the driver's packed merge keeps.
    """
    surviving = filter_contained(hub_cliques, feasible_cliques)
    return list(feasible_cliques) + surviving
