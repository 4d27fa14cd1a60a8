"""Coordinator/worker message protocol — the OpenMPI stand-in.

The paper's system runs over OpenMPI: a coordinator ships serialized
blocks to workers, workers return their clique sets, and wall-clock is
dominated by the slowest worker plus transfer overhead.  This module
executes that protocol *faithfully at the message level* while keeping
time simulated: every block analysis actually runs (real cliques come
back), but message timestamps advance a simulated clock under the
cluster's network model, so the recorded timeline is what the wire
would have seen.

Compared to the other distributed layers:

* :mod:`repro.distributed.simulation` replays *pre-measured* costs —
  no computation, pure scheduling arithmetic;
* :mod:`repro.distributed.events` adds failures and retries — still
  replay-based;
* this module runs the *actual* analyses and records the message
  exchange, which is what an integration test of the wire protocol
  needs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Literal

from repro.core.block_analysis import analyze_block
from repro.core.blocks import Block
from repro.decision.tree import DecisionTree
from repro.distributed.cluster import ClusterSpec
from repro.distributed.simulation import block_bytes
from repro.graph.adjacency import Node
from repro.mce.registry import Combo

MessageKind = Literal["assign", "result"]

# Result payload model: one 8-byte id per clique member shipped back.
_BYTES_PER_MEMBER = 8


@dataclass(frozen=True)
class Message:
    """One protocol message with simulated send/receive timestamps."""

    kind: MessageKind
    task_id: int
    worker: int
    sent_at: float
    received_at: float
    payload_bytes: int


@dataclass
class ProtocolTrace:
    """The full message log plus timing aggregates of one level."""

    messages: list[Message] = field(default_factory=list)
    worker_busy_seconds: dict[int, float] = field(default_factory=dict)
    makespan: float = 0.0

    @property
    def assignments(self) -> list[Message]:
        """Coordinator → worker block shipments."""
        return [m for m in self.messages if m.kind == "assign"]

    @property
    def results(self) -> list[Message]:
        """Worker → coordinator clique returns."""
        return [m for m in self.messages if m.kind == "result"]

    def total_bytes(self) -> int:
        """All payload bytes that crossed the wire."""
        return sum(message.payload_bytes for message in self.messages)


def run_protocol_level(
    blocks: list[Block],
    cluster: ClusterSpec,
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
) -> tuple[list[frozenset[Node]], ProtocolTrace]:
    """Execute one level's blocks through the message protocol.

    Blocks are assigned pull-style (largest first, earliest-free
    worker); each assignment and each result is logged as a
    :class:`Message` whose timestamps follow the cluster's network
    model, with the *measured* analysis time as the compute component.

    Returns the concatenated cliques (identical to
    :func:`repro.core.block_analysis.analyze_blocks` output as a set —
    tested) and the protocol trace.
    """
    trace = ProtocolTrace()
    if not blocks:
        return [], trace
    # Largest blocks first approximates LPT without pre-measured costs.
    order = sorted(
        range(len(blocks)), key=lambda i: (-blocks[i].size, i)
    )
    workers: list[tuple[float, int]] = [
        (0.0, worker) for worker in range(cluster.total_workers)
    ]
    heapq.heapify(workers)
    busy: dict[int, float] = {}
    cliques: list[frozenset[Node]] = []
    finish_times: dict[int, list[frozenset[Node]]] = {}
    completion: list[tuple[float, int]] = []

    for task_id in order:
        block = blocks[task_id]
        free_at, worker = heapq.heappop(workers)

        assign_bytes = block_bytes(block)
        assign_arrives = free_at + cluster.transfer_seconds(assign_bytes)
        trace.messages.append(
            Message(
                kind="assign",
                task_id=task_id,
                worker=worker,
                sent_at=free_at,
                received_at=assign_arrives,
                payload_bytes=assign_bytes,
            )
        )

        report = analyze_block(block, tree=tree, combo=combo)
        finished = assign_arrives + report.seconds

        result_bytes = _BYTES_PER_MEMBER * len(report.cliques.vertices)
        result_arrives = finished + cluster.transfer_seconds(result_bytes)
        trace.messages.append(
            Message(
                kind="result",
                task_id=task_id,
                worker=worker,
                sent_at=finished,
                received_at=result_arrives,
                payload_bytes=result_bytes,
            )
        )
        busy[worker] = busy.get(worker, 0.0) + (finished - free_at)
        finish_times[task_id] = report.cliques
        completion.append((result_arrives, task_id))
        heapq.heappush(workers, (finished, worker))

    # Results are collected in simulated arrival order, which keeps the
    # output deterministic for a fixed cluster.
    for _arrived, task_id in sorted(completion):
        cliques.extend(finish_times[task_id])
    trace.worker_busy_seconds = busy
    trace.makespan = max(arrived for arrived, _ in completion)
    return cliques, trace
