"""Distributed execution substrate: cluster model, schedulers, executors."""

from repro.distributed.cluster import ClusterSpec, paper_cluster
from repro.distributed.executor import (
    EXECUTOR_NAMES,
    PipelineSession,
    ProcessExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    SimulatedExecutor,
    build_executor,
    pickled_block_bytes,
)
from repro.distributed.events import (
    CompletionRecord,
    EventSimulationResult,
    FailureRecord,
    failure_overhead_curve,
    simulate_events,
)
from repro.distributed.loader import (
    ShardedDataset,
    estimated_load_seconds,
    load_shards,
    shard_graph,
)
from repro.distributed.protocol import (
    Message,
    ProtocolTrace,
    run_protocol_level,
)
from repro.distributed.runner import DistributedResult, run_distributed
from repro.distributed.scheduler import (
    SCHEDULERS,
    Schedule,
    StreamingLPTBuffer,
    Task,
    lpt_order,
    schedule_hash,
    schedule_lpt,
    schedule_round_robin,
)
from repro.distributed.streaming import (
    Partition,
    partition_hash,
    partition_ldg,
)
from repro.distributed.simulation import (
    SimulatedRun,
    block_bytes,
    descriptor_bytes,
    scaling_curve,
    simulate_level,
    simulate_reports,
    simulate_tasks,
)

__all__ = [
    "ClusterSpec",
    "paper_cluster",
    "CompletionRecord",
    "EventSimulationResult",
    "FailureRecord",
    "failure_overhead_curve",
    "simulate_events",
    "EXECUTOR_NAMES",
    "PipelineSession",
    "ProcessExecutor",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "SimulatedExecutor",
    "build_executor",
    "pickled_block_bytes",
    "DistributedResult",
    "run_distributed",
    "Message",
    "ProtocolTrace",
    "run_protocol_level",
    "ShardedDataset",
    "estimated_load_seconds",
    "load_shards",
    "shard_graph",
    "SCHEDULERS",
    "Schedule",
    "StreamingLPTBuffer",
    "Task",
    "lpt_order",
    "schedule_hash",
    "schedule_lpt",
    "schedule_round_robin",
    "Partition",
    "partition_hash",
    "partition_ldg",
    "SimulatedRun",
    "block_bytes",
    "descriptor_bytes",
    "scaling_curve",
    "simulate_level",
    "simulate_reports",
    "simulate_tasks",
]
