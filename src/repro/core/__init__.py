"""The paper's contribution: hub-aware two-level decomposition MCE."""

from repro.core.audit import AuditReport, audit_result
from repro.core.block_analysis import (
    BlockDescriptor,
    BlockReport,
    analyze_block,
    analyze_blocks,
)
from repro.core.blocks import (
    SEED_ORDERS,
    Block,
    blocks_csr,
    build_blocks,
    decomposition_overlap,
    validate_blocks,
)
from repro.core.cliquestore import (
    CliqueBuffer,
    CliqueStore,
    GlobalCliqueIndex,
    store_of,
)
from repro.core.driver import decompose_only, decompose_only_csr, find_max_cliques
from repro.core.feasibility import cut, cut_csr, is_feasible, is_feasible_node
from repro.core.filtering import filter_contained, merge_level
from repro.core.planner import BlockSizePlan, recommend_block_size
from repro.core.result import CliqueResult, LevelStats
from repro.core.uniform_blocks import (
    block_size_spread,
    build_uniform_blocks,
    mean_block_density,
)

__all__ = [
    "AuditReport",
    "audit_result",
    "BlockDescriptor",
    "BlockReport",
    "analyze_block",
    "analyze_blocks",
    "SEED_ORDERS",
    "Block",
    "blocks_csr",
    "build_blocks",
    "decomposition_overlap",
    "validate_blocks",
    "decompose_only",
    "decompose_only_csr",
    "find_max_cliques",
    "cut",
    "cut_csr",
    "is_feasible",
    "is_feasible_node",
    "CliqueBuffer",
    "CliqueStore",
    "GlobalCliqueIndex",
    "store_of",
    "filter_contained",
    "merge_level",
    "BlockSizePlan",
    "recommend_block_size",
    "CliqueResult",
    "LevelStats",
    "block_size_spread",
    "build_uniform_blocks",
    "mean_block_density",
]
