"""Core: the SE distance oracle and its tree / node-pair machinery."""

from .compressed_tree import CompressedPartitionTree, compress_tree
from .node_pairs import (
    EnhancedEdgeIndex,
    build_enhanced_edges,
    generate_node_pairs_batched,
    well_separated_threshold,
)
from .a2a import A2AOracle, build_site_pois
from .compiled import CompiledOracle
from .dynamic import DynamicSEOracle
from .index import (
    DistanceIndex,
    DistanceIndexMixin,
    P2PIndexAdapter,
    ensure_index,
    pair_arrays,
)
from .oracle import BuildStats, SEOracle
from .paged import PagedOracle
from .parallel import (
    BuildExecutor,
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
    map_jobs,
)
from .partition_tree import PartitionTree, build_partition_tree
from .serialize import load_oracle, save_oracle, workload_fingerprint
from .store import (
    StoredOracle,
    open_oracle,
    oracle_sections,
    pack_document,
    pack_oracle,
    section_layouts,
)
from .tiled import (
    TiledBuild,
    TiledOracle,
    build_tiled_oracle,
    open_tiled_oracle,
    pack_tiled,
    plan_tiles,
)

__all__ = [
    "SEOracle",
    "BuildStats",
    "DistanceIndex",
    "DistanceIndexMixin",
    "P2PIndexAdapter",
    "ensure_index",
    "pair_arrays",
    "CompiledOracle",
    "A2AOracle",
    "build_site_pois",
    "DynamicSEOracle",
    "save_oracle",
    "load_oracle",
    "workload_fingerprint",
    "pack_oracle",
    "pack_document",
    "open_oracle",
    "oracle_sections",
    "section_layouts",
    "StoredOracle",
    "PagedOracle",
    "TiledBuild",
    "TiledOracle",
    "build_tiled_oracle",
    "open_tiled_oracle",
    "pack_tiled",
    "plan_tiles",
    "PartitionTree",
    "build_partition_tree",
    "CompressedPartitionTree",
    "compress_tree",
    "EnhancedEdgeIndex",
    "build_enhanced_edges",
    "generate_node_pairs_batched",
    "well_separated_threshold",
    "BuildExecutor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "make_executor",
    "map_jobs",
]
