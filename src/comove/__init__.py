"""Co-movement pattern mining over trajectory data.

Pipeline: trajectories -> per-timestamp density clustering -> 0-1 cluster
matrix -> frequent closed itemsets -> closed swarms, convoys, moving
clusters, group patterns and periodic patterns.  Itemsets can be mined in
one pass, block-incrementally, or parameter-free over nested blocks, and
stored results can absorb newly appended timestamps without re-mining.
"""

from .clustering import DbscanParams, build_cluster_matrix, dbscan_snapshot
from .combine import combine_fcis, shift_times
from .incremental import (
    DEFAULT_BLOCK_SIZE,
    mine_incremental,
    mine_parameter_free,
    nested_block_partition,
    nested_reorder,
    split_blocks,
)
from .ingest import (
    PeriodicDecomposition,
    TrajectoryDB,
    interpolate,
    parse_trajectories,
    periodic_decompose,
)
from .miner import mine_fci
from .model import (
    FCI,
    MATRIX_KINDS,
    ClosedSwarm,
    CoMoveError,
    ClusterId,
    ClusterMatrix,
    Column,
    ConflictError,
    Convoy,
    GroupPattern,
    MatrixKindError,
    MiningParams,
    MovingCluster,
    ParameterError,
    ParseError,
    Pattern,
    PeriodicPattern,
    Tidset,
    TimeRangeError,
    UniverseError,
    canonical_sort,
)
from .patterns import extract_patterns
from .store import (
    FciStore,
    check_pattern_object_ids,
    read_cluster_columns,
    read_fci_store,
    write_cluster_columns,
    write_fci_store,
    write_patterns_csv,
    write_patterns_geojson,
    write_trajectories,
)
from .synthetic import SyntheticSpec, gen_synthetic

__version__ = "0.1.0"
