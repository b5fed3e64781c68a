"""mstpart: multilevel k-way hypergraph partitioning.

Pipeline: score-driven coarsening, sphere-constrained proximal-gradient
vertex embeddings, MST-pruning initial partitioning, and MST/FM refinement
under per-block weight caps.
"""

from .hypergraph import (
    BalanceSpec,
    HgrFormatError,
    Hypergraph,
    Partition,
    PartitionFormatError,
    default_epsilon,
    epsilon_from_ubfactor,
    is_feasible,
    km1_value,
    parse_hmetis,
    read_partition,
    write_hmetis,
    write_partition,
)
from .apg import ApgParams, ApgResult, minimize, project_rows, seeded_features
from .coarsen import Hierarchy, coarsen, project_partition
from .initial import prim_mst, prune_clusters
from .operators import CliqueGraph, ObjectiveOperator, clique_expand, laplacian
from .pipeline import PipelineConfig, PipelineResult, improve_partition, run_pipeline
from .refine import (
    kway_fm,
    mst_bipartition,
    pair_blocks,
    pairwise_improve,
    repair_feasibility,
)

__version__ = "0.1.0"
