"""Second-order cone programs as semidefinite programs.

Arrow-head embeddings of SOCO problems on both the dual and the primal side,
solution transport in both directions at selectable ranks, admissibility
checking, and the optimal-partition correspondence between the two problem
classes.
"""

from .errors import (
    BadSubset,
    ConicEmbedError,
    DimensionMismatch,
    EighConvergenceError,
    EpsilonInvalid,
    GenerationError,
    InconsistentDual,
    InconsistentPair,
    LabelMismatch,
    MissingSolutionPart,
    NotArrowHead,
    NotComplementary,
    NotInterior,
    NotFinite,
    NotPSD,
    NotSymmetric,
    OutsideCone,
    ParseError,
    ProvenanceMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    EigenDecomposition,
    PsdStatus,
    SparseRows,
    SparseSym,
    SymMatrix,
    eigh,
    orthonormal_complement,
    psd_status,
    trace_inner,
)
from .soco import (
    BlockLayout,
    ConePosition,
    SocoProblem,
    SocoSolution,
    arrow_head,
    block_arrow_head,
    block_arrow_head_inv,
    cone_position,
    dual_residual,
    jordan_product,
    primal_residual,
)
from .sdo import (
    EmbeddingMeta,
    SdoProblem,
    SdoSolution,
    Side,
    sdo_dual_residual,
    sdo_primal_residual,
)
from .embed import (
    FullRank,
    RankK,
    RankOne,
    SimZhao,
    build_dual_embedding,
    build_primal_embedding,
    inverse_map,
    map_block,
    map_solution,
)
from .partition import (
    ConeLabel,
    SdoPartition,
    classify_cones,
    map_partition,
    max_principal_angle,
    proper_map_solution,
    sdo_partition_from_solution,
)
from .verify import (
    AdmissibilityReport,
    GeneratedInstance,
    check_admissibility,
    example1_counterexample,
    generate_instance,
    with_duality_gap,
)
from .io import (
    export_sdpa,
    load_problem,
    load_sdo_problem,
    load_sdo_solution,
    load_solution,
    save_problem,
    save_sdo_problem,
    save_sdo_solution,
    save_solution,
    write_json,
)

__version__ = "0.1.0"


# The side-specific names of map_solution and inverse_map, kept out of __all__
# only because bench/workloads.py imports them; they go with the next change
# to bench/.
def map_solution_dual(problem, sol, spec=RankOne(), tol=DEFAULT_TOL):
    return map_solution(problem, sol, Side.DUAL, spec, tol)


def map_solution_primal(problem, sol, spec=RankOne(), tol=DEFAULT_TOL):
    return map_solution(problem, sol, Side.PRIMAL, spec, tol)


def inverse_map_dual(meta, sol, tol=DEFAULT_TOL):
    return inverse_map(meta, sol, tol)


def inverse_map_primal(problem, sol, tol=DEFAULT_TOL):
    return inverse_map(EmbeddingMeta(Side.PRIMAL, problem.cone_dims, problem.m), sol, tol, problem)

__all__ = [
    "AdmissibilityReport",
    "BadSubset",
    "BlockLayout",
    "ConeLabel",
    "ConePosition",
    "ConicEmbedError",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "EigenDecomposition",
    "EighConvergenceError",
    "EmbeddingMeta",
    "EpsilonInvalid",
    "FullRank",
    "GeneratedInstance",
    "GenerationError",
    "InconsistentDual",
    "InconsistentPair",
    "LabelMismatch",
    "MissingSolutionPart",
    "NotArrowHead",
    "NotComplementary",
    "NotFinite",
    "NotInterior",
    "NotPSD",
    "NotSymmetric",
    "OutsideCone",
    "ParseError",
    "ProvenanceMismatch",
    "PsdStatus",
    "RankK",
    "RankOne",
    "SdoPartition",
    "SdoProblem",
    "SdoSolution",
    "Side",
    "SimZhao",
    "SocoProblem",
    "SocoSolution",
    "SparseRows",
    "SparseSym",
    "SymMatrix",
    "arrow_head",
    "block_arrow_head",
    "block_arrow_head_inv",
    "build_dual_embedding",
    "build_primal_embedding",
    "check_admissibility",
    "classify_cones",
    "cone_position",
    "dual_residual",
    "eigh",
    "example1_counterexample",
    "export_sdpa",
    "generate_instance",
    "inverse_map",
    "jordan_product",
    "load_problem",
    "load_sdo_problem",
    "load_sdo_solution",
    "load_solution",
    "map_block",
    "map_partition",
    "map_solution",
    "max_principal_angle",
    "orthonormal_complement",
    "primal_residual",
    "proper_map_solution",
    "psd_status",
    "save_problem",
    "save_sdo_problem",
    "save_sdo_solution",
    "save_solution",
    "sdo_dual_residual",
    "sdo_partition_from_solution",
    "sdo_primal_residual",
    "trace_inner",
    "with_duality_gap",
    "write_json",
]
