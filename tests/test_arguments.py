"""The three argument rules of the exported functions and constructors, one
table row per (function, argument, bad value): arrays go through one
checked-array rule (index arrays must hold integers), a tol must be a finite
number > 0, and an integer argument must be an int or a numpy integer in
range, not a bool. Every row expects an error whose message starts with the
argument's name: a ConicEmbedError subclass, or a TypeError for a side that
is not a Side, a meta that is not an EmbeddingMeta or a rank spec that is a
string."""

import inspect
import pathlib
import re
from dataclasses import is_dataclass

import numpy as np
import pytest

from conic_embed import (
    BadSubset,
    BlockLayout,
    ConicEmbedError,
    DimensionMismatch,
    EmbeddingMeta,
    FullRank,
    GenerationError,
    NotFinite,
    RankK,
    RankOne,
    SdoPartition,
    SdoProblem,
    SdoSolution,
    Side,
    SocoProblem,
    SocoSolution,
    SparseRows,
    SparseSym,
    SymMatrix,
    arrow_head,
    block_arrow_head,
    block_arrow_head_inv,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    classify_cones,
    cone_position,
    eigh,
    example1_counterexample,
    generate_instance,
    inverse_map,
    jordan_product,
    map_block,
    map_partition,
    map_solution,
    max_principal_angle,
    orthonormal_complement,
    proper_map_solution,
    psd_status,
    save_sdo_solution,
    sdo_partition_from_solution,
    with_duality_gap,
)
from conic_embed.linalg import _checked_int, _checked_tol

INST = generate_instance((3, 2), ("B", "R"), 2, 5)
P, S = INST.problem, INST.solution
DUAL = map_solution(P, S, Side.DUAL)
PRIMAL = map_solution(P, S, Side.PRIMAL)
PROPER = proper_map_solution(P, S, Side.DUAL)
LABELS = classify_cones(P, S)
BASIS = np.eye(3)[:, :1]
ROWS = SparseRows.from_rows(2, [SymMatrix.identity(2)] * 3)
NO_COLUMNS = np.zeros((3, 0))
NAN, INF = float("nan"), float("inf")

# Values numpy cannot read as a float array: a string that is not one number,
# and a ragged list.
UNREADABLE = {
    "text": ("2, 1", DimensionMismatch),
    "ragged": ([[1.0], [1.0, 2.0]], DimensionMismatch),
}
# Values numpy reads as text or booleans, refused rather than parsed as
# numbers, as a vector (length 3) and as a matrix (3 x 1).
NOT_NUMBERS = {
    "numeric text": ["2", "1", "0"],
    "boolean": [True, False, False],
}
# Bad values of a vector argument and the error each raises. The non-finite
# ones have length 3, which every vector argument below accepts.
VECTOR_FAULTS = {
    "empty": ([], DimensionMismatch),
    "0-d": (np.array(2.0), DimensionMismatch),
    "2-d": (np.ones((2, 2)), DimensionMismatch),
    "nan": (np.full(3, NAN), NotFinite),
    "inf": ([INF, 1.0, 0.0], NotFinite),
    **UNREADABLE,
    **{fault: (bad, DimensionMismatch) for fault, bad in NOT_NUMBERS.items()},
}
# The same for a matrix argument: empty, 0-d and 1-d all have too few axes.
MATRIX_FAULTS = {
    "empty": ([], DimensionMismatch),
    "0-d": (np.array(1.0), DimensionMismatch),
    "1-d": (np.ones(3), DimensionMismatch),
    "3-d": (np.ones((3, 1, 1)), DimensionMismatch),
    "nan": (np.full((3, 1), NAN), NotFinite),
    "inf": (np.full((3, 1), -INF), NotFinite),
    **UNREADABLE,
    **{fault: ([[v] for v in bad], DimensionMismatch) for fault, bad in NOT_NUMBERS.items()},
}
# The faults of a vector that a data class field refuses as well as any
# exported function.
FIELD_FAULTS = {fault: VECTOR_FAULTS[fault] for fault in (*UNREADABLE, *NOT_NUMBERS)}
# Bad values of an index array of length 3 (a triplet constructor's row, i
# or j): anything numpy does not read as integers is refused, not truncated
# or parsed.
INDEX_FAULTS = {
    **UNREADABLE,
    **{fault: (bad, DimensionMismatch)
       for fault, bad in {**NOT_NUMBERS, "float": [0.7, 1.9, 2.0]}.items()},
}

# (function, the argument's name in the message, the call with the bad value
# in that argument, its faults)
ARRAY_ARGUMENTS = [
    ("cone_position", "v", lambda bad: cone_position(bad), VECTOR_FAULTS),
    ("jordan_product", "x", lambda bad: jordan_product(bad, [1.0, 0.0, 0.0]), VECTOR_FAULTS),
    ("jordan_product", "s", lambda bad: jordan_product([1.0, 0.0, 0.0], bad), VECTOR_FAULTS),
    ("arrow_head", "v", lambda bad: arrow_head(bad), VECTOR_FAULTS),
    ("block_arrow_head", "blocks[1]", lambda bad: block_arrow_head([[1.0], bad]), VECTOR_FAULTS),
    ("map_block", "x", lambda bad: map_block(bad, RankOne()), VECTOR_FAULTS),
    # the full-rank choice, whose Sim-Zhao factors no longer have a function
    # of their own
    ("map_block/FullRank", "x", lambda bad: map_block(bad, FullRank()), VECTOR_FAULTS),
    ("example1_counterexample", "direction",
     lambda bad: example1_counterexample(4, bad), VECTOR_FAULTS),
    ("max_principal_angle", "u", lambda bad: max_principal_angle(bad, BASIS), MATRIX_FAULTS),
    ("max_principal_angle", "v", lambda bad: max_principal_angle(BASIS, bad), MATRIX_FAULTS),
    ("orthonormal_complement", "vectors",
     lambda bad: orthonormal_complement(bad, 3), MATRIX_FAULTS),
    ("SparseRows.combine", "y", lambda bad: ROWS.combine(bad), VECTOR_FAULTS),
    ("SymMatrix.diagonal", "values", lambda bad: SymMatrix.diagonal(bad),
     {fault: row for fault, row in VECTOR_FAULTS.items() if fault != "empty"}),
    ("SocoSolution", "y", lambda bad: SocoSolution(y=bad), FIELD_FAULTS),
    ("SocoSolution", "x_blocks[1]", lambda bad: SocoSolution(x_blocks=([1.0], bad)), FIELD_FAULTS),
    ("SocoSolution", "s_blocks[1]", lambda bad: SocoSolution(s_blocks=([1.0], bad)), FIELD_FAULTS),
    ("SdoSolution", "y", lambda bad: SdoSolution(y=bad), FIELD_FAULTS),
    ("SocoProblem", "A_blocks[1]",
     lambda bad: SocoProblem(P.cone_dims, (P.A_blocks[0], bad), P.c_blocks, P.b), FIELD_FAULTS),
    ("SocoProblem", "c_blocks[1]",
     lambda bad: SocoProblem(P.cone_dims, P.A_blocks, (P.c_blocks[0], bad), P.b), FIELD_FAULTS),
    # an empty b is refused first by the A blocks' shapes, which it fixes
    ("SocoProblem", "b", lambda bad: SocoProblem(P.cone_dims, P.A_blocks, P.c_blocks, bad),
     {fault: row for fault, row in VECTOR_FAULTS.items() if fault != "empty"}),
    ("SdoProblem", "b", lambda bad: SdoProblem(2, SparseSym(2, [0], [0], [1.0]), ROWS, bad),
     VECTOR_FAULTS),
    ("SdoPartition", "basis_b", lambda bad: SdoPartition(bad, NO_COLUMNS, NO_COLUMNS),
     MATRIX_FAULTS),
    ("SdoPartition", "basis_n", lambda bad: SdoPartition(NO_COLUMNS, bad, NO_COLUMNS),
     MATRIX_FAULTS),
    ("SdoPartition", "basis_t", lambda bad: SdoPartition(NO_COLUMNS, NO_COLUMNS, bad),
     MATRIX_FAULTS),
    # the matrix constructors: values through the rule, indices integers only
    ("SymMatrix", "array", lambda bad: SymMatrix(bad), MATRIX_FAULTS),
    ("SparseSym", "v", lambda bad: SparseSym(3, [0, 1, 2], [0, 1, 2], bad),
     {fault: row for fault, row in VECTOR_FAULTS.items() if fault != "empty"}),
    ("SparseSym", "i", lambda bad: SparseSym(3, bad, [0, 1, 2], [1.0] * 3), INDEX_FAULTS),
    ("SparseSym", "j", lambda bad: SparseSym(3, [0, 1, 2], bad, [1.0] * 3), INDEX_FAULTS),
    ("SparseRows", "v", lambda bad: SparseRows(3, 1, [0] * 3, [0, 1, 2], [0, 1, 2], bad),
     {fault: row for fault, row in VECTOR_FAULTS.items() if fault != "empty"}),
    ("SparseRows", "row", lambda bad: SparseRows(3, 1, bad, [0, 1, 2], [0, 1, 2], [1.0] * 3),
     INDEX_FAULTS),
    ("SparseRows", "i", lambda bad: SparseRows(3, 1, [0] * 3, bad, [0, 1, 2], [1.0] * 3),
     INDEX_FAULTS),
    ("SparseRows", "j", lambda bad: SparseRows(3, 1, [0] * 3, [0, 1, 2], bad, [1.0] * 3),
     INDEX_FAULTS),
]

# Arguments whose length is fixed by another one: (function, argument, the
# call with a value of the wrong length).
WRONG_LENGTH = [
    ("jordan_product", "s", lambda: jordan_product([1.0, 0.0], [1.0, 0.0, 0.0])),
    ("example1_counterexample", "direction", lambda: example1_counterexample(3, [1.0, 0.0, 0.0])),
    ("max_principal_angle", "v", lambda: max_principal_angle(BASIS, np.eye(4)[:, :1])),
    ("orthonormal_complement", "vectors", lambda: orthonormal_complement(np.eye(2)[:, :1], 3)),
    ("SparseRows.combine", "y", lambda: ROWS.combine([1.0, 2.0])),
    ("block_arrow_head_inv", "m", lambda: block_arrow_head_inv(DUAL.S, BlockLayout.from_dims((3, 3)))),
]

# Every exported function and method that takes a tol: the call with tol.
TOL_CALLS = {
    "EigenDecomposition.psd_status": lambda tol: eigh(SymMatrix.identity(2)).psd_status(tol),
    "EigenDecomposition.rank_cutoff": lambda tol: eigh(SymMatrix.identity(2)).rank_cutoff(tol),
    "EigenDecomposition.rank": lambda tol: eigh(SymMatrix.identity(2)).rank(tol),
    "eigh": lambda tol: eigh(SymMatrix([[1.0, 2.0], [2.0, 1.0]]), tol),
    "psd_status": lambda tol: psd_status(SymMatrix.identity(2), tol),
    "block_arrow_head_inv": lambda tol: block_arrow_head_inv(arrow_head([2.0, 1.0]),
                                                             BlockLayout.from_dims((2,)), tol),
    "cone_position": lambda tol: cone_position([1.0, 1.0], tol),
    "map_block": lambda tol: map_block([2.0, 1.0], RankOne(), tol),
    "map_solution": lambda tol: map_solution(P, S, Side.DUAL, RankOne(), tol),
    "inverse_map": lambda tol: inverse_map(build_dual_embedding(P).meta, DUAL, tol),
    "classify_cones": lambda tol: classify_cones(P, S, tol),
    "map_partition": lambda tol: map_partition(P, S, LABELS, Side.DUAL, tol),
    "sdo_partition_from_solution": lambda tol: sdo_partition_from_solution(PROPER.X, PROPER.S, tol),
    "proper_map_solution": lambda tol: proper_map_solution(P, S, Side.DUAL, "simzhao", tol),
    "check_admissibility": lambda tol: check_admissibility(P, S, build_primal_embedding(P),
                                                           PRIMAL, tol),
}
BAD_TOLS = {"zero": 0.0, "negative": -1.0, "nan": NAN, "inf": INF, "text": "1e-8", "boolean": True}

# (function, argument, the call, the error)
INTEGER_CALLS = [
    ("SocoProblem", "cone_dims", lambda: SocoProblem((2.5, 2), P.A_blocks, P.c_blocks, P.b),
     DimensionMismatch),
    ("SocoProblem", "cone_dims", lambda: SocoProblem(("3", 2), P.A_blocks, P.c_blocks, P.b),
     DimensionMismatch),
    ("RankK", "k", lambda: RankK(2.5), BadSubset),
    ("RankK", "k", lambda: RankK("3"), BadSubset),
    ("RankK", "k", lambda: RankK(0), BadSubset),
    ("RankK", "subset index", lambda: RankK(2, (2.5,)), BadSubset),
    ("generate_instance", "m", lambda: generate_instance((3,), ("B",), 2.5, 1), GenerationError),
    ("generate_instance", "m", lambda: generate_instance((3,), ("B",), 0, 1), GenerationError),
    ("generate_instance", "cone_dims", lambda: generate_instance((0,), ("B",), 1, 1),
     DimensionMismatch),
    ("generate_instance", "cone_dims", lambda: generate_instance((2.5,), ("B",), 1, 1),
     DimensionMismatch),
    ("generate_instance", "seed", lambda: generate_instance((3,), ("B",), 1, -1), GenerationError),
    ("generate_instance", "seed", lambda: generate_instance((3,), ("B",), 1, 2.7), GenerationError),
    ("example1_counterexample", "n", lambda: example1_counterexample(3.9), DimensionMismatch),
    ("example1_counterexample", "n", lambda: example1_counterexample(2), DimensionMismatch),
    ("orthonormal_complement", "dim", lambda: orthonormal_complement(BASIS, 2.5),
     DimensionMismatch),
    ("EmbeddingMeta", "cone_dims", lambda: EmbeddingMeta(Side.PRIMAL, [2.5, 2], 4),
     DimensionMismatch),
    ("EmbeddingMeta", "cone_dims", lambda: EmbeddingMeta(Side.DUAL, ("3", 2), 4),
     DimensionMismatch),
    ("EmbeddingMeta", "m_original", lambda: EmbeddingMeta(Side.DUAL, (3, 2), "2"),
     DimensionMismatch),
    ("EmbeddingMeta", "m_original", lambda: EmbeddingMeta(Side.PRIMAL, (3, 2), 2.0),
     DimensionMismatch),
    ("EmbeddingMeta", "m_original", lambda: EmbeddingMeta(Side.DUAL, (3, 2), True),
     DimensionMismatch),
    ("EmbeddingMeta", "m_original", lambda: EmbeddingMeta(Side.GENERIC, None, -1),
     DimensionMismatch),
    ("EmbeddingMeta", "cone_dims", lambda: EmbeddingMeta(Side.DUAL, (3, 0), 2),
     DimensionMismatch),
    ("EmbeddingMeta", "cone_dims", lambda: EmbeddingMeta(Side.GENERIC, (), 2),
     DimensionMismatch),
    ("SparseRows", "dim", lambda: SparseRows(2.5, 0, [], [], [], []), DimensionMismatch),
    ("SparseRows", "count", lambda: SparseRows(2, -1, [], [], [], []), DimensionMismatch),
    ("SymMatrix.identity", "n", lambda: SymMatrix.identity(2.5), DimensionMismatch),
    ("SymMatrix.identity", "n", lambda: SymMatrix.identity(-1), DimensionMismatch),
    ("SymMatrix.zeros", "n", lambda: SymMatrix.zeros(True), DimensionMismatch),
    ("SymMatrix.zeros", "n", lambda: SymMatrix.zeros(0), DimensionMismatch),
    ("eigh", "max_sweeps", lambda: eigh(SymMatrix.identity(2), 1e-8, 2.5), DimensionMismatch),
    ("eigh", "max_sweeps", lambda: eigh(SymMatrix.identity(2), 1e-8, True), DimensionMismatch),
    ("eigh", "max_sweeps", lambda: eigh(SymMatrix.identity(2), 1e-8, -1), DimensionMismatch),
]

# Every exported function or class that takes a side: the call with side.
SIDE_CALLS = {
    "EmbeddingMeta": lambda side: EmbeddingMeta(side, (3, 2), 2),
    "map_solution": lambda side: map_solution(P, S, side),
    "proper_map_solution": lambda side: proper_map_solution(P, S, side),
    "map_partition": lambda side: map_partition(P, S, LABELS, side),
}
# seven cones: a string spec read one character per cone would match the
# seven characters of "simzhao"
SEVEN = generate_instance((2,) * 7, ("B",) * 7, 2, 1)
# A path in a folder that does not exist: a call refused before it writes
# leaves no file, and one that writes fails with an error the row rejects.
NO_FILE = pathlib.Path(__file__).parent / "no such folder" / "sol.json"

# Fields and arguments that are not arrays or integers: (class or function,
# argument, fault, the call, the error). A side must be a Side and a meta an
# EmbeddingMeta, and a rank spec must not be a string (else TypeError); a
# function that transports a solution refuses the generic side; the delta of
# with_duality_gap must be a finite real number, not a bool or text.
FIELD_CALLS = [
    *((fn, "side", "text", lambda call=call: call("dual"), TypeError)
      for fn, call in SIDE_CALLS.items()),
    *((fn, "side", "generic", lambda call=call: call(Side.GENERIC), DimensionMismatch)
      for fn, call in SIDE_CALLS.items() if fn != "EmbeddingMeta"),
    ("EmbeddingMeta", "cone_dims", "missing on the dual side",
     lambda: EmbeddingMeta(Side.DUAL, None, 2), DimensionMismatch),
    ("EmbeddingMeta", "cone_dims", "missing on the primal side",
     lambda: EmbeddingMeta(Side.PRIMAL, None, 2), DimensionMismatch),
    ("EmbeddingMeta", "cone_dims", "an integer",
     lambda: EmbeddingMeta(Side.DUAL, 3, 2), DimensionMismatch),
    ("SocoProblem", "cone_dims", "an integer",
     lambda: SocoProblem(5, P.A_blocks, P.c_blocks, P.b), DimensionMismatch),
    ("generate_instance", "cone_dims", "an integer",
     lambda: generate_instance(5, ("B",), 2, 0), DimensionMismatch),
    ("SdoProblem", "meta", "None",
     lambda: SdoProblem(5, SymMatrix.identity(5), (), [], meta=None), TypeError),
    ("inverse_map", "meta", "None", lambda: inverse_map(None, DUAL), TypeError),
    ("map_solution", "spec", "text on two cones",
     lambda: map_solution(P, S, Side.DUAL, "simzhao"), TypeError),
    ("map_solution", "spec", "text on seven cones",
     lambda: map_solution(SEVEN.problem, SEVEN.solution, Side.DUAL, "simzhao"), TypeError),
    *(("with_duality_gap", "delta", fault, lambda bad=bad: with_duality_gap(INST, bad),
       GenerationError)
      for fault, bad in {"numeric text": "1e-3", "boolean": True, "nan": NAN, "inf": INF}.items()),
    ("save_sdo_solution", "meta", "text",
     lambda: save_sdo_solution(DUAL, NO_FILE, meta="primal"), TypeError),
]


def _rows():
    for fn, arg, call, faults in ARRAY_ARGUMENTS:
        for fault, (bad, error) in faults.items():
            yield pytest.param(lambda call=call, bad=bad: call(bad), error, arg,
                               id=f"{fn}-{arg}-{fault}")
    for fn, arg, call in WRONG_LENGTH:
        yield pytest.param(call, DimensionMismatch, arg, id=f"{fn}-{arg}-wrong-length")
    for fn, call in TOL_CALLS.items():
        for fault, bad in BAD_TOLS.items():
            yield pytest.param(lambda call=call, bad=bad: call(bad), ConicEmbedError, "tol",
                               id=f"{fn}-tol-{fault}")
    for k, (fn, arg, call, error) in enumerate(INTEGER_CALLS):
        yield pytest.param(call, error, arg, id=f"{fn}-{arg}-{k}")
    for fn, arg, fault, call, error in FIELD_CALLS:
        yield pytest.param(call, error, arg, id=f"{fn}-{arg}-{fault}")


@pytest.mark.parametrize("call, error, name", list(_rows()))
def test_bad_argument_is_refused_and_named(call, error, name):
    with pytest.raises(error, match="^" + re.escape(name) + " "):
        call()


@pytest.mark.parametrize("build", [build_dual_embedding, build_primal_embedding])
@pytest.mark.parametrize("name", ["X", "S"])
def test_inverse_map_names_its_matrices(build, name):
    # block_arrow_head_inv names its argument m; inverse_map names the part
    with pytest.raises(DimensionMismatch, match=f"^{name} has dim 4, expected 5$"):
        inverse_map(build(P).meta, SdoSolution(**{name: SymMatrix.identity(4)}))


def test_every_tol_taker_is_in_the_table():
    import conic_embed
    takers = set()
    for name in conic_embed.__all__:
        obj = getattr(conic_embed, name)
        if inspect.isfunction(obj):
            members = [(name, obj)]
        elif inspect.isclass(obj):
            members = [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                       if inspect.isfunction(f) and not attr.startswith("_")]
        else:
            continue
        takers |= {label for label, f in members if "tol" in inspect.signature(f).parameters}
    assert takers == set(TOL_CALLS)


def test_every_side_taker_has_one_rule():
    import conic_embed
    takers = {name for name in conic_embed.__all__
              if (inspect.isfunction(obj := getattr(conic_embed, name)) or is_dataclass(obj))
              and "side" in inspect.signature(obj).parameters}
    assert takers == set(SIDE_CALLS)
    for fn, call in SIDE_CALLS.items():
        with pytest.raises(TypeError, match=r"^side is a str, not a Side$"):
            call("dual")
        if fn != "EmbeddingMeta":  # a meta may be generic
            with pytest.raises(DimensionMismatch, match="^side must be dual or primal, got generic$"):
                call(Side.GENERIC)


def test_numpy_scalars_are_accepted():
    assert RankK(np.int64(2), (np.int32(3),)) == RankK(2, (3,))
    assert SocoProblem((np.int64(3), np.int8(2)), P.A_blocks, P.c_blocks, P.b).cone_dims == (3, 2)
    inst = generate_instance(np.array([3, 2]), ("B", "R"), np.int64(2), np.uint8(5))
    assert inst.seed == 5 and np.array_equal(inst.problem.b, P.b)
    assert orthonormal_complement(BASIS, np.int64(3)).shape == (3, 2)
    assert with_duality_gap(INST, np.float32(0.5)).problem.c_blocks[0][0] == \
        with_duality_gap(INST, 0.5).problem.c_blocks[0][0]
    assert cone_position([1.0, 0.5], np.float64(1e-8)) is cone_position([1.0, 0.5])


def test_helpers_return_plain_numbers():
    assert type(_checked_tol(np.float64(1e-6))) is float and _checked_tol(1) == 1.0
    assert type(_checked_int(np.int64(4), "n", 0)) is int
    with pytest.raises(DimensionMismatch, match=r"^n must be an integer in 0\.\.3, got 4$"):
        _checked_int(4, "n", 0, high=3)
    with pytest.raises(BadSubset, match=r"^j must be an integer, got 1\.5$"):
        _checked_int(1.5, "j", error=BadSubset)


def test_partition_validate_has_no_gate():
    assert list(inspect.signature(SdoPartition.validate).parameters) == ["self"]
