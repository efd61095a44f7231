"""Shared test utilities: seeded instance corpora, enumeration of the
transport specs that are legal for a given instance and side, and the
per-cone reference path that the stacked kernels are held to."""

from __future__ import annotations

import json
import math

import numpy as np

from conic_embed import (
    AdmissibilityReport,
    BadSubset,
    BlockLayout,
    ConeLabel,
    ConicEmbedError,
    ConePosition,
    FullRank,
    InconsistentDual,
    InconsistentPair,
    NotArrowHead,
    NotInterior,
    NotPSD,
    OutsideCone,
    PsdStatus,
    RankK,
    RankOne,
    SdoSolution,
    Side,
    SimZhao,
    SocoSolution,
    SymMatrix,
    cone_position,
    generate_instance,
    psd_status,
    sdo_dual_residual,
    sdo_primal_residual,
    trace_inner,
)
from conic_embed.embed import per_cone_choices
from conic_embed.linalg import _two_level_eigensystem

LABELS_1D = ("B", "N", "T1")
LABELS_ANY = ("B", "N", "R", "T1", "T2", "T3")
# the large-ladder benchmark shapes: total dim 32/64/96 as two large or n/4
# small cones, 64 also as 4x16
LADDER_SHAPES = [
    ((16, 16), ("B", "N")),
    ((4,) * 8, tuple(LABELS_ANY[i % 6] for i in range(8))),
    ((32, 32), ("B", "N")),
    ((16,) * 4, LABELS_ANY[:4]),
    ((4,) * 16, tuple(LABELS_ANY[i % 6] for i in range(16))),
    ((48, 48), ("B", "N")),
    ((4,) * 24, tuple(LABELS_ANY[i % 6] for i in range(24))),
]


def ladder(seed: int = 41):
    """One instance per ladder shape, m = 6, seeds seed, seed + 1, ..."""
    return [generate_instance(dims, labels, m=6, seed=seed + i)
            for i, (dims, labels) in enumerate(LADDER_SHAPES)]


def random_config(rng: np.random.Generator, max_dim_choices=(1, 2, 3, 5, 8)):
    r = int(rng.integers(1, 4))
    dims = tuple(int(rng.choice(max_dim_choices)) for _ in range(r))
    labels = tuple(
        str(rng.choice(LABELS_1D if n == 1 else LABELS_ANY)) for n in dims
    )
    m = int(rng.integers(1, 7))
    return dims, labels, m


def corpus(count: int, master_seed: int = 20240601, dim_choices=(1, 2, 3, 5, 8)):
    """Deterministic list of solved instances with varied shapes and labels."""
    rng = np.random.default_rng(master_seed)
    out = []
    for _ in range(count):
        dims, labels, m = random_config(rng, dim_choices)
        seed = int(rng.integers(0, 2**31 - 1))
        out.append(generate_instance(dims, labels, m=m, seed=seed))
    return out


def mapped_blocks(inst, side: Side):
    return inst.solution.x_blocks if side is Side.DUAL else inst.solution.s_blocks


def legal_rank_specs(inst, side: Side, tol: float = 1e-8):
    """(name, spec) pairs valid for the mapped-side blocks of this instance.

    Uniform rank-one and the closed-form map are always legal; uniform full
    rank only when every mapped block is interior; the mixed spec puts full
    rank on interior blocks and rank one elsewhere; each interior block of
    dimension >= 2 contributes one spec per prescribed rank k in 2..n.
    """
    blocks = mapped_blocks(inst, side)
    interior = [cone_position(v, tol) is ConePosition.INTERIOR for v in blocks]
    specs = [("one", RankOne()), ("simzhao", SimZhao())]
    if all(interior):
        specs.append(("full", FullRank()))
    specs.append(
        ("mixed", tuple(FullRank() if flag else RankOne() for flag in interior))
    )
    for i, (v, flag) in enumerate(zip(blocks, interior)):
        n = v.shape[0]
        if flag and n >= 2:
            for k in range(2, n + 1):
                spec = tuple(
                    RankK(k) if j == i else RankOne() for j in range(len(blocks))
                )
                specs.append((f"k{k}-cone{i}", spec))
    return specs


def max_block_diff(blocks_a, blocks_b) -> float:
    return max(
        float(np.abs(np.asarray(a) - np.asarray(b)).max())
        for a, b in zip(blocks_a, blocks_b)
    )


# ---------------------------------------------------------------------------
# Reference: the per-cone path. Every cone-wise kernel of the package works on
# stacks of the cones of one size; these are the same maps, checks and
# inverses written one cone at a time, as they were before, for the tests to
# hold the stacked kernels to, bit for bit and error for error.

_EPS = float(np.finfo(float).eps)


def ref_cone_position(v, tol: float = 1e-8) -> ConePosition:
    v = np.asarray(v, dtype=float)
    peak = float(np.abs(v).max())
    if peak <= tol:
        return ConePosition.ZERO
    margin = float(v[0]) - float(np.linalg.norm(v[1:]))
    band = tol * (1.0 + peak)
    if margin > band:
        return ConePosition.INTERIOR
    if abs(margin) <= band and v[0] > tol:
        return ConePosition.BOUNDARY_NONZERO
    return ConePosition.OUTSIDE


def ref_jordan_product(x, s) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.concatenate(([float(x @ s)], x[0] * s[1:] + s[0] * x[1:]))


def _ref_require_in_cone(x, tol, interior=False):
    pos = ref_cone_position(x, tol)
    if interior and pos is not ConePosition.INTERIOR:
        raise NotInterior("full-rank transport needs a cone-interior vector")
    if pos is ConePosition.OUTSIDE:
        raise OutsideCone(f"vector {x} lies outside its cone")
    return pos


def _ref_theta_block(theta, tail, bump=0.0, subset=()):
    n = tail.shape[0] + 1
    m = np.empty((n, n))
    m[0, 0] = theta / 4.0
    m[0, 1:] = m[1:, 0] = tail / 2.0
    m[1:, 1:] = np.outer(tail, tail) / theta
    on = np.zeros(n - 1)
    on[np.asarray(subset, dtype=int) - 2] = 1.0
    m[1:, 1:] += bump * np.diag(on)
    return m


def ref_theta_one(head, tail):
    margin2 = head * head - float(tail @ tail)
    delta = 0.0 if margin2 <= 4.0 * _EPS * head * head else math.sqrt(margin2)
    return 2.0 * (head + delta)


def ref_sim_zhao_theta(x):
    head = float(x[0])
    rho = float(np.linalg.norm(x[1:]))
    return head + rho + math.sqrt(max((head + rho) ** 2 - 4.0 * (rho * rho), 0.0)), head - rho


def ref_full_rank_factors(x):
    """Sim-Zhao factors nu, sqrt(b) e_2, ..., sqrt(b) e_n of an interior x,
    whose Gram sum is map_block(x, FullRank()): the leading factor
    nu = (theta/2, x[1:]) / sqrt(theta) and b = (x1 - ||x[1:]||) / (2 (n-1)).
    [sqrt(x1)] in one dimension."""
    n = x.shape[0]
    if n == 1:
        return [np.array([math.sqrt(float(x[0]))])]
    theta, rest = ref_sim_zhao_theta(x)
    nu = np.concatenate(([theta / 2.0], x[1:])) / math.sqrt(theta)
    return [nu, *(math.sqrt(rest / (2.0 * (n - 1))) * np.eye(n)[1:])]


def _ref_rank_k_subset(choice, n):
    if not 1 <= choice.k <= n:
        raise BadSubset(f"rank {choice.k} impossible for a block of size {n}")
    subset = choice.subset
    if subset is None:
        return tuple(range(2, choice.k + 1))
    if len(subset) != choice.k - 1:
        raise BadSubset(f"subset {subset} has {len(subset)} indices, expected {choice.k - 1}")
    if len(set(subset)) != len(subset) or any(j < 2 or j > n for j in subset):
        raise BadSubset(f"subset {subset} must consist of distinct indices in 2..{n}")
    return subset


def ref_cone_block(x, choice, tol):
    n = x.shape[0]
    if not isinstance(choice, (RankOne, SimZhao, RankK, FullRank)):
        raise TypeError(f"unknown rank choice {choice!r}")
    subset = tuple(range(2, n + 1))
    if isinstance(choice, RankK) and n > 1:
        subset = _ref_rank_k_subset(choice, n)
    pos = _ref_require_in_cone(x, tol, interior=isinstance(choice, FullRank))
    if pos is ConePosition.ZERO:
        return np.zeros((n, n))
    if n == 1:
        return np.array([[float(x[0])]])
    if isinstance(choice, RankK):
        interior = pos is ConePosition.INTERIOR
        if subset and not interior:
            raise NotInterior("prescribed rank above one needs a cone-interior vector")
        if interior and not subset:
            raise BadSubset("empty subset needs a boundary vector; rank one cannot "
                            "carry an interior trace")
    if isinstance(choice, RankOne) or not subset:
        return _ref_theta_block(ref_theta_one(float(x[0]), x[1:]), x[1:])
    theta, rest = ref_sim_zhao_theta(x)
    return _ref_theta_block(theta, x[1:], rest / (2.0 * len(subset)), subset)


def _ref_each_cone(fn, *columns):
    out = []
    for i, args in enumerate(zip(*columns)):
        try:
            out.append(fn(*args))
        except (NotInterior, BadSubset, OutsideCone) as exc:
            raise type(exc)(f"cone {i}: {exc}") from None
    return out


def ref_block_diag(blocks) -> SymMatrix:
    """The square arrays blocks written into one block-diagonal SymMatrix."""
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return SymMatrix(out)


def ref_block_arrow_head(blocks) -> SymMatrix:
    """block_arrow_head written one block at a time."""
    layout = BlockLayout.from_dims([len(v) for v in blocks])
    m = np.zeros((layout.total, layout.total))
    for i, v in enumerate(blocks):
        sl = layout.block_slice(i)
        block = np.zeros((len(v), len(v)))
        block[0, :] = block[:, 0] = v
        block[np.arange(1, len(v)), np.arange(1, len(v))] = v[0]
        m[sl, sl] = block
    return SymMatrix(m)


def ref_arrow_head_vector(a, tol=1e-8):
    """arrow_head_inv of one square array, checked entry by entry: the worst
    violation is the first largest deviation, a trailing diagonal entry
    before an off-arrow one on a tie."""
    n = a.shape[0]
    worst, where = 0.0, ""
    for j in range(1, n):
        dev = abs(float(a[j, j]) - float(a[0, 0]))
        if dev > worst:
            worst, where = dev, f"diagonal ({j},{j})"
    for i in range(1, n):
        for j in range(i + 1, n):
            dev = abs(float(a[i, j]))
            if dev > worst:
                worst, where = dev, f"off-arrow ({i},{j})"
    if worst > tol:
        raise NotArrowHead(worst, where)
    return np.array(a[0])


def ref_block_arrow_head_inv(m, layout, tol=1e-8):
    """block_arrow_head_inv checked one block at a time: the worst off-block
    entry first, then the first block off the arrow-head form."""
    stray = 0.0
    for i in range(len(layout.dims)):
        end = layout.block_slice(i).stop
        if end < layout.total:
            stray = max(stray, float(np.abs(m.a[layout.block_slice(i), end:]).max()))
    if stray > tol:
        raise NotArrowHead(stray, "off-block entry")
    return tuple(ref_arrow_head_vector(m.a[sl, sl], tol)
                 for sl in map(layout.block_slice, range(len(layout.dims))))


def ref_map_solution_dual(problem, sol, spec, tol=1e-8):
    sol.validate_against(problem)
    choices = per_cone_choices(spec, problem.r)
    X = None
    if sol.x_blocks is not None:
        X = ref_block_diag(_ref_each_cone(lambda x, ch: ref_cone_block(x, ch, tol),
                                          sol.x_blocks, choices))
    S = None
    if sol.s_blocks is not None:
        _ref_each_cone(lambda s: _ref_require_in_cone(s, tol), sol.s_blocks)
        S = ref_block_arrow_head(sol.s_blocks)
    y = sol.y.copy() if sol.y is not None else None
    return SdoSolution(X=X, y=y, S=S)


def ref_extract_block_vector(X, layout, i):
    sl = layout.block_slice(i)
    block = X.a[sl, sl]
    return np.concatenate(([float(np.trace(block))], 2.0 * block[0, 1:]))


def ref_inverse_map_dual(meta, sol, tol=1e-8):
    layout = BlockLayout.from_dims(meta.cone_dims)
    x_blocks = None
    if sol.X is not None:
        if psd_status(sol.X, tol) is PsdStatus.INDEFINITE:
            raise NotPSD("X is indefinite beyond tolerance")
        x_blocks = tuple(ref_extract_block_vector(sol.X, layout, i) for i in range(len(layout.dims)))
    s_blocks = None
    if sol.S is not None:
        s_blocks = ref_block_arrow_head_inv(sol.S, layout, tol)
    y = sol.y.copy() if sol.y is not None else None
    return SocoSolution(x_blocks=x_blocks, y=y, s_blocks=s_blocks)


def ref_recover_uw(S, s_blocks, cone_dims):
    layout = BlockLayout.from_dims(cone_dims)
    pairs, tied = layout.pins
    heads = np.array([float(np.asarray(s)[0]) for s in s_blocks])
    tied_cone = layout.cone_ids[tied]
    u = S.a[tied, tied] - heads[tied_cone] / np.asarray(layout.dims)[tied_cone]
    w = -S.a[pairs[:, 0], pairs[:, 1]]
    return u, w


def ref_map_solution_primal(problem, sol, spec, tol=1e-8):
    sol.validate_against(problem)
    choices = per_cone_choices(spec, problem.r)
    X = None
    if sol.x_blocks is not None:
        _ref_each_cone(lambda x: _ref_require_in_cone(x, tol), sol.x_blocks)
        X = ref_block_arrow_head(sol.x_blocks)
    S = None
    y_full = None
    if sol.s_blocks is not None:
        S = ref_block_diag(_ref_each_cone(lambda s, ch: ref_cone_block(s, ch, tol),
                                          sol.s_blocks, choices))
        if sol.y is not None:
            u, w = ref_recover_uw(S, sol.s_blocks, problem.cone_dims)
            y_full = np.concatenate((sol.y, w, u))
    return SdoSolution(X=X, y=y_full, S=S)


def ref_inverse_map_primal(problem, sol, tol=1e-8):
    layout = BlockLayout.from_dims(problem.cone_dims)
    x_blocks = None
    if sol.X is not None:
        x_blocks = ref_block_arrow_head_inv(sol.X, layout, tol)
    v = None
    if sol.y is not None:
        v = sol.y[: problem.m].copy()
    s_blocks = None
    if sol.S is not None:
        s_blocks = []
        for i in range(problem.r):
            s = ref_extract_block_vector(sol.S, layout, i)
            if v is not None:
                alt = problem.c_blocks[i] - problem.A_blocks[i].T @ v
                dev = float(np.abs(s - alt).max())
                if dev > tol * (1.0 + float(np.abs(alt).max())):
                    raise InconsistentDual(
                        f"slack block {i} read from S deviates from c - A^T v by {dev:.3e}"
                    )
            s_blocks.append(s)
        if psd_status(sol.S, tol) is PsdStatus.INDEFINITE:
            raise NotPSD("S is indefinite beyond tolerance")
        s_blocks = tuple(s_blocks)
    elif v is not None:
        s_blocks = tuple(
            problem.c_blocks[i] - problem.A_blocks[i].T @ v for i in range(problem.r)
        )
    return SocoSolution(x_blocks=x_blocks, y=v, s_blocks=s_blocks)


_REF_POSITION_LABEL = {
    (ConePosition.INTERIOR, ConePosition.ZERO): ConeLabel.B,
    (ConePosition.ZERO, ConePosition.INTERIOR): ConeLabel.N,
    (ConePosition.BOUNDARY_NONZERO, ConePosition.BOUNDARY_NONZERO): ConeLabel.R,
    (ConePosition.ZERO, ConePosition.ZERO): ConeLabel.T1,
    (ConePosition.BOUNDARY_NONZERO, ConePosition.ZERO): ConeLabel.T2,
    (ConePosition.ZERO, ConePosition.BOUNDARY_NONZERO): ConeLabel.T3,
}


def ref_classify_cones(problem, sol, tol=1e-8):
    sol.validate_against(problem)
    labels = []
    for i, (x, s) in enumerate(zip(sol.x_blocks, sol.s_blocks)):
        px = ref_cone_position(x, tol)
        ps = ref_cone_position(s, tol)
        if ConePosition.OUTSIDE in (px, ps):
            raise OutsideCone(f"cone {i}: vector outside the cone")
        label = _REF_POSITION_LABEL.get((px, ps))
        if label is None:
            raise InconsistentPair(
                f"cone {i}: positions ({px.value}, {ps.value}) cannot be complementary"
            )
        comp = float(np.abs(ref_jordan_product(x, s)).max())
        band = tol * (1.0 + float(np.abs(x).max())) * (1.0 + float(np.abs(s).max()))
        if comp > band:
            raise InconsistentPair(
                f"cone {i}: jordan product magnitude {comp:.3e} breaks complementarity"
            )
        labels.append(label)
    return labels


def ref_check_admissibility(problem, sol, sdo_problem, sdo_sol, tol=1e-8):
    """check_admissibility's report, with its per-cone terms taken cone by cone."""
    cx = sum(float(c @ x) for c, x in zip(problem.c_blocks, sol.x_blocks))
    comp = max(
        float(np.abs(ref_jordan_product(x, s)).max())
        for x, s in zip(sol.x_blocks, sol.s_blocks)
    )
    xs = sdo_sol.X.a @ sdo_sol.S.a
    return AdmissibilityReport(
        primal_residual=sdo_primal_residual(sdo_problem, sdo_sol),
        dual_residual=sdo_dual_residual(sdo_problem, sdo_sol),
        primal_obj_gap=abs(cx - trace_inner(sdo_problem.C, sdo_sol.X)),
        dual_obj_gap=abs(float(problem.b @ sol.y) - float(sdo_problem.b @ sdo_sol.y)),
        soco_complementarity=comp,
        sdo_complementarity_trace=trace_inner(sdo_sol.X, sdo_sol.S),
        sdo_complementarity_norm=float(np.abs(xs).max()),
        tol=tol,
    )


def ref_arrowhead_frame(v) -> np.ndarray:
    """The arrow-head eigenvectors of one vector with a nonzero tail, as
    partition._arrow_head_eigensystems gives them."""
    head = float(v[0])
    rho = float(np.linalg.norm(v[1:]))
    return _two_level_eigensystem(head, rho, v[1:] / rho, head, head)[1]


_WHOLE = {ConeLabel.B: "B", ConeLabel.N: "N", ConeLabel.T1: "T"}
_ROUTE = {
    ConeLabel.R: ("x", "B", "N"),
    ConeLabel.T2: ("x", "B", "T"),
    ConeLabel.T3: ("s", "T", "N"),
}


def ref_map_partition(problem, sol, labels, side):
    """map_partition's bases, one arrow-head frame per cone."""
    layout = problem.layout
    total = layout.total
    cols = {cls: [np.zeros((total, 0))] for cls in "BNT"}

    def add(cls, local, i):
        out = np.zeros((total, local.shape[1]))
        out[layout.block_slice(i), :] = local
        cols[cls].append(out)

    for i, label in enumerate(labels):
        n = problem.cone_dims[i]
        if label in _WHOLE:
            add(_WHOLE[label], np.eye(n), i)
            continue
        source, x_cls, s_cls = _ROUTE[label]
        blocks = sol.x_blocks if source == "x" else sol.s_blocks
        frame = ref_arrowhead_frame(np.asarray(blocks[i], dtype=float))
        aligned, opposed = (x_cls, s_cls) if source == "x" else (s_cls, x_cls)
        arrow = s_cls if side is Side.DUAL else x_cls
        middle = list(range(1, n - 1))
        for cls, col in ((aligned, n - 1), (opposed, 0)):
            add(cls, frame[:, [col] + (middle if cls == arrow else [])], i)
    return [np.hstack(cols[cls]) for cls in "BNT"]


# ------------------------------------------------------------ file writers
# The per-number JSON emitter that the array-native writer replaced, and the
# .tolist() objects each save_* function passed it: every file the writer
# produces is held to this text byte for byte.


def _ref_fmt_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ConicEmbedError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"  # "-0" would come back from json as the integer 0
    return format(x, ".17g")


def ref_emit(value, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {ref_emit(v, indent + 2)}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if any(isinstance(x, (dict, list, tuple)) for x in items):
            inner = ",\n".join(f"{pad}  {ref_emit(x, indent + 2)}" for x in items)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(ref_emit(x, indent) for x in items) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _ref_fmt_float(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise ConicEmbedError(f"cannot serialize {type(value).__name__}")


def ref_json_text(obj) -> str:
    return ref_emit(obj) + "\n"


def ref_problem_text(problem) -> str:
    return ref_json_text({
        "cones": list(problem.cone_dims),
        "m": problem.m,
        "A": [a.tolist() for a in problem.A_blocks],
        "b": problem.b.tolist(),
        "c": [c.tolist() for c in problem.c_blocks],
    })


def ref_solution_text(sol) -> str:
    obj = {}
    if sol.x_blocks is not None:
        obj["x"] = [v.tolist() for v in sol.x_blocks]
    if sol.y is not None:
        obj["y"] = sol.y.tolist()
    if sol.s_blocks is not None:
        obj["s"] = [v.tolist() for v in sol.s_blocks]
    return ref_json_text(obj)


def ref_sdo_problem_text(problem) -> str:
    meta, A = problem.meta, problem.constraints
    triples = list(zip(A.i.tolist(), A.j.tolist(), A.v.tolist()))
    bounds = A.indptr.tolist()
    return ref_json_text({
        "format": 2,
        "dim": problem.dim,
        "C": problem.C.a.tolist(),
        "A": [triples[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
        "b": problem.b.tolist(),
        "meta": {
            "side": meta.side.value,
            "cone_dims": list(meta.cone_dims) if meta.cone_dims is not None else None,
            "m_original": meta.m_original,
            "zero_pairs": meta.zero_pairs.tolist(),
            "tied_diagonals": meta.tied_diagonals.tolist(),
        },
    })


def ref_sdo_solution_text(sol, meta=None) -> str:
    obj = {}
    if sol.X is not None:
        obj["X"] = sol.X.a.tolist()
    if sol.y is not None:
        obj["y"] = sol.y.tolist()
    if sol.S is not None:
        obj["S"] = sol.S.a.tolist()
    if sol.y is not None and meta is not None and meta.side is Side.PRIMAL:
        pairs, tied = meta.zero_pairs.tolist(), meta.tied_diagonals.tolist()
        m, y = meta.m_original, obj["y"]
        obj["dual_split"] = {
            "v": y[:m],
            "w": [[h, l, val] for (h, l), val in zip(pairs, y[m:])],
            "u": [[k, val] for k, val in zip(tied, y[m + len(pairs):])],
        }
    return ref_json_text(obj)


def ref_sdpa_text(problem, split_blocks: bool = False) -> str:
    """The SDPA entry order of export_sdpa, each number formatted on its own."""
    if split_blocks:
        layout = BlockLayout.from_dims(problem.meta.cone_dims)
    else:
        layout = BlockLayout.from_dims((problem.dim,))
    offsets, cone, A = np.asarray(layout.offsets), layout.cone_ids, problem.constraints
    ci, cj = np.nonzero(np.triu(problem.C.a))
    mat = np.concatenate((np.zeros(len(ci), dtype=np.int64), A.row_ids() + 1))
    i, j = np.concatenate((ci, A.i)), np.concatenate((cj, A.j))
    val = np.concatenate((problem.C.a[ci, cj], A.v))
    blk = cone[i]
    local_i, local_j = i - offsets[blk] + 1, j - offsets[blk] + 1
    order = np.lexsort((local_j, local_i, blk, mat))
    lines = [
        str(problem.num_constraints),
        str(len(layout.dims)),
        " ".join(str(n) for n in layout.dims),
        " ".join(_ref_fmt_float(v) for v in problem.b),
    ]
    columns = (t[order].tolist() for t in (mat, blk + 1, local_i, local_j, val))
    lines.extend(f"{m} {k} {a} {b} {_ref_fmt_float(v)}" for m, k, a, b, v in zip(*columns))
    return "\n".join(lines) + "\n"
