"""Primal-side embedding: scaled arrow-head data matrices plus structural rows
that pin the embedded X to block arrow-head form.

The data rows spread each leading coefficient over the block diagonal (scale
1/n_i) and halve the off-leading coefficients, so Tr of a row against an
arrow-head X reproduces the original inner product. Structural rows then force
X's off-arrow entries to zero and tie every non-leading diagonal entry to its
block's leading one; which entries they pin follows from the cone dimensions
alone (BlockLayout.pins). The embedded dual vector is (v | w | u): original
multipliers, one w per pinned pair, one u per tied diagonal, in that order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InconsistentDual, NotPSD, TemplateViolation
from .linalg import DEFAULT_TOL, PsdStatus, SparseRows, SymMatrix, block_diag, psd_status
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side
from .embed_dual import (
    RankOne,
    RankSpecLike,
    _require_in_cone,
    extract_block_vector,
    map_block,
    per_cone_choices,
)
from .soco import (
    BlockLayout,
    SocoProblem,
    SocoSolution,
    arrow_head,
    arrow_head_triplets,
    block_arrow_head_inv,
)


def scaled_arrow_head_blocks(blocks: Sequence[np.ndarray], dims: Sequence[int]) -> SymMatrix:
    """Block-diagonal arrow-head of (v1/n_i, v2/2, ..., vn/2) per block."""
    parts = []
    for v, n in zip(blocks, dims):
        v = np.asarray(v, dtype=float)
        scaled = np.concatenate(([v[0] / n], v[1:] / 2.0))
        parts.append(arrow_head(scaled))
    return block_diag(parts)


def build_primal_embedding(problem: SocoProblem) -> SdoProblem:
    """Scaled data rows, then pinned-pair rows, then tied-diagonal rows.

    Row order: the m data rows; one row per zero pair, lexicographic; one row
    per tied diagonal, ascending. b is zero-padded to match.
    """
    layout = problem.layout
    m = problem.m
    pairs, tied = layout.pins()
    C = scaled_arrow_head_blocks(problem.c_blocks, problem.cone_dims)
    row, i, j, v = arrow_head_triplets(problem.A_blocks, layout, layout.dims, 2.0)
    # a tied row holds +1 at its block's leading diagonal and -1 at its own
    lead_tied = np.stack((np.asarray(layout.offsets)[layout.cone_ids[tied]], tied), axis=1).ravel()
    n_pairs, n_tied = len(pairs), len(tied)
    rows = SparseRows(
        layout.total,
        m + n_pairs + n_tied,
        np.concatenate(
            (row, m + np.arange(n_pairs), m + n_pairs + np.repeat(np.arange(n_tied), 2))
        ),
        np.concatenate((i, pairs[:, 0], lead_tied)),
        np.concatenate((j, pairs[:, 1], lead_tied)),
        np.concatenate((v, np.ones(n_pairs), np.tile([1.0, -1.0], n_tied))),
    )
    b = np.concatenate([problem.b, np.zeros(n_pairs + n_tied)])
    return SdoProblem(layout.total, C, rows, b, EmbeddingMeta(Side.PRIMAL, problem.cone_dims, m))


def recover_uw(
    S: SymMatrix,
    s_blocks: Sequence[np.ndarray],
    cone_dims: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Read the structural multipliers (u, w) out of a slack matrix, aligned
    with the tied diagonals and pinned pairs of BlockLayout.pins.

    u_k = S[k, k] - s1_i / n_i for each tied diagonal k of block i;
    w_hl = -S[h, l] for each pinned pair. The block template (block trace
    equals s1, first block row equals s[1:] / 2) is verified within tol scaled
    by the block magnitude; violations raise TemplateViolation.
    """
    layout = BlockLayout.from_dims(cone_dims)
    if S.dim != layout.total:
        raise DimensionMismatch(f"S has dim {S.dim}, expected {layout.total}")
    for i, s in enumerate(s_blocks):
        s = np.asarray(s, dtype=float)
        sl = layout.block_slice(i)
        block = S.a[sl, sl]
        scale = 1.0 + float(np.abs(s).max())
        dev = abs(float(np.trace(block)) - float(s[0]))
        if dev > tol * scale:
            raise TemplateViolation(
                f"block {i} trace deviates from s1 by {dev:.3e}"
            )
        if s.shape[0] > 1:
            dev = float(np.abs(block[0, 1:] - s[1:] / 2.0).max())
            if dev > tol * scale:
                raise TemplateViolation(
                    f"block {i} first row deviates from s/2 by {dev:.3e}"
                )
    pairs, tied = layout.pins()
    heads = np.array([float(np.asarray(s)[0]) for s in s_blocks])
    tied_cone = layout.cone_ids[tied]
    u = S.a[tied, tied] - heads[tied_cone] / np.asarray(layout.dims)[tied_cone]
    w = -S.a[pairs[:, 0], pairs[:, 1]]
    return u, w


def map_solution_primal(
    problem: SocoProblem,
    sol: SocoSolution,
    spec: RankSpecLike = RankOne(),
    tol: float = DEFAULT_TOL,
) -> SdoSolution:
    """Transport a cone solution into the primal-side embedded problem.

    x blocks become their block arrow-head; slack blocks go through the chosen
    per-cone transports; the embedded dual vector (v | w | u) is assembled from
    y and the constructed slack matrix. The dual vector needs both y and s, so
    it stays absent unless both are supplied.
    """
    sol.validate_against(problem)
    choices = per_cone_choices(spec, problem.r)
    X = None
    if sol.x_blocks is not None:
        for x in sol.x_blocks:
            _require_in_cone(x, tol)
        X = block_diag([arrow_head(x) for x in sol.x_blocks])
    S = None
    y_full = None
    if sol.s_blocks is not None:
        S = block_diag([map_block(s, ch, tol) for s, ch in zip(sol.s_blocks, choices)])
        if sol.y is not None:
            u, w = recover_uw(S, sol.s_blocks, problem.cone_dims, tol)
            y_full = np.concatenate((sol.y, w, u))
    return SdoSolution(X=X, y=y_full, S=S)


def inverse_map_primal(
    problem: SocoProblem,
    sol: SdoSolution,
    tol: float = DEFAULT_TOL,
) -> SocoSolution:
    """Pull an SDO solution for a primal-side embedding back to cone vectors.

    X must be block arrow-head (within tol) and inverts blockwise; the original
    multipliers are the first m entries of y; slack blocks are read from S via
    (block trace; 2 * first block row) and cross-checked against c_i - A_i^T v
    when both are available. Disagreement raises InconsistentDual. S must be
    PSD within tol, as X must be on the dual side.
    """
    layout = problem.layout
    x_blocks = None
    if sol.X is not None:
        if sol.X.dim != layout.total:
            raise DimensionMismatch(f"X has dim {sol.X.dim}, expected {layout.total}")
        x_blocks = block_arrow_head_inv(sol.X, layout, tol)
    v = None
    if sol.y is not None:
        if sol.y.shape[0] < problem.m:
            raise DimensionMismatch(
                f"y has length {sol.y.shape[0]}, expected at least {problem.m}"
            )
        v = sol.y[: problem.m].copy()
    s_blocks = None
    if sol.S is not None:
        if sol.S.dim != layout.total:
            raise DimensionMismatch(f"S has dim {sol.S.dim}, expected {layout.total}")
        s_blocks = []
        for i in range(problem.r):
            s = extract_block_vector(sol.S, layout, i)
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
