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
from .linalg import DEFAULT_TOL, PsdStatus, SparseRows, SymMatrix, psd_status
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side
from .embed_dual import (
    RankOne,
    RankSpecLike,
    _arrow_head_side,
    _block_vectors,
    _transport,
    per_cone_choices,
)
from .soco import (
    BlockLayout,
    SocoProblem,
    SocoSolution,
    _arrow_head_matrix,
    arrow_head_triplets,
    block_arrow_head_inv,
)


def build_primal_embedding(problem: SocoProblem) -> SdoProblem:
    """Scaled data rows, then pinned-pair rows, then tied-diagonal rows.

    Row order: the m data rows; one row per zero pair, lexicographic; one row
    per tied diagonal, ascending. b is zero-padded to match.
    """
    layout = problem.layout
    m = problem.m
    pairs, tied = layout.pins()
    scale = (layout.dims, 2.0)  # divisors of each block's head and tail
    C = _arrow_head_matrix(layout, problem.c_blocks, *scale)
    row, i, j, v = arrow_head_triplets(problem.A_blocks, layout, *scale)
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
    s = [np.asarray(v, dtype=float) for v in s_blocks]
    if tuple(v.shape for v in s) != tuple((n,) for n in layout.dims):
        raise DimensionMismatch(f"slack blocks do not match the cone dimensions {layout.dims}")
    return _recover_uw(S, np.concatenate(s), layout, tol)


def _recover_uw(
    S: SymMatrix, s: np.ndarray, layout: BlockLayout, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """recover_uw on the concatenated slack vector s, for an S of the
    layout's size. The template of every block is checked, the blocks of one
    size at once; the first block that fails, in cone order, raises, its trace
    before its first row."""
    traces, rows = layout.lead_rows(S.a)
    heads = s[list(layout.offsets)]
    band = tol * (1.0 + layout.cone_max(np.abs(s)))
    dev = np.abs(rows - s / 2.0)
    dev[list(layout.offsets)] = 0.0  # the first row's lead entry is checked in the trace
    row_dev = layout.cone_max(dev)
    trace_dev = np.abs(traces - heads)
    bad = np.flatnonzero((trace_dev > band) | (row_dev > band))
    if bad.size:
        i = int(bad[0])
        if trace_dev[i] > band[i]:
            raise TemplateViolation(f"block {i} trace deviates from s1 by {trace_dev[i]:.3e}")
        raise TemplateViolation(f"block {i} first row deviates from s/2 by {row_dev[i]:.3e}")
    pairs, tied = layout.pins()
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
    layout = problem.layout
    X = None
    if sol.x_blocks is not None:
        X = _arrow_head_side(layout, sol.x_blocks, tol)
    S = None
    y_full = None
    if sol.s_blocks is not None:
        s = np.concatenate(sol.s_blocks)
        S = _transport(layout, s, choices, tol)
        if sol.y is not None:
            u, w = _recover_uw(S, s, layout, tol)
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
        s = _block_vectors(sol.S.a, layout)
        if v is not None:
            alt = _slack(problem, v)
            dev = layout.cone_max(np.abs(s - alt))
            bad = np.flatnonzero(dev > tol * (1.0 + layout.cone_max(np.abs(alt))))
            if bad.size:
                i = int(bad[0])
                raise InconsistentDual(
                    f"slack block {i} read from S deviates from c - A^T v by {dev[i]:.3e}"
                )
        if psd_status(sol.S, tol) is PsdStatus.INDEFINITE:
            raise NotPSD("S is indefinite beyond tolerance")
        s_blocks = layout.split(s)
    elif v is not None:
        s_blocks = layout.split(_slack(problem, v))
    return SocoSolution(x_blocks=x_blocks, y=v, s_blocks=s_blocks)


def _slack(problem: SocoProblem, v: np.ndarray) -> np.ndarray:
    """c - A^T v, concatenated in cone order. The A blocks of one size are
    stacked, and each block's product is the same matrix-vector product, with
    the same bits, as A_i^T v alone; a product with the concatenated A rounds
    differently."""
    layout = problem.layout
    out = np.empty(layout.total)
    for g in layout.groups:
        A = np.stack([problem.A_blocks[i] for i in g.ids.tolist()])
        out[g.at] = np.stack([problem.c_blocks[i] for i in g.ids.tolist()]) \
            - A.transpose(0, 2, 1) @ v
    return out
