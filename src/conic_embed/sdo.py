"""Standard-form semidefinite problem data and residuals.

min Tr(CX)  s.t.  Tr(A_j X) = b_j,  X PSD, with the dual living in (y, S),
C - sum_j y_j A_j = S. C and the constraints A_j are stored sparse, as
upper-triangle triplets: one SparseSym and one SparseRows stack; X and S are
dense. Problems produced by the embedding builders carry meta: the side they
came from, the cone dimensions and the original row count, from which the
primal side's structural rows follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, MissingSolutionPart
from .linalg import SparseRows, SparseSym, SymMatrix, trace_inner
from .linalg import _as_sparse, _checked, _checked_int
from .soco import BlockLayout


class Side(Enum):
    DUAL = "dual"
    PRIMAL = "primal"
    GENERIC = "generic"


@dataclass(frozen=True)
class EmbeddingMeta:
    """Provenance of an embedded problem.

    zero_pairs, the (P, 2) array of (h, l) coordinate pairs (global, 0-based,
    h < l) whose X entries structural rows pin to zero, and tied_diagonals,
    the non-leading diagonal indices tied to their block's leading diagonal
    entry, follow from cone_dims (BlockLayout.pins). Both are empty off the
    primal side. Each cone dimension must be an int or a numpy integer; a
    float or a string is refused (DimensionMismatch), not truncated.
    SdoProblem checks that they are positive and sum to its dim.
    """

    side: Side
    cone_dims: Optional[tuple[int, ...]] = None
    m_original: int = 0

    def __post_init__(self):
        if self.cone_dims is not None:
            dims = tuple(_checked_int(d, "cone_dims") for d in self.cone_dims)
            object.__setattr__(self, "cone_dims", dims)

    @cached_property
    def _layout(self) -> BlockLayout:
        return BlockLayout.from_dims(self.cone_dims)

    @cached_property
    def _pins(self) -> tuple[np.ndarray, np.ndarray]:
        if self.side is Side.PRIMAL and self.cone_dims is not None:
            return self._layout.pins
        return BlockLayout.from_dims((1,)).pins  # a single one-dimensional cone pins nothing

    @property
    def zero_pairs(self) -> np.ndarray:
        return self._pins[0]

    @property
    def tied_diagonals(self) -> np.ndarray:
        return self._pins[1]

GENERIC_META = EmbeddingMeta(Side.GENERIC)


@dataclass(frozen=True, eq=False)
class SdoProblem:
    """Standard-form SDO data, stored as triplets: C, a SparseSym or a
    SymMatrix, as a SparseSym; the constraints, a SparseRows stack or SparseSym
    or SymMatrix rows, as SparseRows. meta.cone_dims, when given, must be
    positive and sum to dim. meta.m_original must be non-negative and, on the
    dual or primal side, give the row count: m_original, or
    m_original + dim (dim - 1) / 2 with the primal side's pins."""

    dim: int
    C: SparseSym
    constraints: SparseRows
    b: np.ndarray
    meta: EmbeddingMeta = GENERIC_META

    def __post_init__(self):
        object.__setattr__(self, "C", _as_sparse(self.C, self.dim, "C"))
        dims = self.meta.cone_dims
        if dims is not None and (min(dims, default=0) < 1 or sum(dims) != self.dim):
            raise DimensionMismatch(
                f"meta.cone_dims {dims} must be positive and sum to dim {self.dim}"
            )
        rows = self.constraints
        if not isinstance(rows, SparseRows):
            rows = SparseRows.from_rows(self.dim, rows)
        elif rows.dim != self.dim:
            raise DimensionMismatch(f"constraints have dim {rows.dim}, expected {self.dim}")
        object.__setattr__(self, "constraints", rows)
        object.__setattr__(self, "b", _checked((self.b,), ((len(rows),),), "b")[0])
        m, side = self.meta.m_original, self.meta.side
        if m < 0:
            raise DimensionMismatch(f"meta.m_original must be non-negative, got {m}")
        if side is not Side.GENERIC:
            rows = m + (0 if side is Side.DUAL else self.dim * (self.dim - 1) // 2)
            if rows != len(self.constraints):
                raise DimensionMismatch(
                    f"meta.m_original {m} gives {rows} rows on the {side.value} side, "
                    f"but there are {len(self.constraints)}"
                )

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True, eq=False)
class SdoSolution:
    X: Optional[SymMatrix] = None
    y: Optional[np.ndarray] = None
    S: Optional[SymMatrix] = None

    def __post_init__(self):
        for name, m in (("X", self.X), ("S", self.S)):
            if not isinstance(m, (SymMatrix, type(None))):
                raise TypeError(f"{name} is a {type(m).__name__}, not a matrix")
        if self.y is not None:
            object.__setattr__(self, "y", _checked((self.y,), ((None,),), "y")[0])

    def validate_against(self, problem: SdoProblem) -> None:
        if self.X is not None and self.X.dim != problem.dim:
            raise DimensionMismatch(f"X has dim {self.X.dim}, expected {problem.dim}")
        if self.S is not None and self.S.dim != problem.dim:
            raise DimensionMismatch(f"S has dim {self.S.dim}, expected {problem.dim}")
        if self.y is not None and self.y.shape[0] != problem.num_constraints:
            raise DimensionMismatch(
                f"y has length {self.y.shape[0]}, expected {problem.num_constraints}"
            )


def sdo_primal_residual(problem: SdoProblem, sol: SdoSolution) -> float:
    """max_j |Tr(A_j X) - b_j|."""
    if sol.X is None:
        raise MissingSolutionPart("primal residual needs X")
    sol.validate_against(problem)
    return float(np.abs(problem.constraints.traces(sol.X) - problem.b).max(initial=0.0))


def sdo_dual_residual(problem: SdoProblem, sol: SdoSolution) -> float:
    """|| C - sum_j y_j A_j - S ||_inf."""
    if sol.y is None or sol.S is None:
        raise MissingSolutionPart("dual residual needs y and S")
    sol.validate_against(problem)
    acc = problem.C.a - problem.constraints.combine(sol.y) - sol.S.a
    return float(np.abs(acc).max())


def sdo_gap(problem: SdoProblem, sol: SdoSolution) -> float:
    """Signed gap Tr(CX) - b^T y."""
    if sol.X is None or sol.y is None:
        raise MissingSolutionPart("gap needs X and y")
    sol.validate_against(problem)
    return trace_inner(problem.C, sol.X) - float(problem.b @ sol.y)
