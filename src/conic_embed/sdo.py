"""Standard-form semidefinite problem data and residuals.

min Tr(CX)  s.t.  Tr(A_j X) = b_j,  X PSD, with the dual living in (y, S),
C - sum_j y_j A_j = S. C and the constraints A_j are stored sparse, as
upper-triangle triplets: one SparseSym and one SparseRows stack; X and S are
dense. Problems produced by the embedding builders carry meta: the side they
came from, the cone dimensions and the original row count. EmbeddingMeta
checks them and owns what they fix: row count, pins and provenance match.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, MissingSolutionPart, ProvenanceMismatch
from .linalg import SparseRows, SparseSym, SymMatrix
from .linalg import _as_sparse, _checked, _checked_int, _frozen
from .soco import BlockLayout, SocoProblem


class Side(Enum):
    DUAL = "dual"
    PRIMAL = "primal"
    GENERIC = "generic"


def _of_type(value, cls: type, name: str):
    """value, unless it is not a cls (TypeError: "side is a str, not a Side")."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} is a {type(value).__name__}, not {article} {cls.__name__}")
    return value


def lifted_part(side: Side) -> str:
    """The one rule for a side argument and statement of its role: the part
    of a SocoSolution it lifts by theta-blocks, "x_blocks" on the dual side,
    "s_blocks" on the primal; the other is carried as its block arrow-head."""
    if _of_type(side, Side, "side") is Side.GENERIC:
        raise DimensionMismatch("side must be dual or primal, got generic")
    return "x_blocks" if side is Side.DUAL else "s_blocks"


_NO_PINS = _frozen(np.empty((0, 2), dtype=np.intp), np.empty(0, dtype=np.intp))


@dataclass(frozen=True)
class EmbeddingMeta:
    """Provenance of an embedded problem. side must be a Side (else
    TypeError); cone_dims, required off the generic side, nonempty integers
    >= 1; m_original an integer >= 0 (else DimensionMismatch, not truncated).

    zero_pairs, the (P, 2) array of (h, l) coordinate pairs (global, 0-based,
    h < l) whose X entries structural rows pin to zero, and tied_diagonals,
    the non-leading diagonal indices tied to their block's leading diagonal
    entry, follow from cone_dims (BlockLayout.pins). Both are empty off the
    primal side.
    """

    side: Side
    cone_dims: Optional[tuple[int, ...]] = None
    m_original: int = 0

    def __post_init__(self):
        _of_type(self.side, Side, "side")
        if self.cone_dims is not None:
            object.__setattr__(self, "cone_dims", BlockLayout.from_dims(self.cone_dims).dims)
        elif self.side is not Side.GENERIC:
            raise DimensionMismatch(f"cone_dims must be given on the {self.side.value} side")
        object.__setattr__(self, "m_original", _checked_int(self.m_original, "m_original", 0))

    @property
    def rows(self) -> Optional[int]:
        """The embedded row count: m_original, plus N (N - 1) / 2 pins on the
        primal side for N = sum(cone_dims); None on the generic side."""
        if self.side is not Side.PRIMAL:
            return None if self.side is Side.GENERIC else self.m_original
        n = sum(self.cone_dims)
        return self.m_original + n * (n - 1) // 2

    def match(self, problem: Optional[SocoProblem] = None) -> None:
        """ProvenanceMismatch unless this is a dual or primal side and, given
        the cone problem, has its cone dimensions and row count."""
        if self.side is Side.GENERIC:
            raise ProvenanceMismatch("expected a dual- or primal-side embedding, got generic")
        if problem is not None and (problem.cone_dims, problem.m) != (self.cone_dims, self.m_original):
            raise ProvenanceMismatch(
                f"problem with cones {problem.cone_dims} and {problem.m} rows does not match "
                f"the embedding of cones {self.cone_dims} and {self.m_original} rows"
            )

    @cached_property
    def _layout(self) -> BlockLayout:
        return BlockLayout.from_dims(self.cone_dims)

    @cached_property
    def _pins(self) -> tuple[np.ndarray, np.ndarray]:
        return self._layout.pins if self.side is Side.PRIMAL else _NO_PINS

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
    or SymMatrix rows, as SparseRows. meta.cone_dims, when given, must sum to
    dim, and on the dual or primal side there must be meta.rows constraints."""

    dim: int
    C: SparseSym
    constraints: SparseRows
    b: np.ndarray
    meta: EmbeddingMeta = GENERIC_META

    def __post_init__(self):
        object.__setattr__(self, "C", _as_sparse(self.C, self.dim, "C"))
        dims = _of_type(self.meta, EmbeddingMeta, "meta").cone_dims
        if dims is not None and sum(dims) != self.dim:
            raise DimensionMismatch(f"meta.cone_dims {dims} must sum to dim {self.dim}")
        rows = self.constraints
        if not isinstance(rows, SparseRows):
            rows = SparseRows.from_rows(self.dim, rows)
        elif rows.dim != self.dim:
            raise DimensionMismatch(f"constraints have dim {rows.dim}, expected {self.dim}")
        object.__setattr__(self, "constraints", rows)
        object.__setattr__(self, "b", _checked((self.b,), ((len(rows),),), "b")[0])
        want = self.meta.rows
        if want is not None and want != len(rows):
            raise DimensionMismatch(
                f"meta.m_original {self.meta.m_original} gives {want} rows on the "
                f"{self.meta.side.value} side, but there are {len(rows)}"
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
