"""File formats: JSON problem/solution schemas and SDPA sparse export.

JSON is emitted through a small canonical serializer (fixed key order, floats
at 17 significant digits) so that saving what was loaded reproduces the file
byte for byte. Parsing is stdlib json, with NaN, Infinity and numbers that
overflow to infinity rejected as ParseError.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConicEmbedError, DimensionMismatch, ParseError
from .linalg import SparseRows, SymMatrix
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side
from .soco import BlockLayout, SocoProblem, SocoSolution

PathLike = Union[str, Path]


def flatten_blocks(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-cone vectors into one flat vector."""
    return np.concatenate([np.asarray(b, dtype=float) for b in blocks])


def split_vector(v: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """Cut a flat vector back into per-cone blocks."""
    v = np.asarray(v, dtype=float)
    layout = BlockLayout.from_dims(dims)
    if v.shape[0] != layout.total:
        raise DimensionMismatch(f"vector length {v.shape[0]} does not match dims {layout.dims}")
    return [v[layout.block_slice(i)].copy() for i in range(len(layout.dims))]


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ConicEmbedError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"  # "-0" would come back from json as the integer 0
    return format(x, ".17g")


def _emit(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_emit(v, indent + 2)}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if any(isinstance(x, (dict, list, tuple)) for x in items):
            inner = ",\n".join(f"{pad}  {_emit(x, indent + 2)}" for x in items)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(_emit(x, indent) for x in items) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise ConicEmbedError(f"cannot serialize {type(value).__name__}")


def write_json(obj: dict, path: PathLike) -> None:
    Path(path).write_text(_emit(obj, 0) + "\n")


def _read_json(path: PathLike) -> dict:
    def non_finite(token: str):
        raise ParseError(f"{path}: non-finite number {token}")

    def finite_float(token: str) -> float:
        x = float(token)
        if not math.isfinite(x):
            non_finite(token)
        return x

    try:
        obj = json.loads(
            Path(path).read_text(), parse_constant=non_finite, parse_float=finite_float
        )
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return obj


def _field(obj: dict, key: str, path: PathLike):
    if key not in obj:
        raise ParseError(f"{path}: missing field '{key}'")
    return obj[key]


_NUMBER_TYPES = frozenset((int, float))


def _numbers(raw: list, entries, what: str, path: PathLike) -> np.ndarray:
    """raw as a float array, if every one of its entries is a JSON number. The
    exact type is checked: bool subclasses int, and numpy reads true as 1.0."""
    try:
        if _NUMBER_TYPES.issuperset(map(type, entries)):
            return np.array(raw, dtype=float)
    except (ValueError, OverflowError):
        pass
    raise ParseError(f"{path}: field '{what}' is not numeric")


def _vector(raw, what: str, path: PathLike, length: Optional[int] = None) -> np.ndarray:
    if not isinstance(raw, list):
        raise ParseError(f"{path}: field '{what}' must be a flat list")
    v = _numbers(raw, raw, what, path)
    if length is not None and v.shape[0] != length:
        raise ParseError(f"{path}: field '{what}' has length {v.shape[0]}, expected {length}")
    return v


def _matrix(raw, what: str, path: PathLike, shape: Optional[tuple[int, int]] = None) -> np.ndarray:
    if not isinstance(raw, list) or not raw or not all(isinstance(row, list) for row in raw):
        raise ParseError(f"{path}: field '{what}' must be a list of rows")
    m = _numbers(raw, itertools.chain.from_iterable(raw), what, path)
    if shape is not None and m.shape != shape:
        raise ParseError(f"{path}: field '{what}' has shape {m.shape}, expected {shape}")
    return m


def _int_rows(raw, width: int, what: str, path: PathLike) -> list:
    """raw, if it is a list of integers, or with width > 0 a list of
    width-long integer lists."""
    def valid(e) -> bool:
        if not width:
            return type(e) is int
        return isinstance(e, list) and len(e) == width and all(type(t) is int for t in e)

    if not isinstance(raw, list) or not all(valid(e) for e in raw):
        form = "integers" if not width else f"lists of {width} integers"
        raise ParseError(f"{path}: field '{what}' must be a list of {form}")
    return raw


def _indexed(raw, width: int, what: str, form: str, path: PathLike):
    """Entries [index * width, value]: their integer indices as tuples, and
    their values."""
    if not isinstance(raw, list) or not all(
        isinstance(e, list) and len(e) == width + 1 and all(type(t) is int for t in e[:width])
        for e in raw
    ):
        raise ParseError(f"{path}: {what} entries must be {form}")
    return [tuple(e[:width]) for e in raw], _vector([e[width] for e in raw], what, path).tolist()


def load_problem(path: PathLike) -> SocoProblem:
    obj = _read_json(path)
    cones_raw = _field(obj, "cones", path)
    if not isinstance(cones_raw, list) or not cones_raw or not all(
        isinstance(n, int) and n >= 1 for n in cones_raw
    ):
        raise ParseError(f"{path}: field 'cones' must be a list of positive integers")
    dims = tuple(cones_raw)
    m = _field(obj, "m", path)
    if not isinstance(m, int) or m < 1:
        raise ParseError(f"{path}: field 'm' must be a positive integer")
    a_raw = _field(obj, "A", path)
    c_raw = _field(obj, "c", path)
    if not isinstance(a_raw, list) or len(a_raw) != len(dims):
        raise ParseError(f"{path}: field 'A' must have one block per cone")
    if not isinstance(c_raw, list) or len(c_raw) != len(dims):
        raise ParseError(f"{path}: field 'c' must have one block per cone")
    A = tuple(_matrix(blk, f"A[{i}]", path, (m, dims[i])) for i, blk in enumerate(a_raw))
    c = tuple(_vector(blk, f"c[{i}]", path, dims[i]) for i, blk in enumerate(c_raw))
    b = _vector(_field(obj, "b", path), "b", path, m)
    return SocoProblem(dims, A, c, b)


def save_problem(problem: SocoProblem, path: PathLike) -> None:
    write_json(
        {
            "cones": list(problem.cone_dims),
            "m": problem.m,
            "A": [a.tolist() for a in problem.A_blocks],
            "b": problem.b.tolist(),
            "c": [c.tolist() for c in problem.c_blocks],
        },
        path,
    )


def load_solution(path: PathLike, problem: SocoProblem) -> SocoSolution:
    obj = _read_json(path)
    dims = problem.cone_dims
    x = s = y = None
    if "x" in obj:
        raw = obj["x"]
        if not isinstance(raw, list) or len(raw) != len(dims):
            raise ParseError(f"{path}: field 'x' must have one block per cone")
        x = tuple(_vector(blk, f"x[{i}]", path, dims[i]) for i, blk in enumerate(raw))
    if "s" in obj:
        raw = obj["s"]
        if not isinstance(raw, list) or len(raw) != len(dims):
            raise ParseError(f"{path}: field 's' must have one block per cone")
        s = tuple(_vector(blk, f"s[{i}]", path, dims[i]) for i, blk in enumerate(raw))
    if "y" in obj:
        y = _vector(obj["y"], "y", path, problem.m)
    return SocoSolution(x_blocks=x, y=y, s_blocks=s)


def save_solution(sol: SocoSolution, path: PathLike) -> None:
    obj: dict = {}
    if sol.x_blocks is not None:
        obj["x"] = [v.tolist() for v in sol.x_blocks]
    if sol.y is not None:
        obj["y"] = sol.y.tolist()
    if sol.s_blocks is not None:
        obj["s"] = [v.tolist() for v in sol.s_blocks]
    write_json(obj, path)


# SDO problem files: "format" 2 stores each constraint as its upper-triangle
# nonzeros [i, j, value]; files without "format" hold dense constraint rows.
SDO_FORMAT = 2


def save_sdo_problem(problem: SdoProblem, path: PathLike) -> None:
    meta = problem.meta
    A = problem.constraints
    triples = list(zip(A.i.tolist(), A.j.tolist(), A.v.tolist()))
    bounds = A.indptr.tolist()
    write_json(
        {
            "format": SDO_FORMAT,
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
        },
        path,
    )


def _sparse_rows(a_raw: list, dim: int, path: PathLike) -> SparseRows:
    row, i, j, v = [], [], [], []
    for k, entries in enumerate(a_raw):
        if not isinstance(entries, list):
            raise ParseError(f"{path}: field 'A[{k}]' must be a list of [i, j, value]")
        for e in entries:
            if not (
                isinstance(e, list)
                and len(e) == 3
                and all(type(t) is int for t in e[:2])
                and type(e[2]) in (int, float)
            ):
                raise ParseError(f"{path}: field 'A[{k}]' entries must be [i, j, value]")
            row.append(k)
            i.append(e[0])
            j.append(e[1])
            v.append(e[2])
    try:
        return SparseRows(dim, len(a_raw), row, i, j, v)
    except (DimensionMismatch, OverflowError) as e:
        raise ParseError(f"{path}: field 'A': {e}") from None


def load_sdo_problem(path: PathLike) -> SdoProblem:
    """Read an SDO problem file, in the triplet form or the older dense form.

    meta.cone_dims, when given, must be positive and sum to dim; stored
    meta.zero_pairs and meta.tied_diagonals must equal the pins that side and
    cone_dims imply."""
    obj = _read_json(path)
    fmt = obj.get("format")
    if fmt not in (None, SDO_FORMAT):
        raise ParseError(f"{path}: unknown SDO problem format {fmt!r}")
    dim = _field(obj, "dim", path)
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{path}: field 'dim' must be a positive integer")
    C = SymMatrix(_matrix(_field(obj, "C", path), "C", path, (dim, dim)))
    a_raw = _field(obj, "A", path)
    if not isinstance(a_raw, list):
        raise ParseError(f"{path}: field 'A' must be a list of constraints")
    if fmt is None:
        rows = SparseRows.from_rows(
            dim,
            [SymMatrix(_matrix(blk, f"A[{j}]", path, (dim, dim))) for j, blk in enumerate(a_raw)],
        )
    else:
        rows = _sparse_rows(a_raw, dim, path)
    b = _vector(_field(obj, "b", path), "b", path, len(rows))
    meta_raw = obj.get("meta")
    meta = EmbeddingMeta(Side.GENERIC)
    if isinstance(meta_raw, dict):
        try:
            side = Side(meta_raw.get("side", "generic"))
        except ValueError:
            raise ParseError(f"{path}: meta.side must be dual, primal or generic") from None
        cone_dims = meta_raw.get("cone_dims")
        if cone_dims is not None:
            _int_rows(cone_dims, 0, "meta.cone_dims", path)
            if not cone_dims or min(cone_dims) < 1 or sum(cone_dims) != dim:
                raise ParseError(f"{path}: field 'meta.cone_dims' must be positive and sum to {dim}")
        m_original = meta_raw.get("m_original", 0)
        if type(m_original) is not int:
            raise ParseError(f"{path}: field 'meta.m_original' must be an integer")
        meta = EmbeddingMeta(side, cone_dims, m_original)
        for key, width, pinned in (
            ("zero_pairs", 2, meta.zero_pairs),
            ("tied_diagonals", 0, meta.tied_diagonals),
        ):
            what = f"meta.{key}"
            if key in meta_raw and _int_rows(meta_raw[key], width, what, path) != pinned.tolist():
                raise ParseError(f"{path}: field '{what}' does not follow from side and cone_dims")
    return SdoProblem(dim, C, rows, b, meta)


def save_sdo_solution(
    sol: SdoSolution, path: PathLike, meta: Optional[EmbeddingMeta] = None
) -> None:
    """Write an SDO solution. With a primal-side meta, y is also written split
    as dual_split: the original multipliers v, then w and u indexed by the
    pinned pairs and tied diagonals."""
    obj: dict = {}
    if sol.X is not None:
        obj["X"] = sol.X.a.tolist()
    if sol.y is not None:
        obj["y"] = sol.y.tolist()
    if sol.S is not None:
        obj["S"] = sol.S.a.tolist()
    if sol.y is not None and meta is not None and meta.side is Side.PRIMAL:
        pairs, tied = meta.zero_pairs.tolist(), meta.tied_diagonals.tolist()
        m, y = meta.m_original, obj["y"]
        if len(y) != m + len(pairs) + len(tied):
            raise DimensionMismatch(f"y has length {len(y)}, not the {m}+{len(pairs)}+{len(tied)} "
                                    "constraints of the primal embedding")
        obj["dual_split"] = {
            "v": y[:m],
            "w": [[h, l, val] for (h, l), val in zip(pairs, y[m:])],
            "u": [[k, val] for k, val in zip(tied, y[m + len(pairs):])],
        }
    write_json(obj, path)


def load_sdo_solution(path: PathLike, problem: Optional[SdoProblem] = None) -> SdoSolution:
    """Read an SDO solution. A dual_split must index the problem's pins, when
    a problem with a side is given, and concatenate to y exactly; a file with
    a dual_split and no y takes y from it."""
    obj = _read_json(path)
    dim = problem.dim if problem is not None else None
    length = problem.num_constraints if problem is not None else None
    X = y = S = None
    if "X" in obj:
        shape = (dim, dim) if dim else None
        X = SymMatrix(_matrix(obj["X"], "X", path, shape))
    if "S" in obj:
        shape = (dim, dim) if dim else None
        S = SymMatrix(_matrix(obj["S"], "S", path, shape))
    if "y" in obj:
        y = _vector(obj["y"], "y", path, length)
    if "dual_split" in obj:
        raw = obj["dual_split"]
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: field 'dual_split' must be an object")
        v = _vector(_field(raw, "v", path), "dual_split.v", path)
        w_at, w = _indexed(raw.get("w", []), 2, "dual_split.w", "[h, l, value]", path)
        u_at, u = _indexed(raw.get("u", []), 1, "dual_split.u", "[k, value]", path)
        if problem is not None and problem.meta.side is not Side.GENERIC:
            pairs = list(map(tuple, problem.meta.zero_pairs.tolist()))
            tied = [(k,) for k in problem.meta.tied_diagonals.tolist()]
            w_map = dict(zip(w_at, w))
            if set(w_map) != set(pairs):
                raise ParseError(f"{path}: dual_split.w pairs do not match the embedding")
            u_map = dict(zip(u_at, u))
            if set(u_map) != set(tied):
                raise ParseError(f"{path}: dual_split.u indices do not match the embedding")
            w = [w_map[p] for p in pairs]
            u = [u_map[k] for k in tied]
        joined = np.concatenate((v, w, u))
        if y is None:
            y = joined
            if length is not None and len(y) != length:
                raise ParseError(f"{path}: field 'dual_split' has {len(y)} entries, expected {length}")
        elif not np.array_equal(joined, y):
            raise ParseError(f"{path}: field 'dual_split' does not concatenate to y")
    return SdoSolution(X=X, y=y, S=S)


def export_sdpa(problem: SdoProblem, path: PathLike, split_blocks: bool = False) -> None:
    """Write the embedded problem in SDPA sparse format (.dat-s).

    Header: constraint count, block count, block sizes, right-hand side. Then
    one line per upper-triangle nonzero, 'matno blkno i j value' with matrix 0
    the objective, 1-based indices, values at 17 significant digits. Without
    split_blocks everything lives in a single block of the full dimension;
    with it, each cone becomes its own block, which requires meta guaranteeing
    block-diagonal data (dual side, or a single-cone primal embedding).
    """
    meta = problem.meta
    if split_blocks:
        if meta.cone_dims is None or meta.side is Side.GENERIC:
            raise ConicEmbedError("split export needs embedding meta with cone dimensions")
        if meta.side is Side.PRIMAL and len(meta.cone_dims) > 1:
            raise ConicEmbedError(
                "multi-cone primal embeddings are not block-diagonal "
                "(pinned pairs straddle blocks); export without splitting"
            )
        layout = BlockLayout.from_dims(meta.cone_dims)
    else:
        layout = BlockLayout.from_dims((problem.dim,))
    offsets = np.asarray(layout.offsets)
    cone = layout.cone_ids
    A = problem.constraints
    ci, cj = np.nonzero(np.triu(problem.C.a))
    mat = np.concatenate((np.zeros(len(ci), dtype=np.int64), A.row_ids() + 1))
    i = np.concatenate((ci, A.i))
    j = np.concatenate((cj, A.j))
    val = np.concatenate((problem.C.a[ci, cj], A.v))
    blk = cone[i]
    # data outside the declared blocks must not exist
    stray = blk != cone[j]
    if stray.any():
        raise ConicEmbedError(
            f"matrix {mat[np.argmax(stray)]} has entries outside the declared blocks"
        )
    local_i = i - offsets[blk] + 1
    local_j = j - offsets[blk] + 1
    order = np.lexsort((local_j, local_i, blk, mat))

    lines = [
        str(problem.num_constraints),
        str(len(layout.dims)),
        " ".join(str(n) for n in layout.dims),
        " ".join(_fmt_float(v) for v in problem.b),
    ]
    columns = (t[order].tolist() for t in (mat, blk + 1, local_i, local_j, val))
    lines.extend(f"{m} {k} {a} {b} {_fmt_float(v)}" for m, k, a, b, v in zip(*columns))
    Path(path).write_text("\n".join(lines) + "\n")
