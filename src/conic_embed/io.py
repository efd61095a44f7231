"""File formats: JSON problem/solution schemas and SDPA sparse export.

Every file is written in one canonical form, so that saving what was loaded
reproduces it byte for byte:

- object keys in the order the writer lists them, two-space indentation;
- a list that holds lists, arrays or objects puts each entry on its own line,
  and a list of numbers stays on one line as "[a, b, c]", so a sparse row's
  [i, j, value] triples come one per line;
- floats as "%.17g" (17 significant digits, enough to read back the same
  double), with -0.0 written as 0; integers without a decimal point;
- a NaN or an infinite value raises ConicEmbedError before any file is opened.

write_json takes dicts, lists, tuples, scalars and numpy arrays of floats or
integers. An array is written as its nested .tolist() would be, and a
structured array as a list of its records. Each array is checked finite once,
and each of its innermost rows (the last axis, or one record) is formatted by
one %-template call; the SDPA export formats its b line and its entry lines
with the same row formatter and the same float rule.

Parsing is stdlib json, with NaN, Infinity and numbers that overflow to
infinity rejected as ParseError.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConicEmbedError, DimensionMismatch, ParseError
from .linalg import SparseRows, SymMatrix
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side
from .soco import BlockLayout, SocoProblem, SocoSolution

PathLike = Union[str, Path]


# The one float rule, for JSON and SDPA alike: 17 significant digits, after
# "+ 0.0" has turned -0.0 into 0.0 ("-0" would come back from json as the
# integer 0). Integers are written without a decimal point.
_CODES = {"f": "%.17g", "i": "%d", "u": "%d"}


def _code(dtype: np.dtype) -> str:
    code = _CODES.get(dtype.kind)
    if code is None:
        raise ConicEmbedError(f"cannot serialize an array of {dtype}")
    return code


def _values(a: np.ndarray) -> np.ndarray:
    """a as written: a float array plus 0.0, once every entry is checked
    finite."""
    if a.dtype.kind != "f":
        return a
    finite = np.isfinite(a)
    if not finite.all():
        raise ConicEmbedError(f"cannot serialize non-finite value {float(a[~finite][0])!r}")
    return a + 0.0


def _rows(a: np.ndarray, sep: str = ", ", wrap: str = "[%s]") -> list[str]:
    """The text of each innermost row of a, in order: of its last axis, or of
    each record when a is a structured array. One %-template call formats a
    row, its entries joined by sep inside wrap."""
    names = a.dtype.names
    if names is None:
        width = a.shape[-1]
        template = wrap % sep.join([_code(a.dtype)] * width)
        flat = _values(a).reshape(math.prod(a.shape[:-1]), width)
        values = map(tuple, flat.tolist())
    else:
        template = wrap % sep.join(_code(a.dtype[name]) for name in names)
        values = zip(*(_values(a[name]).reshape(-1).tolist() for name in names))
    return [template % row for row in values]


def _records(*columns) -> np.ndarray:
    """The columns side by side as a structured array, one record per row,
    which is written as a list of [column 0, column 1, ...] entries."""
    out = np.empty(len(columns[0]), [(f"f{k}", c.dtype) for k, c in enumerate(columns)])
    for k, c in enumerate(columns):
        out[f"f{k}"] = c
    return out


@dataclass(frozen=True)
class _Split:
    """The list of arrays rows[bounds[k]:bounds[k + 1]], k = 0, 1, ..., written
    with the rows of all of them formatted in one pass."""

    rows: np.ndarray
    bounds: list[int]


def _nest(rows: list[str], lead: tuple[int, ...], indent: int) -> str:
    """The row texts laid out as nested lists of shape lead, one entry per
    line."""
    if not lead:
        return rows[0]
    if not lead[0]:
        return "[]"
    if len(lead) > 1:
        step = len(rows) // lead[0]
        rows = [_nest(rows[k * step:(k + 1) * step], lead[1:], indent + 2) for k in range(lead[0])]
    inner = " " * (indent + 2)
    return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + " " * indent + "]"


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ConicEmbedError(f"cannot serialize non-finite value {float(value)!r}")
        return _CODES["f"] % (float(value) + 0.0)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise ConicEmbedError(f"cannot serialize {type(value).__name__}")


_CONTAINERS = (dict, list, tuple, np.ndarray, _Split)


def _emit(value, indent: int) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = " " * indent
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_emit(v, indent + 2)}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        if value.dtype.names is not None:
            return _nest(_rows(value), value.shape, indent)
        if value.ndim == 0:
            raise ConicEmbedError("cannot serialize a 0-d array")
        return _nest(_rows(value), value.shape[:-1], indent)
    if isinstance(value, _Split):
        rows, b = _rows(value.rows), value.bounds
        items = [_nest(rows[lo:hi], (hi - lo,), indent + 2) for lo, hi in zip(b, b[1:])]
        return _nest(items, (len(items),), indent)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if any(isinstance(x, _CONTAINERS) for x in value):
            return _nest([_emit(x, indent + 2) for x in value], (len(value),), indent)
        return "[" + ", ".join(map(_scalar, value)) + "]"
    return _scalar(value)


def render_json(obj: dict) -> str:
    """The canonical JSON text of obj, newline-terminated."""
    return _emit(obj, 0) + "\n"


def write_json(obj: dict, path: PathLike) -> None:
    Path(path).write_text(render_json(obj))


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
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
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
            "A": problem.A_blocks,
            "b": problem.b,
            "c": problem.c_blocks,
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
        obj["x"] = sol.x_blocks
    if sol.y is not None:
        obj["y"] = sol.y
    if sol.s_blocks is not None:
        obj["s"] = sol.s_blocks
    write_json(obj, path)


# SDO problem files: "format" 2 stores each constraint as its upper-triangle
# nonzeros [i, j, value]; files without "format" hold dense constraint rows.
SDO_FORMAT = 2


def render_sdo_problem(problem: SdoProblem) -> str:
    """The text save_sdo_problem writes."""
    meta = problem.meta
    A = problem.constraints
    return render_json(
        {
            "format": SDO_FORMAT,
            "dim": problem.dim,
            "C": problem.C.a,
            "A": _Split(_records(A.i, A.j, A.v), A.indptr.tolist()),
            "b": problem.b,
            "meta": {
                "side": meta.side.value,
                "cone_dims": list(meta.cone_dims) if meta.cone_dims is not None else None,
                "m_original": meta.m_original,
                "zero_pairs": meta.zero_pairs,
                "tied_diagonals": meta.tied_diagonals,
            },
        }
    )


def save_sdo_problem(problem: SdoProblem, path: PathLike) -> None:
    Path(path).write_text(render_sdo_problem(problem))


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
    cone_dims imply; meta.m_original must give the row count, as SdoProblem
    requires."""
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
    try:
        return SdoProblem(dim, C, rows, b, meta)
    except DimensionMismatch as e:  # meta.m_original against the row count
        raise ParseError(f"{path}: {e}") from None


def save_sdo_solution(
    sol: SdoSolution, path: PathLike, meta: Optional[EmbeddingMeta] = None
) -> None:
    """Write an SDO solution. With a primal-side meta, y is also written split
    as dual_split: the original multipliers v, then w and u indexed by the
    pinned pairs and tied diagonals."""
    obj: dict = {}
    if sol.X is not None:
        obj["X"] = sol.X.a
    if sol.y is not None:
        obj["y"] = sol.y
    if sol.S is not None:
        obj["S"] = sol.S.a
    if sol.y is not None and meta is not None and meta.side is Side.PRIMAL:
        pairs, tied = meta.zero_pairs, meta.tied_diagonals
        m, y, p = meta.m_original, sol.y, len(pairs)
        if len(y) != m + p + len(tied):
            raise DimensionMismatch(f"y has length {len(y)}, not the {m}+{p}+{len(tied)} "
                                    "constraints of the primal embedding")
        obj["dual_split"] = {
            "v": y[:m],
            "w": _records(pairs[:, 0], pairs[:, 1], y[m:m + p]),
            "u": _records(tied, y[m + p:]),
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


def render_sdpa(problem: SdoProblem, split_blocks: bool = False) -> str:
    """The embedded problem in SDPA sparse format (.dat-s).

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
        layout = meta._layout
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

    entries = _records(*(t[order] for t in (mat, blk + 1, local_i, local_j, val)))
    lines = [
        str(problem.num_constraints),
        str(len(layout.dims)),
        " ".join(str(n) for n in layout.dims),
        *_rows(problem.b, " ", "%s"),
        *_rows(entries, " ", "%s"),
    ]
    return "\n".join(lines) + "\n"


def export_sdpa(problem: SdoProblem, path: PathLike, split_blocks: bool = False) -> None:
    """Write render_sdpa(problem, split_blocks) to path."""
    Path(path).write_text(render_sdpa(problem, split_blocks))
