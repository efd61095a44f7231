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

Every loader parses with stdlib json through one decoder, whose hooks refuse
NaN, Infinity and a number that overflows to infinity (1e400) anywhere in the
file. Each field is then checked once, as a whole, by one field reader, and
any fault is a ParseError that names the field:

- exact types: a number is an int or a float; a bool is not an int, and a
  string such as "1.5" is not a number;
- shape: lists nested to the field's depth, each level's lists of one length,
  and that length where the problem fixes it;
- integers (indices, and counts such as dim and m): ints within int64, read
  exactly as int64, never through a float;
- a matrix (C, a row of the dense A, X, S) must be square and symmetric;
- a dual_split may not repeat an index or hold a negative one; given a
  problem with a side, its indices must be the problem's pins, in any order;
- meta, when present, must be an object; without it the meta is generic.
  EmbeddingMeta and SdoProblem check the rest of it; the loader names the field.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConicEmbedError, DimensionMismatch, NotSymmetric, ParseError
from .linalg import SparseRows, SymMatrix
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side, _of_type
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


def _non_finite(token: str):
    raise ParseError(f"non-finite number {token}")


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        _non_finite(token)
    return x


# parse_float is the one gate for a number that overflows to infinity (1e400)
# anywhere in a file, so the field reader needs no finiteness check; one
# decoder serves every file.
_DECODER = json.JSONDecoder(parse_constant=_non_finite, parse_float=_finite_float)


def _read_json(path: PathLike) -> dict:
    try:
        with open(path) as f:  # Path.read_text costs more than the parse of a small file
            obj = _DECODER.decode(f.read())
    except json.JSONDecodeError as e:
        raise ParseError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return obj


def _field(obj: dict, key: str, path: PathLike):
    if key not in obj:
        raise ParseError(f"{path}: missing field '{key}'")
    return obj[key]


_NUMBER = frozenset((int, float))
_INT = frozenset((int,))
_LIST = frozenset((list,))
_flat = itertools.chain.from_iterable


def _not_nested(path: PathLike, what: str, shape: tuple) -> ParseError:
    return ParseError(f"{path}: field '{what}' must be numbers in lists nested {len(shape)} deep")


def _read(raw, shape: tuple, what: str, path: PathLike, ints: int = 0):
    """The field raw, len(shape) levels of JSON lists with numbers innermost,
    checked once for the whole field: each level is a list of lists of one
    length, the lengths are those of shape where shape gives one (None is
    free; an empty list takes the given length), and every number is an int
    or a float by exact type (bool is not an int, "1.5" not a number).
    Returns the float array, read-only, so the data classes keep it
    without a copy. With ints, the first ints entries of each
    innermost list (of a flat list: every entry) must be ints, and the pair
    (those columns exactly as int64, the other columns as floats; each an
    array with one row per column) is returned; an integer outside int64 is
    a ParseError. _read_json has refused non-finite numbers."""
    if type(raw) is not list:
        raise _not_nested(path, what, shape)
    got, items = [len(raw)], raw
    bad = shape[0] is not None and got[0] != shape[0]
    for want in shape[1:]:
        if not _LIST.issuperset(map(type, items)):
            raise _not_nested(path, what, shape)
        lengths = set(map(len, items))
        if len(lengths) > 1:
            raise ParseError(f"{path}: field '{what}' has rows of different lengths")
        n = lengths.pop() if lengths else want  # no rows: the length shape gives
        bad = bad or n is None or (want is not None and n != want)
        got.append(n)
        items = list(_flat(items))
    if bad:
        raise ParseError(f"{path}: field '{what}' has shape {tuple(got)}, expected {shape}")
    if not _NUMBER.issuperset(map(type, items)):
        raise _not_nested(path, what, shape)
    try:
        if not ints:
            values = np.array(items, dtype=float)
            values.setflags(write=False)
            return values.reshape(got) if len(got) > 1 else values
        width = got[-1] if len(got) > 1 else 1
        columns = [items[k::width] for k in range(width)] if width > 1 else [items]
        if not _INT.issuperset(map(type, _flat(columns[:ints]))):
            raise ParseError(f"{path}: field '{what}' must hold integers where it holds indices")
        return np.array(columns[:ints], dtype=np.int64), np.array(columns[ints:], dtype=float)
    except OverflowError:
        raise ParseError(f"{path}: field '{what}' holds a number out of range") from None


def _per_cone(raw, what: str, dims: list, path: PathLike, lead: tuple = ()) -> list:
    """raw as one block per cone, block i of shape lead + (dims[i],)."""
    if type(raw) is not list or len(raw) != len(dims):
        raise ParseError(f"{path}: field '{what}' must have one block per cone")
    return [
        _read(blk, lead + (n,), f"{what}[{i}]", path) for i, (blk, n) in enumerate(zip(raw, dims))
    ]


def _count(raw, what: str, path: PathLike, least: int) -> int:
    """raw, if it is an int (not a bool) from least up to the int64 limit."""
    if type(raw) is not int or not least <= raw < 2**63:
        raise ParseError(f"{path}: field '{what}' must be an integer from {least} to 2**63 - 1")
    return raw


def _symmetric(a: np.ndarray, what: str, path: PathLike) -> SymMatrix:
    """The array read from field what as a SymMatrix; a matrix that is not
    square or not symmetric is a ParseError naming the field."""
    try:
        return SymMatrix(a)
    except (DimensionMismatch, NotSymmetric) as e:
        raise ParseError(f"{path}: field '{what}': {e}") from None


def load_problem(path: PathLike) -> SocoProblem:
    obj = _read_json(path)
    dims = _read(_field(obj, "cones", path), (None,), "cones", path, ints=1)[0][0].tolist()
    if not dims or min(dims) < 1:
        raise ParseError(f"{path}: field 'cones' must be a list of positive integers")
    m = _count(_field(obj, "m", path), "m", path, 1)
    A = _per_cone(_field(obj, "A", path), "A", dims, path, (m,))
    c = _per_cone(_field(obj, "c", path), "c", dims, path)
    b = _read(_field(obj, "b", path), (m,), "b", path)
    return SocoProblem(tuple(dims), A, c, b)


def render_problem(problem: SocoProblem) -> str:
    """The text save_problem writes."""
    return render_json(
        {
            "cones": list(problem.cone_dims),
            "m": problem.m,
            "A": problem.A_blocks,
            "b": problem.b,
            "c": problem.c_blocks,
        }
    )


def save_problem(problem: SocoProblem, path: PathLike) -> None:
    Path(path).write_text(render_problem(problem))


def load_solution(path: PathLike, problem: SocoProblem) -> SocoSolution:
    obj = _read_json(path)
    dims = problem.cone_dims
    x = _per_cone(obj["x"], "x", dims, path) if "x" in obj else None
    s = _per_cone(obj["s"], "s", dims, path) if "s" in obj else None
    y = _read(obj["y"], (problem.m,), "y", path) if "y" in obj else None
    return SocoSolution(x_blocks=x, y=y, s_blocks=s)


def render_solution(sol: SocoSolution) -> str:
    """The text save_solution writes."""
    obj: dict = {}
    if sol.x_blocks is not None:
        obj["x"] = sol.x_blocks
    if sol.y is not None:
        obj["y"] = sol.y
    if sol.s_blocks is not None:
        obj["s"] = sol.s_blocks
    return render_json(obj)


def save_solution(sol: SocoSolution, path: PathLike) -> None:
    Path(path).write_text(render_solution(sol))


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


def _sparse_rows(a_raw, dim: int, path: PathLike) -> SparseRows:
    if type(a_raw) is not list or not _LIST.issuperset(map(type, a_raw)):
        raise ParseError(f"{path}: field 'A' must be a list of lists of [i, j, value]")
    ij, v = _read(list(_flat(a_raw)), (None, 3), "A", path, ints=2)
    row = np.repeat(np.arange(len(a_raw)), list(map(len, a_raw)))
    try:
        return SparseRows(dim, len(a_raw), row, ij[0], ij[1], v[0])
    except DimensionMismatch as e:
        raise ParseError(f"{path}: field 'A': {e}") from None


def load_sdo_problem(path: PathLike) -> SdoProblem:
    """Read an SDO problem file, in the triplet form or the older dense form.

    meta, when present, must be an object; without it the meta is generic.
    The meta and the problem check themselves (EmbeddingMeta, SdoProblem),
    and their refusals become ParseErrors naming meta.cone_dims or
    meta.m_original. Then stored meta.zero_pairs and meta.tied_diagonals
    must equal the pins that side and cone_dims imply."""
    obj = _read_json(path)
    fmt = obj.get("format")
    if fmt is not None and (type(fmt) is not int or fmt != SDO_FORMAT):
        raise ParseError(f"{path}: unknown SDO problem format {fmt!r}")
    dim = _count(_field(obj, "dim", path), "dim", path, 1)
    C = _symmetric(_read(_field(obj, "C", path), (dim, dim), "C", path), "C", path)
    a_raw = _field(obj, "A", path)
    if fmt is None:
        dense = _read(a_raw, (None, dim, dim), "A", path)
        rows = [_symmetric(a, f"A[{k}]", path) for k, a in enumerate(dense)]
    else:
        rows = _sparse_rows(a_raw, dim, path)
    b = _read(_field(obj, "b", path), (len(rows),), "b", path)
    meta_raw = obj.get("meta", {})
    if type(meta_raw) is not dict:
        raise ParseError(f"{path}: field 'meta' must be an object")
    try:
        side = Side(meta_raw.get("side", "generic"))
    except ValueError:
        raise ParseError(f"{path}: meta.side must be dual, primal or generic") from None
    cone_dims = meta_raw.get("cone_dims")
    if cone_dims is not None:
        cone_dims = _read(cone_dims, (None,), "meta.cone_dims", path, 1)[0][0].tolist()
    m_original = _count(meta_raw.get("m_original", 0), "meta.m_original", path, 0)
    try:
        meta = EmbeddingMeta(side, cone_dims, m_original)
    except DimensionMismatch as e:  # the only field it can refuse here
        raise ParseError(f"{path}: field 'meta.cone_dims': {e}") from None
    try:
        problem = SdoProblem(dim, C, rows, b, meta)
    except DimensionMismatch as e:  # names meta.cone_dims or meta.m_original
        raise ParseError(f"{path}: {e}") from None
    for key, shape, ints, pins in (
        ("zero_pairs", (None, 2), 2, meta.zero_pairs.T),
        ("tied_diagonals", (None,), 1, meta.tied_diagonals[None]),
    ):
        if key not in meta_raw:
            continue
        what = f"meta.{key}"
        if not np.array_equal(_read(meta_raw[key], shape, what, path, ints)[0], pins):
            raise ParseError(f"{path}: field '{what}' does not follow from side and cone_dims")
    return problem


def save_sdo_solution(
    sol: SdoSolution, path: PathLike, meta: Optional[EmbeddingMeta] = None
) -> None:
    """Write an SDO solution. With a dual- or primal-side meta, y must have
    its meta.rows entries, else DimensionMismatch before any file is opened.
    With a primal-side meta, y is also written split as dual_split: the
    original multipliers v, then w and u indexed by the pinned pairs and tied
    diagonals."""
    rows = None if meta is None else _of_type(meta, EmbeddingMeta, "meta").rows
    if sol.y is not None and rows is not None and len(sol.y) != rows:
        raise DimensionMismatch(f"y has length {len(sol.y)}, not the {rows} "
                                f"constraints of the {meta.side.value} embedding")
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
        obj["dual_split"] = {
            "v": y[:m],
            "w": _records(pairs[:, 0], pairs[:, 1], y[m:m + p]),
            "u": _records(tied, y[m + p:]),
        }
    write_json(obj, path)


def load_sdo_solution(path: PathLike, problem: Optional[SdoProblem] = None) -> SdoSolution:
    """Read an SDO solution. A dual_split must index each of the problem's
    pins once, when a problem with a side is given, and otherwise repeat no
    index, hold no negative one or pair (h, l) with h >= l, and stay below
    the dim the problem, X or S gives; it must concatenate to y exactly, and
    a file with a dual_split and no y takes y from it."""
    obj = _read_json(path)
    dim = problem.dim if problem is not None else None
    length = problem.num_constraints if problem is not None else None
    X, S = (_symmetric(_read(obj[k], (dim, dim), k, path), k, path) if k in obj else None
            for k in ("X", "S"))
    dim = next((M.dim for M in (X, S) if M is not None), dim)
    y = _read(obj["y"], (length,), "y", path) if "y" in obj else None
    if "dual_split" in obj:
        raw = obj["dual_split"]
        if type(raw) is not dict:
            raise ParseError(f"{path}: field 'dual_split' must be an object")
        pinned = problem is not None and problem.meta.side is not Side.GENERIC
        parts = [_read(_field(raw, "v", path), (None,), "dual_split.v", path)]
        for key, width, pins in (
            ("w", 2, problem.meta.zero_pairs.T if pinned else None),
            ("u", 1, problem.meta.tied_diagonals[None] if pinned else None),
        ):
            what = f"dual_split.{key}"
            at, values = _read(raw.get(key, []), (None, width + 1), what, path, width)
            order = np.lexsort(at[::-1])
            at = at[:, order]
            if pins is None:  # nothing to match: y takes the file's order
                order = slice(None)
                bad = (at.min(initial=0) < 0 or (at[:-1] >= at[1:]).any()  # each pair has h < l
                       or (dim is not None and at.max(initial=0) >= dim)
                       or (at[:, 1:] == at[:, :-1]).all(axis=0).any())
            else:
                bad = not np.array_equal(at, pins)
            if bad:
                raise ParseError(f"{path}: field '{what}' holds a negative, repeated, "
                                 "out-of-range or lower-triangle index, or misses a pin")
            parts.append(values[0, order])
        joined = np.concatenate(parts)
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
    with it, each cone of a dual- or primal-side meta (meta.match) becomes
    its own block, and no entry may leave its block: true on the dual side
    and of a single-cone primal embedding.
    """
    if split_blocks:
        problem.meta.match()
        layout = problem.meta._layout
    else:
        layout = BlockLayout.from_dims((problem.dim,))
    offsets = np.asarray(layout.offsets)
    cone = layout.cone_ids
    C, A = problem.C, problem.constraints  # matrix 0, then matrices 1..m, as stored triplets
    mat = np.concatenate((np.zeros(C.nnz, dtype=np.int64), A.row_ids() + 1))
    i, j, val = (np.concatenate(t) for t in ((C.i, A.i), (C.j, A.j), (C.v, A.v)))
    blk = cone[i]
    # data outside the declared blocks must not exist
    stray = blk != cone[j]
    if stray.any():
        raise ConicEmbedError(
            f"matrix {mat[np.argmax(stray)]} is not block-diagonal in the declared blocks "
            "(it has entries outside them); export without splitting"
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
