import json
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    corpus,
    ladder,
    ref_emit,
    ref_json_text,
    ref_problem_text,
    ref_sdo_problem_text,
    ref_sdo_solution_text,
    ref_sdpa_text,
    ref_solution_text,
)

from conic_embed import (
    ConicEmbedError,
    DimensionMismatch,
    ParseError,
    RankOne,
    SimZhao,
    SymMatrix,
    build_dual_embedding,
    build_primal_embedding,
    generate_instance,
    inverse_map,
    map_solution,
)
from conic_embed.io import (
    export_sdpa,
    load_problem,
    load_sdo_problem,
    load_sdo_solution,
    load_solution,
    render_json,
    save_problem,
    save_sdo_problem,
    save_sdo_solution,
    save_solution,
    write_json,
)
from conic_embed.sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side
from conic_embed.soco import SocoProblem


# A primal embedding of cones (2, 1) as written before constraints were stored
# sparse: every constraint row is a dense matrix and there is no "format" field.
LEGACY_PRIMAL_SDO = """\
{
  "dim": 3,
  "C": [
    [2, 0.5, 0],
    [0.5, 2, 0],
    [0, 0, 3]
  ],
  "A": [
    [
      [0.5, 1.5, 0],
      [1.5, 0.5, 0],
      [0, 0, 2]
    ],
    [
      [0, 0, 1],
      [0, 0, 0],
      [1, 0, 0]
    ],
    [
      [0, 0, 0],
      [0, 0, 1],
      [0, 1, 0]
    ],
    [
      [1, 0, 0],
      [0, -1, 0],
      [0, 0, 0]
    ]
  ],
  "b": [5, 0, 0, 0],
  "meta": {
    "side": "primal",
    "cone_dims": [2, 1],
    "m_original": 1,
    "zero_pairs": [
      [0, 2],
      [1, 2]
    ],
    "tied_diagonals": [1]
  }
}
"""


def _legacy_problem():
    return SocoProblem(
        (2, 1),
        (np.array([[1.0, 3.0]]), np.array([[2.0]])),
        (np.array([4.0, 1.0]), np.array([3.0])),
        np.array([5.0]),
    )


@pytest.fixture
def inst():
    return generate_instance((3, 2), ("B", "R"), m=3, seed=7)


class TestProblemRoundTrip:
    def test_values_and_bytes(self, inst, tmp_path):
        path = tmp_path / "p.json"
        save_problem(inst.problem, path)
        loaded = load_problem(path)
        assert loaded.cone_dims == inst.problem.cone_dims
        for a, b in zip(loaded.A_blocks, inst.problem.A_blocks):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.c_blocks, inst.problem.c_blocks):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.b, inst.problem.b)
        second = tmp_path / "p2.json"
        save_problem(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_float_format(self, tmp_path):
        p = SocoProblem(
            (2,), (np.array([[0.1, 1.0]]),), (np.array([0.5, -0.0]),), np.array([3.0])
        )
        path = tmp_path / "fmt.json"
        save_problem(p, path)
        text = path.read_text()
        assert "0.10000000000000001" in text
        loaded = load_problem(path)
        assert loaded.A_blocks[0][0, 0] == 0.1

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError) as exc:
            load_problem(path)
        assert "line" in str(exc.value)

        path.write_text('{"m": 2}')
        with pytest.raises(ParseError) as exc:
            load_problem(path)
        assert "cones" in str(exc.value)

        path.write_text('{"cones": [2], "m": 1, "A": [[[1, 2]]], "b": [1, 2], "c": [[0, 0]]}')
        with pytest.raises(ParseError) as exc:
            load_problem(path)
        assert "'b'" in str(exc.value)

        path.write_text('{"cones": [0], "m": 1, "A": [], "b": [1], "c": []}')
        with pytest.raises(ParseError):
            load_problem(path)

        path.write_text('{"cones": [2], "m": 1, "A": [[["x", 2]]], "b": [1], "c": [[0, 0]]}')
        with pytest.raises(ParseError):
            load_problem(path)

        # numpy alone would read "1.5" as 1.5 and true as 1.0
        for field, data in (
            ("b", '"b": ["1.5"], "c": [[0, 0]]'),
            ("c", '"b": [1], "c": [[true, 0]]'),
        ):
            path.write_text('{"cones": [2], "m": 1, "A": [[[1, 2]]], ' + data + "}")
            with pytest.raises(ParseError, match=f"'{field}"):
                load_problem(path)
        # both would load as 1, which is what the files need
        for field, data in (
            ("cones", '"cones": [true, 2], "m": 1, "A": [[[1]], [[1, 2]]], "c": [[0], [0, 0]]'),
            ("m", '"cones": [2], "m": true, "A": [[[1, 2]]], "c": [[0, 0]]'),
        ):
            path.write_text("{" + data + ', "b": [1]}')
            with pytest.raises(ParseError, match=f"'{field}'"):
                load_problem(path)

        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_problem(path)


class TestSolutionRoundTrip:
    def test_full(self, inst, tmp_path):
        path = tmp_path / "s.json"
        save_solution(inst.solution, path)
        loaded = load_solution(path, inst.problem)
        for a, b in zip(loaded.x_blocks, inst.solution.x_blocks):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.s_blocks, inst.solution.s_blocks):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.y, inst.solution.y)

    def test_loaders_keep_the_arrays_they_read(self, inst, tmp_path, monkeypatch):
        # b and y are the arrays the field reader returned, not a second copy
        # of them; the per-cone blocks hold what it read, as views of the one
        # array of each part
        from conic_embed import io

        read, real = [], io._read

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            read.append(out)
            return out

        monkeypatch.setattr(io, "_read", spy)
        save_problem(inst.problem, tmp_path / "p.json")
        save_solution(inst.solution, tmp_path / "s.json")
        p = load_problem(tmp_path / "p.json")
        sol = load_solution(tmp_path / "s.json", p)
        for a in (p.b, sol.y):
            assert any(a is r for r in read)
        for blocks in (p.A_blocks, p.c_blocks, sol.x_blocks, sol.s_blocks):
            assert len({id(a.base) for a in blocks}) == 1
            assert all(any(np.array_equal(a, r) for r in read) for a in blocks)

    def test_partial(self, inst, tmp_path):
        from conic_embed import SocoSolution

        path = tmp_path / "partial.json"
        save_solution(SocoSolution(x_blocks=inst.solution.x_blocks), path)
        loaded = load_solution(path, inst.problem)
        assert loaded.x_blocks is not None
        assert loaded.y is None and loaded.s_blocks is None

    def test_shape_mismatch(self, inst, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"x": [[1, 0, 0]]}')
        with pytest.raises(ParseError):
            load_solution(path, inst.problem)
        path.write_text('{"y": [1, 2]}')
        with pytest.raises(ParseError):
            load_solution(path, inst.problem)


class TestSdoRoundTrip:
    def test_problem_with_meta(self, inst, tmp_path):
        for build in (build_dual_embedding, build_primal_embedding):
            sdo = build(inst.problem)
            path = tmp_path / f"{build.__name__}.json"
            save_sdo_problem(sdo, path)
            loaded = load_sdo_problem(path)
            assert loaded.dim == sdo.dim
            assert loaded.meta.side is sdo.meta.side
            assert loaded.meta.cone_dims == sdo.meta.cone_dims
            assert np.array_equal(loaded.meta.zero_pairs, sdo.meta.zero_pairs)
            assert np.array_equal(loaded.meta.tied_diagonals, sdo.meta.tied_diagonals)
            assert np.array_equal(loaded.C.a, sdo.C.a)
            assert all(
                np.array_equal(a.a, b.a) for a, b in zip(loaded.constraints, sdo.constraints)
            )
            second = tmp_path / f"{build.__name__}2.json"
            save_sdo_problem(loaded, second)
            assert path.read_bytes() == second.read_bytes()

    def test_generic_meta_when_absent(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            '{"dim": 2, "C": [[1, 0], [0, 1]], "A": [[[1, 0], [0, 0]]], "b": [1]}'
        )
        loaded = load_sdo_problem(path)
        assert loaded.meta.side is Side.GENERIC

    def test_legacy_dense_file(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(LEGACY_PRIMAL_SDO)
        loaded = load_sdo_problem(path)
        sdo = build_primal_embedding(_legacy_problem())
        assert loaded.meta == sdo.meta
        assert np.array_equal(loaded.b, sdo.b)
        assert np.array_equal(loaded.C.a, sdo.C.a)
        assert len(loaded.constraints) == len(sdo.constraints) == 4
        for a, b in zip(loaded.constraints, sdo.constraints):
            assert np.array_equal(a.a, b.a)
        resaved = tmp_path / "resaved.json"
        save_sdo_problem(loaded, resaved)
        obj = json.loads(resaved.read_text())
        assert obj["format"] == 2
        assert obj["A"] == [
            [[0, 0, 0.5], [0, 1, 1.5], [1, 1, 0.5], [2, 2, 2]],
            [[0, 2, 1]],
            [[1, 2, 1]],
            [[0, 0, 1], [1, 1, -1]],
        ]
        fresh = tmp_path / "fresh.json"
        save_sdo_problem(sdo, fresh)
        assert resaved.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("meta", ['"primal"', "[1]", "3", "null"])
    def test_meta_must_be_an_object(self, tmp_path, meta):
        path = tmp_path / "g.json"
        path.write_text('{"dim": 1, "C": [[1]], "A": [[[1]]], "b": [1], "meta": ' + meta + "}")
        with pytest.raises(ParseError, match="'meta'"):
            load_sdo_problem(path)

    def test_dim_must_be_an_integer(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"format": 2, "dim": true, "C": [[1]], "A": [], "b": []}')
        with pytest.raises(ParseError, match="'dim'"):
            load_sdo_problem(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"format": 3, "dim": 1, "C": [[1]], "A": [], "b": []}')
        with pytest.raises(ParseError):
            load_sdo_problem(path)

    def test_bad_triplets_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        head = '"format": 2, "dim": 2, "C": [[1, 0], [0, 1]]'
        # index out of range, a pair instead of a triple, one entry given twice
        for rows in ('[[[0, 2, 1.0]]]', '[[[0, 1]]]', '[[[0, 1, 1.0], [1, 0, 2.0]]]'):
            path.write_text(f'{{{head}, "A": {rows}, "b": [1]}}')
            with pytest.raises(ParseError):
                load_sdo_problem(path)

    def test_solution_with_split(self, inst, tmp_path):
        sdo = build_primal_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        path = tmp_path / "m.json"
        save_sdo_solution(mapped, path, meta=sdo.meta)
        loaded = load_sdo_solution(path, sdo)
        assert np.array_equal(loaded.X.a, mapped.X.a)
        assert np.array_equal(loaded.S.a, mapped.S.a)
        assert np.array_equal(loaded.y, mapped.y)
        split = json.loads(path.read_text())["dual_split"]
        assert [e[:2] for e in split["w"]] == sdo.meta.zero_pairs.tolist()
        assert [e[0] for e in split["u"]] == sdo.meta.tied_diagonals.tolist()
        assert split["v"] + [e[-1] for e in split["w"] + split["u"]] == mapped.y.tolist()
        second = tmp_path / "m2.json"
        save_sdo_solution(loaded, second, meta=sdo.meta)
        assert path.read_bytes() == second.read_bytes()

    def test_split_pairs_must_match(self, inst, tmp_path):
        sdo = build_primal_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        path = tmp_path / "m.json"
        save_sdo_solution(mapped, path, meta=sdo.meta)
        text = path.read_text().replace("[0, 3,", "[0, 4,", 1)
        path.write_text(text)
        with pytest.raises(ParseError):
            load_sdo_solution(path, sdo)

    @pytest.mark.parametrize(
        "key,edit",
        [
            # the extra entry was dropped
            pytest.param("w", lambda entries: [[0, 3, 12345.0]] + entries, id="w"),
            # 999 replaced u_k
            pytest.param("u", lambda entries: entries + [[entries[-1][0], 999.0]], id="u"),
        ],
    )
    def test_repeated_split_entry_rejected(self, tmp_path, key, edit):
        inst = generate_instance((3, 2), ("B", "R"), 2, 5)
        sdo = build_primal_embedding(inst.problem)
        path = tmp_path / "m.json"
        save_sdo_solution(map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne()), path,
                          meta=sdo.meta)
        obj = json.loads(path.read_text())
        del obj["y"]
        obj["dual_split"][key] = edit(obj["dual_split"][key])
        path.write_text(json.dumps(obj))
        for problem in (sdo, None):
            with pytest.raises(ParseError, match=f"dual_split.{key}"):
                load_sdo_solution(path, problem)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("m_original", "x"),
            ("cone_dims", 3),
            ("zero_pairs", [[1]]),
            ("tied_diagonals", ["q"]),
        ],
    )
    def test_malformed_meta_rejected(self, inst, tmp_path, field, value):
        path = tmp_path / "p.json"
        save_sdo_problem(build_primal_embedding(inst.problem), path)
        obj = json.loads(path.read_text())
        obj["meta"][field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=f"meta.{field}"):
            load_sdo_problem(path)

    @pytest.mark.parametrize(
        "side,field,value",
        [
            ("primal", "cone_dims", [7, 2]),
            ("primal", "cone_dims", [0, 5]),
            ("dual", "cone_dims", [1, 1]),
            ("primal", "zero_pairs", [[0, 4], [0, 3], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4]]),
            ("primal", "tied_diagonals", [1, 2]),
            ("dual", "zero_pairs", [[0, 3]]),
        ],
    )
    def test_meta_must_match_dims(self, inst, tmp_path, side, field, value):
        # the instance has cones (3, 2): dim 5, pins as in BlockLayout.pins
        build = build_primal_embedding if side == "primal" else build_dual_embedding
        path = tmp_path / "p.json"
        save_sdo_problem(build(inst.problem), path)
        obj = json.loads(path.read_text())
        obj["meta"][field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=f"meta.{field}"):
            load_sdo_problem(path)

    @pytest.mark.parametrize("with_problem", [True, False])
    @pytest.mark.parametrize("at,value", [(0, "a"), (2, "z"), (2, True), (2, "1.5")])
    def test_malformed_split_entry_rejected(self, inst, tmp_path, with_problem, at, value):
        sdo = build_primal_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        path = tmp_path / "m.json"
        save_sdo_solution(mapped, path, meta=sdo.meta)
        obj = json.loads(path.read_text())
        obj["dual_split"]["w"][0][at] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="dual_split.w"):
            load_sdo_solution(path, sdo if with_problem else None)


class TestSdpaExport:
    def test_frozen_file(self, tmp_path):
        p = SocoProblem(
            (2,), (np.array([[1.0, 2.0]]),), (np.array([3.0, 1.0]),), np.array([4.0])
        )
        sdo = build_dual_embedding(p)
        path = tmp_path / "out.dat-s"
        export_sdpa(sdo, path)
        want = "\n".join(
            [
                "1",
                "1",
                "2",
                "4",
                "0 1 1 1 3",
                "0 1 1 2 1",
                "0 1 2 2 3",
                "1 1 1 1 1",
                "1 1 1 2 2",
                "1 1 2 2 1",
                "",
            ]
        )
        assert path.read_text() == want

    def test_frozen_two_cone_primal(self, tmp_path):
        # written by the dense-row implementation; the sparse export must match
        p = SocoProblem(
            (2, 3),
            (np.array([[1.0, 2.0], [0.0, -3.0]]), np.array([[1.0, -1.0, 0.0], [2.0, 0.5, 4.0]])),
            (np.array([4.0, 1.0]), np.array([2.0, 0.0, 6.0])),
            np.array([5.0, -2.0]),
        )
        path = tmp_path / "primal.dat-s"
        export_sdpa(build_primal_embedding(p), path)
        want = "\n".join(
            [
                "12",
                "1",
                "5",
                "5 -2 0 0 0 0 0 0 0 0 0 0",
                "0 1 1 1 2",
                "0 1 1 2 0.5",
                "0 1 2 2 2",
                "0 1 3 3 0.66666666666666663",
                "0 1 3 5 3",
                "0 1 4 4 0.66666666666666663",
                "0 1 5 5 0.66666666666666663",
                "1 1 1 1 0.5",
                "1 1 1 2 1",
                "1 1 2 2 0.5",
                "1 1 3 3 0.33333333333333331",
                "1 1 3 4 -0.5",
                "1 1 4 4 0.33333333333333331",
                "1 1 5 5 0.33333333333333331",
                "2 1 1 2 -1.5",
                "2 1 3 3 0.66666666666666663",
                "2 1 3 4 0.25",
                "2 1 3 5 2",
                "2 1 4 4 0.66666666666666663",
                "2 1 5 5 0.66666666666666663",
                "3 1 1 3 1",
                "4 1 1 4 1",
                "5 1 1 5 1",
                "6 1 2 3 1",
                "7 1 2 4 1",
                "8 1 2 5 1",
                "9 1 4 5 1",
                "10 1 1 1 1",
                "10 1 2 2 -1",
                "11 1 3 3 1",
                "11 1 4 4 -1",
                "12 1 3 3 1",
                "12 1 5 5 -1",
                "",
            ]
        )
        assert path.read_text() == want

    def test_zero_entries_skipped(self, tmp_path):
        p = SocoProblem(
            (2,), (np.array([[1.0, 0.0]]),), (np.array([3.0, 0.0]),), np.array([4.0])
        )
        sdo = build_dual_embedding(p)
        path = tmp_path / "out.dat-s"
        export_sdpa(sdo, path)
        lines = path.read_text().splitlines()
        assert "0 1 1 2 0" not in lines
        assert len(lines) == 4 + 4  # header + two diag entries per matrix

    def test_split_blocks_dual(self, inst, tmp_path):
        sdo = build_dual_embedding(inst.problem)
        path = tmp_path / "split.dat-s"
        export_sdpa(sdo, path, split_blocks=True)
        lines = path.read_text().splitlines()
        assert lines[1] == "2"
        assert lines[2] == "3 2"
        blocks = {int(ln.split()[1]) for ln in lines[4:]}
        assert blocks == {1, 2}
        # local indices never exceed the block size
        for ln in lines[4:]:
            _, blk, i, j, _ = ln.split()
            assert int(i) <= (3 if blk == "1" else 2)

    def test_split_blocks_refused_for_multi_cone_primal(self, inst, tmp_path):
        sdo = build_primal_embedding(inst.problem)
        with pytest.raises(ConicEmbedError):
            export_sdpa(sdo, tmp_path / "x.dat-s", split_blocks=True)

    def test_split_blocks_allowed_for_single_cone_primal(self, tmp_path):
        inst1 = generate_instance((3,), ("B",), m=2, seed=8)
        sdo = build_primal_embedding(inst1.problem)
        path = tmp_path / "one.dat-s"
        export_sdpa(sdo, path, split_blocks=True)
        assert path.read_text().splitlines()[1] == "1"

    def test_split_blocks_refused_without_meta(self, tmp_path):
        from conic_embed import SymMatrix
        from conic_embed.sdo import SdoProblem

        p = SdoProblem(2, SymMatrix.identity(2), (SymMatrix.identity(2),), np.ones(1))
        with pytest.raises(ConicEmbedError):
            export_sdpa(p, tmp_path / "x.dat-s", split_blocks=True)

    def test_reexport_identical(self, inst, tmp_path):
        sdo = build_dual_embedding(inst.problem)
        a = tmp_path / "a.dat-s"
        b = tmp_path / "b.dat-s"
        export_sdpa(sdo, a, split_blocks=True)
        save_sdo_problem(sdo, tmp_path / "sdo.json")
        export_sdpa(load_sdo_problem(tmp_path / "sdo.json"), b, split_blocks=True)
        assert a.read_bytes() == b.read_bytes()


class TestNonFiniteRejected:
    """json.loads accepts NaN and Infinity, and 1e400 parses to inf; every
    loader refuses them."""

    def test_load_problem(self, inst, tmp_path):
        path = tmp_path / "p.json"
        save_problem(inst.problem, path)
        obj = json.loads(path.read_text())
        for bad in (float("nan"), 10**400):  # the integer overflows a float
            obj["b"][0] = bad
            path.write_text(json.dumps(obj))
            with pytest.raises(ParseError):
                load_problem(path)

    def test_load_solution(self, inst, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"x": [[Infinity, 0, 0], [1, 0]]}')
        with pytest.raises(ParseError):
            load_solution(path, inst.problem)

    def test_load_sdo_problem(self, tmp_path):
        path = tmp_path / "sdo.json"
        path.write_text(
            '{"format": 2, "dim": 2, "C": [[1, 0], [0, 1]], "A": [[[0, 1, 1e400]]], "b": [1]}'
        )
        with pytest.raises(ParseError):
            load_sdo_problem(path)
        path.write_text('{"dim": 2, "C": [[-Infinity, 0], [0, 1]], "A": [], "b": []}')
        with pytest.raises(ParseError):
            load_sdo_problem(path)

    def test_load_sdo_solution(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"y": [1, NaN]}')
        with pytest.raises(ParseError):
            load_sdo_solution(path)


DATA = Path(__file__).resolve().parent / "data"

# The loader call for each file the table mutates, with the problem it needs.
LOADERS = {
    "prob.json": load_problem,
    "sol.json": lambda path: load_solution(path, load_problem(DATA / "prob.json")),
    "primal.sdo.json": load_sdo_problem,
    "legacy": load_sdo_problem,
    "primal.map.json": lambda path: load_sdo_solution(
        path, load_sdo_problem(DATA / "primal.sdo.json")
    ),
    "primal.map.json alone": load_sdo_solution,  # nothing fixes the shapes
}

# Each field of those files, with its kind: "num" holds floats, "sym"
# symmetric matrices of floats, "int" integers, "mixed" [index..., value]
# entries (integers, then a float), "pairs" such entries [h, l, value] with
# h < l, "text" a string and "object" a JSON object.
FIELDS = [
    ("prob.json", "cones", "int"),
    ("prob.json", "m", "int"),
    ("prob.json", "A", "num"),
    ("prob.json", "b", "num"),
    ("prob.json", "c", "num"),
    ("sol.json", "x", "num"),
    ("sol.json", "y", "num"),
    ("sol.json", "s", "num"),
    ("primal.sdo.json", "format", "int"),
    ("primal.sdo.json", "dim", "int"),
    ("primal.sdo.json", "C", "sym"),
    ("primal.sdo.json", "A", "mixed"),
    ("primal.sdo.json", "b", "num"),
    ("primal.sdo.json", "meta", "object"),
    ("primal.sdo.json", "meta.side", "text"),
    ("primal.sdo.json", "meta.cone_dims", "int"),
    ("primal.sdo.json", "meta.m_original", "int"),
    ("primal.sdo.json", "meta.zero_pairs", "int"),
    ("primal.sdo.json", "meta.tied_diagonals", "int"),
    ("legacy", "C", "sym"),
    ("legacy", "A", "sym"),
    ("primal.map.json", "X", "sym"),
    ("primal.map.json", "y", "num"),
    ("primal.map.json", "S", "sym"),
    ("primal.map.json", "dual_split", "object"),
    ("primal.map.json", "dual_split.v", "num"),
    ("primal.map.json", "dual_split.w", "pairs"),
    ("primal.map.json", "dual_split.u", "mixed"),
]
FIELDS += [("primal.map.json alone", field, kind) for file, field, kind in FIELDS
           if file == "primal.map.json"]


def _file(file):
    return json.loads(LEGACY_PRIMAL_SDO if file == "legacy" else (DATA / file.split()[0]).read_text())


def _depth(value):
    """How deep value's lists nest: 0 for a number or an object."""
    return 1 + _depth(value[0]) if isinstance(value, list) and value else 0


def _at_leaf(value, change, at):
    """value with change applied to its first (at=0) or last (at=-1) leaf."""
    if not isinstance(value, list):
        return change(value)
    value[at] = _at_leaf(value[at], change, at)
    return value


def _at_row(value, change):
    """value with change applied to its first innermost list."""
    if isinstance(value[0], list):
        value[0] = _at_row(value[0], change)
        return value
    return change(value)


def _asymmetric(value):
    """value with 1 added above the diagonal of its first matrix."""
    matrix = value
    while isinstance(matrix[0][0], list):
        matrix = matrix[0]
    matrix[0][1] += 1
    return value


def _innermost(value, change):
    """value with change applied to every innermost list."""
    if isinstance(value[0], list):
        return [_innermost(v, change) for v in value]
    return change(value)


MIXED = {"mixed", "pairs"}
NUMERIC = {"num", "sym", "int"} | MIXED
INDEX = {"int"} | MIXED
ANY = NUMERIC | {"text", "object"}

# mutation -> (the kinds it applies to, the least depth it needs, what it does
# to the field value, or the token it writes in place of the last number)
MUTATIONS = {
    "numeric string": (NUMERIC, 0, lambda v: _at_leaf(v, str, -1)),
    "true": (ANY, 0, lambda v: _at_leaf(v, lambda x: True, 0)),
    "true value": (MIXED, 0, lambda v: _at_leaf(v, lambda x: True, -1)),
    "null": (ANY, 0, lambda v: _at_leaf(v, lambda x: None, 0)),
    "one level too many": (ANY, 0, lambda v: [v]),
    "one level too few": (NUMERIC, 1, lambda v: v[0]),
    "ragged row": (NUMERIC, 2, lambda v: _at_row(v, lambda row: row[:-1])),
    "wrong width": (NUMERIC, 1, lambda v: _innermost(v, lambda row: row + row[-1:])),
    "asymmetric": ({"sym"}, 2, _asymmetric),
    "float index": (INDEX, 0, lambda v: _at_leaf(v, float, 0)),
    "negative index": (INDEX, 0, lambda v: _at_leaf(v, lambda x: -1, 0)),
    "index 2**70": (INDEX, 0, lambda v: _at_leaf(v, lambda x: 2**70, 0)),
    "index 10**400": (INDEX, 0, lambda v: _at_leaf(v, lambda x: 10**400, 0)),
    "last index 10**6": (MIXED, 2, lambda v: _at_row(v, lambda row: row[:-2] + [10**6] + row[-1:])),
    "lower-triangle pair": ({"pairs"}, 2, lambda v: _at_row(v, lambda row: row[1::-1] + row[2:])),
    "NaN": (NUMERIC, 0, "NaN"),
    "Infinity": (NUMERIC, 0, "Infinity"),
    "1e400": (NUMERIC, 0, "1e400"),
}

# Rows whose error names another field than the one mutated: the mutated
# field is well formed on its own and contradicts the one named.
NAMED = {
    ("prob.json", "cones", "wrong width"): "A",
    ("primal.sdo.json", "format", "null"): "A",  # no format: the legacy dense form
    ("primal.map.json", "dual_split.v", "wrong width"): "dual_split",
    ("primal.map.json alone", "dual_split.v", "wrong width"): "dual_split",
}


def _field_value(obj, field):
    for key in field.split("."):
        obj = obj[key]
    return obj


def _table():
    for file, field, kind in FIELDS:
        depth = _depth(_field_value(_file(file), field))
        for name, (kinds, least, _) in MUTATIONS.items():
            if kind in kinds and depth >= least:
                yield pytest.param(file, field, name, id=f"{file}-{field}-{name}")


class TestMalformedInput:
    """Every field of the tests/data files, each mutated one way: the loader
    raises a ParseError naming the field. A non-finite token is refused as
    the file is parsed, before any field is read, so its error names the
    token instead."""

    @pytest.mark.parametrize("file,field,mutation", list(_table()))
    def test_refused_naming_the_field(self, tmp_path, file, field, mutation):
        obj = _file(file)
        *outer, key = field.split(".")
        holder = _field_value(obj, ".".join(outer)) if outer else obj
        mutate = MUTATIONS[mutation][2]
        if isinstance(mutate, str):  # a token json.dumps cannot write
            holder[key] = _at_leaf(holder[key], lambda x: "@token@", -1)
            text = json.dumps(obj).replace('"@token@"', mutate)
            want = "non-finite"
        else:
            holder[key] = mutate(holder[key])
            text = json.dumps(obj)
            name = NAMED.get((file, field, mutation), field)
            want = rf"(?<![\w.]){re.escape(name)}(?![\w.])"  # the name as a whole word
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=want):
            LOADERS[file](path)


class TestCanonicalWriter:
    """Every file is held byte for byte to helpers.ref_emit, the per-number
    emitter the array-native writer replaced, fed the .tolist() objects; what
    the loader reads back from each JSON file is written again byte for byte."""

    def test_every_writer_matches_the_reference(self, tmp_path):
        path = tmp_path / "f"
        files = 0

        def same(write, *args, want, load=None, **kwargs):
            """write's file is want, and with load, what load reads from it
            writes the same bytes again."""
            nonlocal files
            write(*args, path, **kwargs)
            assert path.read_text() == want
            if load is not None:
                write(load(path), *args[1:], path, **kwargs)
                assert path.read_text() == want
            files += 1

        for inst in corpus(200) + ladder():
            p = inst.problem
            same(save_problem, p, want=ref_problem_text(p), load=load_problem)
            same(save_solution, inst.solution, want=ref_solution_text(inst.solution),
                 load=lambda path: load_solution(path, p))
            for side, build in ((Side.DUAL, build_dual_embedding), (Side.PRIMAL, build_primal_embedding)):
                sdo = build(p)
                same(save_sdo_problem, sdo, want=ref_sdo_problem_text(sdo), load=load_sdo_problem)
                same(export_sdpa, sdo, want=ref_sdpa_text(sdo))
                if side is Side.DUAL or len(p.cone_dims) == 1:
                    same(export_sdpa, sdo, split_blocks=True, want=ref_sdpa_text(sdo, True))
                for spec in (RankOne(), SimZhao()):
                    mapped = map_solution(p, inst.solution, side, spec)
                    same(save_sdo_solution, mapped, meta=sdo.meta,
                         want=ref_sdo_solution_text(mapped, sdo.meta),
                         load=lambda path: load_sdo_solution(path, sdo))
                    back = inverse_map(sdo.meta, mapped, problem=p)
                    same(save_solution, back, want=ref_solution_text(back),
                         load=lambda path: load_solution(path, p))
        assert files == 3166  # 207 instances; a split of a multi-cone primal is refused

    EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             0.1, 1.0, -2.5, 1e17, 123456789.0)

    def test_edge_values(self, tmp_path):
        path = tmp_path / "f.json"
        floats = np.array(self.EDGES)
        obj = {
            "floats": floats,
            "matrix": floats[:10].reshape(2, 5),
            "ints": np.array([0, -3, 2**62]),
            "plain": [list(self.EDGES), [0, -7, 10**20], [True, False, None], "a\"b"],
            "scalars": {"f": -0.0, "i": np.int64(4), "g": np.float64(5e-324), "n": None,
                        "t": True},
            "empty": [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 0, 3)), [], {}],
            "deep": np.arange(12.0).reshape(2, 3, 2) - 5.0,
        }
        write_json(obj, path)
        want = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}
        want["empty"] = [a.tolist() if isinstance(a, np.ndarray) else a for a in obj["empty"]]
        assert path.read_text() == ref_json_text(want)
        assert '"f": 0,' in path.read_text() and "-0" not in path.read_text()
        assert json.loads(path.read_text())["floats"] == [0.0 if x == 0 else x for x in self.EDGES]

    def test_structured_array_is_a_list_of_records(self, tmp_path):
        rec = np.zeros(3, [("i", np.int64), ("j", np.int32), ("v", float)])
        rec["i"], rec["j"], rec["v"] = [0, 1, 2], [4, 5, 6], [-0.0, 0.1, 5e-324]
        path = tmp_path / "r.json"
        write_json({"r": rec, "none": rec[:0]}, path)
        assert path.read_text() == ref_json_text({"r": rec.tolist(), "none": []})

    def test_empty_constraint_row_and_generic_meta(self, tmp_path):
        # the middle row is all zeros: SparseRows drops it to no entries
        rows = (SymMatrix(np.eye(2)), SymMatrix(np.zeros((2, 2))), SymMatrix(-np.eye(2)))
        sdo = SdoProblem(2, SymMatrix(np.array([[1.0, -0.0], [-0.0, 2.0]])), rows, [1.0, 0.0, -0.0])
        path = tmp_path / "g.json"
        save_sdo_problem(sdo, path)
        assert path.read_text() == ref_sdo_problem_text(sdo)
        assert '    [],\n' in path.read_text()
        export_sdpa(sdo, path)
        assert path.read_text() == ref_sdpa_text(sdo)
        mapped = SdoSolution(X=SymMatrix.identity(2), y=[0.0, -0.0, 1.0])
        save_sdo_solution(mapped, path, meta=sdo.meta)
        assert path.read_text() == ref_sdo_solution_text(mapped, sdo.meta)

    @pytest.mark.parametrize("dims", [(1,), (1, 1), (2,)])
    def test_small_primal_embeddings(self, tmp_path, dims):
        # (1,) pins nothing: zero_pairs, tied_diagonals and dual_split w and u are empty
        inst = generate_instance(dims, ("B",) * len(dims), m=2, seed=3)
        sdo = build_primal_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        path = tmp_path / "p.json"
        save_sdo_problem(sdo, path)
        assert path.read_text() == ref_sdo_problem_text(sdo)
        save_sdo_solution(mapped, path, meta=sdo.meta)
        assert path.read_text() == ref_sdo_solution_text(mapped, sdo.meta)
        if dims == (1,):
            assert '"w": [],' in path.read_text() and '"u": []' in path.read_text()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_creates_no_file(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        values = np.array([[1.0, 2.0], [bad, 3.0]])
        with pytest.raises(ConicEmbedError, match=f"non-finite value {float(bad)!r}"):
            write_json({"ok": [1, 2], "M": values}, path)
        rec = np.zeros(2, [("k", int), ("v", float)])
        rec["v"][1] = bad
        with pytest.raises(ConicEmbedError, match="non-finite"):
            write_json({"r": rec}, path)
        with pytest.raises(ConicEmbedError, match="non-finite"):
            write_json({"x": float(bad)}, path)
        assert not path.exists()

    def test_unsupported_values_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        for value in (np.array([True]), np.array(1.0), {1, 2}, np.array(["a"])):
            with pytest.raises(ConicEmbedError, match="cannot serialize"):
                write_json({"v": value}, path)
        assert not path.exists()

    def test_reference_agrees_with_plain_lists(self):
        # write_json still takes plain dicts and lists, with the reference's output
        obj = {"a": [[1, 2.0], [], [[-0.0]]], "b": [{"c": None}], "d": (1, 2), "e": "é"}
        assert render_json(obj) == ref_emit(obj) + "\n"


class TestMOriginal:
    """meta.m_original must give the row count: m on the dual side, m plus
    the N(N-1)/2 pins on the primal side."""

    @pytest.mark.parametrize("side", ["dual", "primal"])
    @pytest.mark.parametrize("value", [7, -3])
    def test_loader_refuses_a_contradicting_m_original(self, tmp_path, side, value):
        inst = generate_instance((3, 2), ("B", "R"), 2, 5)
        build = build_dual_embedding if side == "dual" else build_primal_embedding
        path = tmp_path / "p.json"
        save_sdo_problem(build(inst.problem), path)
        obj = json.loads(path.read_text())
        obj["meta"]["m_original"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="meta.m_original"):
            load_sdo_problem(path)

    def test_problem_refuses_a_contradicting_m_original(self):
        sdo = build_primal_embedding(generate_instance((3, 2), ("B", "R"), 2, 5).problem)
        assert sdo.num_constraints == 2 + 10
        for side, m in ((Side.DUAL, 12), (Side.PRIMAL, 2), (Side.GENERIC, 5)):
            SdoProblem(sdo.dim, sdo.C, sdo.constraints, sdo.b, EmbeddingMeta(side, (3, 2), m))
        # a negative m_original is refused by the meta itself
        for side, m in ((Side.DUAL, 2), (Side.PRIMAL, 12), (Side.PRIMAL, -3), (Side.GENERIC, -1)):
            with pytest.raises(DimensionMismatch, match="m_original"):
                SdoProblem(sdo.dim, sdo.C, sdo.constraints, sdo.b, EmbeddingMeta(side, (3, 2), m))


class TestMetaRowCount:
    """A file's meta is checked by EmbeddingMeta itself, and the row count a
    writer expects is the meta's rows."""

    def test_side_without_cone_dims_is_refused(self, tmp_path):
        obj = json.loads((DATA / "primal.sdo.json").read_text())
        obj["meta"]["cone_dims"] = None
        del obj["meta"]["zero_pairs"], obj["meta"]["tied_diagonals"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=r"field 'meta\.cone_dims': cone_dims must be given"):
            load_sdo_problem(path)

    def test_split_y_of_the_wrong_length_names_the_row_count(self, tmp_path):
        sdo = load_sdo_problem(DATA / "primal.sdo.json")
        sol = load_sdo_solution(DATA / "primal.map.json", sdo)
        assert sdo.meta.rows == sdo.num_constraints == 12
        short = SdoSolution(X=sol.X, y=sol.y[:-1], S=sol.S)
        with pytest.raises(DimensionMismatch,
                           match="^y has length 11, not the 12 constraints of the primal embedding$"):
            save_sdo_solution(short, tmp_path / "s.json", sdo.meta)

    def test_dual_y_of_the_wrong_length_is_refused_before_any_file(self, tmp_path):
        # the row count is checked for every side a meta names, not only the
        # primal one, before the file is opened
        inst = generate_instance((3, 2), ("B", "R"), 2, 5)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL)
        long = SdoSolution(X=mapped.X, y=np.arange(7.0), S=mapped.S)
        with pytest.raises(DimensionMismatch,
                           match="^y has length 7, not the 2 constraints of the dual embedding$"):
            save_sdo_solution(long, tmp_path / "s.json", sdo.meta)
        assert list(tmp_path.iterdir()) == []
