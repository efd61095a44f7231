import json

import numpy as np
import pytest

from conic_embed import (
    ConicEmbedError,
    ParseError,
    RankOne,
    SimZhao,
    build_dual_embedding,
    build_primal_embedding,
    generate_instance,
    map_solution,
)
from conic_embed.io import (
    export_sdpa,
    load_problem,
    load_sdo_problem,
    load_sdo_solution,
    load_solution,
    save_problem,
    save_sdo_problem,
    save_sdo_solution,
    save_solution,
)
from conic_embed.sdo import Side
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
