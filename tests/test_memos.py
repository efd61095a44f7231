"""The two memos of the carried side. A SocoSolution keeps a weak reference to
the block arrow-head image of each part, so every map of one solution carries
one SymMatrix while a result holds it, and never keeps it alive itself. A
SymMatrix keeps the tol-independent read of block_arrow_head_inv, so repeated
inverses of one matrix read it once and still compare with each call's tol.
A SocoSolution frames each part once, when it is built."""

import gc
import pickle
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from conic_embed import (
    BlockLayout,
    NotArrowHead,
    Side,
    SimZhao,
    SocoSolution,
    SymMatrix,
    block_arrow_head,
    block_arrow_head_inv,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    classify_cones,
    generate_instance,
    inverse_map,
    map_partition,
    map_solution,
    proper_map_solution,
)
from conic_embed import soco

from helpers import LADDER_SHAPES, legal_rank_specs

SHAPES = {
    "3x2-BR": ((3, 2), ("B", "R"), 2, 5),
    "24x4": (*LADDER_SHAPES[-1], 6, 41),
}
CARRIED = {Side.DUAL: "S", Side.PRIMAL: "X"}


def instance(name):
    dims, labels, m, seed = SHAPES[name]
    return generate_instance(dims, labels, m, seed)


def carried_images(inst, side):
    """The carried matrix of every legal rank spec and of the proper map."""
    results = [map_solution(inst.problem, inst.solution, side, spec)
               for _, spec in legal_rank_specs(inst, side)]
    results.append(proper_map_solution(inst.problem, inst.solution, side))
    return results, [getattr(r, CARRIED[side]) for r in results]


@pytest.mark.parametrize("side", [Side.DUAL, Side.PRIMAL])
@pytest.mark.parametrize("name", SHAPES)
def test_every_map_of_one_solution_carries_one_matrix(name, side):
    inst = instance(name)
    results, images = carried_images(inst, side)
    assert len(images) >= 4
    assert all(m is images[0] for m in images)
    want = block_arrow_head(inst.solution.s_blocks if side is Side.DUAL else inst.solution.x_blocks)
    assert np.array_equal(images[0].a, want.a)


@pytest.mark.parametrize("side", [Side.DUAL, Side.PRIMAL])
@pytest.mark.parametrize("name", SHAPES)
def test_the_solution_holds_its_image_weakly(name, side):
    inst = instance(name)
    results, images = carried_images(inst, side)
    ref = weakref.ref(images[0])
    part = "s_blocks" if side is Side.DUAL else "x_blocks"
    assert inst.solution._images[part]() is images[0]
    del results, images
    gc.collect()
    assert ref() is None and inst.solution._images[part]() is None
    # a new map makes a new image, and it equals the old one
    again = map_solution(inst.problem, inst.solution, side)
    assert np.array_equal(getattr(again, CARRIED[side]).a,
                          block_arrow_head(getattr(inst.solution, part)).a)


def test_no_solution_keeps_an_image_alive():
    dims, labels = LADDER_SHAPES[-1]
    insts = [generate_instance(dims, labels, 6, seed) for seed in range(200)]

    def map_all(solutions):
        for inst, sol in zip(insts, solutions):
            for side in (Side.DUAL, Side.PRIMAL):
                map_solution(inst.problem, sol, side, SimZhao())

    # warm every per-problem cache through other solution objects
    map_all([SocoSolution(i.solution.x_blocks, i.solution.y, i.solution.s_blocks) for i in insts])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        map_all([i.solution for i in insts])
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    image_bytes = sum(dims) ** 2 * 8
    # strong references would hold 2 * 200 images; the weak ones cost a few
    # dozen bytes a part
    assert grown < 200 * image_bytes / 100


def test_each_part_is_framed_once():
    # every map, the proper map, the classification, both partition routes'
    # table, the verdict and the inverse read the frames the solution made
    # when it was built; the inverse frames only the vectors it reads back,
    # once each, for the solution it returns
    inst = instance("24x4")
    problem = inst.problem
    specs = {side: [spec for _, spec in legal_rank_specs(inst, side)]
             for side in (Side.DUAL, Side.PRIMAL)}
    with mock.patch.object(soco, "_frame", wraps=soco._frame) as frame:
        sol = SocoSolution(inst.solution.x_blocks, inst.solution.y, inst.solution.s_blocks)
        assert frame.call_count == 2  # x and s, one size group each
        frame.reset_mock()
        labels = classify_cones(problem, sol)
        mapped = {}
        for side, build in ((Side.DUAL, build_dual_embedding),
                            (Side.PRIMAL, build_primal_embedding)):
            sdo = build(problem)
            for spec in specs[side]:
                check_admissibility(problem, sol, sdo, map_solution(problem, sol, side, spec))
            mapped[side] = sdo.meta, proper_map_solution(problem, sol, side)
            map_partition(problem, sol, labels, side)
        assert frame.call_count == 0
        for meta, sdo_sol in mapped.values():
            for given in (None, problem):
                back = inverse_map(meta, sdo_sol, problem=given)
                assert frame.call_count == 2  # the x and the s it read, once each
                for name in ("x_blocks", "s_blocks"):
                    assert back._parts[name].frame is not None
                frame.reset_mock()


def test_a_pickled_solution_drops_its_images():
    inst = instance("3x2-BR")
    mapped = map_solution(inst.problem, inst.solution, Side.DUAL)
    back = pickle.loads(pickle.dumps(inst.solution))
    assert back._images == {}
    assert np.array_equal(map_solution(inst.problem, back, Side.DUAL).S.a, mapped.S.a)


def test_a_pickled_problem_and_solution_keep_one_storage():
    inst = instance("3x2-BR")
    for obj, names in ((inst.problem, ("A_blocks", "c_blocks")),
                       (inst.solution, ("x_blocks", "s_blocks"))):
        back = pickle.loads(pickle.dumps(obj))
        for name in names:
            blocks = getattr(back, name)
            assert all(v.base is blocks[0].base and not v.flags.writeable for v in blocks)
            assert all(np.array_equal(v, w) for v, w in zip(blocks, getattr(obj, name)))


class TestArrowHeadRead:
    def test_one_read_per_matrix(self):
        inst = instance("24x4")
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL)
        meta = build_dual_embedding(inst.problem).meta
        with mock.patch.object(soco, "_arrow_head_read", wraps=soco._arrow_head_read) as read:
            first = block_arrow_head_inv(mapped.S, inst.problem.layout)
            second = block_arrow_head_inv(mapped.S, inst.problem.layout, 1e-6)
            back = inverse_map(meta, mapped)
            assert read.call_count == 1
        for got in (first, second):
            for v, s in zip(got, inst.solution.s_blocks):
                assert np.array_equal(v, s) and not v.flags.writeable
        for v, s in zip(back.s_blocks, inst.solution.s_blocks):
            assert np.array_equal(v, s)
        # another layout of the same total reads again
        with mock.patch.object(soco, "_arrow_head_read", wraps=soco._arrow_head_read) as read:
            with pytest.raises(NotArrowHead):
                block_arrow_head_inv(mapped.S, BlockLayout.from_dims((48, 48)))
            assert read.call_count == 1

    def test_each_call_compares_with_its_own_tol(self):
        a = block_arrow_head([[2.0, 1.0, 0.0], [3.0, 1.0]]).a.copy()
        a[1, 2] = a[2, 1] = 1e-9
        m = SymMatrix(a)
        layout = BlockLayout.from_dims((3, 2))
        assert block_arrow_head_inv(m, layout, 1e-8)[0][0] == 2.0
        with pytest.raises(NotArrowHead, match=r"^matrix deviates from arrow-head structure "
                                               r"by 1\.000e-09 at off-arrow \(1,2\)$"):
            block_arrow_head_inv(m, layout, 1e-10)
        assert block_arrow_head_inv(m, layout, 1e-8)[1][0] == 3.0

    @pytest.mark.parametrize("at, where", [((1, 2), r"off-arrow \(1,2\)"),
                                           ((0, 4), "off-block entry")])
    def test_a_fresh_matrix_raises_the_same_message(self, at, where):
        a = block_arrow_head([[2.0, 1.0, 0.0], [3.0, 1.0]]).a.copy()
        a[at] = a[at[::-1]] = 0.5
        with pytest.raises(NotArrowHead, match=r"^matrix deviates from arrow-head structure "
                                               rf"by 5\.000e-01 at {where}$"):
            block_arrow_head_inv(SymMatrix(a), BlockLayout.from_dims((3, 2)))
