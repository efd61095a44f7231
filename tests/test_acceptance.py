"""Acceptance checklist.

Each test exercises one contract of the package at its stated tolerance and
prints a single PASS/FAIL line (visible with -s or in failure output). The
shared 200-instance corpus is built once and reused.
"""

import json
import time

import numpy as np
import pytest

from helpers import LABELS_ANY, corpus, ladder, legal_rank_specs, max_block_diff

from conic_embed import (
    ConePosition,
    FullRank,
    RankK,
    RankOne,
    Side,
    SimZhao,
    SymMatrix,
    arrow_head,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    cone_position,
    eigh,
    example1_counterexample,
    generate_instance,
    inverse_map,
    jordan_product,
    map_block,
    map_partition,
    map_solution,
    max_principal_angle,
    proper_map_solution,
    sdo_partition_from_solution,
    trace_inner,
    with_duality_gap,
)
from conic_embed.cli import main as cli_main
from conic_embed.io import load_solution
from conic_embed.partition import _arrow_head_eigensystems
from conic_embed.soco import _frame

_cache: dict = {}


def corpus200():
    if "insts" not in _cache:
        t0 = time.monotonic()
        _cache["insts"] = corpus(200)
        _cache["secs"] = time.monotonic() - t0
    return _cache["insts"], _cache["secs"]


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _build(problem, side):
    return build_dual_embedding(problem) if side is Side.DUAL else build_primal_embedding(problem)


def _map(problem, sol, spec, side, tol=1e-8):
    return map_solution(problem, sol, side, spec, tol=tol)


def test_admissibility_suite_within_tolerance_and_budget():
    t0 = time.monotonic()
    insts, build_secs = corpus200()
    worst = 0.0
    checked = 0
    for inst in insts:
        for side in (Side.DUAL, Side.PRIMAL):
            sdo = _build(inst.problem, side)
            for _, spec in legal_rank_specs(inst, side):
                mapped = _map(inst.problem, inst.solution, spec, side)
                report = check_admissibility(inst.problem, inst.solution, sdo, mapped, tol=1e-8)
                worst = max(
                    worst,
                    report.primal_residual,
                    report.dual_residual,
                    report.primal_obj_gap,
                    report.dual_obj_gap,
                )
                checked += 1
                assert report.passed
    elapsed = (time.monotonic() - t0) + build_secs
    _report(
        "admissibility of every legal transport on 200 instances",
        worst <= 1e-8 and elapsed < 30.0,
        f"{checked} transports, worst residual {worst:.3e}, {elapsed:.1f}s",
    )


def test_complementarity_transfers_and_gap_is_preserved():
    insts, _ = corpus200()
    worst_zero = 0.0
    for inst in insts:
        for side in (Side.DUAL, Side.PRIMAL):
            mapped = _map(inst.problem, inst.solution, RankOne(), side)
            worst_zero = max(worst_zero, abs(trace_inner(mapped.X, mapped.S)))
    worst_gap = 0.0
    base = generate_instance((3, 2), ("B", "R"), m=3, seed=21)
    for delta in (1e-4, 0.05, 1.0, 3.75):
        gapped = with_duality_gap(base, delta)
        for side in (Side.DUAL, Side.PRIMAL):
            mapped = _map(gapped.problem, gapped.solution, RankOne(), side)
            worst_gap = max(worst_gap, abs(trace_inner(mapped.X, mapped.S) - delta))
    ok = worst_zero <= 1e-8 and worst_gap <= 1e-8
    _report(
        "zero duality gap maps to Tr(XS)=0 and a gap of delta maps to delta",
        ok,
        f"max |Tr| {worst_zero:.3e}, max |Tr - delta| {worst_gap:.3e}",
    )


def test_jordan_complementary_pair_with_non_commuting_images():
    rng = np.random.default_rng(4)
    worst_jordan = 0.0
    worst_residual = np.inf
    worst_trace = 0.0
    for n in (3, 5, 10):
        directions = [None] + [rng.normal(size=n - 1) for _ in range(20)]
        for d in directions:
            if d is not None:
                d = d / np.linalg.norm(d)
                x = np.concatenate([[1.0], d])
                s = np.concatenate([[1.0], -d])
            else:
                x = np.concatenate([[1.0], np.eye(n - 1)[0]])
                s = np.concatenate([[1.0], -np.eye(n - 1)[0]])
            worst_jordan = max(worst_jordan, float(np.abs(jordan_product(x, s)).max()))
            _, _, residual = example1_counterexample(n, d)
            worst_residual = min(worst_residual, residual)
            for choice in (RankOne(), SimZhao()):
                worst_trace = max(
                    worst_trace,
                    abs(trace_inner(map_block(x, choice), arrow_head(s))),
                    abs(trace_inner(arrow_head(x), map_block(s, choice))),
                )
    ok = worst_jordan <= 1e-12 and worst_residual >= 0.5 and worst_trace <= 1e-10
    _report(
        "x o s = 0 pairs whose arrow-head images do not multiply to zero",
        ok,
        f"max ||x o s|| {worst_jordan:.1e}, min ||XS||_inf {worst_residual:.3f}, "
        f"max admissible |Tr(XS)| {worst_trace:.1e}",
    )


def rank(m):
    return eigh(m, 1e-7).rank(1e-7)


def test_mapped_block_ranks_follow_the_laws():
    rng = np.random.default_rng(11)
    checked = 0
    for n in range(2, 9):
        for _ in range(3):
            # scale the tail first: the head must be the exact float norm of
            # the stored tail, or the point is merely near the boundary
            tail = 10.0 ** rng.uniform(-2, 2) * rng.normal(size=n - 1)
            rho = np.linalg.norm(tail)
            boundary = np.concatenate([[rho], tail])
            interior = np.concatenate([[rho * (1.0 + rng.uniform(0.2, 2.0))], tail])
            zero = np.zeros(n)
            for m in (map_block(boundary, RankOne()), map_block(boundary, SimZhao()),
                      map_block(boundary, RankK(1))):
                assert rank(m) == 1
                checked += 1
            for m in (map_block(interior, FullRank()), map_block(interior, SimZhao())):
                assert rank(m) == n
                checked += 1
            for m in (map_block(zero, RankOne()), map_block(zero, SimZhao())):
                assert rank(m) == 0
                checked += 1
            for k in range(2, n + 1):
                assert rank(map_block(interior, RankK(k))) == k
                checked += 1
    one_d = np.array([1.7])
    assert rank(map_block(one_d, RankOne())) == 1
    assert rank(map_block(np.zeros(1), SimZhao())) == 0
    checked += 2
    _report(
        "rank one on the boundary, full rank inside, zero at the origin, k on demand",
        True,
        f"{checked} rank evaluations",
    )


def test_inverse_map_recovers_every_corpus_solution():
    insts, _ = corpus200()
    worst = 0.0
    rounds = 0
    for inst in insts:
        for side in (Side.DUAL, Side.PRIMAL):
            sdo = _build(inst.problem, side)
            for _, spec in legal_rank_specs(inst, side):
                mapped = _map(inst.problem, inst.solution, spec, side)
                back = inverse_map(sdo.meta, mapped, problem=inst.problem)
                worst = max(
                    worst,
                    max_block_diff(back.x_blocks, inst.solution.x_blocks),
                    float(np.abs(back.y - inst.solution.y).max()),
                    max_block_diff(back.s_blocks, inst.solution.s_blocks),
                )
                rounds += 1
    _report(
        "inverse o map is the identity on the corpus",
        worst <= 1e-12,
        f"{rounds} round trips, worst drift {worst:.3e}",
    )


def test_closed_form_eigensystem_matches_jacobi():
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(2, 13))
        tail = rng.normal(size=n - 1)
        head = np.linalg.norm(tail) + (rng.uniform(0.1, 2.0) if i % 2 else 0.0)
        v = 10.0 ** rng.uniform(-1, 1) * np.concatenate([[head], tail])
        vals, vecs = (a[0] for a in _arrow_head_eigensystems(v[None], _frame(v[None]).tt))
        a = arrow_head(v)
        jac = eigh(a)
        worst = max(worst, float(np.abs(vals - jac.eigenvalues).max()))
        worst = max(worst, float(np.abs(a.a @ vecs - vecs * vals).max()))
    _report(
        "arrow-head eigensystem in closed form agrees with the Jacobi solver",
        worst <= 1e-8,
        f"500 vectors, worst deviation {worst:.3e}",
    )


def test_transported_matrices_decompose_without_jacobi():
    insts, _ = corpus200()
    shapes = ladder()
    decomposed = jacobi = 0
    for inst in [*insts, *shapes]:
        for side in (Side.DUAL, Side.PRIMAL):
            for _, spec in legal_rank_specs(inst, side):
                mapped = _map(inst.problem, inst.solution, spec, side)
                for mat in (mapped.X, mapped.S):
                    jacobi += eigh(mat).jacobi_blocks
                    decomposed += 1
    _report(
        "every X and S of every legal transport is decomposed in closed form",
        jacobi == 0,
        f"{decomposed} matrices on 200 + {len(shapes)} instances, {jacobi} Jacobi blocks",
    )


def test_partition_table_matches_eigenspaces_of_proper_images():
    rng = np.random.default_rng(97)
    seen = set()
    worst_angle = 0.0
    li = 0
    for idx in range(100):
        r = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 6)) for _ in range(r))
        labels = tuple(LABELS_ANY[(li + j) % len(LABELS_ANY)] for j in range(r))
        li += r
        seen.update(labels)
        inst = generate_instance(dims, labels, m=int(rng.integers(1, 5)),
                                 seed=int(rng.integers(0, 2**31 - 1)))
        interior = "simzhao" if idx % 2 == 0 else "full"
        for side in (Side.DUAL, Side.PRIMAL):
            table = map_partition(inst.problem, inst.solution, inst.labels, side)
            assert sum(table.dims) == inst.problem.total_dim
            mapped = proper_map_solution(inst.problem, inst.solution, side,
                                         interior=interior)
            eigen = sdo_partition_from_solution(mapped.X, mapped.S)
            assert table.dims == eigen.dims
            angle = max(
                max_principal_angle(table.basis_b, eigen.basis_b),
                max_principal_angle(table.basis_n, eigen.basis_n),
                max_principal_angle(table.basis_t, eigen.basis_t),
            )
            worst_angle = max(worst_angle, angle)
    ok = seen == set(LABELS_ANY) and worst_angle <= 1e-6
    _report(
        "label-routed partition spans the same subspaces as the eigen route",
        ok,
        f"100 instances, labels {sorted(seen)}, worst angle {worst_angle:.3e}",
    )


def test_closed_form_map_collapses_to_rank_one_on_the_boundary():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        tail = 10.0 ** rng.uniform(-2, 2) * rng.normal(size=n - 1)
        v = np.concatenate([[np.linalg.norm(tail)], tail])
        diff = np.abs(map_block(v, SimZhao()).a - map_block(v, RankOne()).a).max()
        worst = max(worst, float(diff))
    _report(
        "closed-form and rank-one maps coincide on boundary points",
        worst <= 1e-12,
        f"100 boundary vectors, max entry difference {worst:.3e}",
    )


def test_extraction_from_admissible_psd_blocks_lands_in_the_cone():
    rng = np.random.default_rng(71)
    positions = set()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        g = rng.normal(size=(n, k))
        p = 10.0 ** rng.uniform(-3, 3) * (g @ g.T)
        m = SymMatrix((p + p.T) / 2)
        v = np.concatenate([[float(np.trace(m.a))], 2.0 * m.a[0, 1:]])
        pos = cone_position(v)
        positions.add(pos)
        assert pos is not ConePosition.OUTSIDE
    _report(
        "trace and first row of a PSD block always give a cone member",
        True,
        f"100 blocks, positions seen: {sorted(p.value for p in positions)}",
    )


def test_cli_pipeline_end_to_end(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    sol = tmp_path / "sol.json"
    assert cli_main(["gen", "--cones", "3,2", "--labels", "B,R", "--m", "3",
                     "--seed", "5", "--out", str(prob), "--sol-out", str(sol)]) == 0
    worst = 0.0
    for side in ("dual", "primal"):
        sdo = tmp_path / f"sdo-{side}.json"
        sdpa_a = tmp_path / f"{side}-a.dat-s"
        sdpa_b = tmp_path / f"{side}-b.dat-s"
        assert cli_main(["embed", "--side", side, "--in", str(prob),
                         "--out", str(sdo), "--sdpa", str(sdpa_a)]) == 0
        assert cli_main(["embed", "--side", side, "--in", str(prob),
                         "--out", str(sdo), "--sdpa", str(sdpa_b)]) == 0
        assert sdpa_a.read_bytes() == sdpa_b.read_bytes()
        mapped = tmp_path / f"mapped-{side}.json"
        assert cli_main(["map", "--side", side, "--rank", "one",
                         "--problem", str(prob), "--solution", str(sol),
                         "--out", str(mapped)]) == 0
        assert cli_main(["verify", "--side", side, "--problem", str(prob),
                         "--solution", str(sol), "--mapped", str(mapped)]) == 0
        back = tmp_path / f"back-{side}.json"
        assert cli_main(["inverse", "--side", side, "--problem", str(prob),
                         "--sdo-solution", str(mapped), "--out", str(back)]) == 0
        from conic_embed.io import load_problem

        problem = load_problem(prob)
        a = load_solution(sol, problem)
        b = load_solution(back, problem)
        worst = max(
            worst,
            max_block_diff(a.x_blocks, b.x_blocks),
            float(np.abs(a.y - b.y).max()),
            max_block_diff(a.s_blocks, b.s_blocks),
        )
    capsys.readouterr()
    _report(
        "generate, embed, map, verify and invert through the CLI",
        worst <= 1e-12,
        f"solution files agree to {worst:.3e}",
    )
