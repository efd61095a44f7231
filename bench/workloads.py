"""The benchmark's three workloads: inputs made from a seed, and the pipeline
run on each instance, with every output checked. Why each workload exists and
its sizes are stated once, in the workload's `why` in BENCHMARK.json and its
`sizes` in baseline.json.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import re
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from conic_embed import (
    ConicEmbedError,
    ConePosition,
    FullRank,
    RankK,
    RankOne,
    Side,
    SimZhao,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    classify_cones,
    cone_position,
    generate_instance,
    inverse_map_dual,
    inverse_map_primal,
    map_partition,
    map_solution_dual,
    map_solution_primal,
    max_principal_angle,
    proper_map_solution,
    sdo_partition_from_solution,
)
from conic_embed import cli
from conic_embed.io import load_sdo_problem, load_solution, save_problem, save_sdo_problem, save_solution

from spans import Run

TOL = 1e-8  # transport, verify and inverse tolerance; the acceptance gates use it too
ANGLE_GATE = 1e-6  # table-vs-eigen partition angle, as in the acceptance suite
LABELS_ANY = ("B", "N", "R", "T1", "T2", "T3")
LABELS_1D = ("B", "N", "T1")

CORPUS_PASS = 200  # corpus shapes in one pass
CORPUS_CYCLES = 12  # passes generated, each with fresh numbers; a 50 s run completes 15-22
CORPUS_SHAPE_SEED = 20240601
LADDER_RUNGS = (32, 64, 96)
LADDER_M = 6
# Total dims 8..24 spread evenly, then two shapes of dim 26, one of dim 32
# and a cheap (2, 3, 4). Three shapes of dim 20, spread through the pass, hold
# the median instance: with five shapes cheaper and five dearer, it falls
# inside their samples rather than between two shapes' clusters, and it
# samples the host's speed at three points of a pass instead of one. The tail
# (the 11th-slowest instance) falls inside the dim-26 pair for any run of 4 to
# 10 passes (a 50 s run completes 6-7).
CLI_SHAPES = ((3, 5), (20,), (4, 7), (3, 4, 7), (8, 9), (10, 12), (8, 16), (4, 6, 10),
              (10, 16), (2, 12, 12), (5, 15), (16, 16), (2, 3, 4))
CLI_M = 4
# Passes over the shapes generated up front, each with fresh numbers, so a run
# averages over the data too; a run that completes more starts over.
# large-ladder: more than a 50 s run completes (11-15). cli-files
# writes two input files per instance in the set-up, so it generates fewer, to
# keep the file system's share small.
LADDER_CYCLES = 20
CLI_CYCLES = 6


@dataclass(frozen=True)
class Workload:
    """make(run, seed, workdir, tiny) builds the instances; step(run, item) runs
    one instance's pipeline; peaks(items) measures the tracemalloc peaks of the
    calls the workload makes. A timed run stops only after a multiple of `cycle`
    instances, so every run holds each shape equally often. trace_count:
    instances in one traced pass."""

    name: str
    make: Callable
    step: Callable
    peaks: Callable
    cycle: int
    trace_count: int


# ---------------------------------------------------------------- in-process


def _side_ops(side: Side):
    if side is Side.DUAL:
        return "embed_dual", build_dual_embedding, map_solution_dual
    return "embed_primal", build_primal_embedding, map_solution_primal


def _mapped_blocks(inst, side: Side):
    return inst.solution.x_blocks if side is Side.DUAL else inst.solution.s_blocks


def corpus_specs(inst, side: Side):
    """Every legal spec: one, simzhao, full (all interior) or mixed full/one
    (some interior), and each k in 2..n_i on each interior cone."""
    blocks = _mapped_blocks(inst, side)
    interior = [cone_position(v, TOL) is ConePosition.INTERIOR for v in blocks]
    specs = [("one", RankOne()), ("simzhao", SimZhao())]
    if all(interior):
        specs.append(("full", FullRank()))
    elif any(interior):
        specs.append(("full", tuple(FullRank() if f else RankOne() for f in interior)))
    for i, (v, flag) in enumerate(zip(blocks, interior)):
        if flag and v.shape[0] >= 2:
            for k in range(2, v.shape[0] + 1):
                specs.append(("k", tuple(RankK(k) if j == i else RankOne()
                                         for j in range(len(blocks)))))
    return specs


def ladder_specs(inst, side: Side):
    """one, simzhao, mixed full/one, and k = ceil(n_i / 2) on interior cones
    (at least 2: rank one cannot carry an interior vector)."""
    blocks = _mapped_blocks(inst, side)
    interior = [cone_position(v, TOL) is ConePosition.INTERIOR for v in blocks]
    specs = [("one", RankOne()), ("simzhao", SimZhao())]
    if any(interior):
        specs.append(("full", tuple(FullRank() if f else RankOne() for f in interior)))
        specs.append(("k", tuple(RankK(max(2, math.ceil(v.shape[0] / 2))) if f else RankOne()
                                 for v, f in zip(blocks, interior))))
    return specs


def _has_full(spec) -> bool:
    return any(isinstance(c, FullRank) for c in (spec if isinstance(spec, tuple) else (spec,)))


def _drift(back, sol) -> float:
    """Largest entry difference between a recovered and the original (x, y, s),
    relative to 1 + the largest original entry."""
    if back.x_blocks is None or back.y is None or back.s_blocks is None:
        return math.inf
    orig = np.concatenate(list(sol.x_blocks) + [sol.y] + list(sol.s_blocks))
    got = np.concatenate(list(back.x_blocks) + [back.y] + list(back.s_blocks))
    if got.shape != orig.shape:
        return math.inf
    return float(np.abs(got - orig).max()) / (1.0 + float(np.abs(orig).max()))


def check_mapped(run: Run, inst, side: Side, sdo, mapped) -> None:
    """Verify a transported solution and invert it; a FAIL verdict counts in
    verify.fail, a round trip off by more than TOL in the side's fail count."""
    layer = "embed_dual" if side is Side.DUAL else "embed_primal"
    report = run.op(f"verify.check_{side.value}", check_admissibility,
                    inst.problem, inst.solution, sdo, mapped, TOL)
    if report is not None and not report.passed:
        run.fail("verify.fail")
    if side is Side.DUAL:
        back = run.op("embed_dual.inverse", inverse_map_dual, sdo.meta, mapped, TOL)
    else:
        back = run.op("embed_primal.inverse", inverse_map_primal, inst.problem, mapped, TOL)
    if back is not None and _drift(back, inst.solution) > TOL:
        run.fail(f"{layer}.fail")


def _count_primal(run: Run, sdo) -> None:
    mats = (sdo.C,) + tuple(sdo.constraints)
    run.counts["embed_primal.rows"] += len(sdo.constraints)
    run.counts["embed_primal.nnz"] += sum(int(np.count_nonzero(a.a)) for a in mats)
    run.counts["embed_primal.stored_bytes"] += sum(a.a.nbytes for a in mats)


def _partition_routes(run: Run, inst, side: Side) -> None:
    table = run.op("partition.table", map_partition,
                   inst.problem, inst.solution, inst.labels, side, TOL)
    proper = run.op("partition.proper_map", proper_map_solution,
                    inst.problem, inst.solution, side, "simzhao", TOL)
    if proper is None:
        return
    eigen = run.op("partition.eigen", sdo_partition_from_solution, proper.X, proper.S, TOL)
    if table is None or eigen is None:
        return
    if table.dims != eigen.dims or max(
        max_principal_angle(table.basis_b, eigen.basis_b),
        max_principal_angle(table.basis_n, eigen.basis_n),
        max_principal_angle(table.basis_t, eigen.basis_t),
    ) > ANGLE_GATE:
        run.fail("partition.mismatch")


def _in_process_step(spec_rule):
    def step(run: Run, inst) -> None:
        labels = run.op("partition.classify", classify_cones, inst.problem, inst.solution, TOL)
        if labels is not None and tuple(labels) != inst.labels:
            run.fail("partition.mismatch")
        for side in (Side.DUAL, Side.PRIMAL):
            layer, build, transport = _side_ops(side)
            sdo = run.op(f"{layer}.build", build, inst.problem)
            if sdo is None:
                continue
            if run.traced and side is Side.PRIMAL:
                _count_primal(run, sdo)
            for kind, spec in spec_rule(inst, side):
                full = _has_full(spec)
                name = f"embed_dual.map_{kind}" if side is Side.DUAL else "embed_primal.map"
                mapped = run.op(name, transport, inst.problem, inst.solution, spec, TOL,
                                refusable=full)
                if full:
                    run.counts["embed_dual.full_attempts"] += 1
                    run.counts["embed_dual.full_ok"] += mapped is not None
                if mapped is not None:
                    check_mapped(run, inst, side, sdo, mapped)
            _partition_routes(run, inst, side)
    return step


def _generate(run: Run, dims, labels, m, rng):
    seed = int(rng.integers(0, 2**31 - 1))
    return run.op("verify.generate", generate_instance, dims, labels, m, seed)


def corpus_shapes(count: int):
    """(dims, labels, m) of `count` corpus shapes, from a fixed stream."""
    shapes = np.random.default_rng(CORPUS_SHAPE_SEED)
    for _ in range(count):
        r = int(shapes.integers(1, 4))
        dims = tuple(int(shapes.choice((1, 2, 3, 5, 8))) for _ in range(r))
        labels = tuple(str(shapes.choice(LABELS_1D if n == 1 else LABELS_ANY)) for n in dims)
        yield dims, labels, int(shapes.integers(1, 7))


def make_small_corpus(run: Run, seed: int, workdir: Path, tiny: bool):
    """The shapes are the same for every seed and only the numbers come from
    it: the work per instance varies by an order of magnitude with the shape,
    so a shape mix drawn per seed would move every timing with it."""
    rng = np.random.default_rng(seed)
    shapes = list(corpus_shapes(3 if tiny else CORPUS_PASS))
    return [_generate(run, dims, labels, m, rng)
            for _ in range(1 if tiny else CORPUS_CYCLES) for dims, labels, m in shapes]


def ladder_shapes(rungs):
    """(dims, labels) of the shapes of one pass. Each rung is built as few
    large cones and as many small ones; the middle rung also as four cones of
    n/4, so that a pass holds an odd number of shapes and the median instance
    falls among the middle rung's, whose costs straddle it. Those run between
    the other rungs' shapes, largest first, so that the median samples the
    host's speed at three points of a pass instead of one. Labels are fixed so
    that every seed attempts the same transports."""
    def rung(n, middle):
        yield (n // 2, n // 2), ("B", "N")
        if middle:
            yield (n // 4,) * 4, LABELS_ANY[:4]
        yield (4,) * (n // 4), tuple(LABELS_ANY[i % len(LABELS_ANY)] for i in range(n // 4))

    mid = len(rungs) // 2
    middle = list(rung(rungs[mid], True))
    others = [shape for n in reversed(rungs[:mid] + rungs[mid + 1:]) for shape in rung(n, False)]
    for i, shape in enumerate(middle):
        yield shape
        yield from others[i:i + 1]
    yield from others[len(middle):]


LADDER_PASS = sum(1 for _ in ladder_shapes(LADDER_RUNGS))


def make_large_ladder(run: Run, seed: int, workdir: Path, tiny: bool):
    rng = np.random.default_rng(seed)
    shapes = list(ladder_shapes((8,) if tiny else LADDER_RUNGS))
    return [_generate(run, dims, labels, LADDER_M, rng)
            for _ in range(1 if tiny else LADDER_CYCLES) for dims, labels in shapes]


# ---------------------------------------------------------------------- cli

_INPUT_FLAGS = {"--in", "--problem", "--solution", "--mapped", "--sdo-solution"}
_OUTPUT_FLAGS = {"--out", "--sdpa"}
_LABEL_LINE = re.compile(r"^cone \d+ \(n=\d+\): (\S+)$", re.M)
_ANGLE_LINE = re.compile(r"^max principal angle vs eigenspaces: (\S+)$", re.M)


def _cli_main(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2


def run_cli(run: Run, name: str, argv: list[str]):
    """One CLI command; its stdout, or None on a non-zero exit."""
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        code = run.op(name, _cli_main, argv)
    if run.traced:
        for flag, value in zip(argv, argv[1:]):
            if flag in _INPUT_FLAGS:
                run.counts["io.bytes_read"] += Path(value).stat().st_size
            elif flag in _OUTPUT_FLAGS and Path(value).exists():
                run.counts["io.bytes_written"] += Path(value).stat().st_size
    if code is None:
        return None  # a ConicEmbedError escaped main; already counted
    if code != 0:
        run.fail("cli.nonzero_exit")
        return None
    return out.getvalue()


def _resave(problem, path: Path) -> Path:
    save_sdo_problem(problem, path)
    return path


def _recovered_ok(path: Path, inst) -> bool:
    try:
        return _drift(load_solution(path, inst.problem), inst.solution) <= TOL
    except ConicEmbedError:
        return False


def _partition_file_ok(path: Path, dim: int) -> bool:
    """The --out file holds dim basis vectors of length dim, split over B, N, T."""
    bases = json.loads(path.read_text())
    vectors = [v for key in ("B", "N", "T") for v in bases[key]]
    return len(vectors) == dim and all(len(v) == dim for v in vectors)


def _sdpa_header_ok(path: Path, sdo) -> bool:
    """Constraint count and block sizes of the .dat-s file match the SDO JSON."""
    with path.open() as fh:
        count, _, sizes = (fh.readline().split() for _ in range(3))
    return count == [str(sdo.num_constraints)] and sum(int(n) for n in sizes) == sdo.dim


@dataclass(frozen=True)
class CliItem:
    """An instance, its input files, and the directory its outputs go to.
    Instances of one shape share that directory, so outputs are overwritten."""

    inst: object
    prob: Path
    sol: Path
    dir: Path


def cli_shapes(shapes):
    """(dims, labels) per shape; labels cycle through all six over the cones."""
    at = 0
    for dims in shapes:
        yield dims, tuple(LABELS_ANY[(at + i) % len(LABELS_ANY)] for i in range(len(dims)))
        at += len(dims)


def make_cli_files(run: Run, seed: int, workdir: Path, tiny: bool):
    rng = np.random.default_rng(seed)
    shapes = list(cli_shapes(CLI_SHAPES[:1] if tiny else CLI_SHAPES))
    for j in range(len(shapes)):
        (workdir / f"out{j}").mkdir(parents=True)
    items = []
    for k, (dims, labels) in enumerate(shapes * (1 if tiny else CLI_CYCLES)):
        inst = _generate(run, dims, labels, CLI_M, rng)
        prob, sol = workdir / f"i{k}.prob.json", workdir / f"i{k}.sol.json"
        save_problem(inst.problem, prob)
        save_solution(inst.solution, sol)
        items.append(CliItem(inst, prob, sol, workdir / f"out{k % len(shapes)}"))
    return items


def cli_step(run: Run, item: CliItem) -> None:
    inst, d = item.inst, item.dir
    prob, sol = str(item.prob), str(item.sol)
    for side in ("dual", "primal"):
        sdo = d / f"{side}.sdo.json"
        embed = ["embed", "--side", side, "--in", prob, "--out", str(sdo),
                 "--sdpa", str(d / f"{side}.dat-s")]
        if run_cli(run, "cli.embed", embed + (["--split-blocks"] if side == "dual" else [])) is None:
            continue
        for rank in ("one", "simzhao"):
            mapped, back = str(d / f"{side}.{rank}.json"), d / f"{side}.{rank}.back.json"
            if run_cli(run, "cli.map", ["map", "--side", side, "--rank", rank, "--problem",
                                        prob, "--solution", sol, "--out", mapped]) is None:
                continue
            run_cli(run, "cli.verify", ["verify", "--side", side, "--problem", prob,
                                        "--solution", sol, "--mapped", mapped])
            if run_cli(run, "cli.inverse", ["inverse", "--side", side, "--problem", prob,
                                            "--sdo-solution", mapped, "--out", str(back)]) is not None:
                if not _recovered_ok(back, inst):
                    run.fail("cli.bad_output")
        part = d / f"{side}.part.json"
        text = run_cli(run, "cli.partition", ["partition", "--side", side, "--problem", prob,
                                              "--solution", sol, "--out", str(part)])
        if text is not None:
            angle = _ANGLE_LINE.search(text)
            if angle is None or not float(angle.group(1)) <= ANGLE_GATE \
                    or not _partition_file_ok(part, inst.problem.total_dim):
                run.fail("cli.bad_output")
        loaded = run.op("io.load_sdo", load_sdo_problem, sdo)
        if loaded is None:
            continue
        if not _sdpa_header_ok(d / f"{side}.dat-s", loaded):
            run.fail("cli.bad_output")
        if run.traced:
            run.counts["io.bytes_read"] += sdo.stat().st_size
        resaved = run.op("io.save_sdo", _resave, loaded, d / f"{side}.resave.json")
        if resaved is None:
            continue
        if run.traced:
            run.counts["io.bytes_written"] += resaved.stat().st_size
        if resaved.read_bytes() != sdo.read_bytes():
            run.fail("io.roundtrip_fail")
    text = run_cli(run, "cli.classify", ["classify", "--problem", prob, "--solution", sol])
    if text is not None and tuple(_LABEL_LINE.findall(text)) != tuple(l.value for l in inst.labels):
        run.fail("cli.bad_output")


# ------------------------------------------------------------ memory probes


def _traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def primal_peaks(items) -> dict[str, float]:
    """tracemalloc peaks of the primal build and the primal check on the
    instances of largest total dimension."""
    top = max(inst.problem.total_dim for inst in items)
    build = check = 0.0
    for inst in items:
        if inst.problem.total_dim != top:
            continue
        build = max(build, _traced_peak_mb(build_primal_embedding, inst.problem))
        sdo = build_primal_embedding(inst.problem)
        mapped = map_solution_primal(inst.problem, inst.solution, RankOne(), TOL)
        check = max(check, _traced_peak_mb(check_admissibility, inst.problem, inst.solution,
                                           sdo, mapped, TOL))
    return {"embed_primal.build_peak_mb": build, "verify.check_primal_peak_mb": check}


def io_peaks(items) -> dict[str, float]:
    """tracemalloc peak of loading the largest primal SDO JSON the CLI wrote."""
    biggest = max(items, key=lambda it: it.inst.problem.total_dim)
    path = biggest.dir / "primal.sdo.json"
    if not path.exists():  # the embed command failed, and was counted
        return {}
    return {"io.load_sdo_peak_mb": _traced_peak_mb(load_sdo_problem, path)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-corpus", make_small_corpus, _in_process_step(corpus_specs), primal_peaks,
                 cycle=CORPUS_PASS, trace_count=CORPUS_PASS),
        Workload("large-ladder", make_large_ladder, _in_process_step(ladder_specs), primal_peaks,
                 cycle=LADDER_PASS, trace_count=LADDER_PASS),
        Workload("cli-files", make_cli_files, cli_step, io_peaks,
                 cycle=len(CLI_SHAPES), trace_count=len(CLI_SHAPES)),
    )
}
