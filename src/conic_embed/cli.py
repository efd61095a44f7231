"""Command-line interface.

Every command reads and writes the JSON formats from the io module, so the
tools compose through files: gen | embed | map | verify | inverse | partition.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import io
from .embed import (
    FullRank,
    RankK,
    RankOne,
    SimZhao,
    build_dual_embedding,
    build_primal_embedding,
    inverse_map,
    map_solution,
)
from .errors import ConicEmbedError
from .linalg import DEFAULT_TOL
from .partition import (
    classify_cones,
    map_partition,
    max_principal_angle,
    proper_map_solution,
    sdo_partition_from_solution,
)
from .sdo import EmbeddingMeta, Side
from .verify import check_admissibility, example1_counterexample, generate_instance, with_duality_gap

ENV_TOL = "CONIC_EMBED_TOL"


def _resolve_tol(args) -> float:
    """--tol, else $CONIC_EMBED_TOL, else DEFAULT_TOL; the chosen value must be
    finite and positive."""
    tol = getattr(args, "tol", None)
    source = "--tol"
    if tol is None:
        env = os.environ.get(ENV_TOL)
        if env is None:
            return DEFAULT_TOL
        source = ENV_TOL
        try:
            tol = float(env)
        except ValueError:
            raise ConicEmbedError(f"{ENV_TOL} is not a number: {env!r}") from None
    if not 0.0 < tol < math.inf:
        raise ConicEmbedError(f"{source} must be finite and > 0, got {tol!r}")
    return tol


def _parse_rank(text: str, r: int):
    text = text.strip().lower()
    if text == "one":
        return RankOne()
    if text == "simzhao":
        return SimZhao()
    if text == "full":
        return FullRank()
    if text.startswith("k:"):
        try:
            ks = [int(part) for part in text[2:].split(",")]
        except ValueError:
            raise ConicEmbedError(f"bad rank spec {text!r}; expected k:<int>[,<int>...]") from None
        if len(ks) == 1 and r > 1:
            ks = ks * r
        if len(ks) != r:
            raise ConicEmbedError(f"rank spec lists {len(ks)} cones, problem has {r}")
        return [RankK(k) for k in ks]
    raise ConicEmbedError(f"unknown rank spec {text!r}; use one, simzhao, full or k:<k>")


def _build(problem, side: Side):
    if side is Side.DUAL:
        return build_dual_embedding(problem)
    return build_primal_embedding(problem)


def _side(args) -> Side:
    return Side(args.side)


def cmd_embed(args) -> int:
    problem = io.load_problem(getattr(args, "in"))
    if args.split_blocks and not args.sdpa:
        raise ConicEmbedError("--split-blocks only affects --sdpa output")
    sdo = _build(problem, _side(args))
    # export_sdpa refuses a split it cannot make before it writes, so a
    # refused command leaves no --out file behind
    if args.sdpa:
        io.export_sdpa(sdo, args.sdpa, split_blocks=args.split_blocks)
    io.save_sdo_problem(sdo, args.out)
    print(f"embedded {len(problem.cone_dims)} cone(s), dim {problem.total_dim} "
          f"-> {sdo.dim}x{sdo.dim} with {sdo.num_constraints} constraints")
    return 0


def cmd_map(args) -> int:
    tol = _resolve_tol(args)
    problem = io.load_problem(args.problem)
    sol = io.load_solution(args.solution, problem)
    spec = _parse_rank(args.rank, problem.r)
    side = _side(args)
    mapped = map_solution(problem, sol, side, spec, tol=tol)
    io.save_sdo_solution(mapped, args.out, meta=EmbeddingMeta(side, problem.cone_dims, problem.m))
    parts = [p for p, v in (("X", mapped.X), ("y", mapped.y), ("S", mapped.S)) if v is not None]
    print(f"mapped {'/'.join(parts)} to {args.out}")
    return 0


def cmd_inverse(args) -> int:
    tol = _resolve_tol(args)
    problem = io.load_problem(args.problem)
    sdo = _build(problem, _side(args))
    mapped = io.load_sdo_solution(args.sdo_solution, sdo)
    sol = inverse_map(sdo.meta, mapped, tol=tol, problem=problem)
    io.save_solution(sol, args.out)
    parts = [p for p, v in (("x", sol.x_blocks), ("y", sol.y), ("s", sol.s_blocks)) if v is not None]
    print(f"recovered {'/'.join(parts)} to {args.out}")
    return 0


def cmd_verify(args) -> int:
    tol = _resolve_tol(args)
    problem = io.load_problem(args.problem)
    sol = io.load_solution(args.solution, problem)
    sdo = _build(problem, _side(args))
    mapped = io.load_sdo_solution(args.mapped, sdo)
    report = check_admissibility(problem, sol, sdo, mapped, tol=tol)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    tol = _resolve_tol(args)
    problem = io.load_problem(args.problem)
    sol = io.load_solution(args.solution, problem)
    labels = classify_cones(problem, sol, tol=tol)
    for i, (n, lab) in enumerate(zip(problem.cone_dims, labels)):
        print(f"cone {i} (n={n}): {lab.value}")
    return 0


def cmd_partition(args) -> int:
    tol = _resolve_tol(args)
    problem = io.load_problem(args.problem)
    sol = io.load_solution(args.solution, problem)
    side = _side(args)
    labels = classify_cones(problem, sol, tol=tol)
    mapped = proper_map_solution(problem, sol, side, tol=tol)
    part = map_partition(problem, sol, labels, side, tol=tol)
    agreement = None
    if mapped.X is not None and mapped.S is not None:
        eigen = sdo_partition_from_solution(mapped.X, mapped.S, tol=tol)
        agreement = max(
            max_principal_angle(part.basis_b, eigen.basis_b),
            max_principal_angle(part.basis_n, eigen.basis_n),
            max_principal_angle(part.basis_t, eigen.basis_t),
        )
    db, dn, dt = part.dims
    print(f"labels: {','.join(l.value for l in labels)}")
    print(f"|B|={db} |N|={dn} |T|={dt}")
    if agreement is not None:
        print(f"max principal angle vs eigenspaces: {agreement:.3e}")
    if args.out:
        io.write_json(
            {
                "B": part.basis_b.T.tolist(),
                "N": part.basis_n.T.tolist(),
                "T": part.basis_t.T.tolist(),
            },
            args.out,
        )
    return 0


def cmd_gen(args) -> int:
    try:
        dims = tuple(int(p) for p in args.cones.split(","))
    except ValueError:
        raise ConicEmbedError(f"bad --cones value {args.cones!r}") from None
    labels = args.labels.split(",")
    inst = generate_instance(dims, labels, m=args.m, seed=args.seed)
    if args.gap:
        inst = with_duality_gap(inst, args.gap)
    io.save_problem(inst.problem, args.out)
    if args.sol_out:
        io.save_solution(inst.solution, args.sol_out)
    print(f"generated cones={args.cones} labels={','.join(l.value for l in inst.labels)} "
          f"m={inst.problem.m} seed={args.seed}")
    return 0


def cmd_example1(args) -> int:
    direction = None
    if args.direction:
        try:
            direction = np.array([float(p) for p in args.direction.split(",")], dtype=float)
        except ValueError:
            raise ConicEmbedError(f"bad --direction value {args.direction!r}") from None
    X, S, residual = example1_counterexample(args.n, direction)
    print(f"n={args.n}: the pair satisfies x o s = 0, yet its arrow-head images give "
          f"Tr(XS)={float(np.sum(X.a * S.a)):.6g} and ||XS||_inf={residual:.6f}")
    print("transporting both points through the arrow-head map loses complementarity")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conic-embed",
        description="Embed second-order cone programs into semidefinite programs, "
        "map solutions across, and classify the optimal partition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_side(p):
        p.add_argument("--side", choices=["dual", "primal"], required=True,
                       help="which embedding to use")

    def add_tol(p):
        p.add_argument("--tol", type=float, default=None,
                       help=f"numerical tolerance (default: ${ENV_TOL} or {DEFAULT_TOL})")

    p = sub.add_parser("embed", help="embed a cone problem as a semidefinite problem")
    add_side(p)
    p.add_argument("--in", required=True, help="cone problem JSON")
    p.add_argument("--out", required=True, help="embedded problem JSON")
    p.add_argument("--sdpa", default=None, help="also write SDPA sparse format here")
    p.add_argument("--split-blocks", action="store_true",
                   help="one SDPA block per cone (dual side, or single-cone primal)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("map", help="transport a cone solution to the embedded problem")
    add_side(p)
    p.add_argument("--rank", default="one",
                   help="one | simzhao | full | k:<k>[,<k>...] (per cone)")
    p.add_argument("--problem", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--out", required=True)
    add_tol(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("inverse", help="recover the cone solution from an embedded one")
    add_side(p)
    p.add_argument("--problem", required=True)
    p.add_argument("--sdo-solution", dest="sdo_solution", required=True)
    p.add_argument("--out", required=True)
    add_tol(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("verify", help="check a mapped solution for admissibility")
    add_side(p)
    p.add_argument("--problem", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--mapped", required=True)
    add_tol(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="label each cone of a solution pair")
    p.add_argument("--problem", required=True)
    p.add_argument("--solution", required=True)
    add_tol(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("partition", help="optimal partition of the embedded problem")
    add_side(p)
    p.add_argument("--problem", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--out", default=None, help="write basis vectors as JSON")
    add_tol(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("gen", help="generate a solved random instance")
    p.add_argument("--cones", required=True, help="comma separated cone dimensions, e.g. 3,3")
    p.add_argument("--labels", required=True,
                   help="comma separated cone labels from B,N,R,T1,T2,T3")
    p.add_argument("--m", type=int, default=3, help="number of linear constraints")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap", type=float, default=None,
                   help="shift the dual to open a duality gap of this size")
    p.add_argument("--out", required=True, help="problem JSON")
    p.add_argument("--sol-out", dest="sol_out", default=None, help="solution JSON")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("example1", help="complementary cone pair whose naive map is not complementary")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--direction", default=None,
                   help="comma separated unit vector of length n-1 (default: first axis)")
    p.set_defaults(func=cmd_example1)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one parser serves every call
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a ConicEmbedError, or a file that cannot be read or
    written, ends it with an "error:" line on stderr and status 1."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConicEmbedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        where = f"{e.filename}: " if e.filename is not None else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
