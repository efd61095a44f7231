"""Benchmark of the conic_embed package.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py [--seed <n>] [--seconds <s>]   # every workload, both modes

With --trace 0 the run measures the end-to-end metrics: a closed loop, one
caller on one thread, runs instance pipelines for --seconds seconds. With
--trace 1 it alternates untraced and traced passes over a fixed set of
instances and reports per-layer busy time (the mean of the traced passes),
calls and counts of one traced pass, the tracing overhead, and tracemalloc
peaks of three calls.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The package is imported from src/ next to this
directory and nowhere else; without it the run exits with a non-zero code.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: numpy links a threaded OpenBLAS

import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import conic_embed; print(time.perf_counter() - t)"
)


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import conic_embed
    except ImportError as exc:
        sys.exit(f"bench: cannot import conic_embed from {SRC}: {exc}")
    if Path(conic_embed.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: conic_embed came from {conic_embed.__file__}, not {SRC}")


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    units = {"instances_per_s": "1/s", "setup_s": "s", "ops_ok_frac": "ratio"}
    if name in units:
        return units[name]
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_ratio", "ratio"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "bytes" if ".bytes_" in name else "count"


SPAN_METRICS = (
    "embed_dual.build", "embed_dual.map_one", "embed_dual.map_simzhao", "embed_dual.map_full",
    "embed_dual.map_k", "embed_dual.inverse",
    "embed_primal.build", "embed_primal.map", "embed_primal.inverse",
    "verify.check_dual", "verify.check_primal", "verify.generate",
    "partition.classify", "partition.table", "partition.proper_map", "partition.eigen",
    "io.load_sdo", "io.save_sdo",
    "cli.embed", "cli.map", "cli.verify", "cli.inverse", "cli.classify", "cli.partition",
)
COUNT_METRICS = (
    "embed_dual.full_attempts", "embed_dual.fail",
    "embed_primal.rows", "embed_primal.nnz", "embed_primal.fail",
    "verify.fail", "partition.mismatch",
    "io.bytes_written", "io.bytes_read", "io.roundtrip_fail",
    "cli.nonzero_exit", "cli.bad_output",
)
PEAK_METRICS = ("embed_primal.build_peak_mb", "verify.check_primal_peak_mb", "io.load_sdo_peak_mb")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it; the maximum when there are fewer than 11 samples."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def setup(workload, seed: int, workdir: Path, tiny: bool, repeats: int, traced: bool = False):
    """Import the package in a fresh interpreter and generate the instances,
    `repeats` times, each into an emptied directory; (median seconds,
    instances, the first repeat's Run)."""
    from spans import Run

    times, items, first = [], None, None
    dest = workdir / "inputs"
    for rep in range(repeats):
        shutil.rmtree(dest, ignore_errors=True)
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        run = Run(traced and rep == 0)
        t0 = time.perf_counter()
        with run.span("setup"):
            items = workload.make(run, seed, dest, tiny)
        times.append(float(probe.stdout) + time.perf_counter() - t0)
        if run.failed:
            sys.exit(f"bench: instance generation failed for seed {seed}")
        if rep == 0:
            first = run
    return statistics.median(times), items, first


def timed_pass(workload, items, run, seconds: float, cycle: int):
    """Instance pipelines in a closed loop until `seconds` have passed, stopping
    only after a multiple of `cycle` instances. (per-instance seconds, elapsed)."""
    samples = []
    t0 = time.perf_counter()
    i = 0
    while True:
        if i and i % cycle == 0 and time.perf_counter() - t0 >= seconds:
            break
        start = time.perf_counter()
        with run.span("instance", i):
            workload.step(run, items[i % len(items)])
        samples.append(time.perf_counter() - start)
        i += 1
    return samples, time.perf_counter() - t0


def end_to_end(workload, seed: int, seconds: float, workdir: Path, tiny: bool):
    from spans import Run

    setup_s, items, _ = setup(workload, seed, workdir, tiny, SETUP_REPEATS)
    workload.step(Run(False), items[0])  # warm-up, not counted
    run = Run(False)
    samples, elapsed = timed_pass(workload, items, run, seconds, min(workload.cycle, len(items)))
    value, pct = tail(samples)
    metrics = {
        "setup_s": setup_s,
        "instances_per_s": len(samples) / elapsed,
        "instance_p50_ms": statistics.median(samples) * 1e3,
        "instance_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": run.ok_frac,
    }
    notes = [f"{len(samples)} instances in {elapsed:.2f} s",
             f"instance_tail_ms is p{pct:.1f} of {len(samples)} samples",
             f"ops attempted={run.attempted} failed={run.failed} refused={run.refused}"]
    return run.attempted, run.failed, metrics, notes


def traced(workload, seed: int, seconds: float, workdir: Path, tiny: bool):
    from spans import Run, write_spans

    _, items, setup_run = setup(workload, seed, workdir, tiny, 1, traced=True)
    items = items[:workload.trace_count]
    workload.step(Run(False), items[0])  # warm-up, not counted
    rates = {False: [], True: []}
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        for on in (False, True):
            passes.append(Run(on))
            samples, elapsed = timed_pass(workload, items, passes[-1], 0.0, len(items))
            rates[on].append(len(samples) / elapsed)
    traced_passes = [r for r in passes if r.traced]
    first = traced_passes[0]
    # Every traced pass runs the same instances, so calls and counts repeat
    # exactly; busy time is the mean over the traced passes.
    busy = [r.busy() for r in traced_passes]
    calls = {name: c for name, (_, c) in busy[0].items()}
    same = all({name: c for name, (_, c) in b.items()} == calls for b in busy) and \
        all(r.counts == first.counts for r in traced_passes)
    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_ms"] = sum(b.get(name, (0.0, 0))[0] for b in busy) / len(busy)
        metrics[f"{name}_calls"] = calls.get(name, 0)
    # Instances are generated in the set-up only.
    metrics["verify.generate_ms"], metrics["verify.generate_calls"] = \
        setup_run.busy().get("verify.generate", (0.0, 0))
    for name in COUNT_METRICS:
        metrics[name] = first.counts[name]
    attempts = first.counts["embed_dual.full_attempts"]
    metrics["embed_dual.full_ok_ratio"] = first.counts["embed_dual.full_ok"] / attempts if attempts else 0.0
    metrics["embed_primal.stored_mb"] = first.counts["embed_primal.stored_bytes"] / 1e6
    metrics.update(dict.fromkeys(PEAK_METRICS, 0.0))
    metrics.update(workload.peaks(items))
    untraced_rate, traced_rate = statistics.median(rates[False]), statistics.median(rates[True])
    metrics["bench.trace_overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    spans_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    write_spans(spans_file, [setup_run] + traced_passes)
    notes = [f"{len(items)} instances per pass, {len(traced_passes)} traced and "
             f"{len(rates[False])} untraced passes; _ms is the mean busy time of one traced pass",
             f"calls and counts equal in every traced pass: {'yes' if same else 'NO'}",
             f"instances_per_s untraced {untraced_rate:.4g}, traced {traced_rate:.4g}",
             f"embed_dual.full_ok_ratio base: {attempts} full-rank transports attempted per pass",
             f"one traced pass: ops attempted={first.attempted} failed={first.failed} "
             f"refused={first.refused}",
             f"spans written to {spans_file.relative_to(ROOT)}"]
    return sum(r.attempted for r in passes), sum(r.failed for r in passes), metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One workload in this process: (result dict, note lines)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        measure = traced if trace else end_to_end
        attempted, failed, metrics, notes = measure(workload, seed, seconds, workdir, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, notes


def _print_result(name: str, trace: bool, result: dict, notes: list[str]) -> None:
    print(f"== {name} ({'traced' if trace else 'end to end'})")
    for line in notes:
        print(f"   {line}")
    for key, m in result["metrics"].items():
        print(f"   {key:<34} {m['value']:>14.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
            if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                sys.stderr.write(proc.stderr)
                print(f"== {name} trace={trace}: FAILED")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="small-corpus | large-ladder | cli-files (default: all, in child processes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(args.workload, bool(args.trace), result, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
