"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_package()

import workloads  # noqa: E402
from conic_embed import SdoSolution, SymMatrix  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = list(workloads.WORKLOADS)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result, notes = run.run_workload(name, seed=3, seconds=0.01, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == want
    run._print_result(name, trace, result, notes)
    printed = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("   ") and line.split()[0] in want}
    assert printed == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in want)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_exact_counts_repeat_for_one_seed(name):
    exact = [k for k in _units("per_layer") if k.endswith("_calls") or k in run.COUNT_METRICS
             or k in ("embed_dual.full_ok_ratio", "embed_primal.stored_mb")]
    first, _ = run.run_workload(name, seed=5, seconds=0.01, trace=True, tiny=True)
    second, _ = run.run_workload(name, seed=5, seconds=0.01, trace=True, tiny=True)
    assert [first["metrics"][k]["value"] for k in exact] == \
        [second["metrics"][k]["value"] for k in exact]


def _corrupt(transport):
    def corrupted(problem, sol, spec, tol):
        mapped = transport(problem, sol, spec, tol)
        bumped = mapped.X.a.copy()
        bumped[0, 0] += 1e-3
        return SdoSolution(X=SymMatrix(bumped), y=mapped.y, S=mapped.S)
    return corrupted


def test_corrupted_mapped_X_is_counted_as_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "map_solution_dual", _corrupt(workloads.map_solution_dual))
    traced, _ = run.run_workload("small-corpus", seed=3, seconds=0.01, trace=True, tiny=True)
    metrics = {k: m["value"] for k, m in traced["metrics"].items()}
    dual_maps = sum(metrics[f"embed_dual.map_{kind}_calls"] for kind in ("one", "simzhao", "full", "k"))
    assert dual_maps > 0 and metrics["verify.fail"] == dual_maps
    assert not traced["correct"] and traced["failed"] > 0
    untraced, _ = run.run_workload("small-corpus", seed=3, seconds=0.01, trace=False, tiny=True)
    assert not untraced["correct"] and untraced["failed"] > 0
    assert untraced["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
