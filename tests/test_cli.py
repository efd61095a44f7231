import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conic_embed
from conic_embed import cli, load_problem, load_solution
from conic_embed.cli import ENV_TOL, build_parser, main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_TOL, raising=False)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def gen(capsys, tmp_path, cones="3,2", labels="B,R", m=3, seed=5, gap=None):
    prob = tmp_path / "prob.json"
    sol = tmp_path / "sol.json"
    argv = ["gen", "--cones", cones, "--labels", labels, "--m", m,
            "--seed", seed, "--out", prob, "--sol-out", sol]
    if gap is not None:
        argv += ["--gap", gap]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert f"generated cones={cones}" in out
    return prob, sol


def solution_diff(prob_path, a_path, b_path):
    problem = load_problem(prob_path)
    a = load_solution(a_path, problem)
    b = load_solution(b_path, problem)
    worst = 0.0
    for pa, pb in zip(a.x_blocks, b.x_blocks):
        worst = max(worst, float(np.max(np.abs(pa - pb))))
    if a.y is not None and b.y is not None:
        worst = max(worst, float(np.max(np.abs(a.y - b.y))))
    if a.s_blocks is not None and b.s_blocks is not None:
        for pa, pb in zip(a.s_blocks, b.s_blocks):
            worst = max(worst, float(np.max(np.abs(pa - pb))))
    return worst


class TestPipeline:
    @pytest.mark.parametrize("side", ["dual", "primal"])
    def test_round_trip(self, tmp_path, capsys, side):
        prob, sol = gen(capsys, tmp_path)
        sdo = tmp_path / "sdo.json"
        sdpa = tmp_path / "sdo.dat-s"
        extra = ["--split-blocks"] if side == "dual" else []
        code, out, _ = run(capsys, "embed", "--side", side, "--in", prob,
                           "--out", sdo, "--sdpa", sdpa, *extra)
        assert code == 0
        assert "embedded 2 cone(s), dim 5 -> 5x5" in out
        assert sdpa.exists()

        mapped = tmp_path / "mapped.json"
        code, out, _ = run(capsys, "map", "--side", side, "--rank", "one",
                           "--problem", prob, "--solution", sol, "--out", mapped)
        assert code == 0
        assert "mapped X/y/S" in out

        code, out, _ = run(capsys, "verify", "--side", side, "--problem", prob,
                           "--solution", sol, "--mapped", mapped)
        assert code == 0
        assert "verdict PASS" in out

        back = tmp_path / "back.json"
        code, out, _ = run(capsys, "inverse", "--side", side, "--problem", prob,
                           "--sdo-solution", mapped, "--out", back)
        assert code == 0
        assert "recovered" in out
        assert solution_diff(prob, sol, back) <= 1e-12

    def test_rank_variants_on_interior_instance(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path, cones="3,3", labels="B,B", m=3, seed=11)
        for rank in ("one", "simzhao", "full", "k:2", "k:2,3"):
            mapped = tmp_path / f"mapped-{rank.replace(':', '-').replace(',', '-')}.json"
            code, _, err = run(capsys, "map", "--side", "dual", "--rank", rank,
                               "--problem", prob, "--solution", sol, "--out", mapped)
            assert code == 0, err
            code, out, _ = run(capsys, "verify", "--side", "dual", "--problem", prob,
                               "--solution", sol, "--mapped", mapped)
            assert code == 0
            assert "verdict PASS" in out

    def test_full_rank_rejected_on_boundary(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path, cones="3,2", labels="B,R", m=3, seed=5)
        code, _, err = run(capsys, "map", "--side", "dual", "--rank", "full",
                           "--problem", prob, "--solution", sol,
                           "--out", tmp_path / "x.json")
        assert code == 1
        assert err.startswith("error:")

    def test_full_rank_rejected_on_one_dimensional_zero_cone(self, tmp_path, capsys):
        # x = [0] on the N cone has rank 0; full rank is for interior cones only
        prob, sol = gen(capsys, tmp_path, cones="1,3", labels="N,B", m=2, seed=9)
        code, _, err = run(capsys, "map", "--side", "dual", "--rank", "full",
                           "--problem", prob, "--solution", sol,
                           "--out", tmp_path / "x.json")
        assert code == 1
        assert "interior" in err

    def test_transport_error_names_the_cone(self, tmp_path, capsys):
        # cone 1 is the one-dimensional zero cone of the N label
        prob, sol = gen(capsys, tmp_path, cones="3,1,3", labels="B,N,B", m=2, seed=9)
        code, _, err = run(capsys, "map", "--side", "dual", "--rank", "full",
                           "--problem", prob, "--solution", sol,
                           "--out", tmp_path / "x.json")
        assert code == 1
        assert err.strip() == "error: cone 1: full-rank transport needs a cone-interior vector"


class TestVerifyCommand:
    def test_tampered_solution_fails(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path)
        mapped = tmp_path / "mapped.json"
        run(capsys, "map", "--side", "dual", "--rank", "one",
            "--problem", prob, "--solution", sol, "--out", mapped)
        obj = json.loads(mapped.read_text())
        obj["X"][0][0] += 0.5
        mapped.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", "--side", "dual", "--problem", prob,
                           "--solution", sol, "--mapped", mapped)
        assert code == 1
        assert "verdict FAIL" in out
        assert "FAIL" in out.splitlines()[0] or any(
            "FAIL" in ln for ln in out.splitlines()[:-1]
        )

    def test_env_tolerance_is_used(self, tmp_path, capsys, monkeypatch):
        prob, sol = gen(capsys, tmp_path)
        mapped = tmp_path / "mapped.json"
        run(capsys, "map", "--side", "dual", "--rank", "one",
            "--problem", prob, "--solution", sol, "--out", mapped)
        monkeypatch.setenv(ENV_TOL, "1e-30")
        code, out, _ = run(capsys, "verify", "--side", "dual", "--problem", prob,
                           "--solution", sol, "--mapped", mapped)
        assert code == 1
        assert "1.0e-30" in out

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        prob, sol = gen(capsys, tmp_path)
        mapped = tmp_path / "mapped.json"
        run(capsys, "map", "--side", "dual", "--rank", "one",
            "--problem", prob, "--solution", sol, "--out", mapped)
        monkeypatch.setenv(ENV_TOL, "not-a-number")
        code, out, _ = run(capsys, "verify", "--side", "dual", "--problem", prob,
                           "--solution", sol, "--mapped", mapped, "--tol", "1e-6")
        assert code == 0
        assert "1.0e-06" in out

    def test_bad_env_without_flag(self, tmp_path, capsys, monkeypatch):
        prob, sol = gen(capsys, tmp_path)
        mapped = tmp_path / "mapped.json"
        run(capsys, "map", "--side", "dual", "--rank", "one",
            "--problem", prob, "--solution", sol, "--out", mapped)
        monkeypatch.setenv(ENV_TOL, "not-a-number")
        code, _, err = run(capsys, "verify", "--side", "dual", "--problem", prob,
                           "--solution", sol, "--mapped", mapped)
        assert code == 1
        assert "error:" in err and ENV_TOL in err

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(
        self, tmp_path, capsys, monkeypatch, source, value
    ):
        prob, sol = gen(capsys, tmp_path)
        argv = ["classify", "--problem", prob, "--solution", sol]
        if source == "flag":
            argv.append(f"--tol={value}")
        else:
            monkeypatch.setenv(ENV_TOL, value)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert ("--tol" if source == "flag" else ENV_TOL) in err


class TestBadInput:
    def test_bad_rank_spec(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path)
        code, _, err = run(capsys, "map", "--side", "dual", "--rank", "k:2,3,4",
                           "--problem", prob, "--solution", sol,
                           "--out", tmp_path / "x.json")
        assert code == 1
        assert "rank spec" in err
        code, _, err = run(capsys, "map", "--side", "dual", "--rank", "bogus",
                           "--problem", prob, "--solution", sol,
                           "--out", tmp_path / "x.json")
        assert code == 1
        assert "bogus" in err

    def test_bad_cones(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--cones", "3,x", "--labels", "B,B",
                           "--out", tmp_path / "p.json")
        assert code == 1
        assert err.startswith("error:")

    def test_split_blocks_needs_sdpa(self, tmp_path, capsys):
        prob, _ = gen(capsys, tmp_path)
        code, _, err = run(capsys, "embed", "--side", "dual", "--in", prob,
                           "--out", tmp_path / "sdo.json", "--split-blocks")
        assert code == 1
        assert "--sdpa" in err
        assert not (tmp_path / "sdo.json").exists()

    def test_split_refused_on_multi_cone_primal(self, tmp_path, capsys):
        prob, _ = gen(capsys, tmp_path)
        out, sdpa = tmp_path / "sdo.json", tmp_path / "sdo.dat-s"
        code, _, err = run(capsys, "embed", "--side", "primal", "--in", prob,
                           "--out", out, "--sdpa", sdpa, "--split-blocks")
        assert code == 1
        assert "not block-diagonal" in err
        assert not out.exists() and not sdpa.exists()

    def test_malformed_sdo_solution(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path)
        mapped = tmp_path / "mapped.json"
        code, _, _ = run(capsys, "map", "--side", "primal", "--problem", prob,
                         "--solution", sol, "--out", mapped)
        assert code == 0
        obj = json.loads(mapped.read_text())
        obj["dual_split"]["w"][0] = ["a", 1, 2.0]
        mapped.write_text(json.dumps(obj))
        code, _, err = run(capsys, "inverse", "--side", "primal", "--problem", prob,
                           "--sdo-solution", mapped, "--out", tmp_path / "back.json")
        assert code == 1
        assert err.startswith("error:") and "dual_split.w" in err

    def test_inverse_rejects_indefinite_slack(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path, cones="3,3", labels="B,N", m=3, seed=5)
        mapped = tmp_path / "mapped.json"
        code, _, err = run(capsys, "map", "--side", "primal", "--rank", "simzhao",
                           "--problem", prob, "--solution", sol, "--out", mapped)
        assert code == 0, err
        obj = json.loads(mapped.read_text())
        obj["S"][4][4] += 50.0
        obj["S"][5][5] -= 50.0
        mapped.write_text(json.dumps(obj))
        code, _, err = run(capsys, "inverse", "--side", "primal", "--problem", prob,
                           "--sdo-solution", mapped, "--out", tmp_path / "back.json")
        assert code == 1
        assert err.startswith("error:") and "indefinite" in err

    def test_example1_bad_direction(self, capsys):
        code, out, err = run(capsys, "example1", "--n", "3", "--direction", "a,b")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--direction" in err

    def test_missing_mapped_file(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path)
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "verify", "--side", "dual", "--problem", prob,
                             "--solution", sol, "--mapped", missing)
        assert code == 1
        assert out == ""
        assert err == f"error: {missing}: No such file or directory\n"

    def test_missing_problem_file(self, tmp_path, capsys):
        _, sol = gen(capsys, tmp_path)
        missing = tmp_path / "missing.json"
        code, _, err = run(capsys, "classify", "--problem", missing, "--solution", sol)
        assert code == 1
        assert err == f"error: {missing}: No such file or directory\n"

    def test_output_is_a_directory(self, tmp_path, capsys):
        prob, _ = gen(capsys, tmp_path)
        code, out, err = run(capsys, "embed", "--side", "dual", "--in", prob,
                             "--out", tmp_path)
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path}: Is a directory\n"

    def test_unwritable_out_leaves_no_sdpa_file(self, tmp_path, capsys):
        prob, _ = gen(capsys, tmp_path)
        sdpa = tmp_path / "x.dat-s"
        code, _, err = run(capsys, "embed", "--side", "dual", "--in", prob,
                           "--out", tmp_path, "--sdpa", sdpa)
        assert code == 1
        assert err == f"error: {tmp_path}: Is a directory\n"
        assert not sdpa.exists()

    def test_sdpa_in_missing_directory_leaves_no_out_file(self, tmp_path, capsys):
        prob, _ = gen(capsys, tmp_path)
        out, sdpa = tmp_path / "sdo.json", tmp_path / "missing" / "x.dat-s"
        code, _, err = run(capsys, "embed", "--side", "primal", "--in", prob,
                           "--out", out, "--sdpa", sdpa)
        assert code == 1
        assert err == f"error: {sdpa}: No such file or directory\n"
        assert not out.exists() and not sdpa.exists()

    def test_gen_sol_out_in_missing_directory_leaves_no_out_file(self, tmp_path, capsys):
        out, sol = tmp_path / "prob.json", tmp_path / "missing" / "sol.json"
        code, stdout, err = run(capsys, "gen", "--cones", "3,2", "--labels", "B,R", "--m", 2,
                                "--seed", 5, "--out", out, "--sol-out", sol)
        assert code == 1
        assert stdout == ""
        assert err == f"error: {sol}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_input_not_text(self, tmp_path, capsys):
        prob = tmp_path / "prob.json"
        prob.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "embed", "--side", "dual", "--in", prob,
                           "--out", tmp_path / "sdo.json")
        assert code == 1
        assert err == f"error: {prob}: not UTF-8 text\n"

    def test_gap_instance_fails_classification(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path, cones="3", labels="B", m=2, seed=1, gap=0.25)
        code, _, err = run(capsys, "classify", "--problem", prob, "--solution", sol)
        assert code == 1
        assert err.startswith("error:")


# The golden files in tests/data, and the commands that write them; CI runs the
# same commands through the installed conic-embed script and compares its files.
GOLDEN = Path(__file__).resolve().parent / "data"
GOLDEN_COMMANDS = (
    "gen --cones 3,2 --labels B,R --m 2 --seed 5 --out prob.json --sol-out sol.json",
    "embed --side dual --in prob.json --out dual.sdo.json --sdpa dual.dat-s --split-blocks",
    "embed --side primal --in prob.json --out primal.sdo.json --sdpa primal.dat-s",
    "map --side primal --rank one --problem prob.json --solution sol.json --out primal.map.json",
    "inverse --side primal --problem prob.json --sdo-solution primal.map.json "
    "--out primal.back.json",
    "partition --side primal --problem prob.json --solution sol.json --out primal.part.json",
)


def test_golden_files(tmp_path, capsys):
    for command in GOLDEN_COMMANDS:
        argv = [str(tmp_path / a) if a.endswith((".json", ".dat-s")) else a for a in command.split()]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


class TestReports:
    def test_classify_lines(self, tmp_path, capsys):
        prob, sol = gen(capsys, tmp_path, cones="3,2,2", labels="R,N,T1", m=3, seed=3)
        code, out, _ = run(capsys, "classify", "--problem", prob, "--solution", sol)
        assert code == 0
        assert out.splitlines() == [
            "cone 0 (n=3): R",
            "cone 1 (n=2): N",
            "cone 2 (n=2): T1",
        ]

    @pytest.mark.parametrize("side", ["dual", "primal"])
    def test_partition_report(self, tmp_path, capsys, side):
        prob, sol = gen(capsys, tmp_path, cones="3,2", labels="R,B", m=2, seed=9)
        basis = tmp_path / "basis.json"
        code, out, _ = run(capsys, "partition", "--side", side, "--problem", prob,
                           "--solution", sol, "--out", basis)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "labels: R,B"
        assert lines[1].startswith("|B|=")
        assert "max principal angle vs eigenspaces:" in lines[2]
        angle = float(lines[2].split(":")[1])
        assert angle < 1e-6
        obj = json.loads(basis.read_text())
        assert set(obj) == {"B", "N", "T"}
        total = sum(len(obj[k]) for k in obj)
        assert total == 5

    def test_example1(self, capsys):
        code, out, _ = run(capsys, "example1", "--n", "5")
        assert code == 0
        assert "x o s = 0" in out
        assert "||XS||_inf=1.000000" in out
        code, out, _ = run(capsys, "example1", "--n", "3",
                           "--direction", "0.6,0.8")
        assert code == 0

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []

        def counting_build():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for n in ("3", "4"):
                assert run(capsys, "example1", "--n", n)[0] == 0
            with pytest.raises(SystemExit) as exc:
                main(["bogus"])
            assert exc.value.code == 2
            assert run(capsys, "example1")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert build_parser() is not build_parser()

    def test_module_entry(self, tmp_path):
        # The child runs in tmp_path, where a relative PYTHONPATH (such as
        # PYTHONPATH=src for an uninstalled checkout) no longer resolves.
        # Put the absolute directory of the package under test first, so
        # the child imports this very copy.
        pkg_root = str(Path(conic_embed.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [pkg_root] + ([inherited] if inherited else [])))
        proc = subprocess.run(
            [sys.executable, "-m", "conic_embed", "example1", "--n", "4"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0
        assert "n=4" in proc.stdout
