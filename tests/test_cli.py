"""Command-line interface: each subcommand end to end, exit-code contract,
and the stderr error format."""
import json

import numpy as np
import pytest

from subdiff import TimeMesh, make_graded_mesh, read_mesh, write_mesh
from subdiff.cli import EXIT_INVALID, EXIT_OK, EXIT_VERDICT, dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == EXIT_OK
    assert out.strip() == "subdiff 0.1.0"


def test_no_command_is_invalid(capsys):
    code, _, err = run_cli(capsys)
    assert code == EXIT_INVALID
    assert err.startswith("subdiff: error: invalid-parameter:")


def test_unknown_flag_is_invalid(capsys):
    code, _, err = run_cli(capsys, "mesh-certify", "--mesh", "uniform", "--K", "8", "--frobnicate")
    assert code == EXIT_INVALID
    assert err.startswith("subdiff: error: invalid-parameter:")


def test_bad_alpha_is_invalid(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--alpha", "1.7", "--mesh", "uniform", "--K", "4", "--space", "d1:8"
    )
    assert code == EXIT_INVALID
    assert "invalid-parameter" in err


def test_missing_step_count_is_invalid(capsys):
    code, _, err = run_cli(capsys, "mesh-certify", "--mesh", "uniform")
    assert code == EXIT_INVALID
    assert err.startswith("subdiff: error:")


def test_mesh_generate_and_certify_round_trip(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    code, _, _ = run_cli(
        capsys,
        "mesh-generate",
        "--mesh", "graded:r=2/alpha",
        "--alpha", "0.5",
        "--K", "24",
        "--out", str(out),
    )
    assert code == EXIT_OK
    mesh = read_mesh(out)
    assert mesh.num_steps == 24
    expected = make_graded_mesh(1.0, 24, 4.0)
    assert np.array_equal(mesh.nodes, expected.nodes)

    code, stdout, _ = run_cli(capsys, "mesh-certify", "--file", str(out))
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["satisfied"] is True
    assert payload["first_violation"] is None


def test_mesh_generate_requires_alpha_for_alpha_dependent(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "mesh-generate", "--mesh", "rvariable", "--K", "8",
        "--out", str(tmp_path / "m.txt"),
    )
    assert code == EXIT_INVALID
    assert "alpha" in err


def test_mesh_certify_rejects_inadmissible(tmp_path, capsys):
    steps = np.concatenate([[1.0], np.cumprod(np.full(5, 0.2))])
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    path = tmp_path / "bad_mesh.txt"
    write_mesh(mesh, path)
    code, stdout, _ = run_cli(
        capsys, "mesh-certify", "--file", str(path), "--out-dir", str(tmp_path)
    )
    assert code == EXIT_VERDICT
    payload = json.loads(stdout)
    assert payload["satisfied"] is False
    assert payload["first_violation"] == 2
    stored = json.loads((tmp_path / "certificate.json").read_text())
    assert stored["satisfied"] is False


def test_analyze_passes_on_graded_mesh(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "analyze",
        "--alpha", "0.5",
        "--mesh", "graded:r=2",
        "--K", "16",
        "--backend", "closed",
        "--out-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["passed"] is True
    assert payload["sign_monotonicity_violations"] == 0
    assert payload["integral_bound_violations"] == 0
    assert payload["complementary_identity_residual"] <= 1e-11
    assert payload["psd"]["passed"] is True
    assert (tmp_path / "analysis.json").exists()
    kernel_lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert any(line.startswith("# subdiff 0.1.0") for line in kernel_lines)
    assert "level,interval,t_star,a,b,c,d,m" in kernel_lines


def test_analyze_builds_one_table(monkeypatch, capsys):
    # every check reads the one table the command builds: a single closed
    # pass over the coefficient triangle
    import subdiff.kernel

    passes = []
    original = subdiff.kernel._closed_a_c

    def counting(*args):
        passes.append(args[0].size)
        return original(*args)

    monkeypatch.setattr(subdiff.kernel, "_closed_a_c", counting)
    code, _, _ = run_cli(
        capsys, "analyze", "--alpha", "0.5", "--mesh", "graded:r=2", "--K", "16",
        "--levels", "12", "--backend", "closed",
    )
    assert code == EXIT_OK
    assert passes == [12 * 11 // 2]


def test_solve_manufactured_known_error(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve",
        "--alpha", "0.7",
        "--mesh", "graded:r=2.857",
        "--K", "40",
        "--space", "d1:512",
        "--backend", "closed",
        "--out-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    line = [l for l in stdout.splitlines() if l.startswith("max_l2_error")][0]
    value = float(line.split("=")[1].split("(")[0])
    # near-optimally graded run at this resolution lands at 1.78e-4
    assert value == pytest.approx(1.776e-4, rel=2e-2)
    for name in ("snapshot.csv", "diagnostics.csv", "summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_l2_error"] == pytest.approx(value, rel=1e-4)
    assert summary["space"] == "d1:512"
    snapshot = (tmp_path / "snapshot.csv").read_text()
    assert snapshot.startswith("# subdiff 0.1.0 solution-snapshot")


def test_solve_decay_problem(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve",
        "--alpha", "0.5",
        "--mesh", "uniform",
        "--K", "8",
        "--space", "d1:32",
        "--problem", "decay",
        "--backend", "closed",
        "--out-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert "max_l2_error" not in stdout  # no reference solution
    assert "h1_seminorm_final" in stdout
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    rows = [l for l in diag if not l.startswith("#")]
    assert rows[1].split(",")[2] == ""  # empty error column


def test_reproduce_tables_custom_config(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "alphas = 0.5\n"
        "meshes = graded:r=2, uniform\n"
        "step_counts = 8, 16\n"
        "space = d1:32\n"
        "backend = closed\n"
        f"out_dir = {tmp_path / 'results'}\n"
    )
    code, stdout, _ = run_cli(capsys, "reproduce-tables", "--config", str(config))
    assert code == EXIT_OK
    assert "alpha = 0.5" in stdout
    assert "r=2" in stdout and "uniform" in stdout
    results = tmp_path / "results"
    assert (results / "convergence_alpha0p5.csv").exists()
    assert (results / "convergence_summary.json").exists()


def test_reproduce_tables_config_overrides_flags(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "alphas = 0.7\n"
        "meshes = uniform\n"
        "step_counts = 4, 8\n"
        "space = d1:16\n"
        "backend = closed\n"
    )
    code, stdout, _ = run_cli(
        capsys, "reproduce-tables", "--alpha", "0.3", "--config", str(config)
    )
    assert code == EXIT_OK
    assert "alpha = 0.7" in stdout
    assert "alpha = 0.3" not in stdout


def test_soak_quick_run(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "soak",
        "--alpha", "0.5",
        "--horizon", "50",
        "--K", "120",
        "--split-steps", "24",
        "--space", "d1:64",
        "--out-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["passed"] is True
    assert payload["plateau_ok"] is True
    assert (tmp_path / "soak_trajectory.csv").exists()
    assert (tmp_path / "soak_summary.json").exists()


def test_soak_zero_source(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "soak",
        "--alpha", "0.7",
        "--horizon", "5",
        "--K", "60",
        "--split-steps", "30",
        "--space", "d1:32",
        "--zero-source",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["h1_nonincreasing"] is True
    assert payload["l2_nonincreasing"] is True


def test_mesh_and_file_flags_conflict(tmp_path, capsys):
    path = tmp_path / "m.txt"
    write_mesh(make_graded_mesh(1.0, 8, 2.0), path)
    code, _, err = run_cli(
        capsys, "mesh-certify", "--mesh", "uniform", "--file", str(path), "--K", "8"
    )
    assert code == EXIT_INVALID
    assert "either --mesh or --file" in err
