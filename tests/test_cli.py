"""Command-line interface: each subcommand end to end, exit-code contract,
and the stderr error format."""
import inspect
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subdiff
from subdiff import (
    ExperimentSpec,
    TimeMesh,
    admissibility_thresholds,
    analyze_operator,
    build_kernel_table,
    make_graded_mesh,
    make_uniform_mesh,
    read_mesh,
    reproduce_tables,
    run_pointwise_comparison,
    run_stability_soak,
    solve,
    write_mesh,
)
from subdiff.cli import EXIT_INVALID, EXIT_OK, EXIT_VERDICT, build_parser, dispatch
from subdiff.provenance import json_text


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import subdiff, subdiff.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

at_import = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = subdiff.cli.dispatch(sys.argv[2:])
print(json.dumps([at_import, code, scipy_modules()]))
"""


def test_no_command_loads_scipy(tmp_path):
    # SciPy is the test oracle.  At run time only the quadrature oracle and
    # caputo_reference use it, importing theirs when first called, so a
    # closed-backend analyze loads no scipy module and a quadrature one only
    # what scipy.integrate itself imports.  Each command runs in a fresh
    # process.
    src = str(Path(subdiff.__file__).resolve().parents[1])
    commands = [
        ["soak", "--alpha", "0.5", "--K", "40", "--split-steps", "8", "--space", "d1:32"],
        ["solve", "--alpha", "0.5", "--mesh", "uniform", "--K", "4", "--space", "p2:32"],
        ["mesh-certify", "--mesh", "graded:r=2", "--K", "16"],
        ["reproduce-tables", "--paper-exact", "--alpha", "0.5"],
        ["analyze", "--alpha", "0.5", "--mesh", "graded:r=2", "--K", "16"],
        ["analyze", "--alpha", "0.5", "--mesh", "graded:r=2", "--K", "16", "--backend", "quadrature"],
    ]
    integrate_alone = subprocess.run(
        [sys.executable, "-c", "import json, sys, scipy.integrate; "
         "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, src, *argv],
            capture_output=True, text=True, check=True, cwd=tmp_path,
        )
        at_import, code, loaded = json.loads(run.stdout)
        assert (at_import, code) == ([], EXIT_OK), argv
        if "quadrature" in argv:
            assert "scipy.integrate" in loaded
            assert loaded == json.loads(integrate_alone.stdout)
        else:
            assert loaded == [], argv


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == EXIT_OK
    assert out.strip() == "subdiff 0.1.0"


def test_every_default_backend_is_closed(capsys):
    # quadrature is the oracle, reached only by asking for it
    sites = (
        build_kernel_table, solve, ExperimentSpec,
        reproduce_tables, run_pointwise_comparison, run_stability_soak,
    )
    defaults = {site.__name__: inspect.signature(site).parameters["backend"].default for site in sites}
    parser = build_parser()
    for command in ("analyze", "solve", "reproduce-tables", "soak"):
        required = [] if command == "reproduce-tables" else ["--alpha", "0.5"]
        defaults[command] = parser.parse_args([command, *required]).backend
    assert defaults == dict.fromkeys(defaults, "closed")
    # and each command's help says so
    for command in ("analyze", "solve", "reproduce-tables", "soak"):
        _, out, _ = run_cli(capsys, command, "--help")
        assert "closed forms (default)" in " ".join(out.split()), command


def test_every_soak_default_is_run_stability_soaks(capsys):
    # the soak flags take run_stability_soak's defaults, and the help states
    # them; --horizon and --K are passed on only when given
    params = inspect.signature(run_stability_soak).parameters
    args = vars(build_parser().parse_args(["soak", "--alpha", "0.5"]))
    shared = {name: value for name, value in args.items() if name in params}
    assert set(shared) == {
        "horizon", "grading", "split_time", "split_steps", "space", "zero_source", "backend",
        "out_dir",
    }
    assert (shared.pop("horizon"), args["K"], shared.pop("out_dir")) == (None, None, None)
    assert shared == {name: params[name].default for name in shared}
    code, out, _ = run_cli(capsys, "soak", "--help")
    help_text = " ".join(out.split())
    assert code == EXIT_OK
    for name in ("horizon", "num_steps", "grading", "split_time", "split_steps", "space"):
        assert f"(default {params[name].default}" in help_text, name
    code, out, _ = run_cli(capsys, "soak", "--alpha", "0.5")
    payload = json.loads(out)
    assert (payload["num_steps"], payload["horizon"]) == (
        params["num_steps"].default, params["horizon"].default
    )


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


def test_mesh_generate_creates_the_output_directory(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "m.txt"
    code, _, err = run_cli(
        capsys, "mesh-generate", "--mesh", "uniform", "--K", "4", "--out", str(out)
    )
    assert code == EXIT_OK, err
    assert np.array_equal(read_mesh(out).nodes, make_uniform_mesh(1.0, 4).nodes)


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
    assert payload["psd"]["rel_tol"] == 1e-10
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


@pytest.mark.parametrize("seed, index", [(407, 12), (2204, 48)])
def test_analyze_floor_scales_with_the_complementary_kernel(tmp_path, capsys, seed, index):
    # admissible meshes with step ratios uniform in [eta, 3], built as the
    # operator-fuzz benchmark builds them: P has entries near 1e9, and
    # rounding leaves its smallest entry near -1e-13 (-2.2e-13 on the
    # second), which a fixed -1e-13 floor would fail
    rng = np.random.default_rng(seed)
    _, eta = admissibility_thresholds()
    for _ in range(index + 1):
        ratios = rng.uniform(eta, 3.0, size=127)
    steps = np.cumprod(np.concatenate([[1.0], ratios]))
    path = tmp_path / "mesh.txt"
    path.write_text("".join(f"{t:.17g}\n" for t in np.concatenate([[0.0], np.cumsum(steps)])))
    code, stdout, _ = run_cli(
        capsys, "analyze", "--file", str(path), "--alpha", "0.3", "--backend", "closed"
    )
    payload = json.loads(stdout)
    assert code == EXIT_OK and payload["passed"] is True


def test_analyze_prints_its_context_and_the_library_verdict(tmp_path, capsys):
    # the 64 meshes of the operator-fuzz benchmark at seed 1, built as
    # criteria 04/05 build theirs: analyze adds only mesh, alpha, levels and
    # backend to what analyze_operator returns, and exits on its verdict
    rng = np.random.default_rng(1)
    _, eta = admissibility_thresholds()
    path = tmp_path / "mesh.txt"
    for i in range(64):
        alpha = (0.3, 0.5, 0.7)[i % 3]
        steps = np.cumprod(np.concatenate([[1.0], rng.uniform(eta, 3.0, size=127)]))
        path.write_text("".join(f"{t:.17g}\n" for t in np.concatenate([[0.0], np.cumsum(steps)])))
        code, stdout, _ = run_cli(capsys, "analyze", "--file", str(path), "--alpha", str(alpha))
        table = build_kernel_table(read_mesh(path), alpha, n=128)
        context = {"mesh": f"file:{path}", "alpha": alpha, "levels": 128, "backend": "closed"}
        verdict = analyze_operator(table)
        assert stdout == json_text("operator-analysis", {**context, **verdict}) + "\n"
        assert (code, verdict["passed"]) == (EXIT_OK, True)


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
        "workers = 2\n"
        f"out_dir = {tmp_path / 'results'}\n"
    )
    code, stdout, _ = run_cli(capsys, "reproduce-tables", "--config", str(config))
    assert code == EXIT_OK
    assert "alpha = 0.5" in stdout
    assert "r=2" in stdout and "uniform" in stdout
    results = tmp_path / "results"
    assert (results / "convergence_alpha0p5.csv").exists()
    assert (results / "convergence_summary.json").exists()


def test_reproduce_tables_custom_config_needs_step_counts(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("meshes = uniform\nspace = d1:16\n")
    code, stdout, err = run_cli(capsys, "reproduce-tables", "--config", str(config))
    assert (code, stdout) == (EXIT_INVALID, "")
    assert err == (
        "subdiff: error: invalid-parameter: experiment spec missing keys: ['step_counts']\n"
    )


def test_printed_tables_show_the_written_column_error_and_order_rows(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "alphas = 0.3, 0.5\nmeshes = graded:r=2, uniform\nstep_counts = 8, 16, 32\n"
        f"space = d1:32\nout_dir = {tmp_path}\n"
    )
    code, stdout, _ = run_cli(capsys, "reproduce-tables", "--config", str(config))
    assert code == EXIT_OK
    printed = [line.split() for line in stdout.splitlines()]
    for alpha in ("0.3", "0.5"):
        name = f"convergence_alpha{alpha.replace('.', 'p')}.csv"
        lines = (tmp_path / name).read_text().splitlines()
        written = [line.split(",") for line in lines if not line.startswith("#")]
        # errors print as .4e; the order row's empty first entry is blank space
        shown = [
            row[:2] + [f"{float(v):.4e}" if row[1] == "error" else v for v in row[2:] if v]
            for row in written
        ]
        start = [line[:3] for line in printed].index(["alpha", "=", alpha]) + 1
        assert printed[start : start + len(shown) + 1] == shown + [[]]
        assert len(shown) == 5


def test_reproduce_tables_custom_config_forwards_alpha_flags_exactly(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("meshes = uniform\nstep_counts = 4, 8\nspace = d1:16\n")
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "reproduce-tables", "--config", str(config), "--alpha", "0.1234567",
        "--out-dir", str(out_dir),
    )
    assert code == EXIT_OK
    payload = json.loads((out_dir / "convergence_summary.json").read_text())
    assert payload["spec"]["alphas"] == [0.1234567]


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


@pytest.mark.parametrize(
    "key, text",
    [("alphas", "alphas = 0.5, x"), ("workers", "workers = two"),
     ("step_counts", "step_counts = 8, 1e1")],
    ids=["alphas", "workers", "step_counts"],
)
def test_reproduce_tables_refuses_a_malformed_config_value(tmp_path, capsys, key, text):
    config = tmp_path / "exp.cfg"
    config.write_text(text + "\n")
    code, _, err = run_cli(capsys, "reproduce-tables", "--config", str(config))
    assert code == EXIT_INVALID
    assert err.startswith(f"subdiff: error: invalid-parameter: config key {key} ")


def test_both_reproduce_tables_branches_split_config_lists_alike(tmp_path, capsys):
    # the benchmark-table branch and the custom-experiment branch read a
    # comma-separated value by one rule, so they refuse a bad item alike
    errs = []
    for extra in ("", "meshes = uniform\nstep_counts = 8\n"):
        config = tmp_path / "exp.cfg"
        config.write_text(extra + "alphas = 0.5, , x\n")
        code, stdout, err = run_cli(capsys, "reproduce-tables", "--config", str(config))
        assert (code, stdout) == (EXIT_INVALID, "")
        errs.append(err)
    assert errs == [
        "subdiff: error: invalid-parameter: config key alphas needs float values, "
        "got 'x'\n"
    ] * 2


def test_reproduce_tables_refuses_an_unknown_config_key(tmp_path, capsys):
    # a config without meshes/step_counts/space/horizon configures the
    # benchmark tables, and a misspelt or retired key must not be ignored
    config = tmp_path / "exp.cfg"
    config.write_text("alphas = 0.5\nbacknd = closed\nquad_rel_tol = banana\n")
    code, stdout, err = run_cli(capsys, "reproduce-tables", "--config", str(config))
    assert code == EXIT_INVALID
    assert stdout == ""
    assert err == (
        "subdiff: error: invalid-parameter: unknown experiment keys: "
        "['backnd', 'quad_rel_tol']\n"
    )


def test_reproduce_tables_refuses_table_settings_with_a_custom_config(tmp_path, capsys):
    # --paper-exact and --extended, or their keys, set the benchmark tables,
    # which a custom experiment does not run: they are refused, not ignored
    custom = "meshes = uniform\nstep_counts = 4, 8\nspace = d1:16\n"
    config = tmp_path / "exp.cfg"
    runs = (
        (custom, ["--paper-exact", "--extended"], "['paper_exact', 'extended']"),
        (custom + "paper_exact = true\n", [], "['paper_exact']"),
        (custom + "extended = false\n", ["--paper-exact"], "['paper_exact', 'extended']"),
    )
    for text, flags, keys in runs:
        config.write_text(text)
        code, stdout, err = run_cli(
            capsys, "reproduce-tables", *flags, "--config", str(config)
        )
        assert (code, stdout) == (EXIT_INVALID, ""), flags
        assert err == (
            f"subdiff: error: invalid-parameter: the benchmark-table keys {keys} do not "
            "mix with the custom-experiment keys ['meshes', 'step_counts', 'space', "
            "'horizon']\n"
        )


@pytest.mark.parametrize("factor", ["1.01", "nan"])
def test_soak_has_no_plateau_factor_flag(capsys, factor):
    # the plateau bound is fixed: the parser refuses the flag whatever its value
    code, stdout, err = run_cli(
        capsys, "soak", "--alpha", "0.5", "--K", "40", "--plateau-factor", factor
    )
    assert code == EXIT_INVALID
    assert stdout == ""
    assert err.startswith(
        f"subdiff: error: invalid-parameter: unrecognized arguments: --plateau-factor {factor}"
    )


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


def test_a_mesh_file_refuses_a_step_count_or_horizon_it_does_not_have(tmp_path, capsys):
    path = tmp_path / "m.txt"
    write_mesh(make_graded_mesh(1.0, 10, 2.0), path)
    solve_args = ["solve", "--file", str(path), "--alpha", "0.5", "--space", "d1:16"]
    for flags, message in (
        (["--K", "100", "--horizon", "5"], "has 10 steps"),
        (["--K", "100"], "has 10 steps"),
        (["--horizon", "5"], "has horizon 1.0"),
    ):
        code, out, err = run_cli(capsys, *solve_args, *flags)
        assert code == EXIT_INVALID, flags
        assert message in err and out == ""
    # left out, or the file's own, each flag takes the file's value
    for flags in ([], ["--K", "10"], ["--horizon", "1"], ["--K", "10", "--horizon", "1.0"]):
        code, out, _ = run_cli(capsys, *solve_args, *flags, "--out-dir", str(tmp_path))
        assert code == EXIT_OK, flags
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["num_steps"], summary["horizon"]) == (10, 1.0)
    for command in (
        ["mesh-certify", "--file", str(path)],
        ["analyze", "--alpha", "0.5", "--file", str(path)],
        ["soak", "--alpha", "0.5", "--mesh-file", str(path)],
    ):
        code, _, err = run_cli(capsys, *command, "--K", "12")
        assert code == EXIT_INVALID and "has 10 steps" in err
        code, _, err = run_cli(capsys, *command, "--horizon", "5")
        assert code == EXIT_INVALID and "has horizon 1.0" in err


@pytest.mark.parametrize(
    "command, unreadable, category",
    [
        (["analyze", "--alpha", "0.5", "--file"], "directory", "mesh-file"),
        (["soak", "--alpha", "0.5", "--mesh-file"], "directory", "mesh-file"),
        (["analyze", "--alpha", "0.5", "--file"], "latin-1", "mesh-file"),
        (["reproduce-tables", "--config"], "latin-1", "invalid-parameter"),
    ],
)
def test_an_unreadable_input_file_is_refused_as_invalid(
    tmp_path, capsys, command, unreadable, category
):
    # a directory, or a file that is not UTF-8, is bad input: exit 1 with
    # its category, not an I/O failure or a traceback
    path = tmp_path / "input"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes("# r\xe9seau\n0\n1\n".encode("latin-1"))
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == EXIT_INVALID
    assert err.startswith(f"subdiff: error: {category}: ") and str(path) in err
    assert out == ""


def test_reproduce_tables_headers_keep_every_digit_of_alpha(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("meshes = uniform\nstep_counts = 4, 8\nspace = d1:16\n")
    code, stdout, _ = run_cli(
        capsys, "reproduce-tables", "--config", str(config),
        "--alpha", "0.1234567", "--alpha", "0.1234568",
    )
    assert code == EXIT_OK
    headers = [line.split("  (")[0] for line in stdout.splitlines() if line.startswith("alpha = ")]
    assert headers == ["alpha = 0.1234567", "alpha = 0.1234568"]


def test_the_shared_parser_resets_the_log_level(capsys):
    certify = ("mesh-certify", "--mesh", "uniform", "--K", "4")
    assert run_cli(capsys, "-vv", *certify)[0] == EXIT_OK
    assert logging.getLogger("subdiff").level == logging.DEBUG
    assert run_cli(capsys, *certify)[0] == EXIT_OK
    assert logging.getLogger("subdiff").level == logging.WARNING


def test_the_shared_parser_does_not_add_up_repeated_flags(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("meshes = uniform\nstep_counts = 4, 8\nspace = d1:16\n")
    for alpha in ("0.3", "0.7"):
        code, stdout, _ = run_cli(
            capsys, "reproduce-tables", "--config", str(config), "--alpha", alpha
        )
        assert code == EXIT_OK
        assert [line for line in stdout.splitlines() if line.startswith("alpha = ")] == [
            f"alpha = {alpha}  (space d1:16, backend closed)"
        ]


def test_an_invalid_call_leaves_the_shared_parser_usable(capsys):
    assert run_cli(capsys, "mesh-certify", "--mesh", "uniform", "--K", "4", "--frobnicate")[0] == (
        EXIT_INVALID
    )
    assert run_cli(capsys, "mesh-certify", "--mesh", "uniform", "--K", "4")[0] == EXIT_OK


def test_the_parser_is_built_on_first_dispatch_and_then_kept():
    # import time is paid by every command, so the import builds no parser;
    # build_parser itself still returns a fresh one on every call
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import subdiff.cli as cli; "
        "before = cli._shared_parser.cache_info().currsize; "
        "cli.dispatch(['mesh-certify', '--mesh', 'uniform', '--K', '4']); "
        "cli.dispatch(['mesh-certify', '--mesh', 'uniform', '--K', '4']); "
        "info = cli._shared_parser.cache_info(); "
        "print(before, info.currsize, info.misses, cli.build_parser() is cli.build_parser())"
    )
    src = str(Path(subdiff.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[-4:] == ["0", "1", "1", "False"]
