"""Experiment descriptions, convergence/pointwise/soak drivers, observed
orders, and byte-level determinism of the emitted files."""
import json
import math

import numpy as np
import pytest

from subdiff import (
    ExperimentSpec,
    benchmarks,
    MeshFamily,
    TimeMesh,
    benchmark_families,
    compute_orders,
    make_graded_mesh,
    make_uniform_mesh,
    parse_config_file,
    parse_mesh_descriptor,
    reproduce_tables,
    run_convergence,
    run_pointwise_comparison,
    run_stability_soak,
    write_mesh,
)
from subdiff.benchmarks import FAMILY_LABELS
from subdiff import harness
from subdiff.errors import LinearSolveError, ValidationError
from subdiff.harness import WORKERS_ENV_VAR, _resolve_workers


def small_spec(out_dir=None, workers=None):
    return ExperimentSpec(
        alphas=(0.5,),
        families=("graded:r=2", "uniform"),
        step_counts=(8, 16),
        space="d1:64",
        backend="closed",
        workers=workers,
        out_dir=None if out_dir is None else str(out_dir),
    )


def test_mesh_family_labels_and_building():
    family = MeshFamily(kind="graded", grading=2.0)
    assert family.label == "r=2"
    assert family.grading_at(0.5) == 2.0
    family = MeshFamily(kind="graded", grading_numerator=2.0)
    assert family.label == "r=2/alpha"
    assert family.grading_at(0.5) == 4.0
    assert MeshFamily(kind="uniform").label == "uniform"
    assert MeshFamily(kind="rvariable").label == "rvariable"
    mesh = family.build(alpha=0.5, horizon=1.0, num_steps=10)
    assert mesh.num_steps == 10
    assert mesh.nodes[1] == pytest.approx(0.1**4)


def test_mesh_family_validation():
    with pytest.raises(ValidationError):
        MeshFamily(kind="mystery")
    with pytest.raises(ValidationError):
        MeshFamily(kind="graded")
    with pytest.raises(ValidationError):
        MeshFamily(kind="graded", grading=2.0, grading_numerator=2.0)
    with pytest.raises(ValidationError):
        MeshFamily(kind="uniform", grading=2.0)
    with pytest.raises(ValidationError):
        MeshFamily(kind="file")
    with pytest.raises(ValidationError):
        MeshFamily(kind="uniform").grading_at(0.5)


def test_file_family_round_trip(tmp_path):
    mesh = make_graded_mesh(1.0, 12, 3.0)
    path = tmp_path / "stored.txt"
    write_mesh(mesh, path)
    family = MeshFamily(kind="file", path=str(path))
    assert family.label == f"file:{path}"
    back = family.build(alpha=0.7, horizon=1.0, num_steps=12)
    assert np.array_equal(back.nodes, mesh.nodes)
    with pytest.raises(ValidationError):
        family.build(alpha=0.7, horizon=1.0, num_steps=24)
    with pytest.raises(ValidationError):
        family.build(alpha=0.7, horizon=2.0, num_steps=12)


def test_parse_mesh_descriptor():
    assert parse_mesh_descriptor("uniform").kind == "uniform"
    assert parse_mesh_descriptor("rvariable").kind == "rvariable"
    assert parse_mesh_descriptor("r-variable").kind == "rvariable"
    family = parse_mesh_descriptor("graded:r=2.5")
    assert family.grading == 2.5
    family = parse_mesh_descriptor("graded:r=3/alpha")
    assert family.grading_numerator == 3.0
    family = parse_mesh_descriptor("file:/tmp/mesh.txt")
    assert family.kind == "file" and family.path == "/tmp/mesh.txt"
    for bad in (
        "", "graded", "graded:r=", "graded:2", "strange:1",
        # a fixed grading below 1 or infinite builds no mesh
        "graded:r=0.5", "graded:r=inf",
    ):
        with pytest.raises(ValidationError):
            parse_mesh_descriptor(bad)


def test_benchmark_families_match_reference_labels():
    assert tuple(f.label for f in benchmark_families()) == FAMILY_LABELS


def test_experiment_spec_validation():
    spec = small_spec()
    assert spec.alphas == (0.5,)
    assert tuple(f.label for f in spec.families) == ("r=2", "uniform")
    with pytest.raises(ValidationError):
        ExperimentSpec(alphas=(), families=("uniform",), step_counts=(8,))
    with pytest.raises(ValidationError):
        ExperimentSpec(alphas=(1.5,), families=("uniform",), step_counts=(8,))
    with pytest.raises(ValidationError):
        ExperimentSpec(alphas=(0.5,), families=("uniform",), step_counts=(16, 8))
    with pytest.raises(ValidationError):
        ExperimentSpec(alphas=(0.5,), families=("uniform", "uniform"), step_counts=(8,))
    with pytest.raises(ValidationError):
        ExperimentSpec(alphas=(0.5,), families=("uniform",), step_counts=(8,), backend="odd")
    with pytest.raises(ValidationError):
        ExperimentSpec(alphas=(0.5,), families=("uniform",), step_counts=(8,), space="d1:bad")
    with pytest.raises(ValidationError, match="^horizon must be finite, got inf$"):
        ExperimentSpec(alphas=(0.5,), families=("uniform",), step_counts=(8,), horizon=math.inf)


def test_experiment_spec_refuses_duplicate_alphas():
    with pytest.raises(ValidationError, match="duplicate alphas"):
        ExperimentSpec(alphas=(0.5, 0.3, 0.5), families=("uniform",), step_counts=(8,))


def test_alphas_keep_every_digit_in_file_names_and_order_keys(tmp_path):
    # alphas that agree to six significant digits are still two tables
    alphas = (0.1234567, 0.1234568)
    spec = ExperimentSpec(
        alphas=alphas, families=("uniform",), step_counts=(4, 8), space="d1:16",
        out_dir=str(tmp_path),
    )
    run_convergence(spec)
    assert sorted(p.name for p in tmp_path.glob("convergence_alpha*.csv")) == [
        "convergence_alpha0p1234567.csv",
        "convergence_alpha0p1234568.csv",
    ]
    payload = json.loads((tmp_path / "convergence_summary.json").read_text())
    assert sorted(payload["orders"]) == ["alpha=0.1234567|uniform", "alpha=0.1234568|uniform"]


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n"
        "alphas = 0.5\n"
        "meshes = uniform, graded:r=2  # trailing comment\n"
        "\n"
        "step_counts = 8, 16\n"
    )
    mapping = parse_config_file(path)
    assert mapping["alphas"] == "0.5"
    assert mapping["meshes"] == "uniform, graded:r=2"
    bad = tmp_path / "bad.cfg"
    bad.write_text("alphas 0.5\n")
    with pytest.raises(ValidationError) as exc:
        parse_config_file(bad)
    assert "bad.cfg:1" in str(exc.value)
    with pytest.raises(ValidationError):
        parse_config_file(tmp_path / "missing.cfg")


def test_parse_config_file_refuses_a_repeated_key(tmp_path):
    # keys are case-insensitive, so Alphas and alphas are the same key; the
    # refusal names the file and both lines rather than keeping the last
    path = tmp_path / "twice.cfg"
    for text, first, second in [
        ("alphas = 0.3\nalphas = 0.5\n", 1, 2),
        ("# experiment\nAlphas = 0.3\nstep_counts = 8\n\nalphas = 0.5\n", 2, 5),
    ]:
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            parse_config_file(path)
        message = str(exc.value)
        assert f"twice.cfg:{second}: duplicate key 'alphas'" in message
        assert f"(line {first})" in message


def test_compute_orders_known_cases():
    assert compute_orders([4.0, 1.0], [10, 20]) == pytest.approx([2.0])
    assert compute_orders([1.0, 1.0, 1.0], [10, 20, 40]) == pytest.approx([0.0, 0.0])
    # halving the error from K=480 to K=640 reads as order ~2.41; a
    # published-table pair: 2.3437e-3 -> 1.5672e-3 gives 1.3989
    got = compute_orders([2.3437e-3, 1.5672e-3], [480, 640])
    assert got[0] == pytest.approx(1.3989, abs=2e-4)


def test_compute_orders_validation():
    with pytest.raises(ValidationError):
        compute_orders([1.0], [10])
    with pytest.raises(ValidationError):
        compute_orders([1.0, 0.0], [10, 20])
    with pytest.raises(ValidationError):
        compute_orders([1.0, 0.5], [20, 10])
    with pytest.raises(ValidationError):
        compute_orders([1.0, 0.5, 0.25], [10, 20])


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert _resolve_workers(None) == 1
    assert _resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    assert _resolve_workers(None) == 4
    monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
    with pytest.raises(ValidationError):
        _resolve_workers(None)
    monkeypatch.setenv(WORKERS_ENV_VAR, "0")
    with pytest.raises(ValidationError, match=rf"^{WORKERS_ENV_VAR} must be >= 1, got 0$"):
        _resolve_workers(None)


def test_run_convergence_report_structure(tmp_path):
    report = run_convergence(small_spec(out_dir=tmp_path))
    assert len(report.cells) == 4
    errors = report.max_errors(0.5, "r=2")
    assert errors.shape == (2,)
    assert np.all(errors > 0.0)
    assert errors[1] < errors[0]
    orders = report.observed_orders(0.5, "r=2")
    assert orders.shape == (1,)
    assert 0.5 < orders[0] < 2.5
    cell = report.cell(0.5, "uniform", 16)
    assert cell.num_steps == 16
    assert cell.residual_max <= 1e-10
    with pytest.raises(ValidationError):
        report.cell(0.5, "r=2", 999)
    with pytest.raises(ValidationError):
        report.observed_orders(0.3, "r=2")

    csv_path = tmp_path / "convergence_alpha0p5.csv"
    json_path = tmp_path / "convergence_summary.json"
    assert csv_path.exists() and json_path.exists()
    payload = json.loads(json_path.read_text())
    assert payload["kind"] == "convergence"
    assert payload["passed"] is True
    assert len(payload["cells"]) == 4
    assert "alpha=0.5|r=2" in payload["orders"]
    # wall-clock timings must never reach the persisted outputs
    assert "wall" not in json_path.read_text()
    assert "wall" not in csv_path.read_text()



def test_report_orders_and_verdict_derive_from_cells_and_verdicts():
    report = run_convergence(small_spec())
    for family in ("r=2", "uniform"):
        assert np.array_equal(
            report.orders[(0.5, family)],
            compute_orders(report.max_errors(0.5, family), (8, 16)),
        )
    assert report.passed
    cell = report.cells[0]
    verdict = harness.Verdict(
        alpha=cell.alpha, family_label=cell.family_label, num_steps=cell.num_steps,
        value=cell.max_l2_error, reference=1.0, rel_dev=0.5, rel_tol=0.01, passed=False,
    )
    failed = harness.ErrorReport(spec=report.spec, cells=report.cells, verdicts=(verdict,))
    assert not failed.passed
    payload = failed.to_dict()
    assert payload["passed"] is False
    assert payload["orders"] == report.to_dict()["orders"]
    # each record is written under its own field names, family_label as family
    # and without a cell's per-level error curve
    assert sorted(payload["cells"][0]) == [
        "alpha", "argmax_level", "family", "max_l2_error", "num_steps", "residual_max",
    ]
    assert payload["verdicts"] == [{
        "alpha": cell.alpha, "family": cell.family_label, "num_steps": cell.num_steps,
        "value": cell.max_l2_error, "reference": 1.0, "rel_dev": 0.5, "rel_tol": 0.01,
        "passed": False,
    }]


def test_alphas_closer_than_any_tolerance_each_read_their_own_cells(tmp_path):
    # the spec keeps every digit of an alpha, so the report, the per-alpha
    # CSV and the JSON must all key a cell by the exact alpha
    close = 0.5000000000001
    spec = ExperimentSpec(
        alphas=(0.5, close),
        families=("uniform",),
        step_counts=(4, 8),
        space="d1:16",
        out_dir=str(tmp_path),
    )
    report = run_convergence(spec)
    by_alpha = {}
    for cell in report.cells:
        by_alpha.setdefault(cell.alpha, []).append(cell.max_l2_error)
    assert sorted(by_alpha) == [0.5, close]
    assert by_alpha[0.5] != by_alpha[close]  # the two orders give different errors
    for alpha in (0.5, close):
        assert report.cell(alpha, "uniform", 4).alpha == alpha
        assert list(report.max_errors(alpha, "uniform")) == by_alpha[alpha]
        assert report.observed_orders(alpha, "uniform") is report.orders[(alpha, "uniform")]
        rows = [
            line.split(",")
            for line in (tmp_path / f"convergence_alpha{repr(alpha).replace('.', 'p')}.csv")
            .read_text()
            .splitlines()
            if line.startswith("uniform,error,")
        ]
        assert [float(v) for v in rows[0][2:]] == by_alpha[alpha]
    with pytest.raises(ValidationError):
        report.cell(0.5 + 1e-15, "uniform", 4)

def test_convergence_outputs_are_deterministic(tmp_path, monkeypatch):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_convergence(small_spec(out_dir=dir_a))
    run_convergence(small_spec(out_dir=dir_b, workers=2))
    for name in ("convergence_alpha0p5.csv", "convergence_summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    # the pointwise curves run on the same worker pool, sized by the env var
    for workers, out_dir in (("1", dir_a), ("2", dir_b)):
        monkeypatch.setenv(WORKERS_ENV_VAR, workers)
        run_pointwise_comparison(
            0.6, ("graded:r=2", "rvariable", "uniform"), 24, space="d1:64", out_dir=out_dir
        )
    names = sorted(p.name for p in dir_a.glob("pointwise_*.csv"))
    assert len(names) == 3
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_failed_experiment_flushes_finished_cells(tmp_path, monkeypatch):
    # the alpha 0.5 cell marches and the alpha 0.7 one fails: the finished
    # cell goes to partial_cells.csv, then the error propagates
    mesh_path = tmp_path / "m8.txt"
    write_mesh(make_graded_mesh(1.0, 8, 2.0), mesh_path)
    out_dir = tmp_path / "out"
    spec = ExperimentSpec(
        alphas=(0.5, 0.7),
        families=(f"file:{mesh_path}",),
        step_counts=(8,),
        space="d1:32",
        backend="closed",
        out_dir=str(out_dir),
    )

    def solve(problem, mesh, backend):
        if problem.order.alpha == 0.7:
            raise LinearSolveError("level 3: non-finite solution")
        return real_solve(problem, mesh, backend=backend)

    real_solve = harness.solve
    monkeypatch.setattr(harness, "solve", solve)
    with pytest.raises(LinearSolveError, match="level 3"):
        run_convergence(spec)
    lines = (out_dir / "partial_cells.csv").read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert header[0] == "# subdiff 0.1.0 partial-convergence-cells"
    assert header[-1] == "# incomplete = LinearSolveError"
    assert data[0] == "alpha,family,num_steps,max_l2_error,argmax_level"
    assert len(data) == 2
    alpha, family, num_steps, error, argmax = data[1].split(",")
    assert (alpha, family, num_steps) == ("0.5", f"file:{mesh_path}", "8")
    assert 0.0 < float(error) < 1.0 and 1 <= int(argmax) <= 8
    assert not (out_dir / "convergence_summary.json").exists()


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        ("graded:r=0.2/alpha", r"^grading must lie in \[1, inf\), got 0\.4$"),
        ("file", "has 4 steps, not the 8 asked for"),
    ],
    ids=["graded", "file"],
)
def test_a_family_that_cannot_build_a_mesh_fails_before_any_cell_marches(
    tmp_path, monkeypatch, bad, message
):
    # graded:r=0.2/alpha passes the family check, but at alpha 0.5 its grading
    # 0.4 is one no mesh builder takes; a stored 4-step mesh serves K=4 and is
    # refused at K=8
    mesh_path = tmp_path / "m4.txt"
    write_mesh(make_uniform_mesh(1.0, 4), mesh_path)
    family = f"file:{mesh_path}" if bad == "file" else bad
    out_dir = tmp_path / "out"
    spec = ExperimentSpec(
        alphas=(0.5,),
        families=("uniform", family),
        step_counts=(4, 8),
        space="d1:16",
        backend="closed",
        out_dir=str(out_dir),
    )
    marched = []

    def solve(problem, mesh, backend):
        marched.append(mesh.num_steps)
        return real_solve(problem, mesh, backend=backend)

    real_solve = harness.solve
    monkeypatch.setattr(harness, "solve", solve)
    with pytest.raises(ValidationError, match=message):
        run_convergence(spec)
    assert marched == []
    assert not (out_dir / "partial_cells.csv").exists()
    with pytest.raises(ValidationError, match=message):
        run_pointwise_comparison(0.5, families=("uniform", family), num_steps=8, space="d1:16")
    assert marched == []


@pytest.mark.parametrize("extended", [False, True], ids=["ci", "extended"])
def test_paper_exact_tables_refuse_an_alpha_without_reference_data_before_any_march(
    monkeypatch, extended
):
    # the verdicts need a reference for every cell; at alpha 0.4 there is
    # none, and all 12 (or 24) cells used to march before that was found
    marched = []

    def solve(problem, mesh, backend):
        marched.append(mesh.num_steps)
        raise AssertionError("a cell marched")

    monkeypatch.setattr(harness, "solve", solve)
    with pytest.raises(ValidationError, match=r"^no reference data for order 0\.4$"):
        reproduce_tables(alphas=(0.4,), extended=extended, paper_exact=True, workers=1)
    assert marched == []


def test_alpha_table_layout(tmp_path):
    run_convergence(small_spec(out_dir=tmp_path))
    lines = (tmp_path / "convergence_alpha0p5.csv").read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert any(line.startswith("# subdiff 0.1.0") for line in header)
    assert data[0] == "family,metric,K=8,K=16"
    # per family: one error row and one order row (blank first slot)
    assert data[1].startswith("r=2,error,")
    assert data[2].startswith("r=2,order,,")
    assert data[3].startswith("uniform,error,")


def test_run_pointwise_comparison(tmp_path):
    curves = run_pointwise_comparison(
        0.7,
        families=("graded:r=2/alpha", "rvariable"),
        num_steps=80,
        space="d1:512",
        out_dir=tmp_path,
    )
    assert [c.family_label for c in curves] == ["r=2/alpha", "rvariable"]
    for curve in curves:
        assert curve.times.shape == (80,)
        assert curve.steps.shape == (80,)
        assert curve.l2_error.shape == (80,)
        assert curve.max_l2_error == pytest.approx(np.max(curve.l2_error))
    files = sorted(p.name for p in tmp_path.glob("pointwise_*.csv"))
    assert files == [
        "pointwise_alpha0p7_K80_r2-alpha.csv",
        "pointwise_alpha0p7_K80_rvariable.csv",
    ]
    data = [
        line
        for line in (tmp_path / files[1]).read_text().splitlines()
        if not line.startswith("#")
    ]
    assert data[0] == "level,t,step,l2_error"
    assert len(data) == 1 + 80
    with pytest.raises(ValidationError):
        run_pointwise_comparison(0.7, families=(), num_steps=8)
    with pytest.raises(ValidationError, match="duplicate mesh families"):
        run_pointwise_comparison(0.7, families=("uniform", "uniform"), num_steps=8)
    with pytest.raises(ValidationError, match="step_counts"):
        run_pointwise_comparison(0.7, families=("uniform",), num_steps=0)


def test_paper_exact_table_header_carries_the_tolerance_ladder(tmp_path):
    report = reproduce_tables(alphas=[0.5], paper_exact=True, out_dir=tmp_path)
    assert len(report.verdicts) == 12 and report.passed
    lines = (tmp_path / "table_alpha0p5.csv").read_text().splitlines()
    ladder = [line for line in lines if line.startswith("# tolerance:")]
    assert ladder == [
        "# tolerance:cells_at_or_above_1e-05 = 0.01",
        "# tolerance:cells_below_1e-05 = 0.05",
    ]
    # the header states the rule the verdicts applied
    assert benchmarks.tolerance_ladder(1e-5) == 0.01
    assert benchmarks.tolerance_ladder(9.99e-6) == 0.05
    for verdict in report.verdicts:
        assert verdict.rel_tol == (0.01 if verdict.reference >= 1e-5 else 0.05)


def test_soak_quick_pass(tmp_path):
    report = run_stability_soak(
        0.5,
        horizon=50.0,
        num_steps=120,
        split_time=1.0,
        split_steps=24,
        space="d1:64",
        out_dir=tmp_path,
    )
    assert report.passed and report.plateau_ok
    assert report.mesh_admissible
    assert report.growth_ratio <= report.plateau_factor
    assert report.residual_max <= 1e-10
    traj = tmp_path / "soak_trajectory.csv"
    summary = tmp_path / "soak_summary.json"
    assert traj.exists() and summary.exists()
    payload = json.loads(summary.read_text())
    assert payload["plateau_ok"] is True
    data = [line for line in traj.read_text().splitlines() if not line.startswith("#")]
    assert data[0] == "level,t,l2_norm,h1_seminorm"
    assert len(data) == 1 + 121


def test_soak_plateau_bound_is_fixed(tmp_path):
    # the bound is the module constant: reported in the summary and the CSV
    # header, and not a parameter
    with pytest.raises(TypeError, match="plateau_factor"):
        run_stability_soak(0.5, plateau_factor=1.01)
    report = run_stability_soak(
        0.5, horizon=5.0, num_steps=40, split_steps=10, space="d1:16", out_dir=tmp_path
    )
    assert report.plateau_factor == harness._PLATEAU_FACTOR == 1.01
    assert report.plateau_ok == (report.max_second_window <= 1.01 * report.max_first_window)
    assert json.loads((tmp_path / "soak_summary.json").read_text())["plateau_factor"] == 1.01
    header = (tmp_path / "soak_trajectory.csv").read_text().splitlines()
    assert "# tolerance:plateau_factor = 1.01" in header


def test_soak_zero_source_decays():
    report = run_stability_soak(
        0.5,
        horizon=5.0,
        num_steps=60,
        split_time=1.0,
        split_steps=30,
        space="d1:64",
        zero_source=True,
    )
    assert report.zero_source
    assert report.h1_nonincreasing and report.l2_nonincreasing
    assert report.passed


def test_soak_warns_on_inadmissible_mesh():
    steps = np.concatenate([[1.0], np.cumprod(np.full(19, 0.2))])
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    with pytest.warns(RuntimeWarning):
        report = run_stability_soak(0.5, space="d1:32", mesh=mesh)
    assert not report.mesh_admissible
    assert report.first_violation == 2


def test_soak_respects_given_mesh():
    mesh = make_graded_mesh(2.0, 40, 2.0)
    report = run_stability_soak(0.5, space="d1:32", mesh=mesh)
    assert report.num_steps == 40
    assert report.horizon == 2.0
