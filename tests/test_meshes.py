"""Mesh construction, admissibility certification, and file round-trips."""
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from subdiff import (
    TimeMesh,
    admissibility_thresholds,
    certify_mesh,
    make_graded_mesh,
    make_graded_then_uniform,
    make_r_variable_mesh,
    make_uniform_mesh,
    pair_ratio_bound,
    read_mesh,
    write_mesh,
)
from subdiff.errors import MeshFileError, NonMonotoneMeshError, ValidationError
from subdiff.meshes import ratio_condition_margins

RHO_STAR = 0.3563409986801161
ETA = 0.4753295857871308


def mesh_from_ratios(ratios, first_step=1.0):
    """Mesh whose consecutive step ratios are exactly the given values."""
    factors = np.concatenate([[1.0], np.asarray(ratios, dtype=float)])
    steps = first_step * np.cumprod(factors)
    return TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))


def test_thresholds_frozen_values():
    rho_star, eta = admissibility_thresholds()
    assert rho_star == pytest.approx(RHO_STAR, abs=1e-13)
    assert eta == pytest.approx(ETA, abs=1e-13)
    # defining polynomial identities of the two roots
    assert rho_star * (1 + rho_star) == pytest.approx(
        1 - 3 * rho_star**2 * (1 + rho_star), abs=1e-12
    )
    assert 3 * eta**2 * (1 + eta) == pytest.approx(1.0, abs=1e-12)
    assert 0 < rho_star < eta < 1

    # the literals are the bisection's own output, bit for bit
    def lower(r):
        return r * (1.0 + r) - (1.0 - 3.0 * r * r * (1.0 + r))

    def upper(r):
        return 1.0 - 3.0 * r * r * (1.0 + r)

    assert rho_star == bisect(lower, 0.1, 0.9, xtol=1e-13)
    assert eta == bisect(upper, 0.1, 0.9, xtol=1e-13)


def test_pair_ratio_bound_closed_form():
    rho = 0.36
    expected = rho**2 * (1 + rho) / (1 - 3 * rho**2 * (1 + rho))
    assert pair_ratio_bound(rho) == pytest.approx(expected, rel=1e-15)
    assert pair_ratio_bound(rho) == pytest.approx(0.374032, rel=1e-5)


def test_pair_ratio_bound_domain():
    with pytest.raises(ValidationError):
        pair_ratio_bound(0.0)
    with pytest.raises(ValidationError):
        pair_ratio_bound(ETA + 0.01)
    with pytest.raises(ValidationError):
        pair_ratio_bound(-0.2)


def test_ratio_condition_margins_signs():
    # ratios >= 1 satisfy the reciprocal condition comfortably
    good = ratio_condition_margins(np.array([1.0, 1.2, 0.9]))
    assert np.all(good >= 0.0)
    # 0.36 followed by 0.38 violates it
    bad = ratio_condition_margins(np.array([0.36, 0.38]))
    assert bad[0] < 0.0
    with pytest.raises(ValidationError):
        ratio_condition_margins(np.array([0.5, -1.0]))
    assert ratio_condition_margins(np.array([0.7])).size == 0


def test_time_mesh_basic_accessors():
    mesh = TimeMesh([0.0, 0.1, 0.4, 1.0])
    assert mesh.num_steps == 3
    assert mesh.horizon == 1.0
    assert np.allclose(mesh.steps, [0.1, 0.3, 0.6])
    assert np.allclose(mesh.ratios, [3.0, 2.0])
    head = mesh.head(2)
    assert head.num_steps == 2
    assert np.array_equal(head.nodes, mesh.nodes[:3])
    with pytest.raises(ValidationError):
        mesh.head(0)
    with pytest.raises(ValidationError):
        mesh.head(4)


def test_time_mesh_rejects_bad_nodes():
    with pytest.raises(NonMonotoneMeshError):
        TimeMesh([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(NonMonotoneMeshError):
        TimeMesh([0.0, 0.5, 0.4, 1.0])
    with pytest.raises(NonMonotoneMeshError):
        TimeMesh([0.1, 0.5, 1.0])
    with pytest.raises(ValidationError):
        TimeMesh([0.0])
    with pytest.raises(ValidationError):
        TimeMesh([0.0, np.inf])
    mesh = TimeMesh([0.0, 1.0])
    with pytest.raises(ValueError):
        mesh.nodes[0] = 5.0


def test_uniform_and_graded_meshes_admissible():
    for mesh in (
        make_uniform_mesh(1.0, 40),
        make_graded_mesh(1.0, 40, 2.0),
        make_graded_mesh(1.0, 40, 2.0 / 0.3),
        make_graded_mesh(2.5, 64, 4.0),
    ):
        report = certify_mesh(mesh)
        assert report.satisfied
        assert report.first_violation is None
        assert np.all(report.per_step_margin > 0.0)


def test_uniform_margin_value():
    report = certify_mesh(make_uniform_mesh(1.0, 10))
    assert np.allclose(report.per_step_margin, 1.0 - RHO_STAR)


def test_r_variable_mesh_shape_and_admissibility():
    for alpha in (0.3, 0.5, 0.7):
        mesh = make_r_variable_mesh(1.0, 128, alpha)
        assert mesh.num_steps == 128
        assert mesh.horizon == 1.0
        assert certify_mesh(mesh).satisfied
        # grading relaxes: early steps much smaller than late ones
        assert mesh.steps[0] < mesh.steps[-1]


def test_graded_then_uniform_layout():
    mesh = make_graded_then_uniform(50.0, 500, 2.0, split_time=1.0, split_steps=100)
    assert mesh.num_steps == 500
    assert mesh.horizon == 50.0
    assert mesh.nodes[100] == pytest.approx(1.0)
    assert np.allclose(np.diff(mesh.nodes[100:]), 49.0 / 400.0)
    assert certify_mesh(mesh).satisfied
    with pytest.raises(ValidationError):
        make_graded_then_uniform(50.0, 500, 2.0, split_time=60.0, split_steps=100)
    with pytest.raises(ValidationError):
        make_graded_then_uniform(50.0, 500, 2.0, split_time=1.0, split_steps=500)


def test_certify_flags_small_ratio():
    # second ratio 0.2 is below the hard lower threshold
    mesh = TimeMesh([0.0, 0.5, 0.6, 0.62])
    report = certify_mesh(mesh)
    assert not report.satisfied
    assert report.first_violation == 2
    assert report.per_step_margin[0] < 0.0


def test_certify_flags_pair_violation():
    # 0.36 sits between the thresholds and caps the next ratio at ~0.374
    report = certify_mesh(mesh_from_ratios([0.36, 0.38]))
    assert not report.satisfied
    assert report.first_violation == 3


def test_certify_pair_at_bound_is_admissible():
    # a successor exactly at the cap is allowed (the cap is inclusive);
    # in particular the repeated ratio 0.36 satisfies its own cap of ~0.374
    report = certify_mesh(mesh_from_ratios([0.36, 0.36]))
    assert report.satisfied
    # a hair below the cap to absorb the node-difference rounding
    bound = pair_ratio_bound(0.36) * (1.0 - 1e-12)
    report = certify_mesh(mesh_from_ratios([0.36, bound]))
    assert report.satisfied


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ratios=st.lists(st.floats(ETA, 3.0), min_size=1, max_size=40), data=st.data())
def test_certify_invariants_on_random_ratios(ratios, data):
    # ratios in [eta, 3] are admissible; one ratio below rho_star is the
    # first violation, at its own step
    assert certify_mesh(mesh_from_ratios(ratios)).satisfied
    i = data.draw(st.integers(0, len(ratios) - 1))
    ratios[i] = data.draw(st.floats(0.01, 0.35))
    report = certify_mesh(mesh_from_ratios(ratios))
    assert not report.satisfied
    assert report.first_violation == i + 2


def test_certify_single_step_mesh():
    report = certify_mesh(TimeMesh([0.0, 1.0]))
    assert report.satisfied
    assert report.per_step_margin.size == 0
    assert certify_mesh(make_uniform_mesh(1.0, 1)).satisfied


def test_report_to_dict_round_trips():
    payload = certify_mesh(make_graded_mesh(1.0, 8, 2.0)).to_dict()
    assert payload["satisfied"] is True
    assert payload["first_violation"] is None
    assert len(payload["per_step_margin"]) == 7
    assert payload["rho_star"] == pytest.approx(RHO_STAR)


def test_mesh_builder_validation():
    with pytest.raises(ValidationError):
        make_uniform_mesh(0.0, 10)
    with pytest.raises(ValidationError):
        make_uniform_mesh(1.0, 0)
    with pytest.raises(ValidationError):
        make_graded_mesh(1.0, 10, 0.5)
    with pytest.raises(ValidationError):
        make_r_variable_mesh(1.0, 10, 1.5)
    # single-step meshes are legal everywhere
    assert make_uniform_mesh(1.0, 1).num_steps == 1
    assert make_graded_mesh(1.0, 1, 3.0).num_steps == 1
    assert make_r_variable_mesh(1.0, 1, 0.5).num_steps == 1


def test_graded_mesh_endpoints_exact():
    mesh = make_graded_mesh(0.7, 33, 2.0 / 0.7)
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == 0.7


def test_mesh_file_round_trip(tmp_path):
    mesh = make_graded_mesh(1.0, 25, 2.0 / 0.3)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path, comments={"family": "graded"})
    back = read_mesh(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    text = path.read_text()
    assert "# family: graded" in text
    assert "# num_steps: 25" in text


def test_mesh_file_round_trip_preserves_bits(tmp_path):
    rng = np.random.default_rng(11)
    meshes = [
        make_r_variable_mesh(1.0, 64, 0.7),
        make_graded_mesh(1.0, 200, 60.0),  # first node near 1e-138
        make_graded_then_uniform(50.0, 500, 2.0, split_time=1.0, split_steps=100),
        TimeMesh(np.cumsum([0.0, 1e-110, 1e-110, 1e-60, 1e-20, 0.3])),
    ] + [
        mesh_from_ratios(rng.uniform(ETA, 3.0, size=40), first_step=10.0 ** rng.uniform(-150, 2))
        for _ in range(20)
    ]
    path = tmp_path / "mesh.txt"
    for mesh in meshes:
        write_mesh(mesh, path)
        assert np.array_equal(read_mesh(path).nodes, mesh.nodes)


def test_read_mesh_errors(tmp_path):
    with pytest.raises(MeshFileError):
        read_mesh(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0\nnot-a-number\n1.0\n")
    with pytest.raises(MeshFileError) as exc:
        read_mesh(bad)
    assert "bad.txt:2" in str(exc.value)
    short = tmp_path / "short.txt"
    short.write_text("# only comments\n0.0\n")
    with pytest.raises(MeshFileError):
        read_mesh(short)


def test_read_mesh_rejects_nonmonotone(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("0.0\n0.5\n0.25\n1.0\n")
    with pytest.raises(NonMonotoneMeshError):
        read_mesh(path)


def _count_sites(tmp_path):
    """Each site that takes a count: (name in its message, call, bad value,
    good value).  The cases in the first block truncated at 8.7 and the like
    before one check served them all."""
    import subdiff

    mesh = make_graded_mesh(1.0, 8, 2.0)
    state = subdiff.solve(subdiff.manufactured_problem_1d(0.5, 16), mesh)
    spec = dict(alphas=(0.5,), families=("uniform",), step_counts=(8, 16), space="d1:16")
    report = subdiff.run_convergence(subdiff.ExperimentSpec(**{**spec, "step_counts": (4, 8)}))
    return {
        "spec-step-counts": (
            "step_counts",
            lambda v: subdiff.ExperimentSpec(**{**spec, "step_counts": (v, 16.2)}),
            8.7,
            None,
        ),
        "spec-workers": ("workers", lambda v: subdiff.ExperimentSpec(**spec, workers=v), 1.9, 2),
        "mesh-steps": ("num_steps", lambda v: make_uniform_mesh(1.0, v), 8.7, 8),
        "family-build": (
            "num_steps",
            lambda v: subdiff.parse_mesh_descriptor("uniform").build(None, None, v),
            8.7,
            8,
        ),
        "split-steps": (
            "split_steps",
            lambda v: make_graded_then_uniform(50, 2560, 2, 1, v),
            512.9,
            512,
        ),
        "head": ("num_steps", lambda v: mesh.head(v), 3.9, 3),
        "kernel-levels": ("levels", lambda v: subdiff.build_kernel_table(mesh, 0.5, n=v), 4.5, 4),
        "table-row": ("level", lambda v: subdiff.build_kernel_table(mesh, 0.5).row(v), 2.5, 2),
        "dirichlet": ("intervals", lambda v: subdiff.DirichletLine(v), 64.5, 64),
        "periodic": ("modes", lambda v: subdiff.PeriodicSquare(v), 8.5, 8),
        "state-field": ("level", lambda v: state.field(v), 3.9, 3),
        "snapshot": (
            "level",
            lambda v: subdiff.write_snapshot_csv(state, str(tmp_path / "s.csv"), level=v),
            3.9,
            3,
        ),
        "report-cell": ("num_steps", lambda v: report.cell(0.5, "uniform", v), 4.5, 4),
        "ratio-condition": ("n", lambda v: subdiff.ratio_condition_holds(mesh, v), 4.5, 4),
    }


@pytest.mark.parametrize(
    "site",
    [
        "spec-step-counts", "spec-workers", "mesh-steps", "family-build", "split-steps",
        "head", "kernel-levels", "table-row", "dirichlet", "periodic", "state-field",
        "snapshot", "report-cell", "ratio-condition",
    ],
)
def test_every_count_site_refuses_a_non_integer(site, tmp_path):
    name, call, bad, good = _count_sites(tmp_path)[site]
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got {bad}$"):
        call(bad)
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got .*{bad}"):
        call(np.float64(bad))
    if good is not None:
        call(np.int64(good))
        call(good)


def test_a_spec_keeps_numpy_counts_as_ints():
    from subdiff import ExperimentSpec

    spec = ExperimentSpec(
        alphas=(0.5,), families=("uniform",), step_counts=np.array([8, 16]), workers=np.int64(2)
    )
    assert spec.step_counts == (8, 16) and spec.workers == 2
    assert all(type(k) is int for k in (*spec.step_counts, spec.workers))


def test_check_count_takes_integers_only_and_applies_its_bounds():
    from subdiff.meshes import _check_count

    assert _check_count(np.int32(5), "k") == 5
    assert type(_check_count(np.uint8(5), "k")) is int
    for bad in (True, 5.0, "5", None, np.array([5])):
        with pytest.raises(ValidationError, match="^k must be an integer, got"):
            _check_count(bad, "k")
    assert _check_count(0, "k", 0, 3) == 0
    with pytest.raises(ValidationError, match=r"^k must be >= 1, got 0$"):
        _check_count(0, "k")
    with pytest.raises(ValidationError, match=r"^k must lie in \[0, 3\], got 4$"):
        _check_count(4, "k", 0, 3)


@functools.cache
def _small_report():
    import subdiff

    spec = subdiff.ExperimentSpec(
        alphas=(0.5,), families=("uniform",), step_counts=(4, 8), space="d1:16"
    )
    return subdiff.run_convergence(spec)


@functools.cache
def _level_two_row():
    import subdiff

    return subdiff.build_kernel_table(make_uniform_mesh(1.0, 4), 0.5).row(2)


def _soak(**kwargs):
    import subdiff

    # an admissible 8-step graded-then-uniform mesh on [0, 2]
    base = dict(horizon=2.0, num_steps=8, split_time=1.0, split_steps=4, space="d1:16")
    return subdiff.run_stability_soak(**{"order": 0.5, **base, **kwargs})


def _real_sites(tmp_path):
    """Each site that takes a real number, keyed ``callable.parameter`` as the
    public walk in ``tests/test_tooling.py`` names it: (name in its message,
    call, a value out of range, a good value).  ``tmp_path`` is read only
    when a call runs."""
    import subdiff
    from subdiff import benchmarks

    def file_family():
        write_mesh(make_uniform_mesh(1.0, 4), tmp_path / "m4.txt")
        return subdiff.MeshFamily(kind="file", path=str(tmp_path / "m4.txt"))

    spec = dict(families=("uniform",), step_counts=(8,))
    graded = subdiff.MeshFamily(kind="graded", grading_numerator=2.0)
    return {
        "pair_ratio_bound.rho": ("rho", pair_ratio_bound, 0.5, 0.36),
        "make_uniform_mesh.horizon": ("horizon", lambda v: make_uniform_mesh(v, 8), -1.0, 2.0),
        "make_graded_mesh.horizon": ("horizon", lambda v: make_graded_mesh(v, 8, 2.0), 0.0, 2.0),
        "make_graded_mesh.grading": ("grading", lambda v: make_graded_mesh(1.0, 8, v), 0.5, 2.0),
        "make_r_variable_mesh.horizon": (
            "horizon", lambda v: make_r_variable_mesh(v, 8, 0.5), -1.0, 2.0
        ),
        "make_r_variable_mesh.alpha": (
            "alpha", lambda v: make_r_variable_mesh(1.0, 8, v), 1.0, 0.5
        ),
        "make_graded_then_uniform.horizon": (
            "horizon", lambda v: make_graded_then_uniform(v, 8, 2.0, 1.0, 4), -1.0, 2.0
        ),
        "make_graded_then_uniform.grading": (
            "grading", lambda v: make_graded_then_uniform(2.0, 8, v, 1.0, 4), 0.5, 2.0
        ),
        "make_graded_then_uniform.split_time": (
            "split_time", lambda v: make_graded_then_uniform(2.0, 8, 2.0, v, 4), 2.0, 1.0
        ),
        "FractionalOrder.alpha": ("alpha", subdiff.FractionalOrder, 0.0, 0.5),
        "as_fractional_order.value": ("alpha", subdiff.as_fractional_order, 1.0, 0.5),
        "build_kernel_table.order": (
            "alpha", lambda v: subdiff.build_kernel_table(make_uniform_mesh(1.0, 4), v), 1.0, 0.5
        ),
        "apply_operator.order": (
            "alpha", lambda v: subdiff.apply_operator(_level_two_row(), np.ones(3), v), 1.0, 0.5
        ),
        "caputo_reference.order": (
            "alpha", lambda v: subdiff.caputo_reference(lambda s: 1.0, 0.5, v), 1.0, 0.5
        ),
        "caputo_reference.t": (
            "t", lambda v: subdiff.caputo_reference(lambda s: 1.0, v, 0.5), -1.0, 0.5
        ),
        "manufactured_problem.order": (
            "alpha", lambda v: subdiff.manufactured_problem(v, subdiff.DirichletLine(4)), 1.0, 0.5
        ),
        "manufactured_problem_1d.order": (
            "alpha", lambda v: subdiff.manufactured_problem_1d(v, 4), 1.0, 0.5
        ),
        "Problem.order": (
            "alpha", lambda v: subdiff.Problem(order=v, space=subdiff.DirichletLine(4)), 1.0, 0.5
        ),
        "MeshFamily.grading": (
            "grading", lambda v: subdiff.MeshFamily(kind="graded", grading=v), 0.5, 2.0
        ),
        "MeshFamily.grading_numerator": (
            "grading_numerator",
            lambda v: subdiff.MeshFamily(kind="graded", grading_numerator=v),
            0.0,
            2.0,
        ),
        "MeshFamily.grading_at.alpha": ("alpha", graded.grading_at, 1.0, 0.5),
        "MeshFamily.build.horizon": (
            "horizon", lambda v: file_family().build(None, v, None), -1.0, 1.0
        ),
        "ExperimentSpec.alphas": (
            "alpha", lambda v: subdiff.ExperimentSpec(alphas=(v,), **spec), 1.0, 0.5
        ),
        "ExperimentSpec.horizon": (
            "horizon",
            lambda v: subdiff.ExperimentSpec(alphas=(0.5,), horizon=v, **spec),
            -1.0,
            2.0,
        ),
        "ErrorReport.cell.alpha": (
            "alpha", lambda v: _small_report().cell(v, "uniform", 4), 1.5, 0.5
        ),
        "ErrorReport.observed_orders.alpha": (
            "alpha", lambda v: _small_report().observed_orders(v, "uniform"), 0.0, 0.5
        ),
        "run_pointwise_comparison.order": (
            "alpha",
            lambda v: subdiff.run_pointwise_comparison(v, ("uniform",), 4, space="d1:16"),
            1.0,
            0.5,
        ),
        "run_pointwise_comparison.horizon": (
            "horizon",
            lambda v: subdiff.run_pointwise_comparison(
                0.5, ("uniform",), 4, space="d1:16", horizon=v
            ),
            -1.0,
            2.0,
        ),
        "run_stability_soak.order": ("alpha", lambda v: _soak(order=v), 1.0, 0.5),
        "run_stability_soak.horizon": ("horizon", lambda v: _soak(horizon=v), -1.0, 2.0),
        "run_stability_soak.grading": ("grading", lambda v: _soak(grading=v), 0.5, 2.0),
        "run_stability_soak.split_time": ("split_time", lambda v: _soak(split_time=v), 2.0, 1.0),
        "benchmarks.reference_errors.alpha": (
            "alpha", lambda v: benchmarks.reference_errors(v, "r=1"), 1.0, 0.5
        ),
        "benchmarks.reference_orders.alpha": (
            "alpha", lambda v: benchmarks.reference_orders(v, "r=1"), 0.0, 0.5
        ),
        "benchmarks.tolerance_ladder.reference_value": (
            "reference_value", benchmarks.tolerance_ladder, 0.0, 1e-3
        ),
        "benchmarks.theoretical_order.alpha": (
            "alpha", lambda v: benchmarks.theoretical_order(v, 2.0), 1.0, 0.5
        ),
        "benchmarks.theoretical_order.grading": (
            "grading", lambda v: benchmarks.theoretical_order(0.5, v), 0.5, 2.0
        ),
    }


REAL_SITES = list(_real_sites(tmp_path=None))
# what no real-number input may be: the cases each leaked a plain ValueError,
# TypeError or OverflowError, or was taken, at some site before one check
# served them all
NOT_FINITE_REALS = [True, "1", None, 1j, math.nan, math.inf, -math.inf, 10**400]
# where None stands for a parameter not given
NONE_MEANS_ABSENT = {"MeshFamily.grading", "MeshFamily.grading_numerator", "MeshFamily.build.horizon"}


@pytest.mark.parametrize("site", REAL_SITES)
def test_every_real_site_refuses_a_value_that_is_not_a_finite_real_in_range(site, tmp_path):
    name, call, out_of_range, good = _real_sites(tmp_path)[site]
    for bad in (*NOT_FINITE_REALS, out_of_range):
        if bad is None and site in NONE_MEANS_ABSENT:
            continue
        with pytest.raises(ValidationError, match=rf"^{name} must "):
            call(bad)
    for value in (good, np.float64(good), np.float32(good)):
        call(value)


def _array_sites():
    """Each site that takes an array of reals, keyed as :func:`_real_sites`:
    (name in its message, call that puts one entry into an otherwise good
    array, a good entry)."""
    import subdiff

    def problem(**fields):
        return subdiff.Problem(order=0.5, space=subdiff.DirichletLine(4), **fields)

    return {
        "TimeMesh.nodes": ("nodes", lambda x: TimeMesh([0.0, x, 2.0]), 1.0),
        "ratio_condition_margins.ratios": (
            "ratios", lambda x: ratio_condition_margins([1.0, x]), 0.5
        ),
        "build_complementary_kernel.source": (
            "history matrix",
            lambda x: subdiff.build_complementary_kernel([[2.0, 0.0], [x, 2.0]]),
            1.0,
        ),
        "compute_orders.errors": ("errors", lambda x: subdiff.compute_orders([1.0, x], [8, 16]), 0.5),
        "compute_orders.step_counts": (
            "step_counts", lambda x: subdiff.compute_orders([1.0, 0.5], [8, x]), 16
        ),
        "apply_operator.history": (
            "history", lambda x: subdiff.apply_operator(_level_two_row(), [0.0, x, 1.0], 0.5), 0.5
        ),
        "Problem.initial": ("initial field", lambda x: problem(initial=[0.0, x, 0.0]), 1.0),
        "Problem.source": (
            "source term 0: profile",
            lambda x: problem(source=[(lambda t: 1.0, [0.0, x, 0.0])]),
            1.0,
        ),
        "Problem.exact": (
            "exact term 0: profile",
            lambda x: problem(exact=[(lambda t: 1.0, [0.0, x, 0.0])]),
            1.0,
        ),
    }


ARRAY_SITES = list(_array_sites())


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_every_array_site_refuses_an_entry_that_is_not_a_finite_real(site):
    # [0, "1"] and [0, True] were taken as [0, 1], and ["0", "a"] or
    # [0, 1j] leaked a plain ValueError or TypeError; a list inside the
    # array makes it ragged
    name, call, good = _array_sites()[site]
    for bad in (*NOT_FINITE_REALS, np.True_, [1.0, 2.0]):
        with pytest.raises(ValidationError, match=rf"^{name} (must be an array of|has non-finite)"):
            call(bad)
    for value in (good, np.float64(good), np.float32(good)):
        call(value)


def test_check_reals_refuses_a_non_numeric_dtype():
    from subdiff.meshes import _check_reals

    for bad in (
        np.array([True, False]), np.array(["1.0"]), np.array([1j]), [0.0, None], [0.0, True],
        [np.array([0.0, 1.0]), np.array([False, True])],
    ):
        with pytest.raises(ValidationError, match="^v must be an array of real numbers, got "):
            _check_reals(bad, "v")
    assert _check_reals(np.arange(3, dtype=np.int32), "v").dtype == np.float64


def test_check_real_takes_reals_only_and_applies_its_bounds():
    from fractions import Fraction

    from subdiff.meshes import _check_real

    assert _check_real(Fraction(1, 2), "x", 0, 1) == 0.5
    assert type(_check_real(np.float32(0.5), "x")) is float
    assert _check_real(1, "x", 1, closed=True) == 1.0
    refusals = [
        (lambda: _check_real(np.array(0.5), "x"), "must be a real number, got array(0.5)"),
        (lambda: _check_real(-(10**400), "x"), "must be finite, got -inf"),
        (lambda: _check_real(1, "x", 1), "must lie in (1, inf), got 1.0"),
        (lambda: _check_real(0.5, "x", 1, closed=True), "must lie in [1, inf), got 0.5"),
        (lambda: _check_real(2.0, "x", 0, 2.0), "must lie in (0, 2.0), got 2.0"),
        (lambda: _check_real(-1.0, "x", 0, 2.0, closed=True), "must lie in [0, 2.0), got -1.0"),
    ]
    for call, message in refusals:
        with pytest.raises(ValidationError, match=f"^x {re.escape(message)}$"):
            call()


_NOT_A_FINITE_REAL_ENTRY = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.complex_numbers(),
    st.decimals(),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float32("nan"), np.float64("-inf")]),
    st.integers(min_value=2**1024),
    st.integers(max_value=-(2**1024)),
    st.lists(st.floats(), max_size=3),
    st.booleans(),
)
# a 0-d array is refused as a scalar; inside an array numpy takes it as a
# number
_NOT_A_FINITE_REAL = st.one_of(_NOT_A_FINITE_REAL_ENTRY, st.builds(np.array, st.floats()))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_value_that_is_not_a_finite_real_escapes_the_package_errors(data, tmp_path_factory):
    from subdiff.errors import SubdiffError

    site = data.draw(st.sampled_from(REAL_SITES + ARRAY_SITES), label="site")
    if site in REAL_SITES:
        _, call, _, _ = _real_sites(tmp_path_factory.getbasetemp())[site]
        value = data.draw(_NOT_A_FINITE_REAL, label="value")
        assume(not (value is None and site in NONE_MEANS_ABSENT))
    else:
        _, call, _ = _array_sites()[site]
        value = data.draw(_NOT_A_FINITE_REAL_ENTRY, label="entry")
    with pytest.raises(SubdiffError):
        call(value)
