"""Structural properties of the coefficient tables, eigenvalue positivity,
and the complementary (resolvent) kernel."""
import numpy as np
import pytest

from subdiff import (
    TimeMesh,
    admissibility_thresholds,
    build_complementary_kernel,
    build_kernel_table,
    check_properties_P,
    check_properties_Q,
    check_psd,
    make_graded_mesh,
    make_r_variable_mesh,
    make_uniform_mesh,
    positivity_certificate,
)
from subdiff.analysis import ratio_condition_holds
from subdiff.errors import SingularDiagonalError, ValidationError


def mesh_from_ratios(ratios, first_step=1.0):
    factors = np.concatenate([[1.0], np.asarray(ratios, dtype=float)])
    steps = first_step * np.cumprod(factors)
    return TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("grading", [1.0, 4.0])
def test_properties_all_hold_closed(alpha, grading):
    mesh = make_graded_mesh(1.0, 48, grading)
    table = build_kernel_table(mesh, alpha, backend="closed")
    assert check_properties_P(table) == []
    assert check_properties_Q(table) == []


def test_properties_all_hold_quadrature():
    mesh = make_graded_mesh(1.0, 16, 2.0 / 0.5)
    table = build_kernel_table(mesh, 0.5, backend="quadrature")
    assert check_properties_P(table) == []
    assert check_properties_Q(table) == []


def test_properties_on_r_variable_mesh():
    mesh = make_r_variable_mesh(1.0, 48, 0.7)
    table = build_kernel_table(mesh, 0.7, backend="closed")
    assert check_properties_P(table) == []
    assert check_properties_Q(table) == []


def test_ratio_condition_gate():
    assert ratio_condition_holds(make_graded_mesh(1.0, 20, 3.0))
    # 0.36 then 0.38 breaks the reciprocal pair condition, so the two
    # monotonicity checks that rest on it are skipped rather than reported
    mesh = mesh_from_ratios([0.36, 0.38])
    assert not ratio_condition_holds(mesh)
    violations = check_properties_P(build_kernel_table(mesh, 0.5, backend="closed"))
    assert [v for v in violations if v.check in ("P9", "P10")] == []


def test_sign_properties_hold_even_on_inadmissible_meshes():
    # admissibility protects positivity of the operator, but P1-P8 are
    # unconditional; a clearly inadmissible mesh must still satisfy them
    mesh = mesh_from_ratios([0.2, 3.0, 0.1, 2.5, 0.3])
    violations = check_properties_P(build_kernel_table(mesh, 0.5, backend="closed"))
    assert [v for v in violations if v.check.startswith("P")] == []


def test_q2_diagonal_bound_uniform_value():
    # on a unit-step uniform mesh the diagonal increment bound is
    # alpha / (2*(1-alpha)*sigma^alpha); check it holds with the known value
    alpha, sigma = 0.5, 0.75
    mesh = make_uniform_mesh(8.0, 8)
    table = build_kernel_table(mesh, alpha, backend="closed")
    m = table.matrix()
    rhs = alpha / (2.0 * (1.0 - alpha) * sigma**alpha)
    assert rhs == pytest.approx(0.5 * 1.1547005383792515, rel=1e-12)
    for k in range(2, 9):
        assert m[k - 1, k - 1] - m[k - 1, k - 2] >= rhs - 1e-13


def test_history_row_diagonal_floor():
    # every diagonal entry contains the current-interval term
    # sigma^(1-alpha) / ((1-alpha)*tau_k^alpha) plus a positive coefficient
    mesh = make_graded_mesh(1.0, 12, 2.0)
    alpha, sigma = 0.3, 0.85
    table = build_kernel_table(mesh, alpha, backend="closed")
    tau = mesh.steps
    for row in table:
        floor = sigma ** (1 - alpha) / ((1 - alpha) * tau[row.k - 1] ** alpha)
        assert row.m_row[-1] >= floor - 1e-13 * floor


def test_violation_records_are_informative():
    # force a violation by feeding Q a tampered dense matrix through the
    # public path: shrink one ratio far below the hard threshold and check
    # that any reported violation carries plausible indices
    mesh = mesh_from_ratios([0.05, 0.05, 0.05])
    violations = check_properties_Q(build_kernel_table(mesh, 0.9, backend="closed"))
    for v in violations:
        assert 1 <= v.level <= 4
        assert 1 <= v.interval <= v.level


def test_psd_on_benchmark_meshes():
    for alpha in (0.3, 0.5, 0.7):
        mesh = make_graded_mesh(1.0, 64, 2.0 / alpha)
        report = check_psd(build_kernel_table(mesh, alpha, backend="closed"))
        assert report.passed
        assert report.mesh_admissible
        assert report.min_eigenvalue >= -report.rel_tol * report.max_eigenvalue
        assert report.max_eigenvalue > 0.0
        assert np.all(report.g > 0.0)
        assert np.allclose(
            report.diagonal_B_lower, report.g / (2.0 * (1.0 - alpha))
        )


def test_psd_report_shapes_and_dict():
    mesh = make_uniform_mesh(1.0, 16)
    report = check_psd(build_kernel_table(mesh, 0.5, n=10, backend="closed"))
    assert report.n == 10
    assert report.g.shape == (10,)
    payload = report.to_dict()
    assert payload["passed"] is True
    assert len(payload["g"]) == 10
    assert len(payload["diagonal_B_lower"]) == 10


def test_positivity_certificate_first_value_uniform():
    # on a uniform mesh the first certificate value reduces to
    # (sigma*tau)^(-alpha) * (2*sigma - (1-alpha))
    alpha, sigma = 0.5, 0.75
    mesh = make_uniform_mesh(8.0, 8)
    g = positivity_certificate(build_kernel_table(mesh, alpha, backend="closed"))
    expected = sigma ** (-alpha) * (2.0 * sigma - (1.0 - alpha))
    assert g[0] == pytest.approx(expected, rel=1e-13)
    assert np.all(g > 0.0)


def test_positivity_certificate_single_level():
    mesh = TimeMesh([0.0, 0.5])
    g = positivity_certificate(build_kernel_table(mesh, 0.5, backend="closed"))
    assert g.shape == (1,)
    assert g[0] == pytest.approx((0.75 * 0.5) ** (-0.5), rel=1e-14)


def test_certificate_bounds_splitting_diagonal():
    # the certified lower bounds must actually lie below the directly
    # computed diagonal of the symmetric splitting remainder
    from subdiff.analysis import _direct_splitting_diagonal

    for alpha, grading in ((0.3, 1.0), (0.5, 2.0), (0.7, 2.0 / 0.7)):
        mesh = make_graded_mesh(1.0, 32, grading)
        table = build_kernel_table(mesh, alpha, backend="closed")
        report = check_psd(table)
        direct = _direct_splitting_diagonal(table)
        assert np.all(
            report.diagonal_B_lower <= direct + 1e-12 * np.abs(direct)
        )


def test_complementary_kernel_identity_and_signs():
    for alpha in (0.3, 0.7):
        mesh = make_graded_mesh(1.0, 32, 2.0 / alpha)
        table = build_kernel_table(mesh, alpha, backend="closed")
        p = build_complementary_kernel(table)
        m = table.matrix()
        product = p @ m
        rows, cols = np.tril_indices(32)
        assert np.max(np.abs(product[rows, cols] - 1.0)) <= 1e-11
        assert np.min(p[rows, cols]) >= -1e-13
        # strict upper triangles stay empty
        assert np.array_equal(np.triu(p, 1), np.zeros_like(p))


def test_complementary_kernel_first_entry():
    # P[0,0] = 1/M[0,0] = (1-alpha) * tau_1^alpha / sigma^(1-alpha)
    alpha, sigma, tau = 0.4, 0.8, 0.25
    mesh = TimeMesh([0.0, tau, 0.6, 1.0])
    p = build_complementary_kernel(build_kernel_table(mesh, alpha, backend="closed"))
    expected = (1.0 - alpha) * tau**alpha / sigma ** (1.0 - alpha)
    assert p[0, 0] == pytest.approx(expected, rel=1e-14)


def test_complementary_kernel_accepts_dense_matrix():
    m = np.tril(np.array([[2.0, 0.0], [1.0, 4.0]]))
    p = build_complementary_kernel(m)
    assert np.allclose(np.tril(p @ m), np.tril(np.ones((2, 2))))


def test_complementary_kernel_errors():
    with pytest.raises(SingularDiagonalError):
        build_complementary_kernel(np.array([[1.0, 0.0], [1.0, -0.5]]))
    with pytest.raises(SingularDiagonalError):
        build_complementary_kernel(np.array([[0.0]]))
    with pytest.raises(ValidationError):
        build_complementary_kernel(np.zeros((2, 3)))


def test_check_psd_records_inadmissibility():
    mesh = mesh_from_ratios([0.2, 0.2])
    report = check_psd(build_kernel_table(mesh, 0.5, backend="closed"))
    assert not report.mesh_admissible


def test_analysis_backend_validation():
    mesh = make_uniform_mesh(1.0, 4)
    with pytest.raises(ValidationError):
        check_properties_P(build_kernel_table(mesh, 0.5, backend="spectral"))
    with pytest.raises(ValidationError):
        check_psd(build_kernel_table(mesh, 0.5, n=9))
