"""Structural properties of the coefficient tables, eigenvalue positivity,
and the complementary (resolvent) kernel."""
import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from subdiff import (
    TimeMesh,
    admissibility_thresholds,
    analyze_operator,
    build_complementary_kernel,
    build_kernel_table,
    certify_mesh,
    check_properties_P,
    check_properties_Q,
    check_psd,
    make_graded_mesh,
    make_r_variable_mesh,
    make_uniform_mesh,
    positivity_certificate,
)
import subdiff.analysis
from subdiff.analysis import Violation, ratio_condition_holds
from subdiff.cli import EXIT_VERDICT, dispatch
from subdiff.errors import SingularDiagonalError, ValidationError
from subdiff.kernel import KernelTable


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
    m = table.m
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
        assert report.scaled_min_eigenvalue >= 0.5
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


def _direct_splitting_diagonal(table):
    """Exact diagonal of the symmetric splitting remainder (levels 1..n), n >= 3."""
    n = table.n
    # entry [k-1, j-1] holds level k, interval j; d_j^k is m[k-1, j-1]
    a, m = table.a, table.m
    beta = np.empty(n)
    beta[0] = -a[1, 0] / 2.0
    beta[1] = (m[2, 1] + a[2, 0] - a[1, 0]) / 2.0
    for k in range(3, n):
        beta[k - 1] = (m[k, k - 1] + m[k - 1, k - 2] - m[k, k - 2]) / 2.0
    beta[n - 1] = m[n - 1, n - 2] / 2.0
    return np.diag(m) - beta


def test_certificate_bounds_splitting_diagonal():
    # the certified lower bounds must actually lie below the directly
    # computed diagonal of the symmetric splitting remainder
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
        m = table.m
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


@pytest.mark.parametrize(
    "m",
    [
        [[1.0, 0.0], [np.nan, 2.0]],
        [[np.nan, 0.0], [1.0, 2.0]],
        [[np.inf, 0.0], [1.0, 2.0]],
        [[1.0, 0.0], [-np.inf, 2.0]],
    ],
    ids=["nan-below", "nan-diagonal", "inf-diagonal", "minus-inf-below"],
)
def test_complementary_kernel_refuses_non_finite_entries(m):
    # a NaN diagonal passes a "<= 0" test, so finiteness is checked first
    with pytest.raises(ValidationError, match="^history matrix has non-finite entries$"):
        build_complementary_kernel(np.array(m))


def test_complementary_kernel_refuses_entries_above_the_diagonal():
    # the answer for the lower triangle alone would be silently wrong
    with pytest.raises(ValidationError, match="must be lower triangular"):
        build_complementary_kernel(np.array([[2.0, 5.0], [1.0, 2.0]]))


def _operator_fuzz_tables(seed, count=64, levels=128):
    # built as perfbench's operator-fuzz builds its meshes: unit first step,
    # every step ratio uniform in [eta, 3], alpha cycling 0.3/0.5/0.7
    rng = np.random.default_rng(seed)
    _, eta = admissibility_thresholds()
    alphas = (0.3, 0.5, 0.7)
    return [
        build_kernel_table(
            mesh_from_ratios(rng.uniform(eta, 3.0, size=levels - 1)), alphas[i % 3], backend="closed"
        ).m
        for i in range(count)
    ]


_SWEEP_CASES = {
    # seed 407's mesh 12 has max|P| about 1e9
    "fuzz-seed-1": lambda: _operator_fuzz_tables(1),
    "fuzz-seed-407": lambda: _operator_fuzz_tables(407),
    "graded-r3": lambda: [build_kernel_table(make_graded_mesh(1.0, 128, 3.0), 0.5, backend="closed").m],
    "uniform": lambda: [build_kernel_table(make_uniform_mesh(1.0, 128), 0.5, backend="closed").m],
    "contrast-1e100": lambda: [
        build_kernel_table(TimeMesh(np.cumsum([0.0] + [1e-100] * 64 + [1.0] * 64)), alpha, backend="closed").m
        for alpha in (0.3, 0.9)
    ],
    # one block, block edges and a partial last block
    **{
        f"n{n}": (lambda n=n: _operator_fuzz_tables(n, count=3, levels=n))
        for n in (1, 2, 31, 32, 33, 65, 400)
    },
}


@pytest.mark.parametrize("case", _SWEEP_CASES)
def test_complementary_kernel_matches_a_triangular_solve(case):
    for m in _SWEEP_CASES[case]():
        n = m.shape[0]
        p = build_complementary_kernel(m)
        want = solve_triangular(m.T, np.triu(np.ones((n, n))), lower=False).T
        assert np.max(np.abs(p - want)) <= 1e-14 * np.max(np.abs(want))
        rows, cols = np.tril_indices(n)
        assert np.max(np.abs((p @ m)[rows, cols] - 1.0)) <= 1e-13
        assert np.array_equal(np.triu(p, 1), np.zeros((n, n)))


def test_check_psd_fails_a_negative_eigenvalue_below_the_raw_rounding_scale(monkeypatch):
    # M + M^T = diag(1e6, 1, ..., 1) plus S[1, 2] = S[2, 1] = 1 + 1e-5: the
    # 2x2 block has eigenvalue -1e-5, below 1e-10 * lambda_max = 1e-4, so a
    # verdict on min/max of M + M^T passes it; the Jacobi-scaled matrix
    # leaves the block as it is and shows -1e-5
    table = build_kernel_table(make_uniform_mesh(1.0, 10), 0.5, backend="closed")
    sym = np.eye(10)
    sym[0, 0] = 1e6
    sym[1, 2] = sym[2, 1] = 1.0 + 1e-5
    fake = np.tril(sym, -1) + np.diag(np.diag(sym)) / 2.0
    monkeypatch.setattr(table, "m", fake)
    report = check_psd(table)
    assert report.min_eigenvalue == pytest.approx(-1e-5, rel=1e-6)
    assert report.max_eigenvalue == pytest.approx(1e6)
    assert report.min_eigenvalue >= -report.rel_tol * report.max_eigenvalue
    assert report.scaled_min_eigenvalue == pytest.approx(-1e-5, rel=1e-6)
    assert not report.passed
    assert report.to_dict()["scaled_min_eigenvalue"] == report.scaled_min_eigenvalue


def test_check_psd_fails_an_alternating_mesh(tmp_path, capsys):
    # steps 1, 1e-3, 1, 1e-3, ...: a real kernel whose symmetrized history
    # matrix is indefinite (scaled minimum eigenvalue -0.265 at alpha 0.5)
    steps = np.tile([1.0, 1e-3], 12)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    table = build_kernel_table(mesh, 0.5, backend="closed")
    report = check_psd(table)
    assert report.scaled_min_eigenvalue == pytest.approx(-0.265, abs=1e-3)
    assert not report.passed
    assert not certify_mesh(mesh).satisfied
    assert analyze_operator(table)["passed"] is False
    path = tmp_path / "mesh.txt"
    path.write_text("".join(f"{t:.17g}\n" for t in mesh.nodes))
    code = dispatch(["analyze", "--file", str(path), "--alpha", "0.5"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["passed"], payload["psd"]["passed"]) == (EXIT_VERDICT, False, False)


_PASSING_PSD = check_psd(build_kernel_table(make_uniform_mesh(1.0, 2), 0.5))


def _verdict(monkeypatch, psd=_PASSING_PSD, p=(), q=(), p_factor=1.0, p_lower=0.0):
    """analyze_operator with its four checks replaced, each passing unless
    an argument says otherwise, on the history matrix ``M = 1e-9 [[1, 0],
    [1, 1]]``.  Its complementary kernel ``P = 1e9 I`` has its (1, 1)
    entry scaled by ``p_factor`` and its (2, 1) entry set to ``p_lower``."""
    complementary = 1e9 * np.diag([p_factor, 1.0])
    complementary[1, 0] = p_lower
    for name, value in (
        ("check_psd", psd),
        ("check_properties_P", list(p)),
        ("check_properties_Q", list(q)),
        ("build_complementary_kernel", complementary),
    ):
        monkeypatch.setattr(subdiff.analysis, name, lambda table, value=value: value)
    return analyze_operator(SimpleNamespace(n=2, m=1e-9 * np.tri(2)))


def test_analyze_operator_passes_only_when_every_condition_holds(monkeypatch):
    assert _PASSING_PSD.passed and np.all(_PASSING_PSD.g > 0.0)
    # the floor on P is relative to max(1, max P) = 1e9, and the residual
    # bound is 1e-11: just inside both, every condition holds
    verdict = _verdict(monkeypatch, p_factor=1.0 + 0.5e-11, p_lower=-0.5e-13 * 1e9)
    assert verdict["passed"] is True
    assert verdict["complementary_min_entry"] == -0.5e-4
    assert verdict["complementary_identity_residual"] == pytest.approx(0.5e-11, rel=1e-3)
    # each condition flipped alone fails the verdict
    bad = Violation("P1", 2, 1, -1.0)
    flips = {
        "psd": dict(psd=dataclasses.replace(_PASSING_PSD, passed=False)),
        "certificate": dict(psd=dataclasses.replace(_PASSING_PSD, g=np.array([1.0, 0.0]))),
        "P": dict(p=[bad]),
        "Q": dict(q=[bad._replace(check="Q1")]),
        "min entry": dict(p_lower=-2e-13 * 1e9),
        "identity residual": dict(p_factor=1.0 + 2e-11),
    }
    for name, flip in flips.items():
        assert _verdict(monkeypatch, **flip)["passed"] is False, name
    verdict = _verdict(monkeypatch, **flips["certificate"])
    assert verdict["diagonal_certificate_min"] == 0.0


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


def _p_suite_oracle(table, tol=1e-12):
    """P1-P10 with dense masks and shifted copies of the whole tables.

    This is how the suite computed its entries before it gathered them on
    cached index sets; the two must report the same records in the same
    order.
    """
    allowance = 8.0 * np.finfo(float).eps
    n = table.n
    a_tab, c_tab, d_tab = table.a, table.c, table.m
    kk, jj = np.indices((n, n)) + 1

    def shift(t):
        return np.vstack([t[1:], np.zeros((1, n))])

    def collect(name, lhs, rhs, mask, viol, floor=None):
        ks, js = np.nonzero(mask)
        lhs, rhs = lhs[ks, js], rhs[ks, js]
        slack = tol * np.maximum(np.abs(lhs), np.abs(rhs))
        if floor is not None:
            slack = slack + floor[ks, js]
        slack = np.maximum(slack, 1e-300)
        for i in np.nonzero(~((lhs - rhs) > -slack))[0]:
            viol.append(Violation(name, int(ks[i]) + 1, int(js[i]) + 1, float(lhs[i] - rhs[i])))

    a_up, c_up, d_up = shift(a_tab), shift(c_tab), shift(d_tab)
    zero = np.zeros_like(a_tab)
    tri = (kk >= 2) & (jj <= kk - 1)
    inner = (kk >= 3) & (jj <= kk - 2)
    dtri = (kk >= 3) & (jj >= 2) & (jj <= kk - 1)
    dinner = (kk >= 4) & (jj >= 2) & (jj <= kk - 2)
    has_next = kk <= n - 1
    a_r = np.roll(a_tab, -1, axis=1)
    a_ur = np.roll(a_up, -1, axis=1)
    d_r = np.roll(d_tab, -1, axis=1)
    d_ur = np.roll(d_up, -1, axis=1)
    p4_floor = allowance * np.max(np.abs([a_ur, a_up, a_r, a_tab]), axis=0)
    p10_floor = allowance * np.max(np.abs([d_r, d_tab, d_ur, d_up]), axis=0)
    viol = []
    collect("P1", zero, a_tab, tri, viol)
    collect("P2", a_up, a_tab, tri & has_next, viol)
    collect("P3", a_tab, a_r, inner, viol)
    collect("P4", a_ur - a_up, a_r - a_tab, inner & has_next, viol, floor=p4_floor)
    collect("P5", c_tab, zero, tri, viol)
    collect("P6", c_tab, c_up, tri & has_next, viol)
    collect("P7", d_tab, zero, dtri, viol)
    collect("P8", d_tab, d_up, dtri & has_next, viol)
    if ratio_condition_holds(table.mesh, n):
        collect("P9", d_r, d_tab, dinner, viol)
        collect("P10", d_r - d_tab, d_ur - d_up, dinner & has_next, viol, floor=p10_floor)
    return viol


def _replant(table, a, c, m):
    return KernelTable(table.mesh, table.order, table.backend, a, c, m, table.t_star)


def test_p_suite_reports_each_planted_violation_in_order():
    n = 16
    table = build_kernel_table(make_graded_mesh(1.0, n, 2.0), 0.5, backend="closed")
    a, c, m = table.a.copy(), table.c.copy(), table.m.copy()

    def at(t, k, j):  # 1-based level and interval
        return t[k - 1, j - 1]

    def plant(t, k, j, value):
        t[k - 1, j - 1] = value

    # each plant breaks its check by a millionth of the sides' size; n - 1 =
    # 15 is the last level the next-level checks reach, j = k - 2 the last
    # interval the inner checks reach
    plant(a, 16, 1, -at(a, 16, 1))  # P1; also breaks P4 at (15, 1)
    plant(a, 3, 1, at(a, 4, 1) * (1 - 1e-6))  # P2
    plant(a, 16, 15, at(a, 16, 14) * (1 - 1e-6))  # P3 at j = k - 2
    plant(a, 15, 13, at(a, 15, 14) - (at(a, 16, 14) - at(a, 16, 13)) * (1 - 1e-6))  # P4
    plant(c, 16, 15, -at(c, 16, 15))  # P5
    plant(c, 15, 1, at(c, 16, 1) * (1 - 1e-6))  # P6 at k = n - 1
    plant(m, 16, 2, -at(m, 16, 2))  # P7; also breaks P10 at (15, 2)
    plant(m, 4, 2, at(m, 5, 2) * (1 - 1e-6))  # P8
    plant(m, 16, 15, at(m, 16, 14) * (1 - 1e-6))  # P9 at j = k - 2
    plant(m, 15, 13, at(m, 15, 14) - (at(m, 16, 14) - at(m, 16, 13)) * (1 - 1e-6))  # P10

    def amount(check, k, j):  # lhs - rhs of the check, as the suite forms it
        t = a if check in ("P1", "P2", "P3", "P4") else c if check in ("P5", "P6") else m

        def e(dk, dj):
            return at(t, k + dk, j + dj)

        return {
            "P1": lambda: 0.0 - e(0, 0),
            "P2": lambda: e(1, 0) - e(0, 0),
            "P3": lambda: e(0, 0) - e(0, 1),
            "P4": lambda: (e(1, 1) - e(1, 0)) - (e(0, 1) - e(0, 0)),
            "P5": lambda: e(0, 0) - 0.0,
            "P6": lambda: e(0, 0) - e(1, 0),
            "P7": lambda: e(0, 0) - 0.0,
            "P8": lambda: e(0, 0) - e(1, 0),
            "P9": lambda: e(0, 1) - e(0, 0),
            "P10": lambda: (e(0, 1) - e(0, 0)) - (e(1, 1) - e(1, 0)),
        }[check]()

    expected = [
        ("P1", 16, 1), ("P2", 3, 1), ("P3", 16, 14), ("P4", 15, 1), ("P4", 15, 13),
        ("P5", 16, 15), ("P6", 15, 1), ("P7", 16, 2), ("P8", 4, 2), ("P9", 16, 14),
        ("P10", 15, 2), ("P10", 15, 13),
    ]
    planted = _replant(table, a, c, m)
    violations = check_properties_P(planted)
    assert violations == [Violation(name, k, j, amount(name, k, j)) for name, k, j in expected]
    assert violations == _p_suite_oracle(planted)


def test_p_suite_matches_the_mask_oracle_on_fuzzed_tables():
    # admissible and inadmissible meshes (the latter often skip P9/P10),
    # every other table with a few entries scaled so that violations occur
    rng = np.random.default_rng(2024)
    _, eta = admissibility_thresholds()
    reported = 0
    for i in range(30):
        num_steps = int(rng.integers(2, 80))
        low = eta if i % 2 == 0 else 0.05
        mesh = mesh_from_ratios(rng.uniform(low, 3.0, size=num_steps - 1))
        alpha = float(rng.choice([0.2, 0.5, 0.8]))
        n = num_steps if i % 3 else int(rng.integers(1, num_steps + 1))
        table = build_kernel_table(mesh, alpha, n=n, backend="closed")
        if i % 4 >= 2:
            a, c, m = table.a.copy(), table.c.copy(), table.m.copy()
            for t in (a, c, m):
                rows, cols = rng.integers(0, n, size=(2, 4))
                t[rows, cols] *= rng.choice([-1.0, 0.5, 2.0, 1.0 + 1e-13], size=4)
            table = _replant(table, a, c, m)
        violations = check_properties_P(table)
        assert violations == _p_suite_oracle(table), f"table {i}"
        reported += len(violations)
    assert reported > 0


def _certificate_with_numpy_scalars(table):
    """The certificate loop in NumPy scalar arithmetic, as first written."""
    n = table.n
    alpha, sigma = table.order.alpha, table.order.sigma
    tau = table.mesh.steps
    rho = table.mesh.ratios
    c_last = table.c[np.arange(1, n), np.arange(n - 1)]

    def bound_integral(r):
        sr = sigma * r
        return 0.5 + 0.5 * alpha * r - sr * (0.5 * alpha * r) * np.log((1.0 + sr) / sr)

    g = np.empty(n)
    if n == 1:
        g[0] = (sigma * tau[0]) ** (-alpha)
        return g
    g[0] = (sigma * tau[0]) ** (-alpha) * (2.0 * sigma - (1.0 - alpha) / rho[0] ** alpha)
    for k in range(2, n + 1):
        base = (1.0 - alpha) * c_last[k - 2]
        scale = (sigma * tau[k - 1]) ** (-alpha)
        if k < n or (k == 2 and n == 2):
            rho_next = rho[k - 1] if k - 1 < rho.size else 1.0
            g[k - 1] = base + scale * (
                1.0
                - alpha * (1.0 - alpha) / ((1.0 + rho_next) * rho_next**alpha)
                * bound_integral(np.asarray(rho_next))
            )
        else:
            g[k - 1] = base + scale
    return g


def test_positivity_certificate_is_bit_identical_to_numpy_scalar_arithmetic():
    rng = np.random.default_rng(77)
    _, eta = admissibility_thresholds()
    tables = [
        build_kernel_table(TimeMesh([0.0, 0.3]), 0.4, backend="closed"),  # n = 1
        build_kernel_table(TimeMesh([0.0, 0.3, 1.0]), 0.6, backend="closed"),  # n = 2, 2 steps
        build_kernel_table(make_graded_mesh(1.0, 9, 2.0), 0.5, n=2, backend="closed"),
        build_kernel_table(make_graded_mesh(1.0, 9, 2.0), 0.5, n=5, backend="closed"),
    ]
    for i in range(24):
        low = eta if i % 2 == 0 else 0.05
        mesh = mesh_from_ratios(rng.uniform(low, 3.0, size=127), first_step=rng.uniform(1e-3, 1.0))
        tables.append(build_kernel_table(mesh, float(rng.uniform(0.05, 0.95)), backend="closed"))
    for table in tables:
        g = positivity_certificate(table)
        assert g.dtype == np.float64 and g.shape == (table.n,)
        assert np.array_equal(g, _certificate_with_numpy_scalars(table)), table.n
