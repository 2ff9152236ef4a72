"""Kernel coefficients against a frozen high-precision oracle, row assembly,
operator application, and the fractional-derivative reference integrator."""
import math

import numpy as np
import pytest

from subdiff import (
    FractionalOrder,
    QuadratureSettings,
    TimeMesh,
    apply_operator,
    build_kernel_row,
    build_kernel_table,
    caputo_reference,
    coeff_closed_form,
    coeff_quadrature,
    dump_kernel_csv,
    make_graded_mesh,
    make_uniform_mesh,
)
from subdiff.errors import DimensionMismatchError, NumericalError, ValidationError

# Coefficient triples (a, b, c) on the nodes below at order 0.35, integrated
# with 40-digit arithmetic (mpmath.quad of the three reconstruction-weight
# integrands against the singular kernel).  Keyed by (level k, interval j).
ORACLE_NODES = [0.0, 0.08, 0.2, 0.45, 0.7, 1.0]
ORACLE_ALPHA = 0.35
ORACLE_COEFFS = {
    (2, 1): (-1.9809363709517404, 1.9625847956528976, 0.018351575298842776),
    (3, 2): (-1.5818021649537873, 1.575190558507542, 0.0066116064462453149),
    (5, 1): (-1.0325843037084874, 1.031164754590906, 0.0014195491175814315),
    (5, 2): (-1.0751398513426807, 1.0736829216681217, 0.0014569296745590368),
    (5, 3): (-1.1702610665686183, 1.1562530354659839, 0.014008031102634358),
    (5, 4): (-1.3999059752831489, 1.3781578829328752, 0.021748092350273744),
}


def test_fractional_order_derived_constants():
    order = FractionalOrder(0.4)
    assert order.sigma == pytest.approx(0.8)
    assert order.gamma_1ma == pytest.approx(math.gamma(0.6))
    assert order.gamma_2ma == pytest.approx(math.gamma(1.6))
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValidationError):
            FractionalOrder(bad)


def test_quadrature_settings_validation():
    QuadratureSettings(rel_tol=1e-10, abs_tol=0.0)
    with pytest.raises(ValidationError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(ValidationError):
        QuadratureSettings(max_subdivisions=5)


@pytest.mark.parametrize("backend", ["closed", "quadrature"])
def test_coefficients_match_frozen_oracle(backend):
    mesh = TimeMesh(ORACLE_NODES)
    for (k, j), expected in ORACLE_COEFFS.items():
        if backend == "closed":
            triple = coeff_closed_form(mesh, ORACLE_ALPHA, k, j)
        else:
            triple = coeff_quadrature(mesh, ORACLE_ALPHA, k, j)
        for got, want in zip(triple, expected):
            assert got == pytest.approx(want, rel=1e-11), (k, j, backend)


def test_quadrature_triple_sums_to_zero():
    # a, b, c are integrated through separate routes; their sum vanishing is
    # a genuine cross-check, not an identity of the implementation
    mesh = TimeMesh(ORACLE_NODES)
    for (k, j) in ORACLE_COEFFS:
        a, b, c = coeff_quadrature(mesh, ORACLE_ALPHA, k, j)
        assert abs(a + b + c) <= 1e-12 * max(abs(a), abs(b), abs(c))


def test_coefficient_signs():
    mesh = make_graded_mesh(1.0, 12, 3.0)
    for k in range(2, 13):
        row = build_kernel_row(mesh, 0.5, k, backend="closed")
        assert np.all(row.a < 0.0)
        assert np.all(row.b > 0.0)
        assert np.all(row.c > 0.0)
        assert np.allclose(row.a + row.b + row.c, 0.0, atol=1e-14)


def test_first_diagonal_entry_uniform():
    # sigma^(1-alpha) / ((1-alpha) * tau^alpha) at alpha = 0.5, tau = 1
    mesh = make_uniform_mesh(4.0, 4)
    row = build_kernel_row(mesh, 0.5, 1)
    assert row.m_row.shape == (1,)
    assert row.m_row[0] == pytest.approx(1.7320508075688773, rel=1e-15)
    assert row.a.size == 0 and row.d.size == 0
    assert row.t_star == pytest.approx(0.75)


def test_row_layout_and_derived_arrays():
    mesh = make_graded_mesh(1.0, 10, 2.0)
    order = FractionalOrder(0.7)
    for k in (2, 5, 10):
        row = build_kernel_row(mesh, order, k, backend="closed")
        assert row.a.shape == (k - 1,)
        assert row.d.shape == (max(k - 2, 0),)
        assert row.m_row.shape == (k,)
        assert np.array_equal(row.b, -(row.a + row.c))
        assert np.array_equal(row.d, row.c[:-1] - row.a[1:])
        assert row.m_row[0] == -row.a[0]
        diag = order.sigma ** (1 - order.alpha) / (
            (1 - order.alpha) * mesh.steps[k - 1] ** order.alpha
        )
        assert row.m_row[-1] == pytest.approx(row.c[-1] + diag, rel=1e-14)
        if k > 2:
            assert np.array_equal(row.m_row[1 : k - 1], row.d)
        t_star = mesh.nodes[k - 1] + order.sigma * mesh.steps[k - 1]
        assert row.t_star == pytest.approx(t_star, rel=1e-15)


def test_kernel_table_accessors():
    mesh = make_graded_mesh(1.0, 8, 2.0)
    table = build_kernel_table(mesh, 0.5, backend="closed")
    assert table.n == 8
    assert [row.k for row in table] == list(range(1, 9))
    with pytest.raises(ValidationError):
        table.row(0)
    with pytest.raises(ValidationError):
        table.row(9)
    m = table.matrix()
    assert m.shape == (8, 8)
    assert np.array_equal(np.triu(m, 1), np.zeros_like(m))
    assert np.all(np.diag(m) > 0.0)
    partial = build_kernel_table(mesh, 0.5, n=3, backend="closed")
    assert partial.n == 3
    with pytest.raises(ValidationError):
        build_kernel_table(mesh, 0.5, n=9)
    with pytest.raises(ValidationError):
        build_kernel_table(mesh, 0.5, backend="magic")


def test_rows_are_read_only_views_of_one_matrix():
    mesh = make_graded_mesh(1.0, 8, 2.0)
    table = build_kernel_table(mesh, 0.5, backend="closed")
    m = table.matrix()
    assert m is table.matrix()
    for row in table:
        assert np.shares_memory(row.m_row, m)
        assert not row.m_row.flags.writeable and not row.a.flags.writeable
    assert np.shares_memory(table.row(5).d, m)
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_non_finite_coefficients_are_refused():
    # admissible but steep at alpha = 1e-3: the quadrature scale underflows
    # on the far intervals of levels 6..40, so that build must raise instead
    # of handing out NaN; the closed forms stay finite on the same mesh
    mesh = make_graded_mesh(1, 200, 60).head(40)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            build_kernel_table(mesh, 1e-3, backend="quadrature")
    table = build_kernel_table(mesh, 1e-3, backend="closed")
    for arr in (table.a, table.c, table.matrix()):
        assert np.all(np.isfinite(arr))


def test_single_step_table():
    mesh = TimeMesh([0.0, 0.3])
    table = build_kernel_table(mesh, 0.35)
    assert table.n == 1
    row = table.row(1)
    alpha, sigma = 0.35, 1 - 0.175
    assert row.m_row[0] == pytest.approx(
        sigma ** (1 - alpha) / ((1 - alpha) * 0.3**alpha), rel=1e-14
    )


def test_operator_annihilates_constants():
    mesh = make_graded_mesh(1.0, 6, 2.0)
    table = build_kernel_table(mesh, 0.5, backend="closed")
    history = np.full(7, 3.7)
    for k in range(1, 7):
        assert apply_operator(table.row(k), history, 0.5) == pytest.approx(0.0, abs=1e-13)


def test_operator_forms_agree():
    mesh = make_graded_mesh(1.0, 12, 2.0 / 0.7)
    order = FractionalOrder(0.7)
    table = build_kernel_table(mesh, order, backend="closed")
    rng = np.random.default_rng(7)
    history = rng.standard_normal(13)
    for k in range(1, 13):
        row = table.row(k)
        via_history = apply_operator(row, history, order, form="history")
        via_delta = apply_operator(row, history, order, form="delta")
        scale = max(abs(via_history), abs(via_delta), 1e-30)
        assert abs(via_history - via_delta) <= 1e-12 * scale
    with pytest.raises(ValidationError):
        apply_operator(table.row(2), history, order, form="spectral")


def test_operator_handles_field_histories():
    mesh = make_uniform_mesh(1.0, 4)
    row = build_kernel_row(mesh, 0.5, 3, backend="closed")
    history = np.arange(5.0)[:, None] * np.ones((1, 6))
    out = apply_operator(row, history, 0.5)
    assert out.shape == (6,)
    assert np.allclose(out, out[0])
    with pytest.raises(DimensionMismatchError):
        apply_operator(row, np.zeros(3), 0.5)


def test_operator_exact_on_quadratics():
    # the piecewise-quadratic reconstruction underlying the coefficients is
    # exact for t^2, so the discrete value must equal the true derivative of
    # t^2 at the offset points up to quadrature tolerance
    mesh = make_graded_mesh(1.0, 10, 2.0)
    alpha = 0.4
    table = build_kernel_table(mesh, alpha, backend="closed")
    history = mesh.nodes**2
    for k in (2, 5, 10):
        row = table.row(k)
        exact = 2.0 / math.gamma(3 - alpha) * row.t_star ** (2 - alpha)
        got = apply_operator(row, history, alpha)
        assert got == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("gamma_exp", [1.0, 0.35, 1.6, 2.0, 3.0])
def test_caputo_reference_monomials(gamma_exp):
    # closed form: D^alpha t^g = Gamma(g+1)/Gamma(g+1-alpha) * t^(g-alpha)
    alpha = 0.35
    for t in (0.2, 0.8, 1.0):
        got = caputo_reference(lambda s: gamma_exp * s ** (gamma_exp - 1.0), t, alpha)
        want = (
            math.gamma(gamma_exp + 1.0)
            / math.gamma(gamma_exp + 1.0 - alpha)
            * t ** (gamma_exp - alpha)
        )
        assert got == pytest.approx(want, rel=1e-9)


def test_caputo_reference_edge_cases():
    assert caputo_reference(lambda s: 1.0, 0.0, 0.5) == 0.0
    with pytest.raises(ValidationError):
        caputo_reference(lambda s: 1.0, -0.1, 0.5)


def test_coefficient_argument_validation():
    mesh = make_uniform_mesh(1.0, 5)
    with pytest.raises(ValidationError):
        coeff_quadrature(mesh, 0.5, 1, 1)  # coefficients need k >= 2
    with pytest.raises(ValidationError):
        coeff_quadrature(mesh, 0.5, 3, 3)  # j must stay below k
    with pytest.raises(ValidationError):
        coeff_closed_form(mesh, 0.5, 6, 1)
    with pytest.raises(ValidationError):
        build_kernel_row(mesh, 0.5, 0)
    with pytest.raises(ValidationError):
        build_kernel_row(mesh, 0.5, 2, backend="exact")


def test_dump_kernel_csv(tmp_path):
    mesh = make_graded_mesh(1.0, 5, 2.0)
    table = build_kernel_table(mesh, 0.5, backend="closed")
    path = tmp_path / "kernel.csv"
    dump_kernel_csv(table, path, header_lines=["alpha = 0.5"])
    lines = path.read_text().splitlines()
    assert "# alpha = 0.5" in lines
    assert "# backend: closed" in lines
    data = [line for line in lines if not line.startswith("#")]
    # one header row plus one row per (k, j) history entry
    assert len(data) == 1 + sum(k for k in range(1, 6))
