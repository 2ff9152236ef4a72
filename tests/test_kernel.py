"""Kernel coefficients against a frozen high-precision oracle, row assembly,
operator application, and the fractional-derivative reference integrator.

The per-entry quadrature oracle :func:`coeff_quadrature` lives here: it is the
only route that integrates ``b`` on its own, so the zero-sum identity the
package relies on (``b = -(a + c)``) is checked against it."""
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subdiff
import subdiff.kernel as kernel_module
from subdiff import (
    FractionalOrder,
    TimeMesh,
    admissibility_thresholds,
    apply_operator,
    build_kernel_table,
    caputo_reference,
    dump_kernel_csv,
    make_graded_mesh,
    make_graded_then_uniform,
    make_uniform_mesh,
)
from subdiff.errors import (
    DimensionMismatchError,
    NumericalError,
    QuadratureConvergenceError,
    SingularDiagonalError,
    ValidationError,
)
from subdiff.provenance import reproducibility_header

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


def _quad_scalar(f, lo, hi):
    from scipy.integrate import quad

    res = quad(
        f,
        lo,
        hi,
        epsabs=kernel_module._QUAD_ABS_TOL,
        epsrel=kernel_module._QUAD_REL_TOL,
        limit=kernel_module._QUAD_LIMIT,
        full_output=1,
    )
    # the integrator may flag its own stopping heuristics near the roundoff
    # floor; what the oracle requires is the achieved error estimate, so
    # judge that against the tolerances directly
    value, abserr = float(res[0]), float(res[1])
    tol = max(kernel_module._QUAD_ABS_TOL, kernel_module._QUAD_REL_TOL * abs(value))
    if len(res) > 3 and abserr > tol:
        raise QuadratureConvergenceError(str(res[3]))
    return value


def _check_kj(mesh, k, j):
    if not 2 <= k <= mesh.num_steps:
        raise ValidationError(f"coefficients exist for levels 2..{mesh.num_steps}, got k={k}")
    if not 1 <= j <= k - 1:
        raise ValidationError(f"interval index must lie in [1, {k - 1}], got {j}")


def coeff_quadrature(mesh, order, k, j):
    """Single coefficient triple ``(a_j^k, b_j^k, c_j^k)`` by adaptive quadrature.

    ``a`` and ``b`` integrate their defining reconstruction-weight integrands
    directly; ``c`` integrates the positive reformulation
    ``alpha*tau_j^3/(tau_{j+1}*(tau_j+tau_{j+1})) * int_0^1 s*(1-s)*
    (t_k* - t_j + s*tau_j)^{-alpha-1} ds``, which is exactly equal to the
    antisymmetric original but immune to the digit loss that cancellation in
    the original causes once ``t_k* - t_j >> tau_j``.
    """
    order = kernel_module.as_fractional_order(order)
    _check_kj(mesh, k, j)
    alpha, sigma = order.alpha, order.sigma
    tau = mesh.steps
    nodes = mesh.nodes
    tj, tj1 = tau[j - 1], tau[j]
    t_star = nodes[k - 1] + sigma * tau[k - 1]
    w0 = t_star - nodes[j - 1]
    wj = t_star - nodes[j]

    def fa(theta):
        return (-2.0 * tj * (1.0 - theta) - tj1) / ((tj + tj1) * (w0 - theta * tj) ** alpha)

    def fb(theta):
        return (tj + tj1 - 2.0 * tj * theta) / (tj1 * (w0 - theta * tj) ** alpha)

    def fc(s):
        return s * (1.0 - s) * (wj + s * tj) ** (-alpha - 1.0)

    a = _quad_scalar(fa, 0.0, 1.0)
    b = _quad_scalar(fb, 0.0, 1.0)
    c_pref = alpha * tj**3 / (tj1 * (tj + tj1))
    c = c_pref * _quad_scalar(fc, 0.0, 1.0)
    return a, b, c


def test_fractional_order_derived_constants():
    order = FractionalOrder(0.4)
    assert order.sigma == pytest.approx(0.8)
    assert order.gamma_1ma == pytest.approx(math.gamma(0.6))
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValidationError):
            FractionalOrder(bad)


@pytest.mark.parametrize("backend", ["closed", "quadrature"])
def test_coefficients_match_frozen_oracle(backend):
    mesh = TimeMesh(ORACLE_NODES)
    for (k, j), expected in ORACLE_COEFFS.items():
        if backend == "closed":
            row = build_kernel_table(mesh, ORACLE_ALPHA, n=k).row(k)
            triple = (row.a[j - 1], row.b[j - 1], row.c[j - 1])
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
        row = build_kernel_table(mesh, 0.5, n=k).row(k)
        assert np.all(row.a < 0.0)
        assert np.all(row.b > 0.0)
        assert np.all(row.c > 0.0)
        assert np.allclose(row.a + row.b + row.c, 0.0, atol=1e-14)


def test_first_diagonal_entry_uniform():
    # sigma^(1-alpha) / ((1-alpha) * tau^alpha) at alpha = 0.5, tau = 1
    mesh = make_uniform_mesh(4.0, 4)
    row = build_kernel_table(mesh, 0.5, n=1).row(1)
    assert row.m_row.shape == (1,)
    assert row.m_row[0] == pytest.approx(1.7320508075688773, rel=1e-15)
    assert row.a.size == 0 and row.d.size == 0
    assert row.t_star == pytest.approx(0.75)
    # level 1 has no coefficient to integrate
    quadrature = build_kernel_table(mesh, 0.5, n=1, backend="quadrature")
    assert quadrature.row(1).m_row[0] == row.m_row[0]


def test_row_layout_and_derived_arrays():
    mesh = make_graded_mesh(1.0, 10, 2.0)
    order = FractionalOrder(0.7)
    for k in (2, 5, 10):
        row = build_kernel_table(mesh, order, n=k).row(k)
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
    m = table.m
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
    m = table.m
    for row in table:
        assert np.shares_memory(row.m_row, m)
        assert not row.m_row.flags.writeable and not row.a.flags.writeable
    assert np.shares_memory(table.row(5).d, m)
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_non_finite_coefficients_are_refused(monkeypatch):
    # admissible but steep at alpha = 1e-3: the closed-form scale of c
    # underflows on the far intervals of levels 6..40; the quadrature
    # integrates those components unscaled and stays finite and close to
    # the closed forms, without a floating-point warning
    mesh = make_graded_mesh(1, 200, 60).head(40)
    closed = build_kernel_table(mesh, 1e-3, backend="closed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quad = build_kernel_table(mesh, 1e-3, backend="quadrature")
    for arr in (closed.a, closed.c, closed.m, quad.m):
        assert np.all(np.isfinite(arr))
    assert np.max(np.abs(quad.m - closed.m)) <= 1e-13 * np.max(np.abs(closed.m))

    # a NaN handed out for one quadrature entry must stop the build; the
    # 10-level table is one slab, whose entries run level by level, so
    # interval 3 of level 7 follows the 1 + 2 + ... + 5 entries of levels 2..6
    original = kernel_module._quadrature_a_c

    def poisoned(*args):
        a, c = original(*args)
        c = c.copy()
        c[sum(range(1, 6)) + 2] = np.nan
        return a, c

    monkeypatch.setattr(kernel_module, "_quadrature_a_c", poisoned)
    with pytest.raises(NumericalError, match="first at level 7"):
        build_kernel_table(make_graded_mesh(1.0, 10, 2.0), 0.5, backend="quadrature")


@pytest.mark.parametrize(
    "distance, error, level",
    [(1, SingularDiagonalError, "level 2"), (7, NumericalError, "first at level 8")],
)
def test_a_non_finite_run_entry_is_refused_at_the_first_level_that_reads_it(
    monkeypatch, distance, error, level
):
    # the stream's first _closed_a_c calls compute the exact run's entries
    # by distance 1, 2, ..., at most the stream's stride (40 here) at a time,
    # before the first slab; a NaN c at distance 1 is the run's diagonal,
    # which its first level (2) reads, and at distance 7 it enters m at
    # column 1 of level 8, the first level that far from the run's start
    mesh = make_uniform_mesh(1.0, 256)
    assert kernel_module._exact_runs(mesh, 256, 0.75) == [(0, 256)]
    original = kernel_module._closed_a_c
    calls = []

    def poisoned(*args):
        a, c = original(*args)
        if not calls:
            c[distance - 1] = np.nan
        calls.append(c.size)
        return a, c

    monkeypatch.setattr(kernel_module, "_closed_a_c", poisoned)
    with pytest.raises(error, match=level):
        build_kernel_table(mesh, 0.5, backend="closed")
    assert calls[:7] == [40] * 6 + [15]


def test_quadrature_refuses_a_missed_tolerance_naming_the_slab(monkeypatch):
    # a tenfold step drop at level 300 brings the singularity of the level's
    # nearest integrand to about 1.075 on the unit interval, where one
    # Gauss-Kronrod panel misses the tolerance; elsewhere on a graded mesh
    # one panel meets it
    steps = make_graded_mesh(1.0, 400, 2.0).steps.copy()
    steps[299] /= 10
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    k0, k1 = next(
        (k0, k1)
        for k0, k1, *_ in kernel_module._kernel_slabs(mesh, FractionalOrder(0.5), 400, "closed")
        if k0 < 300 <= k1
    )
    assert k0 > 0
    build_kernel_table(mesh, 0.5, backend="quadrature")  # meets it with the default limit
    monkeypatch.setattr(kernel_module, "_QUAD_LIMIT", 1)
    with pytest.raises(QuadratureConvergenceError, match=rf"levels {k0 + 1}\.\.{k1}: .*error estimate"):
        build_kernel_table(mesh, 0.5, backend="quadrature")


def test_single_step_table():
    mesh = TimeMesh([0.0, 0.3])
    table = build_kernel_table(mesh, 0.35)
    assert table.n == 1
    row = table.row(1)
    alpha, sigma = 0.35, 1 - 0.175
    assert row.m_row[0] == pytest.approx(
        sigma ** (1 - alpha) / ((1 - alpha) * 0.3**alpha), rel=1e-14
    )


def _mpmath_a_c(mesh, alpha, k, j):
    """``a_j^k`` and ``c_j^k`` integrated at 50 digits from the defining integrals.

    The integrands are those of :func:`coeff_quadrature`, evaluated on the
    mesh's own double nodes and steps, so only the coefficient evaluation is
    under test.
    """
    with mpmath.workdps(50):
        tau = [mpmath.mpf(float(t)) for t in mesh.steps]
        nodes = [mpmath.mpf(float(t)) for t in mesh.nodes]
        alpha = mpmath.mpf(alpha)
        tj, tj1 = tau[j - 1], tau[j]
        w0 = nodes[k - 1] + (1 - alpha / 2) * tau[k - 1] - nodes[j - 1]
        a = mpmath.quad(
            lambda th: (-2 * tj * (1 - th) - tj1) / ((tj + tj1) * (w0 - th * tj) ** alpha),
            [0, 1],
        )
        c = alpha * tj**3 / (tj1 * (tj + tj1)) * mpmath.quad(
            lambda s: s * (1 - s) * (w0 - tj + s * tj) ** (-alpha - 1), [0, 1]
        )
        return a, c


def test_closed_matches_mpmath_where_quadrature_cannot_follow():
    # far intervals of a steep mesh, where quadrature loses the tiny c
    # entries, and meshes with step contrasts of 1e110 and 1e170, where
    # products of two steps or spans leave the normal range
    steep = make_graded_mesh(1, 200, 60).head(40)
    contrast = [
        TimeMesh(np.cumsum([0.0, tiny, tiny, tiny, 1e-60, 1e-20, 1e-5, 0.3, 0.5]))
        for tiny in (1e-110, 1e-170)
    ]
    cases = (
        [(steep, alpha, k, j) for alpha in (1e-3, 0.999) for k in range(5, 41, 5) for j in (1, 3)]
        + [(contrast[0], 0.5, k, j) for k in (6, 7, 8) for j in (1, 2, 3)]
        + [(contrast[1], alpha, k, j) for alpha in (1e-3, 0.999) for k in (4, 6, 8) for j in (1, 2)]
    )
    worst = 0.0
    for mesh, alpha, k, j in cases:
        table = build_kernel_table(mesh, alpha, n=k, backend="closed")
        for got, want in zip((table.a[k - 1, j - 1], table.c[k - 1, j - 1]), _mpmath_a_c(mesh, alpha, k, j)):
            assert np.finfo(float).tiny < abs(want) < np.finfo(float).max, (alpha, k, j)
            worst = max(worst, float(abs((got - want) / want)))
    assert worst <= 1e-11


_, _ETA = admissibility_thresholds()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ratios=st.lists(st.floats(_ETA, 3.0), min_size=7, max_size=23),
    alpha=st.floats(1e-3, 0.999),
)
def test_closed_matches_quadrature_on_random_admissible_meshes(ratios, alpha):
    # criterion 08's entrywise relative bound, on 8 to 24 levels
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(np.cumprod([1.0, *ratios]))]))
    closed = build_kernel_table(mesh, alpha, backend="closed")
    quad = build_kernel_table(mesh, alpha, backend="quadrature")
    for x, y in ((closed.a, quad.a), (closed.c, quad.c), (closed.m, quad.m)):
        scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-300)
        assert np.max(np.abs(x - y) / scale) <= 1e-10


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_closed_run_tables_match_quadrature(alpha):
    # criterion 08's bound on a mesh that is one exact run: the closed table
    # spreads the run's entries by distance, the quadrature computes each
    mesh = make_uniform_mesh(1.0, 256)
    assert kernel_module._exact_runs(mesh, 256, FractionalOrder(alpha).sigma) == [(0, 256)]
    closed = build_kernel_table(mesh, alpha, backend="closed")
    quad = build_kernel_table(mesh, alpha, backend="quadrature")
    for x, y in ((closed.a, quad.a), (closed.c, quad.c), (closed.m, quad.m)):
        scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-300)
        assert np.max(np.abs(x - y) / scale) <= 1e-10


def _phi_psi_shared_stop(delta, alpha):
    # reference: every series entry runs until the slowest one converges
    delta = np.asarray(delta, dtype=float)
    phi = np.empty_like(delta)
    psi = np.empty_like(delta)
    small = delta <= kernel_module._SERIES_CUTOFF
    if np.any(small):
        x = delta[small]
        term = 0.5 * x * x
        sphi = term.copy()
        spsi = np.zeros_like(x)
        for m in range(3, 201):
            term = term * x * (alpha + m - 3.0) / m
            sphi += term
            inc = term * (m - 2.0)
            spsi += inc
            if np.all(inc <= 1e-17 * np.maximum(spsi, 1e-300)) and np.all(
                term <= 1e-17 * sphi
            ):
                break
        phi[small] = (1.0 - alpha) * sphi
        psi[small] = (1.0 - alpha) * spsi
    big = ~small
    if np.any(big):
        x = delta[big]
        lp = np.log1p(-x)
        e2 = np.expm1((2.0 - alpha) * lp)
        phi[big] = x + e2 / (2.0 - alpha)
        psi[big] = -2.0 * e2 / (2.0 - alpha) - x * (1.0 + np.exp((1.0 - alpha) * lp))
    return phi, psi


_DELTAS = st.one_of(
    st.floats(math.log(1e-300), math.log(0.6)).map(math.exp),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    deltas=st.lists(_DELTAS, min_size=1, max_size=300),
    alpha=st.floats(1e-3, 0.999),
)
# one binade, the slowest first: fewer than half stop at a test until the
# last tests, so the entries that stopped keep summing in place
@example(deltas=[0.5 - 0.01 * i for i in range(1, 25)], alpha=0.5)
# exactly half stop at the first test (term 4), then half of the rest at a
# later one: two compactions, each writing back the sums of the stopped
@example(deltas=[1e-300, 1e-3, 1e-300, 0.3, 1e-300, 1e-3, 1e-300, 0.3], alpha=0.5)
# a few slow entries among thousands of tiny deltas, compacted at the first
# test that the tiny ones pass
@example(deltas=[0.59 if i % 1000 == 0 else 1e-4 * (1 + i % 7) for i in range(3001)], alpha=0.3)
# series and direct entries interleaved around the cutoff 0.6
@example(
    deltas=[0.6 + (-1) ** i * 0.01 * (i // 2) for i in range(1, 13)]
    + [math.nextafter(0.6, 1.0), 1e-5, 0.6, 0.61],
    alpha=0.7,
)
# at alpha 0.5 these stop on their own after terms 33, 19, 14 and 13, all
# between two convergence tests
@example(deltas=[0.3, 0.1, 0.03, 0.02], alpha=0.5)
@example(deltas=[1e-300], alpha=0.5)
@example(deltas=[1e-300, 0.2, 1e-300], alpha=1e-3)
@example(deltas=[math.nextafter(0.6, 0.0), 0.6, math.nextafter(0.6, 1.0)], alpha=0.999)
@example(deltas=[math.nextafter(0.6, 1.0), 0.6, math.nextafter(0.6, 0.0)], alpha=1e-3)
def test_phi_psi_stops_each_entry_without_changing_a_bit(deltas, alpha):
    phi, psi = kernel_module._phi_psi(np.array(deltas), alpha)
    ref_phi, ref_psi = _phi_psi_shared_stop(np.array(deltas), alpha)
    assert np.array_equal(phi, ref_phi) and np.array_equal(psi, ref_psi)


def test_phi_psi_matches_the_shared_stop_on_every_batch_of_the_soak_stream(monkeypatch):
    # the batches _closed_a_c hands _phi_psi on the soak stream: each slab's
    # computed entries, most with delta below 1e-3, and the run's distances
    original = kernel_module._phi_psi
    sizes = []

    def checked(delta, alpha, work=None):
        ref_phi, ref_psi = _phi_psi_shared_stop(delta, alpha)
        phi, psi = original(delta, alpha, work)
        assert np.array_equal(phi, ref_phi) and np.array_equal(psi, ref_psi)
        sizes.append(delta.size)
        return phi, psi

    monkeypatch.setattr(kernel_module, "_phi_psi", checked)
    mesh = _soak_mesh()
    for _ in kernel_module._kernel_slabs(mesh, FractionalOrder(0.5), mesh.num_steps, "closed"):
        pass
    # the run's 2047 distances, then the slabs': 1,181,439 entries in all
    assert sizes[0] == 2047 and sum(sizes) == 1_181_439


def test_closed_table_is_the_same_across_block_edges():
    mesh = make_graded_mesh(1.0, 400, 2.0)
    # (k0, k1) of every slab the kernel is computed in, read from the generator
    slabs = [
        (k0, k1)
        for k0, k1, *_ in kernel_module._kernel_slabs(
            mesh, FractionalOrder(0.4), mesh.num_steps, "closed"
        )
    ]
    edges = [k1 for _, k1 in slabs[:-1]]
    assert len(edges) >= 3
    assert [k0 for k0, _ in slabs] == [0] + edges and slabs[-1][1] == mesh.num_steps
    for k0, k1 in slabs:
        assert (k1 - k0) * k1 <= kernel_module._SLAB_ENTRIES
    full = build_kernel_table(mesh, 0.4, backend="closed")
    # reference: the whole triangle in one vectorized pass
    ks, js = np.tril_indices(mesh.num_steps, k=-1)
    t_star = mesh.nodes[ks] + FractionalOrder(0.4).sigma * mesh.steps[ks]
    a, c = kernel_module._closed_a_c(
        mesh.steps[js], mesh.steps[js + 1], t_star - mesh.nodes[js], 0.4
    )
    assert np.array_equal(full.a[ks, js], a) and np.array_equal(full.c[ks, js], c)
    # 8: one slab of 8 x 8, where NumPy 2.4's np.negative between strided
    # columns misreads its input
    heads = {1, 2, 8, mesh.num_steps - 1} | {e + d for e in edges for d in (-1, 0, 1)}
    for k in sorted(heads):
        head = build_kernel_table(mesh, 0.4, n=k, backend="closed")
        assert np.array_equal(head.m, full.m[:k, :k]), k
        assert np.array_equal(head.a, full.a[:k, :k]) and np.array_equal(head.c, full.c[:k, :k])


def _soak_mesh():
    # the soak command's mesh: 512 graded steps on [0, 1], then 2048 equal
    # steps of 49/2048 to t = 50, on which every node is exact
    return make_graded_then_uniform(50.0, 2560, 2.0, 1.0, 512)


def _fuzzed_mesh(num_steps, seed):
    ratios = np.random.default_rng(seed).uniform(_ETA, 3.0, size=num_steps - 1)
    return TimeMesh(np.concatenate([[0.0], np.cumsum(np.cumprod([1.0, *ratios]))]))


def _contrast_mesh():
    # steps from 1e-140 to 0.25: products of two steps leave the normal range
    # (the closed forms' low branch), and runs of equal tiny steps give exact runs
    return TimeMesh(np.cumsum([0.0] + [1e-140] * 200 + [1e-70] * 50 + [1e-5] * 50 + [0.25] * 300))


def _back_to_back_runs_mesh():
    # two exact runs from node 0: 300 steps of 2^-9, then 300 of 2^-7; the
    # second starts inside the slab of levels 293..378
    return TimeMesh(np.concatenate([[0.0], np.cumsum([2.0**-9] * 300 + [2.0**-7] * 300)]))


def _run_between_graded_mesh():
    # 181 graded steps to t = 1, an exact run of 150 steps of 2^-6 whose
    # first level, 182, is the first row of the second slab, then steps
    # that grow again
    run = 1.0 + np.arange(1, 151) / 64
    tail = run[-1] + np.cumsum(np.linspace(1.0, 3.0, 201)[1:] / 64)
    return TimeMesh(np.concatenate([make_graded_mesh(1.0, 181, 2.0).nodes, run, tail]))


def _off_grid_run_mesh():
    # 16 bit-equal steps of 2^-4 + 3*2^-52 ending at 2.0625: every node but
    # the last lies below 2 and is an odd multiple of 2^-52, so at alpha 0.5
    # the last offset point rounds to the coarser grid above 2 and its spans
    # are not those of the run's first column; an exact run of 2^-4 follows
    step = 2.0**-4 + 3 * 2.0**-52
    start = 2.0625 - 16 * step
    return TimeMesh(np.concatenate([
        make_graded_mesh(start, 200, 2.0).nodes,
        start + step * np.arange(1, 17),
        2.0625 + np.arange(1, 201) / 16,
    ]))


def _long_off_grid_run_mesh():
    # the same at the shortest length an exact run may have: 128 bit-equal
    # steps of 2^-6 + 3*2^-52 ending at 2 + 2^-6, whose last offset point
    # rounds to the coarser grid above 2; an exact run of 2^-6 follows
    step = 2.0**-6 + 3 * 2.0**-52
    start = 2.0 + 2.0**-6 - 128 * step
    return TimeMesh(np.concatenate([
        make_graded_mesh(start, 100, 2.0).nodes,
        start + step * np.arange(1, 129),
        2.0 + 2.0**-6 + np.arange(1, 201) / 64,
    ]))


# (mesh, alpha, first row checked); the reference is the whole triangle, so
# on the long mesh, whose dense table would take 3 GB, only its last rows
# are checked, read from the stream
_REUSE_CASES = {
    "soak": (_soak_mesh(), 0.5, 0),
    "dyadic-uniform": (make_uniform_mesh(1.0, 512), 0.5, 0),
    "graded": (make_graded_mesh(1.0, 400, 2.0), 0.5, 0),
    "fuzzed": (_fuzzed_mesh(400, 11), 0.5, 0),
    # a tail step of 49/1200: node rounding breaks most equalities
    "non-dyadic-tail": (make_graded_then_uniform(50.0, 1500, 2.0, 1.0, 300), 0.5, 0),
    "contrast-1e140": (_contrast_mesh(), 0.5, 0),
    "alpha-0.01": (make_graded_then_uniform(5.0, 640, 2.0, 1.0, 128), 0.01, 0),
    "alpha-0.99": (make_graded_then_uniform(5.0, 640, 2.0, 1.0, 128), 0.99, 0),
    "long": (make_uniform_mesh(11.0, 11264), 0.5, 11000),
    "back-to-back-runs": (_back_to_back_runs_mesh(), 0.5, 0),
    "run-between-graded": (_run_between_graded_mesh(), 0.5, 0),
    "off-grid-run": (_off_grid_run_mesh(), 0.5, 0),
    "long-off-grid-run": (_long_off_grid_run_mesh(), 0.5, 0),
}


def test_exact_runs_need_on_grid_nodes_and_one_offset():
    step = 2.0**-4
    nodes = np.arange(8) * step  # from a zero node
    assert kernel_module._is_exact_run(nodes, nodes + 0.75 * step)
    assert kernel_module._is_exact_run(1.0 + nodes, 1.0 + nodes + 0.75 * step)
    # one offset from odd multiples of 2^-52 below 2: the last offset point,
    # 2.046875, puts the grid at 2^-51
    off = 2.0 - 2.0**-52 - nodes[::-1]
    assert np.all((off + (0.75 * step + 2.0**-52)) - off == 0.75 * step + 2.0**-52)
    assert not kernel_module._is_exact_run(off, off + (0.75 * step + 2.0**-52))
    # every point on the grid, but one offset point sits a grid step further
    t_star = 1.0 + nodes + 0.75 * step
    t_star[3] += 2.0**-52
    assert not kernel_module._is_exact_run(1.0 + nodes, t_star)
    # the streams' runs: the soak's whole tail; on the off-grid mesh only the
    # run of 2^-4 after the off-grid one
    assert kernel_module._exact_runs(_soak_mesh(), 2560, 0.75) == [(512, 2560)]
    assert kernel_module._exact_runs(_off_grid_run_mesh(), 416, 0.75) == [(216, 416)]
    assert kernel_module._exact_runs(_long_off_grid_run_mesh(), 428, 0.75) == [(228, 428)]
    assert kernel_module._exact_runs(_back_to_back_runs_mesh(), 600, 0.75) == [(0, 300), (300, 600)]
    assert kernel_module._exact_runs(_run_between_graded_mesh(), 531, 0.75) == [(181, 331)]
    # a run of fewer than _MIN_RUN = 128 steps is computed like any other
    assert kernel_module._exact_runs(make_uniform_mesh(127 / 128, 127), 127, 0.75) == []
    assert kernel_module._exact_runs(make_uniform_mesh(1.0, 128), 128, 0.75) == [(0, 128)]


def _reference_rows(mesh, order, r0, r1):
    """Rows ``r0..r1-1`` of ``a``, ``c`` and ``m`` (``(r1 - r0) x r1``), every
    valid entry computed by one closed pass and ``m`` formed from them."""
    tau, nodes, alpha = mesh.steps, mesh.nodes, order.alpha
    i, js = np.tril_indices(r1 - r0, k=r0 - 1, m=r1)
    w0 = nodes[i + r0] + order.sigma * tau[i + r0] - nodes[js]
    a, c = np.zeros((r1 - r0, r1)), np.zeros((r1 - r0, r1))
    a[i, js], c[i, js] = kernel_module._closed_a_c(tau[js], tau[js + 1], w0, alpha)
    m = np.zeros_like(a)
    m[:, 1:] = c[:, :-1] - a[:, 1:]
    m[:, 0] = -a[:, 0]
    diag = [order.sigma ** (1.0 - alpha) / ((1.0 - alpha) * t**alpha) for t in tau[r0:r1]]
    m[np.arange(r1 - r0), np.arange(r0, r1)] += diag
    return a, c, m


def _stream_rows(mesh, order, first):
    """Rows ``first..n-1`` of ``a``, ``c`` and ``m`` as the closed stream hands
    them out: a slab's stored columns, and inside a run the run's table from
    the row's window on."""
    for k0, k1, a, c, m, _, run in kernel_module._kernel_slabs(
        mesh, order, mesh.num_steps, "closed"
    ):
        for r in range(max(k0, first), k1):
            i = r - k0
            if run is None:
                yield a[i, :r], c[i, :r], m[i, : r + 1]
            else:
                at = run.end - 1 - r
                yield (
                    np.concatenate([a[i], run.a[at + 1 :]]),
                    np.concatenate([c[i], run.c[at + 1 :]]),
                    np.concatenate([m[i], run.m[at:]]),
                )


@pytest.mark.parametrize("case", list(_REUSE_CASES))
def test_closed_slabs_reuse_entries_bit_for_bit(case):
    # every entry, the run entries and the column where m mixes a computed
    # c with a run's a included, against the whole triangle computed entry
    # by entry: the dense table, and the rows as the stream hands them out
    mesh, alpha, first = _REUSE_CASES[case]
    order = FractionalOrder(alpha)
    n = mesh.num_steps
    # slab edges fall inside the uniform runs
    assert len(kernel_module._slab_layout(mesh, n, order.sigma, "closed")[1]) >= 3
    table = build_kernel_table(mesh, order, backend="closed") if first == 0 else None
    rows = _stream_rows(mesh, order, first)
    step = max(2**19 // n, 1)
    for r0 in range(first, n, step):
        r1 = min(r0 + step, n)
        ref_a, ref_c, ref_m = _reference_rows(mesh, order, r0, r1)
        if table is not None:
            assert np.array_equal(table.a[r0:r1, :r1], ref_a), (r0, r1)
            assert np.array_equal(table.c[r0:r1, :r1], ref_c), (r0, r1)
            assert np.array_equal(table.m[r0:r1, :r1], ref_m), (r0, r1)
        for i, r in enumerate(range(r0, r1)):
            a, c, m = next(rows)
            assert np.array_equal(a, ref_a[i, :r]) and np.array_equal(c, ref_c[i, :r]), r
            assert np.array_equal(m, ref_m[i, : r + 1]), r
    assert next(rows, None) is None


def _recorded_batches(monkeypatch, name, mesh, order, backend):
    """The stream's slabs and the input batch each hands the entry map ``name``.

    The entry map is replaced by the closed forms, so the slabs of both
    backends are the same bits.  Both are copied: the inputs are views of
    the stream's workspace, and a slab is valid until the next one is
    requested.
    """
    closed_a_c = kernel_module._closed_a_c
    calls = []

    def recorded(tj, tj1, w0, alpha, *work):
        calls.append((tj.copy(), tj1.copy(), w0.copy()))
        return closed_a_c(tj, tj1, w0, alpha, *work)

    with monkeypatch.context() as patch:
        patch.setattr(kernel_module, name, recorded)
        return _copied(kernel_module._kernel_slabs(mesh, order, mesh.num_steps, backend)), calls


def test_quadrature_slabs_share_the_closed_layout(monkeypatch):
    # without exact runs the closed stream makes one _closed_a_c call a
    # slab; the quadrature must integrate exactly that batch, in that order
    mesh = _fuzzed_mesh(300, 3)
    order = FractionalOrder(0.4)
    assert kernel_module._exact_runs(mesh, mesh.num_steps, order.sigma) == []
    _, closed_calls = _recorded_batches(monkeypatch, "_closed_a_c", mesh, order, "closed")
    slabs, calls = _recorded_batches(monkeypatch, "_quadrature_a_c", mesh, order, "quadrature")
    closed = build_kernel_table(mesh, order, backend="closed")
    assert len(slabs) >= 2 and len(calls) == len(closed_calls) == len(slabs)
    for (k0, k1, a, c, *_), batch, closed_batch in zip(slabs, calls, closed_calls):
        assert all(np.array_equal(x, y) for x, y in zip(batch, closed_batch)), (k0, k1)
        assert np.array_equal(a, closed.a[k0:k1, :k1]) and np.array_equal(c, closed.c[k0:k1, :k1])


def _dense_block_quadrature_slab(mesh, order, k0, k1):
    """A quadrature slab's ``a`` and ``c`` from one dense block of inputs.

    The reference layout: the inputs of the whole ``(k1 - k0) x (k1 - 1)``
    block are broadcast, its valid entries are taken through a ``np.tri``
    mask in row-major order, integrated in one batch and scattered back
    through the same mask.
    """
    tau, nodes = mesh.steps, mesh.nodes
    rows, width = k1 - k0, k1 - 1
    a, c = np.zeros((rows, k1)), np.zeros((rows, k1))
    t_star = nodes[k0:k1] + order.sigma * tau[k0:k1]
    w0 = t_star[:, None] - nodes[None, :width]
    tj = np.broadcast_to(tau[:width], w0.shape)
    tj1 = np.broadcast_to(tau[1:k1], w0.shape)
    valid = np.tri(rows, width, k0 - 1, dtype=bool)
    if valid.any():
        a[:, :width][valid], c[:, :width][valid] = kernel_module._quadrature_a_c(
            tj[valid], tj1[valid], w0[valid], order.alpha
        )
    return a, c


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 0.999])
@pytest.mark.parametrize("num_steps", [1, 2, 420])
def test_quadrature_slabs_match_the_dense_block_reference(num_steps, alpha):
    mesh = make_graded_mesh(1.0, num_steps, 2.0)
    order = FractionalOrder(alpha)
    slabs = _copied(kernel_module._kernel_slabs(mesh, order, num_steps, "quadrature"))
    assert len(slabs) == (4 if num_steps == 420 else 1)
    for k0, k1, a, c, *_ in slabs:
        ref_a, ref_c = _dense_block_quadrature_slab(mesh, order, k0, k1)
        assert np.array_equal(a, ref_a) and np.array_equal(c, ref_c), (k0, k1)


def test_closed_slabs_compute_a_uniform_run_once_per_distance(monkeypatch):
    mesh = _soak_mesh()
    n = mesh.num_steps
    original = kernel_module._closed_a_c
    computed = []

    def counted(tau_j, tau_j1, w0, alpha, *work):
        computed.append(tau_j.size)
        return original(tau_j, tau_j1, w0, alpha, *work)

    monkeypatch.setattr(kernel_module, "_closed_a_c", counted)
    for _ in kernel_module._kernel_slabs(mesh, FractionalOrder(0.5), n, "closed"):
        pass
    # the entries with j <= 512 touch the graded head and are all computed:
    # 512 * 2048 in the tail's rows and the head's triangle of 130,816; the
    # 2,096,128 on the uniform tail are copied from its 2,047 distances
    assert n == 2560 and sum(computed) == 512 * 2048 + 130_816 + 2_047


def test_closed_build_memory_is_bounded_by_the_stored_table():
    # the table stores three dense n x n arrays (a, c, m); the build may
    # add a fixed allowance on top of them, not a multiple of the triangle
    mesh = make_graded_mesh(1.0, 1024, 2.0)
    n = mesh.num_steps
    tracemalloc.start()
    try:
        build_kernel_table(mesh, 0.5, backend="closed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n * n + 16 * 2**20


def test_closed_stream_memory_stays_small():
    # the stream's workspace is a few arrays of at most _SLAB_ENTRIES entries
    # each, whatever K is; at K=2560 the stream peaks near 3.08 MB
    mesh = _soak_mesh()
    tracemalloc.start()
    try:
        for _ in kernel_module._kernel_slabs(mesh, FractionalOrder(0.5), mesh.num_steps, "closed"):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_a_slab_allocates_almost_nothing_once_the_workspace_exists():
    # the stream fills every slab in one workspace, allocated with the first:
    # a later slab may add only a mask, a few index arrays and small
    # temporaries while it is filled (about 0.26 MB here; a fresh fill of
    # every slab rises by up to 4 MB), and holds nothing new once yielded
    mesh = _soak_mesh()
    slabs = kernel_module._kernel_slabs(mesh, FractionalOrder(0.5), mesh.num_steps, "closed")
    rises, held_after = [], []
    tracemalloc.start()
    try:
        while True:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            if next(slabs, None) is None:
                break
            now, peak = tracemalloc.get_traced_memory()
            rises.append(peak - held)
            held_after.append(now)
        del slabs
        tracemalloc.reset_peak()
        for _ in kernel_module._kernel_slabs(mesh, FractionalOrder(0.5), mesh.num_steps, "closed"):
            pass
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fuzzed = _fuzzed_mesh(128, 5)
        for _ in kernel_module._kernel_slabs(fuzzed, FractionalOrder(0.5), 128, "closed"):
            pass
        _, fuzzed_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 5 slabs up to the run's first row, then 36 of at most 57 rows of 513
    # stored columns inside the run
    assert len(rises) == 41 and max(rises[1:]) <= 512 * 2**10
    assert max(abs(now - held_after[0]) for now in held_after) <= 128 * 2**10
    # no more than the per-slab allocations of a fresh fill peaked at:
    # 5.25 MB on the soak mesh, 1.35 MB on a 128-level fuzzed mesh
    assert stream_peak <= 5.25e6 and fuzzed_peak <= 1.35e6


def _copied(slabs):
    """Each slab's items as arrays, copied: inside a run its bounds and
    table follow the first six."""
    copies = []
    for *items, run in slabs:
        if run is not None:
            items += [np.array([run.start, run.end]), run.a, run.c, run.m, run.w]
        copies.append(tuple(np.copy(x) for x in items))
    return copies


def test_two_streams_share_no_buffer():
    # two streams on different meshes and orders, advanced in turn in one
    # thread: each slab is copied only once the other stream has filled its
    # next slab, and every one matches its stream's run alone
    runs = [
        (_soak_mesh().head(1200), FractionalOrder(0.5)),
        (make_graded_mesh(1.0, 700, 2.0), FractionalOrder(0.97)),
    ]
    alone = [_copied(kernel_module._kernel_slabs(m, o, m.num_steps, "closed")) for m, o in runs]
    streams = [
        (i, kernel_module._kernel_slabs(m, o, m.num_steps, "closed"))
        for i, (m, o) in enumerate(runs)
    ]
    interleaved = [[], []]
    while streams:
        held = [(i, next(stream, None)) for i, stream in streams]
        streams = [(i, stream) for (i, stream), (_, slab) in zip(streams, held) if slab is not None]
        for i, slab in held:
            if slab is not None:
                interleaved[i].extend(_copied([slab]))
    assert min(len(slabs) for slabs in alone) >= 3
    for own, mixed in zip(alone, interleaved):
        assert len(own) == len(mixed)
        for x, y in zip(own, mixed):
            assert all(np.array_equal(u, v) for u, v in zip(x, y))


def test_operator_annihilates_constants():
    mesh = make_graded_mesh(1.0, 6, 2.0)
    table = build_kernel_table(mesh, 0.5, backend="closed")
    history = np.full(7, 3.7)
    for k in range(1, 7):
        assert apply_operator(table.row(k), history, 0.5) == pytest.approx(0.0, abs=1e-13)


def _delta_form(row, history, order):
    """The operator's increment form, the oracle for :func:`apply_operator`:
    the level increments weighted with ``a, d, c``."""
    deltas = np.diff(history[: row.k + 1], axis=0)
    if row.k == 1:
        value = row.m_row[0] * deltas[0]
    else:
        # m_{k,k} * delta_k bundles the current-interval weight with c_{k-1}
        value = row.m_row[-1] * deltas[-1] - row.a[0] * deltas[0]
        if row.k >= 3:
            value = value + np.tensordot(row.d, deltas[1 : row.k - 1], axes=(0, 0))
    return float(value / order.gamma_1ma)


def test_operator_forms_agree():
    mesh = make_graded_mesh(1.0, 12, 2.0 / 0.7)
    order = FractionalOrder(0.7)
    table = build_kernel_table(mesh, order, backend="closed")
    rng = np.random.default_rng(7)
    history = rng.standard_normal(13)
    for k in range(1, 13):
        row = table.row(k)
        via_history = apply_operator(row, history, order)
        via_delta = _delta_form(row, history, order)
        scale = max(abs(via_history), abs(via_delta), 1e-30)
        assert abs(via_history - via_delta) <= 1e-12 * scale


def test_operator_handles_field_histories():
    mesh = make_uniform_mesh(1.0, 4)
    row = build_kernel_table(mesh, 0.5, n=3).row(3)
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
        build_kernel_table(mesh, 0.5).row(6)  # beyond the mesh's levels
    with pytest.raises(ValidationError):
        build_kernel_table(mesh, 0.5, n=0)
    with pytest.raises(ValidationError):
        build_kernel_table(mesh, 0.5, n=2, backend="exact")


def test_dump_kernel_csv(tmp_path):
    mesh = make_graded_mesh(1.0, 5, 2.0)
    table = build_kernel_table(mesh, 0.5, backend="closed")
    path = tmp_path / "kernel.csv"
    # the header is written as given, with no line of its own added
    header = reproducibility_header("kernel-coefficients", {"mesh": "r=2", "backend": "closed"})
    dump_kernel_csv(table, path, header_lines=header)
    lines = path.read_text().splitlines()
    assert lines[:4] == [
        f"# subdiff {subdiff.__version__} kernel-coefficients",
        "# mesh = r=2",
        "# backend = closed",
        "level,interval,t_star,a,b,c,d,m",
    ]
    # one row per (k, j) history entry, every float written with repr
    data = lines[4:]
    assert len(data) == sum(k for k in range(1, 6))
    for line in data:
        k, j, t_star, a, b, c, d, m = line.split(",")
        row = table.row(int(k))
        j = int(j)
        assert t_star == repr(row.t_star)
        assert m == repr(float(row.m_row[j - 1]))
        if j < int(k):
            assert (a, b, c) == tuple(repr(float(v[j - 1])) for v in (row.a, row.b, row.c))
        else:
            assert a == b == c == ""
        assert d == (repr(float(row.d[j - 2])) if 2 <= j < int(k) else "")
