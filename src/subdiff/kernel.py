"""Discrete fractional-derivative kernel on nonuniform meshes.

The time-fractional derivative of order ``alpha`` in (0, 1) is discretized at
the offset points ``t_k* = t_{k-1} + sigma*tau_k`` with ``sigma = 1 - alpha/2``
using a piecewise-quadratic reconstruction of the history on earlier intervals
and a linear one on the current interval.  Each level ``k`` contributes three
per-interval coefficient families ``a_j, b_j, c_j`` (j = 1..k-1) that sum to
zero, the combined weights ``d_j = c_{j-1} - a_j``, and a lower-triangular
history row ``m_{k,1..k}``; the operator value is an m-weighted combination of
the history divided by ``Gamma(1-alpha)``.

Two independent evaluation backends are provided:

* ``"quadrature"`` (default): adaptive Gauss-Kronrod integration of the
  defining integrals, batched per row.
* ``"closed"``: cancellation-free evaluation of the antiderivative formulas,
  accurate to machine precision for any step-size contrast.

Their agreement on every coefficient is a regression-tested invariant, so
either can serve as the oracle for the other.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, quad_vec

from .errors import (
    DimensionMismatchError,
    NumericalError,
    QuadratureConvergenceError,
    SingularDiagonalError,
    ValidationError,
)
from .meshes import TimeMesh

__all__ = [
    "FractionalOrder",
    "QuadratureSettings",
    "KernelRow",
    "KernelTable",
    "as_fractional_order",
    "coeff_quadrature",
    "coeff_closed_form",
    "build_kernel_row",
    "build_kernel_table",
    "apply_operator",
    "caputo_reference",
    "dump_kernel_csv",
]

logger = logging.getLogger(__name__)

BACKENDS = ("quadrature", "closed")

# Below this step/history-span ratio the antiderivative formulas are summed as
# series; above it direct expm1/log1p evaluation is already stable.
_SERIES_CUTOFF = 0.6


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional order ``alpha`` with its derived scheme constants.

    ``sigma = 1 - alpha/2`` is the intra-step offset of the evaluation points;
    the two gamma values appear in every operator and scheme formula.
    """

    alpha: float
    sigma: float = field(init=False)
    gamma_1ma: float = field(init=False)
    gamma_2ma: float = field(init=False)

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"fractional order must lie in (0, 1), got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", 1.0 - 0.5 * alpha)
        object.__setattr__(self, "gamma_1ma", math.gamma(1.0 - alpha))
        object.__setattr__(self, "gamma_2ma", math.gamma(2.0 - alpha))


def as_fractional_order(value: "float | FractionalOrder") -> FractionalOrder:
    """Coerce a bare ``alpha`` or an existing order object to FractionalOrder."""
    if isinstance(value, FractionalOrder):
        return value
    return FractionalOrder(float(value))


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for the adaptive Gauss-Kronrod coefficient integrals."""

    rel_tol: float = 1e-13
    abs_tol: float = 1e-15
    max_subdivisions: int = 2**20

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0 or not 0.0 <= self.abs_tol < 1.0:
            raise ValidationError("quadrature tolerances must lie in (0, 1)")
        if self.max_subdivisions < 10:
            raise ValidationError("max_subdivisions must be at least 10")


_DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class KernelRow:
    """All level-``k`` kernel data, as read-only views into a :class:`KernelTable`.

    ``a, b, c`` have length ``k-1`` (entry ``j-1`` holds the coefficient for
    history interval ``j``); ``a < 0 < b, c`` and ``a + b + c = 0``.  ``d``
    holds ``d_j = c_{j-1} - a_j`` for ``j = 2..k-1`` (length ``k-2``), the
    interior of the history row ``m_row = m_{k,1..k}``; ``t_star`` is the
    offset evaluation time of the level.  ``b`` is derived on access as
    ``-(a + c)``; the independently integrated value is available from
    :func:`coeff_quadrature`.
    """

    k: int
    a: np.ndarray
    c: np.ndarray
    d: np.ndarray
    m_row: np.ndarray
    t_star: float

    @property
    def b(self) -> np.ndarray:
        return -(self.a + self.c)


class KernelTable:
    """Kernel data for levels ``1..n`` on one mesh, assembled once.

    ``a`` and ``c`` are ``(n, n)`` arrays with ``a[k-1, j-1] = a_j^k`` for
    ``1 <= j < k`` and zero elsewhere; ``m`` is the lower-triangular history
    matrix ``M`` (row ``k-1`` holds ``m_{k,1..k}``, its interior the weights
    ``d_j``) and ``t_star[k-1]`` the offset point of level ``k``.  All are
    read-only, and rows are views into them.
    """

    def __init__(
        self,
        mesh: TimeMesh,
        order: FractionalOrder,
        backend: str,
        a: np.ndarray,
        c: np.ndarray,
        m: np.ndarray,
        t_star: np.ndarray,
    ):
        self.mesh = mesh
        self.order = order
        self.backend = backend
        for arr in (a, c, m, t_star):
            arr.flags.writeable = False
        self.a, self.c, self.m, self.t_star = a, c, m, t_star

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def row(self, k: int) -> KernelRow:
        """Row for level ``k`` (1-based)."""
        if not 1 <= k <= self.n:
            raise ValidationError(f"level must lie in [1, {self.n}], got {k}")
        i = k - 1
        return KernelRow(
            k=k,
            a=self.a[i, :i],
            c=self.c[i, :i],
            d=self.m[i, 1:i],
            m_row=self.m[i, :k],
            t_star=float(self.t_star[i]),
        )

    def __iter__(self):
        return (self.row(k) for k in range(1, self.n + 1))

    def matrix(self) -> np.ndarray:
        """Dense lower-triangular history matrix ``M`` of shape (n, n)."""
        return self.m


# ---------------------------------------------------------------------------
# closed-form backend
# ---------------------------------------------------------------------------


def _phi_psi(delta: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Stable evaluation of the two antiderivative remainder functions.

    ``phi(x) = x + ((1-x)^{2-alpha} - 1)/(2-alpha)`` and
    ``psi(x) = 2*(1-(1-x)^{2-alpha})/(2-alpha) - x*(1+(1-x)^{1-alpha})``
    both vanish to second/third order at ``x = 0``, so direct evaluation loses
    all relative accuracy for small ``x``.  Below ``_SERIES_CUTOFF`` they are
    summed as explicit power series with positive terms; above it the direct
    expm1/log1p forms are used.  Inputs must satisfy ``0 < delta < 1``.
    """
    delta = np.asarray(delta, dtype=float)
    phi = np.empty_like(delta)
    psi = np.empty_like(delta)
    small = delta <= _SERIES_CUTOFF
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


def _closed_a_c(
    tau_j: np.ndarray,
    tau_j1: np.ndarray,
    w0: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form ``a_j^k`` and ``c_j^k``.

    ``tau_j`` and ``tau_j1`` are the step sizes of intervals ``j`` and
    ``j+1``; ``w0 = t_k* - t_{j-1}`` is the span from the interval's left end
    to the evaluation point.  All inputs must be positive with
    ``tau_j < w0``.
    """
    delta = tau_j / w0
    phi, psi = _phi_psi(delta, alpha)
    one_m = 1.0 - alpha
    # w0^{1-alpha} - (w0-tau_j)^{1-alpha}, computed without cancellation
    head = -(w0**one_m) * np.expm1(one_m * np.log1p(-delta))
    a = -(tau_j1 * head + 2.0 * w0 ** (2.0 - alpha) * phi) / (
        one_m * tau_j * (tau_j + tau_j1)
    )
    c = w0 ** (2.0 - alpha) * psi / (one_m * tau_j1 * (tau_j + tau_j1))
    return a, c


def _closed_row_a_c(
    mesh: TimeMesh, order: FractionalOrder, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``a`` and ``c`` vectors (j = 1..k-1) for level ``k >= 2``."""
    tau = mesh.steps
    nodes = mesh.nodes
    t_star = nodes[k - 1] + order.sigma * tau[k - 1]
    j = np.arange(1, k)
    return _closed_a_c(tau[j - 1], tau[j], t_star - nodes[j - 1], order.alpha)


def _closed_triangle(mesh: TimeMesh, order: FractionalOrder, a: np.ndarray, c: np.ndarray) -> None:
    """Fill the ``(n, n)`` coefficient triangles ``a`` and ``c`` in closed form.

    The whole triangle is evaluated in one vectorized pass, which keeps large
    tables and diagnostic sweeps cheap.
    """
    ks, js = np.tril_indices(a.shape[0], k=-1)  # entry (k-1, j-1) for 1 <= j < k
    tau = mesh.steps
    nodes = mesh.nodes
    t_star = nodes[ks] + order.sigma * tau[ks]
    a[ks, js], c[ks, js] = _closed_a_c(tau[js], tau[js + 1], t_star - nodes[js], order.alpha)


# ---------------------------------------------------------------------------
# quadrature backend
# ---------------------------------------------------------------------------


def _quad_scalar(f: Callable[[float], float], lo: float, hi: float, settings: QuadratureSettings) -> float:
    res = quad(
        f,
        lo,
        hi,
        epsabs=settings.abs_tol,
        epsrel=settings.rel_tol,
        limit=settings.max_subdivisions,
        full_output=1,
    )
    # the integrator may flag its own stopping heuristics near the roundoff
    # floor; what the contract requires is the achieved error estimate, so
    # judge that against the configured tolerances directly
    value, abserr = float(res[0]), float(res[1])
    if len(res) > 3 and abserr > max(settings.abs_tol, settings.rel_tol * abs(value)):
        raise QuadratureConvergenceError(str(res[3]))
    return value


def coeff_quadrature(
    mesh: TimeMesh,
    order: "float | FractionalOrder",
    k: int,
    j: int,
    settings: QuadratureSettings | None = None,
) -> tuple[float, float, float]:
    """Single coefficient triple ``(a_j^k, b_j^k, c_j^k)`` by adaptive quadrature.

    ``a`` and ``b`` integrate their defining reconstruction-weight integrands
    directly; ``c`` integrates the positive reformulation
    ``alpha*tau_j^3/(tau_{j+1}*(tau_j+tau_{j+1})) * int_0^1 s*(1-s)*
    (t_k* - t_j + s*tau_j)^{-alpha-1} ds``, which is exactly equal to the
    antisymmetric original but immune to the digit loss that cancellation in
    the original causes once ``t_k* - t_j >> tau_j``.
    """
    order = as_fractional_order(order)
    settings = settings or _DEFAULT_SETTINGS
    _check_kj(mesh, k, j)
    alpha, sigma = order.alpha, order.sigma
    tau = mesh.steps
    nodes = mesh.nodes
    tj, tj1 = tau[j - 1], tau[j]
    t_star = nodes[k - 1] + sigma * tau[k - 1]
    w0 = t_star - nodes[j - 1]
    wj = t_star - nodes[j]

    def fa(theta: float) -> float:
        return (-2.0 * tj * (1.0 - theta) - tj1) / (
            (tj + tj1) * (w0 - theta * tj) ** alpha
        )

    def fb(theta: float) -> float:
        return (tj + tj1 - 2.0 * tj * theta) / (tj1 * (w0 - theta * tj) ** alpha)

    def fc(s: float) -> float:
        return s * (1.0 - s) * (wj + s * tj) ** (-alpha - 1.0)

    a = _quad_scalar(fa, 0.0, 1.0, settings)
    b = _quad_scalar(fb, 0.0, 1.0, settings)
    c_pref = alpha * tj**3 / (tj1 * (tj + tj1))
    c = c_pref * _quad_scalar(fc, 0.0, 1.0, settings)
    return a, b, c


def _quadrature_row_a_c(
    mesh: TimeMesh, order: FractionalOrder, k: int, settings: QuadratureSettings
) -> tuple[np.ndarray, np.ndarray]:
    """Batched adaptive quadrature of all level-``k`` coefficients at once.

    Every component integrand is pre-divided by its closed-form magnitude so
    the max-norm error control of the vectorized integrator delivers uniform
    RELATIVE accuracy across coefficients that differ by many orders of
    magnitude.  The scale factors divide out of the quadrature value, so the
    result stays an independent check on the closed forms.
    """
    alpha, sigma = order.alpha, order.sigma
    tau = mesh.steps
    nodes = mesh.nodes
    t_star = nodes[k - 1] + sigma * tau[k - 1]
    j = np.arange(1, k)
    tj = tau[j - 1]
    tj1 = tau[j]
    w0 = t_star - nodes[j - 1]
    wj = t_star - nodes[j]
    a_ref, c_ref = _closed_row_a_c(mesh, order, k)
    a_scale = np.abs(a_ref)
    c_pref = alpha * tj**3 / (tj1 * (tj + tj1))

    def integrand(theta: float) -> np.ndarray:
        fa = (-2.0 * tj * (1.0 - theta) - tj1) / (
            (tj + tj1) * (w0 - theta * tj) ** alpha
        )
        fc = c_pref * theta * (1.0 - theta) * (wj + theta * tj) ** (-alpha - 1.0)
        return np.concatenate([fa / a_scale, fc / c_ref])

    res, err, info = quad_vec(
        integrand,
        0.0,
        1.0,
        epsabs=settings.abs_tol,
        epsrel=settings.rel_tol,
        norm="max",
        limit=settings.max_subdivisions,
        full_output=True,
    )
    # the integrator's success flag enforces an internal safety margin well
    # below the requested tolerance and trips on the roundoff floor of O(1)
    # integrands; the contract is the achieved error estimate itself, in
    # max-norm over components normalized to unit magnitude (so ``err``
    # bounds the RELATIVE error of every coefficient)
    achieved = max(settings.abs_tol, settings.rel_tol * float(np.max(np.abs(res))))
    if not info.success and err > achieved:
        raise QuadratureConvergenceError(
            f"level {k}: batched coefficient quadrature did not converge "
            f"(error estimate {err:.3e}, tolerance {achieved:.3e})"
        )
    m = k - 1
    return res[:m] * a_scale, res[m:] * c_ref


# ---------------------------------------------------------------------------
# rows, tables, operator application
# ---------------------------------------------------------------------------


def build_kernel_row(
    mesh: TimeMesh,
    order: "float | FractionalOrder",
    k: int,
    backend: str = "quadrature",
    settings: QuadratureSettings | None = None,
) -> KernelRow:
    """Build the level-``k`` kernel row with the chosen backend."""
    k = int(k)
    return build_kernel_table(mesh, order, n=k, backend=backend, settings=settings).row(k)


def build_kernel_table(
    mesh: TimeMesh,
    order: "float | FractionalOrder",
    n: int | None = None,
    backend: str = "quadrature",
    settings: QuadratureSettings | None = None,
) -> KernelTable:
    """Assemble the kernel table for levels ``1..n`` (default: all steps).

    The closed backend fills the coefficient triangles in one vectorized
    pass, the quadrature backend row by row; the history matrix is then
    assembled from them at once.  Raises :class:`SingularDiagonalError` when
    a diagonal entry is not positive and :class:`NumericalError` when any
    coefficient is not finite.
    """
    order = as_fractional_order(order)
    _check_backend(backend)
    n = _check_levels(mesh, n)
    tau = mesh.steps
    a = np.zeros((n, n))
    c = np.zeros((n, n))
    if backend == "closed":
        _closed_triangle(mesh, order, a, c)
    else:
        settings = settings or _DEFAULT_SETTINGS
        for k in range(2, n + 1):
            a[k - 1, : k - 1], c[k - 1, : k - 1] = _quadrature_row_a_c(mesh, order, k, settings)
    # one scalar power per level: a vectorized power can differ in the last
    # bit, which would change every solution the march writes
    diag = np.array([
        order.sigma ** (1.0 - order.alpha) / ((1.0 - order.alpha) * t**order.alpha)
        for t in tau[:n]
    ])
    m = np.empty((n, n))
    # d_j = c_{j-1} - a_j off the diagonal, c_{k-1} on it, zero above it
    np.subtract(c[:, :-1], a[:, 1:], out=m[:, 1:])
    m[:, 0] = -a[:, 0]
    m[np.diag_indices(n)] += diag
    diag_m = np.diag(m)
    bad = np.flatnonzero(~(np.isfinite(diag_m) & (diag_m > 0.0)))
    if bad.size:
        raise SingularDiagonalError(
            f"level {bad[0] + 1}: diagonal entry {diag_m[bad[0]]!r} is not positive"
        )
    # every a_j and c_j enters one entry of M, so this covers them too
    bad = np.flatnonzero(~np.all(np.isfinite(m), axis=1))
    if bad.size:
        raise NumericalError(
            f"{backend} kernel table: {bad.size} of {n} levels hold non-finite "
            f"coefficients (first at level {bad[0] + 1})"
        )
    t_star = mesh.nodes[:n] + order.sigma * tau[:n]
    logger.debug("built %s kernel table with %d levels", backend, n)
    return KernelTable(mesh, order, backend, a, c, m, t_star)


def apply_operator(
    row: KernelRow,
    history: np.ndarray,
    order: "float | FractionalOrder",
    form: str = "history",
) -> np.ndarray | float:
    """Apply the level-``k`` discrete fractional derivative to a history.

    ``history`` holds the solution values at levels ``0..k`` along its first
    axis (extra trailing axes are carried through).  ``form`` selects the
    algebraically equivalent evaluation: ``"history"`` combines the history
    row ``m``, ``"delta"`` weights the level increments with ``a, d, c``; the
    two agree to a relative 1e-12 and the difference is a test invariant.
    """
    order = as_fractional_order(order)
    hist = np.asarray(history, dtype=float)
    k = row.k
    if hist.shape[0] < k + 1:
        raise DimensionMismatchError(
            f"history needs at least {k + 1} levels, got {hist.shape[0]}"
        )
    hist = hist[: k + 1]
    if form == "history":
        m = row.m_row
        value = m[-1] * hist[k] - m[0] * hist[0]
        if k >= 2:
            value = value - np.tensordot(np.diff(m), hist[1:k], axes=(0, 0))
    elif form == "delta":
        deltas = np.diff(hist, axis=0)
        if k == 1:
            value = row.m_row[0] * deltas[0]
        else:
            # m_{k,k} * delta_k bundles the current-interval weight with c_{k-1}
            value = row.m_row[-1] * deltas[-1] - row.a[0] * deltas[0]
            if k >= 3:
                value = value + np.tensordot(row.d, deltas[1 : k - 1], axes=(0, 0))
    else:
        raise ValidationError(f"form must be 'history' or 'delta', got {form!r}")
    result = value / order.gamma_1ma
    return float(result) if np.ndim(result) == 0 else result


def caputo_reference(
    derivative: Callable[[float], float],
    t: float,
    order: "float | FractionalOrder",
    rel_tol: float = 1e-10,
) -> float:
    """High-accuracy fractional derivative of a known function at time ``t``.

    Integrates ``derivative(s) * (t - s)^{-alpha}`` over ``[0, t]`` by
    adaptive quadrature, splitting at ``t/2`` and handing the weak endpoint
    singularity at ``s = t`` to a weighted algebraic rule, then divides by
    ``Gamma(1-alpha)``.  Serves as the independent oracle for
    :func:`apply_operator` in consistency tests.
    """
    order = as_fractional_order(order)
    t = float(t)
    if t < 0.0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    alpha = order.alpha
    eps = max(min(rel_tol / 10.0, 1e-11), 1e-13)
    mid = 0.5 * t
    res1 = quad(
        lambda s: derivative(s) * (t - s) ** (-alpha),
        0.0,
        mid,
        epsabs=1e-30,
        epsrel=eps,
        limit=4000,
        full_output=1,
    )
    if len(res1) > 3:
        raise QuadratureConvergenceError(str(res1[3]))
    res2 = quad(
        derivative,
        mid,
        t,
        weight="alg",
        wvar=(0.0, -alpha),
        epsabs=1e-30,
        epsrel=eps,
        limit=4000,
        full_output=1,
    )
    if len(res2) > 3:
        raise QuadratureConvergenceError(str(res2[3]))
    return (float(res1[0]) + float(res2[0])) / order.gamma_1ma


def dump_kernel_csv(table: KernelTable, path: "str | Path", header_lines: Sequence[str] = ()) -> None:
    """Write every kernel coefficient to CSV for external inspection.

    One line per (level, interval) pair; fields outside a coefficient's
    defined range are left empty.  '#' header lines carry provenance.
    """
    path = Path(path)
    lines = ["# subdiff kernel table"]
    # header lines may arrive pre-formatted as comments
    lines.extend(
        text if text.startswith("#") else f"# {text}" for text in header_lines
    )
    lines.append(f"# backend: {table.backend}")
    lines.append("level,interval,t_star,a,b,c,d,m")
    for row in table:
        k = row.k
        row_b = row.b
        for j in range(1, k + 1):
            a = f"{row.a[j - 1]:.17g}" if j <= k - 1 else ""
            b = f"{row_b[j - 1]:.17g}" if j <= k - 1 else ""
            c = f"{row.c[j - 1]:.17g}" if j <= k - 1 else ""
            d = f"{row.d[j - 2]:.17g}" if 2 <= j <= k - 1 else ""
            m = f"{row.m_row[j - 1]:.17g}"
            lines.append(f"{k},{j},{row.t_star:.17g},{a},{b},{c},{d},{m}")
    path.write_text("\n".join(lines) + "\n")
    logger.info("wrote kernel table (%d levels) to %s", table.n, path)


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValidationError(f"backend must be one of {BACKENDS}, got {backend!r}")


def _check_levels(mesh: TimeMesh, n: int | None) -> int:
    if n is None:
        return mesh.num_steps
    n = int(n)
    if not 1 <= n <= mesh.num_steps:
        raise ValidationError(
            f"levels must lie in [1, {mesh.num_steps}], got {n}"
        )
    return n


def _check_kj(mesh: TimeMesh, k: int, j: int) -> None:
    if not 2 <= k <= mesh.num_steps:
        raise ValidationError(
            f"coefficients exist for levels 2..{mesh.num_steps}, got k={k}"
        )
    if not 1 <= j <= k - 1:
        raise ValidationError(f"interval index must lie in [1, {k - 1}], got {j}")


def coeff_closed_form(
    mesh: TimeMesh,
    order: "float | FractionalOrder",
    k: int,
    j: int,
) -> tuple[float, float, float]:
    """Single coefficient triple ``(a_j^k, b_j^k, c_j^k)`` in closed form.

    Evaluates the antiderivative formulas through series/expm1 regroupings
    that stay accurate to machine precision for arbitrarily large ratios of
    history span to step size.  ``b`` is returned as ``-(a + c)``, which the
    zero-sum identity makes exact; the independently integrated ``b`` is
    available from :func:`coeff_quadrature`.
    """
    order = as_fractional_order(order)
    _check_kj(mesh, k, j)
    tau = mesh.steps
    nodes = mesh.nodes
    t_star = nodes[k - 1] + order.sigma * tau[k - 1]
    a, c = _closed_a_c(
        np.array([tau[j - 1]]),
        np.array([tau[j]]),
        np.array([t_star - nodes[j - 1]]),
        order.alpha,
    )
    return float(a[0]), float(-(a[0] + c[0])), float(c[0])
