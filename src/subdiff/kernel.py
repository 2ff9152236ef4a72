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

* ``"closed"`` (default, the production path): cancellation-free evaluation
  of the antiderivative formulas, accurate to machine precision for any
  step-size contrast.
* ``"quadrature"``: adaptive Gauss-Kronrod integration of the defining
  integrals, batched per slab.  It is the independent oracle the closed forms
  are checked against (acceptance criterion 08), several times slower.

The kernel is computed in slabs of consecutive rows, each bounded by a fixed
entry budget.  A slab's per-entry inputs ``(tau_j, tau_{j+1}, t_k* -
t_{j-1})`` are formed once, as one dense block of its rows by the columns
``j < k1``; the backend only chooses the function that maps the valid
(lower-triangular) entries to ``a`` and ``c``.  :func:`build_kernel_table`
collects the slabs into dense tables for the analysis checks and is the one
place rows are read from (:meth:`KernelTable.row`); the solver marches on the
slabs directly and never holds the table.  Along a run of equal steps, entry
``(k, j)`` has the same inputs as ``(k-1, j-1)``; the closed backend compares
each entry with the entry at the same distance ``k - j`` in the previous
slab's last row and copies its coefficients wherever the inputs are
bit-equal; where the nodes are exact (a dyadic step), such a run is computed
once per distance.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatchError,
    NumericalError,
    QuadratureConvergenceError,
    SingularDiagonalError,
    ValidationError,
)
from .meshes import TimeMesh, _check_alpha, _check_count
from .provenance import write_csv

__all__ = [
    "BACKENDS",
    "FractionalOrder",
    "KernelRow",
    "KernelTable",
    "as_fractional_order",
    "build_kernel_table",
    "apply_operator",
    "caputo_reference",
    "dump_kernel_csv",
]

logger = logging.getLogger(__name__)

BACKENDS = ("closed", "quadrature")

# Below this step/history-span ratio the antiderivative formulas are summed as
# series; above it direct expm1/log1p evaluation is already stable.
_SERIES_CUTOFF = 0.6

# The series loop tests for convergence once every this many terms.
_SERIES_CHECK = 4

# Entries (rows x width) of one kernel slab.  This bounds both the slab the
# march holds and the temporaries of one vectorized closed pass, so the late
# slabs of a long mesh hold few rows.
_SLAB_ENTRIES = 2**15

# Tolerances and subdivision limit of the adaptive Gauss-Kronrod oracle.
_QUAD_REL_TOL = 1e-13
_QUAD_ABS_TOL = 1e-15
_QUAD_LIMIT = 2**20


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
        alpha = _check_alpha(self.alpha)
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
class KernelRow:
    """All level-``k`` kernel data, as read-only views into a :class:`KernelTable`.

    ``a, b, c`` have length ``k-1`` (entry ``j-1`` holds the coefficient for
    history interval ``j``); ``a < 0 < b, c`` and ``a + b + c = 0``.  ``d``
    holds ``d_j = c_{j-1} - a_j`` for ``j = 2..k-1`` (length ``k-2``), the
    interior of the history row ``m_row = m_{k,1..k}``; ``t_star`` is the
    offset evaluation time of the level.  ``b`` and ``d`` are derived on
    access: ``b`` as ``-(a + c)``, which the zero-sum identity makes exact,
    and ``d`` as a view of ``m_row``.  Rows come from :meth:`KernelTable.row`.
    """

    k: int
    a: np.ndarray
    c: np.ndarray
    m_row: np.ndarray
    t_star: float

    @property
    def b(self) -> np.ndarray:
        return -(self.a + self.c)

    @property
    def d(self) -> np.ndarray:
        return self.m_row[1:-1]


class KernelTable:
    """Kernel data for levels ``1..n`` on one mesh, assembled once.

    ``a`` and ``c`` are ``(n, n)`` arrays with ``a[k-1, j-1] = a_j^k`` for
    ``1 <= j < k`` and zero elsewhere; ``m`` is the lower-triangular history
    matrix ``M`` (row ``k-1`` holds ``m_{k,1..k}``, its interior the weights
    ``d_j``) and ``t_star[k-1]`` the offset point of level ``k``.  All are
    read-only, and rows are views into them.  The march does not need a
    table (see :func:`subdiff.solver.solve`); it serves the analysis checks
    and callers that reuse one.
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
        k = _check_count(k, "level", high=self.n)
        i = k - 1
        return KernelRow(
            k=k, a=self.a[i, :i], c=self.c[i, :i], m_row=self.m[i, :k], t_star=float(self.t_star[i])
        )

    def __iter__(self):
        return (self.row(k) for k in range(1, self.n + 1))


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

    Each series entry stops on its own.  The entries are sorted by the binary
    exponent of ``delta``, so those still running form a suffix that is
    updated in place, and every ``_SERIES_CHECK``-th term drops the leading
    run that has converged.  This gives the same bits as summing every entry
    until the slowest converges: once an entry passes the test its term and
    its increment to ``psi`` are below half an ulp of their sums, and both
    keep shrinking for ``x <= 0.6`` (the term ratio is ``x*(alpha+m-3)/m``),
    so each later addition rounds back to the same sum.  The order within a
    binade and the spacing of the tests therefore decide only how many such
    additions an entry makes.
    """
    delta = np.asarray(delta, dtype=float)
    phi = np.empty_like(delta)
    psi = np.empty_like(delta)
    small = delta <= _SERIES_CUTOFF
    if np.any(small):
        idx = np.flatnonzero(small)
        # sort on the binary exponent alone: a stable radix sort of 16-bit keys
        idx = idx[np.argsort((delta[idx].view(np.int64) >> 52).astype(np.uint16), kind="stable")]
        x = delta[idx]
        term = 0.5 * x * x
        sphi = term.copy()
        spsi = np.zeros_like(x)
        inc = np.empty_like(x)
        lo = 0  # entries lo: are still running; term holds their last term
        for m in range(3, 201):
            term *= x[lo:]
            term *= alpha + m - 3.0
            term /= m
            sphi[lo:] += term
            np.multiply(term, m - 2.0, out=inc[lo:])
            spsi[lo:] += inc[lo:]
            if m % _SERIES_CHECK:
                continue
            done = (inc[lo:] <= 1e-17 * np.maximum(spsi[lo:], 1e-300)) & (
                term <= 1e-17 * sphi[lo:]
            )
            step = done.size if done.all() else int(np.argmin(done))
            lo += step
            if lo == x.size:
                break
            term = term[step:]
        phi[idx] = (1.0 - alpha) * sphi
        psi[idx] = (1.0 - alpha) * spsi
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

    Where a product of two steps, or ``w0^{2-alpha}`` times ``phi`` or
    ``psi``, falls below 1e-250 (steps or spans near 1e-125 and below, as on
    steep meshes with step contrasts near 1e100), the same formulas are
    evaluated with the powers of ``delta`` divided out, so no intermediate
    leaves the normal range.
    """
    delta = tau_j / w0
    phi, psi = _phi_psi(delta, alpha)
    one_m = 1.0 - alpha
    # w0^{1-alpha} - (w0-tau_j)^{1-alpha}, computed without cancellation
    head = -(w0**one_m) * np.expm1(one_m * np.log1p(-delta))
    w2 = w0 ** (2.0 - alpha)
    with np.errstate(divide="ignore", invalid="ignore"):  # such entries are redone below
        a = -(tau_j1 * head + 2.0 * w2 * phi) / (one_m * tau_j * (tau_j + tau_j1))
        c = w2 * psi / (one_m * tau_j1 * (tau_j + tau_j1))
    low = np.minimum(w2 * np.minimum(phi, psi), np.minimum(tau_j, tau_j1) ** 2) < 1e-250
    if np.any(low):
        tj, tj1, w, d = tau_j[low], tau_j1[low], w0[low], delta[low]
        # phi/delta^2 and psi/delta^3; below delta = 1e-17 the series' first
        # terms are exact (the next is under half an ulp) and phi, psi may underflow
        first = d < 1e-17
        phi_hat = np.where(first, 0.5 * one_m, phi[low] / np.where(first, 1.0, d * d))
        psi_hat = np.where(first, one_m * alpha / 6.0, psi[low] / np.where(first, 1.0, d**3))
        scale = w**-alpha / one_m
        head_hat = -np.expm1(one_m * np.log1p(-d)) / d  # head / (w0^{-alpha} tau_j)
        a[low] = -scale * (tj1 * head_hat + 2.0 * tj * phi_hat) / (tj + tj1)
        c[low] = scale * psi_hat * d * (tj / tj1) * (tj / (tj + tj1))
    return a, c


# ---------------------------------------------------------------------------
# quadrature backend
# ---------------------------------------------------------------------------


def _quadrature_a_c(
    tj: np.ndarray,
    tj1: np.ndarray,
    w0: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``a_j^k`` and ``c_j^k`` of many entries by one adaptive quadrature.

    Takes the inputs of :func:`_closed_a_c` and integrates the defining
    integrand of ``a`` and a positive reformulation of that of ``c``,
    ``alpha*tau_j^3/(tau_{j+1}*(tau_j+tau_{j+1})) * int_0^1 s*(1-s)*
    (t_k* - t_j + s*tau_j)^{-alpha-1} ds`` (exactly equal to the
    antisymmetric original but immune to its cancellation once
    ``t_k* - t_j >> tau_j``), for every entry at once.  Every component
    integrand is pre-divided by its closed-form magnitude so the max-norm
    error control of the vectorized integrator delivers uniform RELATIVE
    accuracy across coefficients that differ by many orders of magnitude.
    The scale factors divide out of the quadrature value, so the result stays
    an independent check on the closed forms.
    """
    from scipy.integrate import quad_vec  # oracle only: not loaded with the package

    wj = w0 - tj  # t_k* - t_j
    a_ref, c_ref = _closed_a_c(tj, tj1, w0, alpha)
    a_scale = np.abs(a_ref)
    # far intervals of steep meshes at small alpha underflow c_ref to zero
    # or a subnormal; those components are integrated unscaled
    c_scale = np.where(c_ref > np.finfo(float).tiny, c_ref, 1.0)
    c_pref = alpha * tj**3 / (tj1 * (tj + tj1))

    def integrand(theta: float) -> np.ndarray:
        fa = (-2.0 * tj * (1.0 - theta) - tj1) / (
            (tj + tj1) * (w0 - theta * tj) ** alpha
        )
        fc = c_pref * theta * (1.0 - theta) * (wj + theta * tj) ** (-alpha - 1.0)
        return np.concatenate([fa / a_scale, fc / c_scale])

    res, err, info = quad_vec(
        integrand,
        0.0,
        1.0,
        epsabs=_QUAD_ABS_TOL,
        epsrel=_QUAD_REL_TOL,
        norm="max",
        limit=_QUAD_LIMIT,
        full_output=True,
    )
    # the integrator's success flag enforces an internal safety margin well
    # below the requested tolerance and trips on the roundoff floor of O(1)
    # integrands; the contract is the achieved error estimate itself, in
    # max-norm over components normalized to unit magnitude (so ``err``
    # bounds the RELATIVE error of every coefficient)
    achieved = max(_QUAD_ABS_TOL, _QUAD_REL_TOL * float(np.max(np.abs(res))))
    if not info.success and err > achieved:
        raise QuadratureConvergenceError(
            f"batched coefficient quadrature did not converge "
            f"(error estimate {err:.3e}, tolerance {achieved:.3e})"
        )
    m = tj.size
    return res[:m] * a_scale, res[m:] * c_scale


# ---------------------------------------------------------------------------
# slabs, rows, tables, operator application
# ---------------------------------------------------------------------------


def _slab_edges(n: int):
    """The slabs of levels ``1..n``, as ``(k0, k1)`` for levels ``k0+1..k1``.

    A slab takes the most rows ``r`` with ``r * (k0 + r) <= _SLAB_ENTRIES``,
    and at least one.
    """
    k0 = 0
    while k0 < n:
        rows = (math.isqrt(k0 * k0 + 4 * _SLAB_ENTRIES) - k0) // 2
        k1 = min(k0 + max(rows, 1), n)
        yield k0, k1
        k0 = k1


def _kernel_slabs(
    mesh: TimeMesh,
    order: FractionalOrder,
    n: int,
    backend: str,
):
    """Kernel data for levels ``1..n``, one slab of consecutive rows at a time.

    Yields ``(k0, k1, a, c, m, t_star)`` for levels ``k0+1..k1``: ``a``, ``c``
    and ``m`` are read-only ``(k1 - k0, k1)`` arrays laid out as those rows of
    a :class:`KernelTable`, on the edges of :func:`_slab_edges`.  The inputs
    ``(tau_j, tau_{j+1}, t_k* - t_{j-1})`` of a slab are formed at once, as a
    dense ``(k1 - k0) x (k1 - 1)`` block by broadcasting; its entries with
    ``j < k`` are valid.  The closed backend maps them in one vectorized
    pass; every entry's series stops on its own (see :func:`_phi_psi`), so
    where slab edges fall does not change a bit.  It computes only the
    entries whose inputs differ from those of the entry at the same distance
    ``k - j`` in the previous slab's last row, read through a sliding window
    of that row, and copies the rest: an entry depends on nothing but its
    inputs and ``alpha``, so a copy is the same bits.  The quadrature backend
    integrates every valid entry of a slab, in row-major order, in one
    :func:`_quadrature_a_c` call.
    Raises SingularDiagonalError when a diagonal entry is not positive,
    NumericalError when a coefficient is not finite, naming the first such
    level, and QuadratureConvergenceError, naming the slab's levels, when the
    quadrature misses its tolerance.
    """
    _check_backend(backend)
    alpha, sigma = order.alpha, order.sigma
    tau = mesh.steps
    nodes = mesh.nodes
    # inputs and coefficients of the previous slab's last row, by column
    prev = np.empty((5, 0))
    for k0, k1 in _slab_edges(n):
        rows, width = k1 - k0, k1 - 1
        a = np.zeros((rows, k1))
        c = np.zeros((rows, k1))
        t_star = nodes[k0:k1] + sigma * tau[k0:k1]
        # entry (i, j-1) of the slab is interval j of level k = k0 + i + 1; the
        # block holds columns j < k1 of every row and is valid where j < k
        w0 = t_star[:, None] - nodes[None, :width]  # t_k* - t_{j-1}
        tj = np.broadcast_to(tau[:width], w0.shape)
        tj1 = np.broadcast_to(tau[1:k1], w0.shape)
        valid = np.tri(rows, width, k0 - 1, dtype=bool)
        block_a, block_c = a[:, :width], c[:, :width]
        if backend == "closed":
            # entry (i, j-1) has the distance k - j of column j-2-i of the
            # previous slab's last row: row i of the window view is that row
            # shifted right by i + 1 and padded with NaN, which matches nothing
            pad = np.full((5, rows), np.nan)
            padded = np.concatenate([pad, prev, pad], axis=1)
            seen = sliding_window_view(padded, width, axis=1)[:, rows - 1 :: -1]
            hit = w0 == seen[0]
            hit &= tj == seen[1]
            hit &= tj1 == seen[2]
            np.copyto(block_a, seen[3], where=hit)
            np.copyto(block_c, seen[4], where=hit)
            miss = valid & ~hit
            block_a[miss], block_c[miss] = _closed_a_c(tj[miss], tj1[miss], w0[miss], alpha)
            prev = np.stack([w0[-1], tau[:width], tau[1:k1], block_a[-1], block_c[-1]])
        elif k1 > 1:  # level 1 alone has no entries
            try:
                block_a[valid], block_c[valid] = _quadrature_a_c(
                    tj[valid], tj1[valid], w0[valid], alpha
                )
            except QuadratureConvergenceError as exc:
                raise QuadratureConvergenceError(f"levels {k0 + 1}..{k1}: {exc}") from exc
        # one scalar power per level: a vectorized power can differ in the last
        # bit, which would change every solution the march writes
        diag = np.array([
            sigma ** (1.0 - alpha) / ((1.0 - alpha) * t**alpha) for t in tau[k0:k1]
        ])
        m = np.empty_like(a)
        # d_j = c_{j-1} - a_j off the diagonal, c_{k-1} on it, zero above it
        np.subtract(c[:, :-1], a[:, 1:], out=m[:, 1:])
        m[:, 0] = -a[:, 0]
        on_diag = (np.arange(k1 - k0), np.arange(k0, k1))
        m[on_diag] += diag
        diag_m = m[on_diag]
        bad = np.flatnonzero(~(np.isfinite(diag_m) & (diag_m > 0.0)))
        if bad.size:
            raise SingularDiagonalError(
                f"level {k0 + bad[0] + 1}: diagonal entry {diag_m[bad[0]]!r} is not positive"
            )
        # every a_j and c_j enters one entry of M, so this covers them too
        bad = np.flatnonzero(~np.all(np.isfinite(m), axis=1))
        if bad.size:
            raise NumericalError(
                f"{backend} kernel: {bad.size} of levels {k0 + 1}..{k1} hold non-finite "
                f"coefficients (first at level {k0 + bad[0] + 1})"
            )
        for arr in (a, c, m, t_star):
            arr.flags.writeable = False
        yield k0, k1, a, c, m, t_star
        # a consumer that drops the slab frees it before the next one is filled
        del a, c, m, t_star


def build_kernel_table(
    mesh: TimeMesh,
    order: "float | FractionalOrder",
    n: int | None = None,
    backend: str = "closed",
) -> KernelTable:
    """Assemble the kernel table for levels ``1..n`` (default: all steps).

    The table collects the slabs of rows the kernel is computed in (one
    vectorized pass or one batched quadrature per slab), so its build
    memory is the stored ``a``, ``c`` and ``m`` (three dense ``n x n``
    arrays) plus one slab.  :func:`solve` does not need a table: it marches
    on the slabs directly.  Raises :class:`SingularDiagonalError` when a
    diagonal entry is not positive and :class:`NumericalError` when any
    coefficient is not finite.
    """
    order = as_fractional_order(order)
    n = _check_levels(mesh, n)
    a = np.zeros((n, n))
    c = np.zeros((n, n))
    m = np.zeros((n, n))
    t_star = np.empty(n)
    for k0, k1, a_s, c_s, m_s, t_s in _kernel_slabs(mesh, order, n, backend):
        a[k0:k1, :k1], c[k0:k1, :k1], m[k0:k1, :k1], t_star[k0:k1] = a_s, c_s, m_s, t_s
    logger.debug("built %s kernel table with %d levels", backend, n)
    return KernelTable(mesh, order, backend, a, c, m, t_star)


def apply_operator(
    row: KernelRow,
    history: np.ndarray,
    order: "float | FractionalOrder",
) -> np.ndarray | float:
    """Apply the level-``k`` discrete fractional derivative to a history.

    ``history`` holds the solution values at levels ``0..k`` along its first
    axis (extra trailing axes are carried through), and is weighted with the
    level's history row ``m``.
    """
    order = as_fractional_order(order)
    hist = np.asarray(history, dtype=float)
    k = row.k
    if hist.shape[0] < k + 1:
        raise DimensionMismatchError(
            f"history needs at least {k + 1} levels, got {hist.shape[0]}"
        )
    m = row.m_row
    value = m[-1] * hist[k] - m[0] * hist[0]
    if k >= 2:
        value = value - np.tensordot(np.diff(m), hist[1:k], axes=(0, 0))
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
    from scipy.integrate import quad  # oracle only: not loaded with the package

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


def dump_kernel_csv(table: KernelTable, path: "str | Path", header_lines: Sequence[str]) -> None:
    """Write every kernel coefficient to CSV for external inspection.

    One line per (level, interval) pair; fields outside a coefficient's
    defined range are left empty.  The file opens with ``header_lines``, a
    reproducibility header (see :func:`subdiff.provenance.reproducibility_header`).
    """

    def rows():
        for row in table:
            k, b = row.k, row.b
            for j in range(1, k):
                d = row.d[j - 2] if j >= 2 else ""
                yield [k, j, row.t_star, row.a[j - 1], b[j - 1], row.c[j - 1], d, row.m_row[j - 1]]
            yield [k, k, row.t_star, "", "", "", "", row.m_row[k - 1]]

    write_csv(path, header_lines, ["level", "interval", "t_star", "a", "b", "c", "d", "m"], rows())
    logger.info("wrote kernel table (%d levels) to %s", table.n, path)


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValidationError(f"backend must be one of {BACKENDS}, got {backend!r}")


def _check_levels(mesh: TimeMesh, n: int | None) -> int:
    if n is None:
        return mesh.num_steps
    return _check_count(n, "levels", high=mesh.num_steps)
