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
entry budget.  An entry's ``a`` and ``c`` depend on nothing but its inputs
``(tau_j, tau_{j+1}, t_k* - t_{j-1})`` and ``alpha``; the backend only
chooses the function that maps the valid (lower-triangular) entries to
them, and both lay out and scatter a slab's entries alike.
:func:`build_kernel_table` collects the slabs into dense tables for the
analysis checks and is the one place rows are read from
(:meth:`KernelTable.row`); the solver marches on the slabs directly and
never holds the table.  On an exact run of equal steps (one whose nodes and
offset points lie on the grid of its largest, with one offset), every entry
``(k, j)`` inside the run has the inputs of the entry at the same distance
``k - j`` in the run's first column, computed without rounding.  The closed
backend computes each such run once per distance, before the first slab,
and copies it into every slab it meets; every other entry is computed a
slab at a time, as is every entry of the quadrature oracle, which so also
checks the copy.  Each stream of slabs fills them all in one workspace of its own,
sized once from the slab edges and the runs: the closed forms write every
entry-sized result into its rows through ``out=``, by the same operations
in the same order, so a slab is the same bits wherever it is stored, and a
yielded slab is valid until the next one is requested.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DimensionMismatchError,
    NumericalError,
    QuadratureConvergenceError,
    SingularDiagonalError,
    ValidationError,
)
from .meshes import TimeMesh, _check_count, _check_real, _check_reals
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
# march holds and the workspace of one vectorized closed pass, so the late
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
    ``Gamma(1 - alpha)`` divides every operator and scheme formula.
    """

    alpha: float
    sigma: float = field(init=False)
    gamma_1ma: float = field(init=False)

    def __post_init__(self) -> None:
        alpha = _check_real(self.alpha, "alpha", 0, 1)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", 1.0 - 0.5 * alpha)
        object.__setattr__(self, "gamma_1ma", math.gamma(1.0 - alpha))


def as_fractional_order(value: "float | FractionalOrder") -> FractionalOrder:
    """Coerce a bare ``alpha`` or an existing order object to FractionalOrder."""
    if isinstance(value, FractionalOrder):
        return value
    return FractionalOrder(value)


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


def _phi_psi(
    delta: np.ndarray, alpha: float, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
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

    ``delta`` is one-dimensional.  Every entry-sized array goes in the rows
    of ``work``, a ``(7, >= delta.size)`` float array that must not hold
    ``delta`` (allocated when not given): ``phi`` and ``psi`` are returned as
    views of its first two rows, and the rest is scratch.  The sort order is
    the one array allocated.
    """
    delta = np.asarray(delta, dtype=float)
    size = delta.size
    if work is None:
        work = np.empty((7, size))
    phi, psi, x, term, sphi, spsi, inc = (row[:size] for row in work)
    small = phi.view(bool)[:size]
    np.less_equal(delta, _SERIES_CUTOFF, out=small)
    # sort on the binary exponent alone, the direct entries last: a stable
    # radix sort of 16-bit keys
    exponent = x.view(np.int64)
    np.right_shift(delta.view(np.int64), 52, out=exponent)
    keys = term.view(np.uint16)[:size]
    np.copyto(keys, exponent, casting="unsafe")
    np.logical_not(small, out=psi.view(bool)[:size])
    np.copyto(keys, 2047, where=psi.view(bool)[:size])
    order = np.argsort(keys, kind="stable")
    count = int(np.count_nonzero(small))
    if count:
        idx = order[:count]
        x, term, sphi, spsi, inc = x[:count], term[:count], sphi[:count], spsi[:count], inc[:count]
        np.take(delta, idx, out=x, mode="clip")
        np.multiply(0.5, x, out=term)
        term *= x
        np.copyto(sphi, term)
        spsi.fill(0.0)
        # convergence tests: the bound in psi's row, the two flags in phi's
        bound, passed = psi[:count], phi.view(bool)[:count]
        also = phi.view(bool)[size : size + count]
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
            done, other, limit = passed[: count - lo], also[: count - lo], bound[lo:]
            np.maximum(spsi[lo:], 1e-300, out=limit)
            limit *= 1e-17
            np.less_equal(inc[lo:], limit, out=done)
            np.multiply(sphi[lo:], 1e-17, out=limit)
            np.less_equal(term, limit, out=other)
            done &= other
            step = done.size if done.all() else int(np.argmin(done))
            lo += step
            if lo == count:
                break
            term = term[step:]
        sphi *= 1.0 - alpha
        spsi *= 1.0 - alpha
        phi[idx] = sphi
        psi[idx] = spsi
    big = order[count:]
    if big.size:
        # the series rows are free again
        x, lp, e2, value, tail = (row[: big.size] for row in work[2:])
        np.take(delta, big, out=x, mode="clip")
        np.negative(x, out=lp)
        np.log1p(lp, out=lp)
        np.multiply(2.0 - alpha, lp, out=e2)
        np.expm1(e2, out=e2)
        np.divide(e2, 2.0 - alpha, out=value)
        np.add(x, value, out=value)
        phi[big] = value
        np.multiply(-2.0, e2, out=value)
        value /= 2.0 - alpha
        np.multiply(1.0 - alpha, lp, out=tail)
        np.exp(tail, out=tail)
        np.add(1.0, tail, out=tail)
        np.multiply(x, tail, out=tail)
        value -= tail
        psi[big] = value
    return phi, psi


def _closed_a_c(
    tau_j: np.ndarray,
    tau_j1: np.ndarray,
    w0: np.ndarray,
    alpha: float,
    work: np.ndarray | None = None,
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

    The inputs are one-dimensional.  Every entry-sized array goes in the
    rows of ``work``, an ``(8, >= tau_j.size)`` float array that must not
    hold the inputs (allocated when not given): ``a`` and ``c`` are returned
    as views of its last two rows.  Each one is computed by the same
    operations in the same order as the plain expressions in the comments,
    so the bits do not depend on where they are stored.
    """
    size = tau_j.size
    if work is None:
        work = np.empty((8, size))
    delta, phi, psi, r3, r4, r5, a, c = (row[:size] for row in work)
    np.divide(tau_j, w0, out=delta)
    _phi_psi(delta, alpha, work[1:, :size])
    one_m = 1.0 - alpha
    # head = -(w0**one_m) * expm1(one_m * log1p(-delta)), that is
    # w0^{1-alpha} - (w0-tau_j)^{1-alpha} computed without cancellation
    head = a
    np.power(w0, one_m, out=r3)
    np.negative(r3, out=r3)
    np.negative(delta, out=r4)
    np.log1p(r4, out=r4)
    np.multiply(one_m, r4, out=r4)
    np.expm1(r4, out=r4)
    np.multiply(r3, r4, out=head)
    w2 = r3
    np.power(w0, 2.0 - alpha, out=w2)
    span = r4
    np.add(tau_j, tau_j1, out=span)
    with np.errstate(divide="ignore", invalid="ignore"):  # such entries are redone below
        # a = -(tau_j1 * head + 2.0 * w2 * phi) / (one_m * tau_j * (tau_j + tau_j1))
        np.multiply(tau_j1, head, out=a)
        np.multiply(2.0, w2, out=r5)
        r5 *= phi
        a += r5
        np.negative(a, out=a)
        np.multiply(one_m, tau_j, out=r5)
        r5 *= span
        a /= r5
        # c = w2 * psi / (one_m * tau_j1 * (tau_j + tau_j1))
        np.multiply(w2, psi, out=c)
        np.multiply(one_m, tau_j1, out=r5)
        r5 *= span
        c /= r5
    # low = minimum(w2 * minimum(phi, psi), minimum(tau_j, tau_j1) ** 2) < 1e-250
    np.minimum(phi, psi, out=r4)
    np.multiply(w2, r4, out=r4)
    np.minimum(tau_j, tau_j1, out=r5)
    np.square(r5, out=r5)
    np.minimum(r4, r5, out=r4)
    low = r5.view(bool)[:size]
    np.less(r4, 1e-250, out=low)
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
    an independent check on the closed forms.  The one-dimensional inputs are
    only read (a stream passes views of its workspace); it returns new arrays.
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


def _is_exact_run(nodes: np.ndarray, t_star: np.ndarray) -> bool:
    """Whether a run of bit-equal steps has its entries' spans without rounding.

    ``nodes`` are the left ends of the run's steps and ``t_star`` their offset
    points ``nodes + sigma*tau``.  When every one of them is a multiple of the
    spacing of the largest (zero is), every difference of two is computed
    exactly; when ``t_star - nodes`` is also the same all along the run, the
    span ``t_k* - t_{j-1}`` of an entry inside it depends on ``k - j`` alone.
    Nodes are never negative, so no such difference exceeds the largest.
    """
    points = np.concatenate([nodes, t_star])
    grid = np.spacing(points.max())
    offset = t_star - nodes
    return not np.any(np.fmod(points, grid)) and bool(np.all(offset == offset[0]))


def _exact_runs(mesh: TimeMesh, n: int, sigma: float) -> list[tuple[int, int]]:
    """The exact runs of levels ``1..n``, as ``(s, e)`` for the steps ``s..e-1``.

    A run is a maximal stretch of two or more bit-equal steps that
    :func:`_is_exact_run` accepts.  Its entries ``(k, j)`` with
    ``s < k-1 < e`` and ``s <= j-1 < k-1`` all have the inputs of the entry at
    the same distance ``k - j`` in its first column ``j = s + 1``.
    """
    tau, nodes = mesh.steps[:n], mesh.nodes
    cuts = np.flatnonzero(tau[1:] != tau[:-1]) + 1
    starts, ends = np.concatenate([[0], cuts]), np.concatenate([cuts, [n]])
    long = ends - starts >= 2
    runs = []
    for s, e in zip(starts[long].tolist(), ends[long].tolist()):
        if _is_exact_run(nodes[s:e], nodes[s:e] + sigma * tau[s:e]):
            runs.append((s, e))
    return runs


def _kernel_slabs(
    mesh: TimeMesh,
    order: FractionalOrder,
    n: int,
    backend: str,
):
    """Kernel data for levels ``1..n``, one slab of consecutive rows at a time.

    Yields ``(k0, k1, a, c, m, t_star)`` for levels ``k0+1..k1``: ``a``, ``c``
    and ``m`` are read-only ``(k1 - k0, k1)`` arrays laid out as those rows of
    a :class:`KernelTable`, on the edges of :func:`_slab_edges`.  Entry
    ``(i, j-1)`` of a slab is interval ``j`` of level ``k = k0 + i + 1``,
    valid where ``j < k``, with the inputs ``(tau_j, tau_{j+1}, t_k* -
    t_{j-1})``.

    The closed backend copies the entries of the exact runs
    (:func:`_exact_runs`): it computes each run's entries once per distance
    before the first slab, all runs in one :func:`_closed_a_c` call, and keeps
    each run's ``a`` and ``c`` by decreasing distance followed by zeros, so
    the run's part of a slab is one copy of a strided window that also
    supplies the zeros above the diagonal.  The valid entries outside the
    runs (all of them for the quadrature backend, which has no runs) form a
    prefix of each row: the columns ``[0, c0)`` that every row of the slab
    shares, whose inputs are built by broadcasting, and a ragged rest taken
    through a mask.  One call of the backend's entry map, :func:`_closed_a_c`
    or :func:`_quadrature_a_c`, maps them all, and the results are scattered
    back by the same layout.  An entry depends on nothing but its inputs and
    ``alpha``, and every entry's series stops on its own (see
    :func:`_phi_psi`), so neither a copy nor where slab edges fall changes a
    bit.

    The stream fills every slab in one workspace, sized from the slab edges
    and the runs before the first slab and reused by the rest, so a slab
    allocates little beyond an index array, a mask and a sort order.  The
    yielded ``a``, ``c`` and ``m`` are views into it: a slab is valid until
    the next one is requested, and a consumer that keeps one copies it.  The
    workspace belongs to this generator alone, so streams in other threads
    share nothing.
    Raises SingularDiagonalError when a diagonal entry is not positive,
    NumericalError when a coefficient is not finite, naming the first such
    level, and QuadratureConvergenceError, naming the slab's levels, when the
    quadrature misses its tolerance.
    """
    _check_backend(backend)
    alpha, sigma = order.alpha, order.sigma
    tau = mesh.steps
    nodes = mesh.nodes
    edges = list(_slab_edges(n))
    runs = _exact_runs(mesh, n, sigma) if backend == "closed" else []
    # row r of the stream computes its columns [0, head[r]): all of its valid
    # entries, or those left of the run it lies in
    head = np.arange(n)
    for s, e in runs:
        head[s:e] = s
    most_rows = max(k1 - k0 for k0, k1 in edges)
    most_entries = max((k1 - k0) * k1 for k0, k1 in edges)
    most_computed = int(np.add.reduceat(head, [k0 for k0, _ in edges]).max())
    distances = sum(e - s - 1 for s, e in runs)
    # each run's table: its a and c by decreasing distance, then the zeros a
    # slab's window reads above the diagonal; `offsets` start them
    spans = [e - s - 1 + min(e - s - 2, most_rows - 1) for s, e in runs]
    offsets = np.cumsum([0, *spans]).tolist()
    # One float pool holds, in turn, a slab's dense block of ragged w0 (from
    # row 3 of `work`, 11 rows of `stride` floats), the inputs of its computed
    # entries (rows 0-2), the work of _closed_a_c (rows 3-10, its a and c in
    # rows 9 and 10), and then the slab's a, c and m, packed from the pool's
    # start.  Each is written only once what it overlaps is done with: the
    # stride is at least 2/9 of the largest block, so a slab's a and c end
    # before row 9.  The runs' tables take the pool's end; the one
    # _closed_a_c call that fills them works, before the first slab, in 11
    # rows of `distances` floats from the pool's start.
    stride = max(most_computed, -(-2 * most_entries // 9))
    slab_floats = max(11 * stride, 3 * most_entries, 11 * distances)
    pool = np.empty(slab_floats + 2 * offsets[-1])
    work = pool[: 11 * stride].reshape(11, stride)
    tables = pool[slab_floats:].reshape(2, -1)
    if runs:
        grid = pool[: 11 * distances].reshape(11, distances)
        at = 0
        for s, e in runs:
            w0 = grid[2, at : at + e - s - 1]  # t_k* - t_s for k - 1 = s+1..e-1
            np.multiply(sigma, tau[s + 1 : e], out=w0)
            w0 += nodes[s + 1 : e]
            w0 -= nodes[s]
            grid[:2, at : at + e - s - 1] = tau[s]
            at += e - s - 1
        run_a, run_c = _closed_a_c(*grid[:3], alpha, grid[3:])
        at = 0
        for (s, e), off, span in zip(runs, offsets, spans):
            count = e - s - 1
            tables[0, off : off + count] = run_a[at : at + count][::-1]
            tables[1, off : off + count] = run_c[at : at + count][::-1]
            tables[:, off + count : off + span] = 0.0
            at += count
    first_run = 0  # runs before it end before the current slab
    for k0, k1 in edges:
        rows = k1 - k0
        size = rows * k1
        ac = pool[: 2 * size].reshape(2, rows, k1)
        a, c = ac
        m = pool[2 * size : 3 * size].reshape(rows, k1)
        t_star = nodes[k0:k1] + sigma * tau[k0:k1]
        h = head[k0:k1]
        c0, top = int(h.min()), int(h.max())
        rect = rows * c0
        # the ragged rest: the columns [c0, head) of each row
        ragged = np.arange(c0, top) < h[:, None]
        at = np.flatnonzero(ragged)
        count = rect + at.size
        inputs = work[:3, :count]
        w0 = pool[3 * stride : 3 * stride + rows * (top - c0)].reshape(rows, top - c0)
        np.subtract(t_star[:, None], nodes[None, c0:top], out=w0)  # t_k* - t_{j-1}
        np.take(w0, at, out=inputs[2, rect:], mode="clip")
        at %= max(top - c0, 1)
        at += c0  # the column j - 1 of each ragged entry
        np.take(tau, at, out=inputs[0, rect:], mode="clip")
        np.take(tau[1:], at, out=inputs[1, rect:], mode="clip")
        del at  # freed before _closed_a_c allocates its sort order
        # the columns [0, c0) of every row
        np.copyto(inputs[0, :rect].reshape(rows, c0), tau[:c0])
        np.copyto(inputs[1, :rect].reshape(rows, c0), tau[1 : c0 + 1])
        np.subtract(t_star[:, None], nodes[None, :c0], out=inputs[2, :rect].reshape(rows, c0))
        if backend == "closed" or not count:  # nothing to integrate on level 1 alone
            computed_a, computed_c = _closed_a_c(*inputs, alpha, work[3:, :count])
        else:
            try:
                computed_a, computed_c = _quadrature_a_c(*inputs, alpha)
            except QuadratureConvergenceError as exc:
                raise QuadratureConvergenceError(f"levels {k0 + 1}..{k1}: {exc}") from exc
        ac.fill(0.0)  # only now: a and c overlap the inputs
        a[:, :c0] = computed_a[:rect].reshape(rows, c0)
        c[:, :c0] = computed_c[:rect].reshape(rows, c0)
        a[:, c0:top][ragged] = computed_a[rect:]
        c[:, c0:top][ragged] = computed_c[rect:]
        while first_run < len(runs) and runs[first_run][1] <= k0:
            first_run += 1
        for i in range(first_run, len(runs)):
            (s, e), off = runs[i], offsets[i]
            if s + 1 >= k1:
                break
            # rows lo..hi-1 hold the run's distances up to hi-1-s in the
            # columns s..hi-2; row r reads its table from position e-1-r,
            # so each next row starts one float earlier
            lo, hi = max(k0, s + 1), min(k1, e)
            ac[:, lo - k0 : hi - k0, s : hi - 1] = as_strided(
                tables[:, off + e - 1 - lo :],
                shape=(2, hi - lo, hi - 1 - s),
                strides=(tables.strides[0], -tables.itemsize, tables.itemsize),
                writeable=False,
            )
        # one scalar power per level: a vectorized power can differ in the last
        # bit, which would change every solution the march writes
        diag = np.array([
            sigma ** (1.0 - alpha) / ((1.0 - alpha) * t**alpha) for t in tau[k0:k1]
        ])
        # d_j = c_{j-1} - a_j off the diagonal, c_{k-1} on it, zero above it
        np.subtract(c[:, :-1], a[:, 1:], out=m[:, 1:])
        # through a temporary: NumPy 2.4's np.negative from one strided column
        # into another reads the wrong entries when both are 8 x 8 blocks
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
    hist = _check_reals(history, "history")
    k = row.k
    levels = hist.shape[0] if hist.ndim else 0
    if levels < k + 1:
        raise DimensionMismatchError(f"history needs at least {k + 1} levels, got {levels}")
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
) -> float:
    """High-accuracy fractional derivative of a known function at time ``t``.

    Integrates ``derivative(s) * (t - s)^{-alpha}`` over ``[0, t]`` by
    adaptive quadrature to a relative tolerance of 1e-11, splitting at ``t/2`` and handing the weak endpoint
    singularity at ``s = t`` to a weighted algebraic rule, then divides by
    ``Gamma(1-alpha)``.  Serves as the independent oracle for
    :func:`apply_operator` in consistency tests.
    """
    from scipy.integrate import quad  # oracle only: not loaded with the package

    order = as_fractional_order(order)
    t = _check_real(t, "t", 0, closed=True)
    if t == 0.0:
        return 0.0
    alpha = order.alpha
    mid = 0.5 * t
    res1 = quad(
        lambda s: derivative(s) * (t - s) ** (-alpha),
        0.0,
        mid,
        epsabs=1e-30,
        epsrel=1e-11,
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
        epsrel=1e-11,
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
