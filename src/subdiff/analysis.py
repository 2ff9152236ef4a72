"""Structure checks for the discrete fractional operator.

The lower-triangular history matrix ``M`` built by :mod:`subdiff.kernel` is
provably positive semidefinite (after symmetrization) on meshes that pass
:func:`subdiff.meshes.certify_mesh`.  This module provides

* an eigenvalue-based positivity check with the supporting per-level
  positivity certificate ``g_k`` and diagonal lower bounds,
* pointwise sign/monotonicity checks (P1-P10) on the coefficient families,
* integral lower-bound checks (Q1-Q3) on the history rows,
* the complementary (discrete resolvent) kernel, whose rows sum against
  ``M`` to the unit lower triangle and whose entries are nonnegative.

Check functions return explicit violation records instead of raising, so
sweeps over many meshes can aggregate results cheaply.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SingularDiagonalError, ValidationError
from .kernel import KernelTable, build_kernel_table
from .meshes import (
    TimeMesh,
    admissibility_thresholds,
    certify_mesh,
    ratio_condition_margins,
)

# Unused here: build_kernel_table and this alias stay only because
# perfbench/spans.py wraps both names in this module.
closed_coefficient_tables = build_kernel_table

__all__ = [
    "Violation",
    "PsdReport",
    "check_psd",
    "check_properties_P",
    "check_properties_Q",
    "ratio_condition_holds",
    "positivity_certificate",
    "build_complementary_kernel",
]

logger = logging.getLogger(__name__)

_EPS = float(np.finfo(float).eps)
# Comparisons whose sides are small differences of full-magnitude entries
# cannot be decided in f64 below a few ulps of the entries themselves.
_ROUNDING_ALLOWANCE = 8.0 * _EPS


class Violation(NamedTuple):
    """One failed pointwise check: property name, level k, interval j, margin."""

    check: str
    level: int
    interval: int
    amount: float


@dataclass(frozen=True)
class PsdReport:
    """Positivity diagnostics of the symmetrized history matrix.

    ``min_eigenvalue`` and ``max_eigenvalue`` are the extreme eigenvalues of
    ``S = M + M^T``; ``scaled_min_eigenvalue`` is the smallest eigenvalue of
    the Jacobi-scaled ``D^-1/2 S D^-1/2`` (``D`` the diagonal of ``S``),
    which has the same inertia as ``S`` but an O(1) spectrum.  ``passed``
    states that it is at least ``-rel_tol``.  ``g`` holds the per-level positivity
    certificate values (all positive on admissible meshes) and
    ``diagonal_B_lower`` the implied lower bounds ``g_k / (2*(1-alpha))`` on
    the diagonal of the symmetric splitting remainder.
    """

    n: int
    min_eigenvalue: float
    max_eigenvalue: float
    scaled_min_eigenvalue: float
    passed: bool
    mesh_admissible: bool
    rel_tol: float
    g: np.ndarray = field(repr=False)
    diagonal_B_lower: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "min_eigenvalue": self.min_eigenvalue,
            "max_eigenvalue": self.max_eigenvalue,
            "scaled_min_eigenvalue": self.scaled_min_eigenvalue,
            "passed": self.passed,
            "mesh_admissible": self.mesh_admissible,
            "rel_tol": self.rel_tol,
            "g": [float(v) for v in self.g],
            "diagonal_B_lower": [float(v) for v in self.diagonal_B_lower],
        }


def ratio_condition_holds(mesh: TimeMesh, n: int | None = None) -> bool:
    """Whether the reciprocal consecutive-ratio condition holds up to level n.

    This is the premise of the P9/P10 monotonicity properties; admissible
    meshes always satisfy it.
    """
    n = mesh.num_steps if n is None else int(n)
    rho = mesh.ratios[: max(n - 1, 0)]
    if rho.size < 2:
        return True
    return bool(np.all(ratio_condition_margins(rho) >= 0.0))


def check_properties_P(table: KernelTable, tol: float = 1e-12) -> list[Violation]:
    """Sign and monotonicity checks P1-P10 on the coefficient tables.

    P1-P8 hold on every mesh; P9/P10 are guaranteed only under the
    consecutive-ratio condition and are skipped (with a log note) when
    :func:`ratio_condition_holds` is false.  A strict inequality ``x > y``
    passes when ``x - y > -tol*max(|x|, |y|)``; the two checks whose sides
    are themselves tiny differences of full-magnitude coefficients (P4, P10)
    additionally allow a few ulps of the differenced operands.
    """
    n = table.n
    # the weights d_j^k are the interior of the history matrix
    a_tab, c_tab, d_tab = table.a, table.c, table.m
    kk, jj = np.indices((n, n)) + 1  # 1-based level and interval of each entry

    def shift(t: np.ndarray) -> np.ndarray:
        # shift[k, j] = t[k+1, j]
        return np.vstack([t[1:], np.zeros((1, n))])

    a_up, c_up, d_up = shift(a_tab), shift(c_tab), shift(d_tab)
    zero = np.zeros_like(a_tab)

    tri = (kk >= 2) & (jj <= kk - 1)
    tri_x = tri & (kk <= n - 1)
    inner = (kk >= 3) & (jj <= kk - 2)
    inner_x = inner & (kk <= n - 1)
    dtri = (kk >= 3) & (jj >= 2) & (jj <= kk - 1)
    dtri_x = dtri & (kk <= n - 1)
    dinner = (kk >= 4) & (jj >= 2) & (jj <= kk - 2)
    dinner_x = dinner & (kk <= n - 1)

    a_r = np.roll(a_tab, -1, axis=1)  # a_r[k, j] = a[k, j+1]
    a_ur = np.roll(a_up, -1, axis=1)
    d_r = np.roll(d_tab, -1, axis=1)
    d_ur = np.roll(d_up, -1, axis=1)

    p4_floor = _ROUNDING_ALLOWANCE * np.max(np.abs([a_ur, a_up, a_r, a_tab]), axis=0)
    p10_floor = _ROUNDING_ALLOWANCE * np.max(np.abs([d_r, d_tab, d_ur, d_up]), axis=0)

    viol: list[Violation] = []
    _collect("P1", zero, a_tab, tri, tol, viol)
    _collect("P2", a_up, a_tab, tri_x, tol, viol)
    _collect("P3", a_tab, a_r, inner, tol, viol)
    _collect("P4", a_ur - a_up, a_r - a_tab, inner_x, tol, viol, floor=p4_floor)
    _collect("P5", c_tab, zero, tri, tol, viol)
    _collect("P6", c_tab, c_up, tri_x, tol, viol)
    _collect("P7", d_tab, zero, dtri, tol, viol)
    _collect("P8", d_tab, d_up, dtri_x, tol, viol)
    if ratio_condition_holds(table.mesh, n):
        _collect("P9", d_r, d_tab, dinner, tol, viol)
        _collect("P10", d_r - d_tab, d_ur - d_up, dinner_x, tol, viol, floor=p10_floor)
    else:
        logger.info(
            "ratio condition fails on the first %d levels; P9/P10 skipped", n
        )
    return viol


def check_properties_Q(table: KernelTable, tol: float = 1e-12) -> list[Violation]:
    """Integral lower-bound checks Q1-Q3 on the history rows.

    Q1 bounds every row entry from below by a weighted kernel integral over
    its interval; Q2 bounds the increments between adjacent row entries
    (interior entries against the exact remainder-integral identity, the
    diagonal increment against its step-size bound); Q3 checks the weighted
    diagonal dominance used by the positivity argument and is evaluated only
    at levels whose step ratio is at least ``eta`` (its premise; other levels
    are skipped).  The theory guarantees Q1-Q3 on admissible meshes with all
    ratios at or above ``eta``.
    """
    n = table.n
    alpha, sigma = table.order.alpha, table.order.sigma
    a_tab, m_tab = table.a, table.m
    nodes, tau = table.mesh.nodes, table.mesh.steps
    rho_star, eta = admissibility_thresholds()
    levels = np.arange(1, n + 1)
    viol: list[Violation] = []

    # Q1 over the full triangle j = 1..k; the kernel integral is evaluated
    # as w0^(1-alpha)*(1-(w1/w0)^(1-alpha)) via expm1/log1p because the
    # naive power difference cancels catastrophically when the interval is
    # many orders of magnitude shorter than its distance to the offset point
    kk, jj = np.indices((n, n)) + 1  # 1-based level and interval of each entry
    mask = jj <= kk
    ks, js = kk[mask], jj[mask]
    ts = nodes[ks - 1] + sigma * tau[ks - 1]
    w0 = ts - nodes[js - 1]
    length = np.where(js < ks, tau[js - 1], sigma * tau[ks - 1])
    ratio = np.minimum(length / np.maximum(w0, np.finfo(float).tiny), 1.0)
    with np.errstate(divide="ignore"):
        factor = -np.expm1((1.0 - alpha) * np.log1p(-ratio))
    integral = np.where(
        w0 > 0.0, w0 ** (1.0 - alpha) * factor / (1.0 - alpha), 0.0
    )
    rhs = rho_star / ((1.0 + rho_star) * tau[js - 1]) * integral
    lhs = m_tab[ks - 1, js - 1]
    _collect_flat("Q1", lhs, rhs, ks, js, tol, viol)

    # Q2 interior: row increments against the remainder identity of a_j
    mask = (kk >= 3) & (jj >= 2) & (jj <= kk - 1)
    ks, js = kk[mask], jj[mask]
    ts = nodes[ks - 1] + sigma * tau[ks - 1]
    w0 = ts - nodes[js - 1]
    lhs = m_tab[ks - 1, js - 1] - m_tab[ks - 1, js - 2]
    rhs = -a_tab[ks - 1, js - 1] - w0 ** (-alpha)
    floor = _ROUNDING_ALLOWANCE * np.maximum(
        np.abs(m_tab[ks - 1, js - 1]), np.abs(m_tab[ks - 1, js - 2])
    )
    _collect_flat("Q2", lhs, rhs, ks, js, tol, viol, floor=floor)

    # Q2 diagonal increment, k >= 2
    ks = levels[levels >= 2]
    lhs = m_tab[ks - 1, ks - 1] - m_tab[ks - 1, ks - 2]
    rhs = alpha / (2.0 * (1.0 - alpha) * (sigma * tau[ks - 1]) ** alpha)
    _collect_flat("Q2diag", lhs, rhs, ks, ks, tol, viol)

    # Q3 weighted diagonal dominance, premise rho_k >= eta
    ks_all = levels[levels >= 2]
    rho_k = tau[ks_all - 1] / tau[ks_all - 2]
    ks = ks_all[rho_k >= eta]
    if ks.size < ks_all.size:
        logger.info("Q3 skipped at %d levels with ratio below eta", ks_all.size - ks.size)
    lhs = (1.0 - alpha) / sigma * m_tab[ks - 1, ks - 1] - m_tab[ks - 1, ks - 2]
    slack = tol * np.abs(m_tab[ks - 1, ks - 1])
    bad = ~(lhs >= -slack)
    for i in np.nonzero(bad)[0]:
        viol.append(Violation("Q3", int(ks[i]), int(ks[i]), float(lhs[i])))
    return viol


def positivity_certificate(table: KernelTable) -> np.ndarray:
    """Per-level certificate values ``g_k`` (positive on admissible meshes).

    ``g_k`` combines the current-interval coefficient with a closed-form
    integral bound involving the next step ratio; at the final level the
    next-ratio term drops (with a uniform-continuation convention for the
    two-level corner case).  The certified diagonal lower bounds are
    ``g_k / (2*(1-alpha))``.
    """
    n = table.n
    alpha, sigma = table.order.alpha, table.order.sigma
    tau = table.mesh.steps
    rho = table.mesh.ratios
    c_last = table.c[np.arange(1, n), np.arange(n - 1)]  # c_{k-1}^k, k = 2..n

    def bound_integral(r: np.ndarray) -> np.ndarray:
        # closed form of int_0^1 s*(r + s)/(sigma*r + s) ds
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


def check_psd(table: KernelTable, rel_tol: float = 1e-10) -> PsdReport:
    """Eigenvalue positivity of the symmetrized history matrix.

    ``passed`` requires the smallest eigenvalue of the Jacobi-scaled
    ``D^-1/2 (M + M^T) D^-1/2`` to be at least ``-rel_tol``.  By Sylvester's
    law of inertia it has the sign pattern of ``M + M^T``, but its spectrum
    is O(1), so its sign is far above the rounding floor of ``eigvalsh``
    (about ``n * eps`` of the largest eigenvalue), where the smallest
    eigenvalue of ``M + M^T`` itself often lies.  The raw extreme
    eigenvalues are reported too.  The report also carries the per-level
    certificate ``g`` and diagonal lower bounds, plus the mesh admissibility
    verdict for context (inadmissible meshes may still pass numerically, and
    the converse cannot happen on a certified mesh).
    """
    m = table.m
    sym = m + m.T
    eigs = np.linalg.eigvalsh(sym)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    # a table's diagonal is positive (the build refuses it otherwise)
    scale = 1.0 / np.sqrt(np.diag(sym))
    scaled_min = float(np.linalg.eigvalsh(sym * scale[:, None] * scale[None, :])[0])
    g = positivity_certificate(table)
    report = PsdReport(
        n=table.n,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        scaled_min_eigenvalue=scaled_min,
        passed=scaled_min >= -rel_tol,
        mesh_admissible=certify_mesh(table.mesh).satisfied,
        rel_tol=float(rel_tol),
        g=g,
        diagonal_B_lower=g / (2.0 * (1.0 - table.order.alpha)),
    )
    if not report.passed:
        logger.warning(
            "symmetrized operator indefinite: scaled min eig %.3e "
            "(raw min eig %.3e vs max %.3e)",
            scaled_min,
            min_eig,
            max_eig,
        )
    return report


def build_complementary_kernel(source: "KernelTable | np.ndarray") -> np.ndarray:
    """Discrete resolvent rows ``P`` with ``P M`` the all-ones lower triangle.

    Solves the triangular system so that
    ``sum_l P[k,l] M[l,j] = 1`` for every ``j <= k``; on admissible meshes
    all entries are nonnegative, which is what makes the operator's inverse
    order-preserving.  Accepts a kernel table or a dense lower-triangular
    history matrix.
    """
    from scipy.linalg import solve_triangular  # not loaded with the package

    m = source.m if isinstance(source, KernelTable) else np.asarray(source, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("history matrix must be square")
    n = m.shape[0]
    if np.any(np.diag(m) <= 0.0):
        raise SingularDiagonalError("history matrix needs a positive diagonal")
    # P M = L (L the all-ones lower triangle) is M^T P^T = L^T, one
    # upper-triangular solve for all columns of P^T at once
    ones_upper = np.triu(np.ones((n, n)))
    return solve_triangular(m.T, ones_upper, lower=False).T


def _direct_splitting_diagonal(table: KernelTable) -> np.ndarray:
    """Exact diagonal of the symmetric splitting remainder (levels 1..n).

    Needs n >= 3; used to validate that the certified lower bounds in
    :class:`PsdReport` really are lower bounds.
    """
    n = table.n
    if n < 3:
        raise ValidationError(f"direct splitting diagonal needs n >= 3, got {n}")
    # entry [k-1, j-1] holds level k, interval j; d_j^k is m[k-1, j-1]
    a, m = table.a, table.m
    beta = np.empty(n)
    beta[0] = -a[1, 0] / 2.0
    beta[1] = (m[2, 1] + a[2, 0] - a[1, 0]) / 2.0
    for k in range(3, n):
        beta[k - 1] = (m[k, k - 1] + m[k - 1, k - 2] - m[k, k - 2]) / 2.0
    beta[n - 1] = m[n - 1, n - 2] / 2.0
    return np.diag(m) - beta


def _collect(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    mask: np.ndarray,
    tol: float,
    viol: list[Violation],
    floor: np.ndarray | None = None,
) -> None:
    ks, js = np.nonzero(mask)
    f = floor[ks, js] if floor is not None else None
    _collect_flat(name, lhs[ks, js], rhs[ks, js], ks + 1, js + 1, tol, viol, floor=f)


def _collect_flat(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    ks: np.ndarray,
    js: np.ndarray,
    tol: float,
    viol: list[Violation],
    floor: np.ndarray | None = None,
) -> None:
    slack = tol * np.maximum(np.abs(lhs), np.abs(rhs))
    if floor is not None:
        slack = slack + floor
    slack = np.maximum(slack, 1e-300)
    bad = ~((lhs - rhs) > -slack)
    for i in np.nonzero(bad)[0]:
        viol.append(Violation(name, int(ks[i]), int(js[i]), float(lhs[i] - rhs[i])))
