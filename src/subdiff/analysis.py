"""Structure checks for the discrete fractional operator.

The lower-triangular history matrix ``M`` built by :mod:`subdiff.kernel` is
provably positive semidefinite (after symmetrization) on meshes that pass
:func:`subdiff.meshes.certify_mesh`.  This module provides

* an eigenvalue-based positivity check with the supporting per-level
  positivity certificate ``g_k`` and diagonal lower bounds,
* pointwise sign/monotonicity checks (P1-P10) on the coefficient families,
* integral lower-bound checks (Q1-Q3) on the history rows,
* the complementary (discrete resolvent) kernel, whose rows sum against
  ``M`` to the unit lower triangle and whose entries are nonnegative,
* :func:`analyze_operator`, the one verdict over them, which ``analyze`` prints.

Check functions return explicit violation records instead of raising, so
sweeps over many meshes can aggregate results cheaply.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SingularDiagonalError, ValidationError
from .kernel import KernelTable, build_kernel_table
from .meshes import (
    TimeMesh,
    _check_count,
    _check_reals,
    admissibility_thresholds,
    certify_mesh,
    ratio_condition_margins,
)
from .provenance import record_dict

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
    "analyze_operator",
]

logger = logging.getLogger(__name__)

_EPS = float(np.finfo(float).eps)
# Comparisons whose sides are small differences of full-magnitude entries
# cannot be decided in f64 below a few ulps of the entries themselves.
_ROUNDING_ALLOWANCE = 8.0 * _EPS
# The verdict tolerances: the least Jacobi-scaled eigenvalue check_psd
# passes is -_PSD_TOL, and the P and Q suites pass x > y when
# x - y > -_PQ_TOL*max(|x|, |y|).
_PSD_TOL = 1e-10
_PQ_TOL = 1e-12
# analyze_operator's bounds on P M - L and on min P relative to max(1, max P)
# (rounding in P scales with its largest entry, up to ~1e9 on steep meshes)
_IDENTITY_TOL = 1e-11
_MIN_ENTRY_REL_FLOOR = 1e-13
# Columns per block of the complementary-kernel sweep (16 and 64 were slower
# on 128-level tables).
_COMPLEMENTARY_BLOCK = 32


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
        return record_dict(self)


def ratio_condition_holds(mesh: TimeMesh, n: int | None = None) -> bool:
    """Whether the reciprocal consecutive-ratio condition holds up to level n.

    This is the premise of the P9/P10 monotonicity properties; admissible
    meshes always satisfy it.
    """
    n = mesh.num_steps if n is None else _check_count(n, "n", high=mesh.num_steps)
    rho = mesh.ratios[: n - 1]
    if rho.size < 2:
        return True
    return bool(np.all(ratio_condition_margins(rho) >= 0.0))


def check_properties_P(table: KernelTable) -> list[Violation]:
    """Sign and monotonicity checks P1-P10 on the coefficient tables.

    P1-P8 hold on every mesh; P9/P10 are guaranteed only under the
    consecutive-ratio condition and are skipped (with a log note) when
    :func:`ratio_condition_holds` is false.  A strict inequality ``x > y``
    passes when ``x - y > -1e-12*max(|x|, |y|)``; the two checks whose sides
    are themselves tiny differences of full-magnitude coefficients (P4, P10)
    additionally allow a few ulps of the differenced operands.
    """
    n = table.n
    # flat views; the weights d_j^k are the interior of the history matrix.
    # For flat index f of entry (k, j), t[1:][f] is t[k, j+1], t[n:][f] is
    # t[k+1, j] and t[n+1:][f] is t[k+1, j+1].
    a, c, d = (t.reshape(-1) for t in (table.a, table.c, table.m))
    sets = _entry_sets(n)
    viol: list[Violation] = []

    k, j, f, x = sets["tri"]
    zero = np.zeros(k.size)
    a_kj = a[f]
    _collect_flat("P1", zero, a_kj, k, j, viol)
    _collect_flat("P2", a[n:][f[:x]], a_kj[:x], k[:x], j[:x], viol)

    k, j, f, x = sets["inner"]
    a_kj, a_r = a[f], a[1:][f]
    _collect_flat("P3", a_kj, a_r, k, j, viol)
    k, j, f, a_kj, a_r = k[:x], j[:x], f[:x], a_kj[:x], a_r[:x]
    a_up, a_ur = a[n:][f], a[n + 1:][f]
    floor = _ROUNDING_ALLOWANCE * _max_abs(a_ur, a_up, a_r, a_kj)
    _collect_flat("P4", a_ur - a_up, a_r - a_kj, k, j, viol, floor=floor)

    k, j, f, x = sets["tri"]
    c_kj = c[f]
    _collect_flat("P5", c_kj, zero, k, j, viol)
    _collect_flat("P6", c_kj[:x], c[n:][f[:x]], k[:x], j[:x], viol)

    k, j, f, x = sets["dtri"]
    d_kj = d[f]
    _collect_flat("P7", d_kj, np.zeros(k.size), k, j, viol)
    _collect_flat("P8", d_kj[:x], d[n:][f[:x]], k[:x], j[:x], viol)
    if ratio_condition_holds(table.mesh, n):
        k, j, f, x = sets["dinner"]
        d_kj, d_r = d[f], d[1:][f]
        _collect_flat("P9", d_r, d_kj, k, j, viol)
        k, j, f, d_kj, d_r = k[:x], j[:x], f[:x], d_kj[:x], d_r[:x]
        d_up, d_ur = d[n:][f], d[n + 1:][f]
        floor = _ROUNDING_ALLOWANCE * _max_abs(d_r, d_kj, d_ur, d_up)
        _collect_flat("P10", d_r - d_kj, d_ur - d_up, k, j, viol, floor=floor)
    else:
        logger.info(
            "ratio condition fails on the first %d levels; P9/P10 skipped", n
        )
    return viol


def check_properties_Q(table: KernelTable) -> list[Violation]:
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
    m_tab = table.m
    a_flat, m_flat = table.a.reshape(-1), m_tab.reshape(-1)
    nodes, tau = table.mesh.nodes, table.mesh.steps
    rho_star, eta = admissibility_thresholds()
    sets = _entry_sets(n)
    viol: list[Violation] = []

    # Q1 over the full triangle j = 1..k; the kernel integral is evaluated
    # as w0^(1-alpha)*(1-(w1/w0)^(1-alpha)) via expm1/log1p because the
    # naive power difference cancels catastrophically when the interval is
    # many orders of magnitude shorter than its distance to the offset point
    k, j, f, _ = sets["lower"]
    ts = nodes[k] + sigma * tau[k]
    w0 = ts - nodes[j]
    length = np.where(j < k, tau[j], sigma * tau[k])
    ratio = np.minimum(length / np.maximum(w0, np.finfo(float).tiny), 1.0)
    with np.errstate(divide="ignore"):
        factor = -np.expm1((1.0 - alpha) * np.log1p(-ratio))
    integral = np.where(
        w0 > 0.0, w0 ** (1.0 - alpha) * factor / (1.0 - alpha), 0.0
    )
    rhs = rho_star / ((1.0 + rho_star) * tau[j]) * integral
    _collect_flat("Q1", m_flat[f], rhs, k, j, viol)

    # Q2 interior: row increments against the remainder identity of a_j
    k, j, f, _ = sets["dtri"]
    ts = nodes[k] + sigma * tau[k]
    w0 = ts - nodes[j]
    m_left, m_kj = m_flat[f - 1], m_flat[f]
    rhs = -a_flat[f] - w0 ** (-alpha)
    floor = _ROUNDING_ALLOWANCE * np.maximum(np.abs(m_kj), np.abs(m_left))
    _collect_flat("Q2", m_kj - m_left, rhs, k, j, viol, floor=floor)

    # Q2 diagonal increment, k >= 2
    k = np.arange(1, n)
    lhs = m_tab[k, k] - m_tab[k, k - 1]
    rhs = alpha / (2.0 * (1.0 - alpha) * (sigma * tau[k]) ** alpha)
    _collect_flat("Q2diag", lhs, rhs, k, k, viol)

    # Q3 weighted diagonal dominance, premise rho_k >= eta
    ks_all = np.arange(2, n + 1)
    rho_k = tau[ks_all - 1] / tau[ks_all - 2]
    ks = ks_all[rho_k >= eta]
    if ks.size < ks_all.size:
        logger.info("Q3 skipped at %d levels with ratio below eta", ks_all.size - ks.size)
    lhs = (1.0 - alpha) / sigma * m_tab[ks - 1, ks - 1] - m_tab[ks - 1, ks - 2]
    slack = _PQ_TOL * np.abs(m_tab[ks - 1, ks - 1])
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
    # plain floats: a loop of NumPy scalar operations costs several times more
    tau = table.mesh.steps[:n].tolist()
    rho = table.mesh.ratios[:n].tolist()
    c_last = table.c[np.arange(1, n), np.arange(n - 1)].tolist()  # c_{k-1}^k, k = 2..n

    def bound_integral(r: float) -> float:
        # closed form of int_0^1 s*(r + s)/(sigma*r + s) ds
        sr = sigma * r
        return 0.5 + 0.5 * alpha * r - sr * (0.5 * alpha * r) * math.log((1.0 + sr) / sr)

    if n == 1:
        return np.array([(sigma * tau[0]) ** (-alpha)])
    g = [(sigma * tau[0]) ** (-alpha) * (2.0 * sigma - (1.0 - alpha) / rho[0] ** alpha)]
    for k in range(2, n + 1):
        base = (1.0 - alpha) * c_last[k - 2]
        scale = (sigma * tau[k - 1]) ** (-alpha)
        if k < n or (k == 2 and n == 2):
            rho_next = rho[k - 1] if k - 1 < len(rho) else 1.0
            g.append(base + scale * (
                1.0
                - alpha * (1.0 - alpha) / ((1.0 + rho_next) * rho_next**alpha)
                * bound_integral(rho_next)
            ))
        else:
            g.append(base + scale)
    return np.array(g)


def check_psd(table: KernelTable) -> PsdReport:
    """Eigenvalue positivity of the symmetrized history matrix.

    ``passed`` requires the smallest eigenvalue of the Jacobi-scaled
    ``D^-1/2 (M + M^T) D^-1/2`` to be at least ``-1e-10``.  By Sylvester's
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
        passed=scaled_min >= -_PSD_TOL,
        mesh_admissible=certify_mesh(table.mesh).satisfied,
        rel_tol=_PSD_TOL,
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

    Solves ``sum_l P[k,l] M[l,j] = 1`` for every ``j <= k``; on admissible
    meshes all entries are nonnegative, which is what makes the operator's
    inverse order-preserving.  Accepts a kernel table or a dense
    lower-triangular history matrix with a finite, positive diagonal.

    ``P`` is lower triangular, so its columns ``J = j0:j1`` (blocks of
    ``_COMPLEMENTARY_BLOCK``, taken from the right) satisfy
    ``P[j0:, J] M[J, J] = L[j0:, J] - P[j0:, j1:] M[j1:, J]`` with ``L`` the
    all-ones lower triangle, whose right side holds only columns already
    found.  ``np.linalg.solve`` factors the upper-triangular ``M[J, J]^T``
    by LU with partial pivoting: every entry below its diagonal is zero, so
    no row is swapped, the factor ``U`` is ``M[J, J]^T`` itself and the
    solve is plain back substitution.
    """
    m = _check_reals(source.m if isinstance(source, KernelTable) else source, "history matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("history matrix must be square")
    if np.any(np.triu(m, 1)):
        raise ValidationError("history matrix must be lower triangular")
    if np.any(np.diag(m) <= 0.0):
        raise SingularDiagonalError("history matrix needs a positive diagonal")
    n = m.shape[0]
    p = np.zeros((n, n))
    ones = np.tri(n)
    for j1 in range(n, 0, -_COMPLEMENTARY_BLOCK):
        j0 = max(j1 - _COMPLEMENTARY_BLOCK, 0)
        rhs = ones[j0:, j0:j1] - p[j0:, j1:] @ m[j1:, j0:j1]
        p[j0:, j0:j1] = np.linalg.solve(m[j0:j1, j0:j1].T, rhs.T).T
    return p


def analyze_operator(table: KernelTable) -> dict:
    """The verdict ``subdiff analyze`` prints: ``passed`` holds when every
    check of this module passes on ``table``, each certificate value is
    positive, ``P M`` is within 1e-11 of ``L`` and ``min P`` is at least
    ``-1e-13 * max(1, max P)`` (``P`` the complementary kernel)."""
    psd = check_psd(table)
    p_violations, q_violations = check_properties_P(table), check_properties_Q(table)
    complementary = build_complementary_kernel(table)
    lower = np.tril_indices(table.n)
    identity_residual = float(np.max(np.abs((complementary @ table.m)[lower] - 1.0)))
    min_entry = float(np.min(complementary[lower]))
    floor = -_MIN_ENTRY_REL_FLOOR * max(1.0, float(np.max(complementary)))
    passed = (psd.passed and not p_violations and not q_violations and min_entry >= floor
              and identity_residual <= _IDENTITY_TOL and bool(np.all(psd.g > 0.0)))
    return {
        "psd": psd.to_dict(),
        "sign_monotonicity_violations": len(p_violations),
        "integral_bound_violations": len(q_violations),
        "complementary_min_entry": min_entry,
        "complementary_identity_residual": identity_residual,
        "diagonal_certificate_min": float(np.min(psd.g)),
        "passed": passed,
    }


@functools.lru_cache(maxsize=8)
def _entry_sets(n: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Entry sets of the P and Q checks on an ``n``-level table.

    Each value is ``(k, j, f, x)``: the 0-based level, interval and flat
    index ``k*n + j`` of every entry in row-major order, and the number
    ``x`` of leading entries on levels up to ``n - 1`` (the entries that
    also have a next level).  With
    1-based ``k, j`` the sets are: ``lower`` ``j <= k``; ``tri``
    ``j <= k - 1``; ``inner`` ``j <= k - 2``; ``dtri`` ``2 <= j <= k - 1``;
    ``dinner`` ``2 <= j <= k - 2``.
    """
    sets = {}
    for name, first, gap in (
        ("lower", 0, 0), ("tri", 0, 1), ("inner", 0, 2), ("dtri", 1, 1), ("dinner", 1, 2)
    ):
        k, j = np.tril_indices(n, -gap)
        keep = j >= first
        k, j = k[keep], j[keep]
        f = k * n + j
        for arr in (k, j, f):
            arr.flags.writeable = False
        sets[name] = (k, j, f, int(np.count_nonzero(k < n - 1)))
    return sets


def _max_abs(*arrays: np.ndarray) -> np.ndarray:
    """Entrywise largest magnitude (several times faster than a stacked max)."""
    return functools.reduce(np.maximum, map(np.abs, arrays))


def _collect_flat(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    ks: np.ndarray,
    js: np.ndarray,
    viol: list[Violation],
    floor: np.ndarray | None = None,
) -> None:
    """Record ``lhs > rhs`` failures; ``ks, js`` are 0-based, records 1-based."""
    slack = _PQ_TOL * np.maximum(np.abs(lhs), np.abs(rhs))
    if floor is not None:
        slack = slack + floor
    slack = np.maximum(slack, 1e-300)
    bad = ~((lhs - rhs) > -slack)
    for i in np.nonzero(bad)[0]:
        viol.append(Violation(name, int(ks[i]) + 1, int(js[i]) + 1, float(lhs[i] - rhs[i])))
