"""Trusted reference values for the convergence benchmark.

The benchmark problem is the manufactured 1-D run (exact solution
``t^alpha * sin x`` on ``[0, 2*pi]`` with homogeneous Dirichlet ends,
horizon 1) discretized with ``2*pi/10000`` spatial resolution, solved on
power-graded meshes.  :func:`reference_errors` gives the maximum-over-time
grid L2 errors for every (order, grading family, step count) cell of the
benchmark grid, and :func:`reference_orders` the observed convergence orders
between consecutive step counts.  These serve as the regression baseline the
harness compares fresh runs against, under :data:`TOLERANCE_LADDER`.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .meshes import _check_real

__all__ = [
    "ALPHAS",
    "FAMILY_LABELS",
    "STEP_COUNTS",
    "CI_STEP_COUNTS",
    "PAPER_EXACT_INTERVALS",
    "DESK_INTERVALS",
    "LADDER_SPLIT",
    "TOLERANCE_LADDER",
    "reference_errors",
    "reference_orders",
    "tolerance_ladder",
    "theoretical_order",
]

ALPHAS = (0.3, 0.5, 0.7)
FAMILY_LABELS = ("r=1", "r=2", "r=2/alpha", "r=3/alpha")
STEP_COUNTS = (40, 80, 160, 320, 480, 640)
CI_STEP_COUNTS = (40, 80, 160)
PAPER_EXACT_INTERVALS = 10000
DESK_INTERVALS = 4096

# (alpha, family label) -> max L2 errors at STEP_COUNTS
_ERRORS: dict[tuple[float, str], tuple[float, ...]] = {
    (0.3, "r=1"): (2.3600e-2, 2.2505e-2, 2.0661e-2, 1.8461e-2, 1.7117e-2, 1.6165e-2),
    (0.3, "r=2"): (1.3254e-2, 9.4767e-3, 6.5872e-3, 4.4967e-3, 3.5761e-3, 3.0338e-3),
    (0.3, "r=2/alpha"): (2.7182e-4, 7.4873e-5, 1.9983e-5, 5.2316e-6, 2.3816e-6, 1.3655e-6),
    (0.3, "r=3/alpha"): (5.6542e-4, 1.5847e-4, 4.2808e-5, 1.1281e-5, 5.1370e-6, 2.9371e-6),
    (0.5, "r=1"): (1.8575e-2, 1.4568e-2, 1.1059e-2, 8.2145e-3, 6.8534e-3, 6.0116e-3),
    (0.5, "r=2"): (3.9186e-3, 2.0105e-3, 1.0182e-3, 5.1239e-4, 3.4232e-4, 2.5701e-4),
    (0.5, "r=2/alpha"): (2.2728e-4, 5.8725e-5, 1.4830e-5, 3.7186e-6, 1.6536e-6, 9.3037e-7),
    (0.5, "r=3/alpha"): (3.5987e-4, 9.9080e-5, 2.6590e-5, 7.0116e-6, 3.2025e-6, 1.8379e-6),
    (0.7, "r=1"): (8.3068e-3, 5.4221e-3, 3.4582e-3, 2.1753e-3, 1.6518e-3, 1.3569e-3),
    (0.7, "r=2"): (7.3797e-4, 2.8495e-4, 1.0874e-4, 4.1317e-5, 2.3437e-5, 1.5672e-5),
    (0.7, "r=2/alpha"): (1.7758e-4, 4.6703e-5, 1.1903e-5, 2.9940e-6, 1.3323e-6, 7.4975e-7),
    (0.7, "r=3/alpha"): (1.5861e-4, 4.3872e-5, 1.1918e-5, 3.1981e-6, 1.4809e-6, 8.6093e-7),
}

# (alpha, family label) -> observed orders between consecutive STEP_COUNTS
_ORDERS: dict[tuple[float, str], tuple[float, ...]] = {
    (0.3, "r=1"): (0.0685, 0.1233, 0.1625, 0.1863, 0.1988),
    (0.3, "r=2"): (0.4841, 0.5247, 0.5508, 0.5650, 0.5716),
    (0.3, "r=2/alpha"): (1.8601, 1.9056, 1.9335, 1.9408, 1.9334),
    (0.3, "r=3/alpha"): (1.8351, 1.8883, 1.9239, 1.9403, 1.9432),
    (0.5, "r=1"): (0.3506, 0.3976, 0.4290, 0.4468, 0.4555),
    (0.5, "r=2"): (0.9628, 0.9815, 0.9908, 0.9947, 0.9963),
    (0.5, "r=2/alpha"): (1.9524, 1.9854, 1.9957, 1.9986, 1.9993),
    (0.5, "r=3/alpha"): (1.8608, 1.8977, 1.9231, 1.9327, 1.9302),
    (0.7, "r=1"): (0.6154, 0.6488, 0.6688, 0.6790, 0.6836),
    (0.7, "r=2"): (1.3729, 1.3898, 1.3961, 1.3983, 1.3989),
    (0.7, "r=2/alpha"): (1.9269, 1.9721, 1.9913, 1.9970, 1.9985),
    (0.7, "r=3/alpha"): (1.8541, 1.8802, 1.8978, 1.8987, 1.8855),
}

# relative tolerance of a cell by the size of its reference value, keyed as
# the table headers print it
LADDER_SPLIT = 1e-5
TOLERANCE_LADDER = {
    f"cells_at_or_above_{LADDER_SPLIT:g}": 1e-2,
    f"cells_below_{LADDER_SPLIT:g}": 5e-2,
}


def _key(alpha: float, label: str) -> tuple[float, str]:
    alpha = _check_real(alpha, "alpha", 0, 1)
    for known in ALPHAS:
        if abs(alpha - known) < 1e-12:
            alpha = known
            break
    else:
        raise ValidationError(f"no reference data for order {alpha}")
    if label not in FAMILY_LABELS:
        raise ValidationError(f"no reference data for family {label!r}")
    return alpha, label


def reference_errors(alpha: float, label: str, step_counts=STEP_COUNTS) -> np.ndarray:
    """Reference errors for one (order, family) row at the given step counts."""
    key = _key(alpha, label)
    row = _ERRORS[key]
    out = []
    for k in step_counts:
        if k not in STEP_COUNTS:
            raise ValidationError(f"no reference data at {k} steps")
        out.append(row[STEP_COUNTS.index(k)])
    return np.asarray(out)


def reference_orders(alpha: float, label: str) -> np.ndarray:
    """Reference observed orders for one row (pairs of consecutive counts)."""
    return np.asarray(_ORDERS[_key(alpha, label)])


def tolerance_ladder(reference_value: float) -> float:
    """Relative tolerance for comparing an error cell against its reference.

    Cells at or above 1e-5 are reproducible to 1 percent; smaller cells sit
    close to the spatial-resolution floor and get 5 percent.
    """
    at_or_above, below = TOLERANCE_LADDER.values()
    reference_value = _check_real(reference_value, "reference_value", 0)
    return at_or_above if reference_value >= LADDER_SPLIT else below


def theoretical_order(alpha: float, grading: float) -> float:
    """Predicted convergence order ``min(grading * alpha, 2)``."""
    alpha = _check_real(alpha, "alpha", 0, 1)
    return min(_check_real(grading, "grading", 1, closed=True) * alpha, 2.0)
