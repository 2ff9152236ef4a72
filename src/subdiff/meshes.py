"""Time meshes for the nonuniform subdiffusion scheme.

A mesh is the node vector ``0 = t_0 < t_1 < ... < t_K = T``.  Steps are
``tau_j = t_j - t_{j-1}`` (1-based ``j``) and ratios are
``rho_j = tau_j / tau_{j-1}`` for ``j >= 2``.

Admissibility is a pointwise condition on consecutive step ratios that
guarantees the discrete fractional operator built on the mesh is positive
semidefinite.  Two universal constants control it:

* ``rho_star``: the unique root in (0, 1) of ``r*(1+r) = 1 - 3*r^2*(1+r)``;
  every ratio must stay strictly above it.
* ``eta``: the unique root in (0, 1) of ``3*r^2*(1+r) = 1``; ratios at or
  above ``eta`` place no constraint on the next ratio, while a ratio
  ``rho_k`` in ``(rho_star, eta)`` caps the next one by
  ``rho_{k+1} <= rho_k^2*(1+rho_k) / (1 - 3*rho_k^2*(1+rho_k))``.
"""
from __future__ import annotations

import logging
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import MeshFileError, NonMonotoneMeshError, ValidationError
from .provenance import record_dict

__all__ = [
    "TimeMesh",
    "AdmissibilityReport",
    "admissibility_thresholds",
    "pair_ratio_bound",
    "ratio_condition_margins",
    "certify_mesh",
    "make_uniform_mesh",
    "make_graded_mesh",
    "make_r_variable_mesh",
    "make_graded_then_uniform",
    "read_mesh",
    "write_mesh",
]

logger = logging.getLogger(__name__)


def admissibility_thresholds() -> tuple[float, float]:
    """Return ``(rho_star, eta)`` to full double precision.

    They are the roots in [0.1, 0.9] of ``r(1+r) = 1 - 3r^2(1+r)`` and of
    ``3r^2(1+r) = 1``, as bisection on that bracket to 1e-13 resolves them
    (``tests/test_meshes.py`` recomputes both with SciPy's ``bisect``).
    """
    return 0.3563409986801161, 0.4753295857871308


def pair_ratio_bound(rho: float) -> float:
    """Largest next ratio allowed after a ratio ``rho`` below ``eta``.

    Only defined for ``rho`` in ``(0, eta)`` where the denominator
    ``1 - 3*rho^2*(1+rho)`` is positive.
    """
    rho = _check_real(rho, "rho", 0, admissibility_thresholds()[1])
    return rho * rho * (1.0 + rho) / (1.0 - 3.0 * rho * rho * (1.0 + rho))


def ratio_condition_margins(ratios: np.ndarray) -> np.ndarray:
    """Margins of the reciprocal ratio condition for consecutive pairs.

    For each consecutive ratio pair ``(rho_k, rho_{k+1})`` the condition is
    ``1/rho_{k+1} >= 1/(rho_k^2*(1+rho_k)) - 3``; entry ``i`` of the result is
    the left side minus the right side for the pair starting at ``ratios[i]``.
    Nonnegative everywhere means the condition holds.
    """
    rho = _check_reals(ratios, "ratios")
    if rho.ndim != 1:
        raise ValidationError("ratios must be a 1-D array")
    if rho.size < 2:
        return np.zeros(0)
    if np.any(rho <= 0.0):
        raise ValidationError("ratios must be positive")
    lead, trail = rho[:-1], rho[1:]
    return 1.0 / trail - (1.0 / (lead * lead * (1.0 + lead)) - 3.0)


@dataclass(frozen=True)
class TimeMesh:
    """Immutable nonuniform time mesh ``0 = t_0 < ... < t_K``."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = _check_reals(self.nodes, "nodes")
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValidationError("mesh needs a 1-D array of at least 2 nodes")
        if nodes[0] != 0.0:
            raise NonMonotoneMeshError(f"first node must be 0, got {nodes[0]!r}")
        if np.any(np.diff(nodes) <= 0.0):
            bad = int(np.argmax(np.diff(nodes) <= 0.0)) + 1
            raise NonMonotoneMeshError(
                f"nodes must increase strictly; violation at index {bad}"
            )
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def num_steps(self) -> int:
        """Number of time steps K."""
        return self.nodes.size - 1

    @property
    def horizon(self) -> float:
        """Final time T."""
        return float(self.nodes[-1])

    @cached_property
    def steps(self) -> np.ndarray:
        """Step sizes; ``steps[j-1]`` is ``tau_j = t_j - t_{j-1}``."""
        tau = np.diff(self.nodes)
        tau.flags.writeable = False
        return tau

    @cached_property
    def ratios(self) -> np.ndarray:
        """Step ratios; ``ratios[j-2]`` is ``rho_j = tau_j / tau_{j-1}``."""
        tau = self.steps
        rho = tau[1:] / tau[:-1]
        rho.flags.writeable = False
        return rho

    def head(self, num_steps: int) -> "TimeMesh":
        """Sub-mesh consisting of the first ``num_steps`` steps."""
        n = _check_count(num_steps, "num_steps", high=self.num_steps)
        return TimeMesh(self.nodes[: n + 1])


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of certifying a mesh against the ratio conditions.

    ``per_step_margin[i]`` is the slack of ratio ``rho_{i+2}`` (the tightest
    of its lower bound ``rho_star`` and, when the previous ratio sits in
    ``(rho_star, eta)``, the pair upper bound).  Positive margins mean slack;
    a nonpositive lower-bound margin or negative pair margin is a violation.
    ``first_violation`` is the 1-based ratio index ``k`` of the first
    violating ``rho_k``, or None when the mesh is admissible.
    """

    satisfied: bool
    first_violation: int | None
    rho_star: float
    eta: float
    per_step_margin: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return record_dict(self)


def certify_mesh(mesh: TimeMesh) -> AdmissibilityReport:
    """Check the step-ratio admissibility conditions on a mesh.

    Two checks run over the ratios ``rho_2 .. rho_K``:

    * every ratio must exceed ``rho_star`` strictly;
    * for consecutive pairs, a ratio below ``eta`` caps its successor by
      :func:`pair_ratio_bound` (inclusive).

    A uniform mesh (all ratios 1) passes with margin ``1 - rho_star``.
    """
    rho_star, eta = admissibility_thresholds()
    rho = mesh.ratios
    margins = rho - rho_star
    first: int | None = None
    for i in range(rho.size):
        k = i + 2
        violated = rho[i] <= rho_star
        if i > 0 and rho_star < rho[i - 1] < eta:
            bound = pair_ratio_bound(rho[i - 1])
            margins[i] = min(margins[i], bound - rho[i])
            violated = violated or rho[i] > bound
        if violated and first is None:
            first = k
    report = AdmissibilityReport(
        satisfied=first is None,
        first_violation=first,
        rho_star=rho_star,
        eta=eta,
        per_step_margin=margins,
    )
    if not report.satisfied:
        logger.info("mesh inadmissible: first violation at ratio index %d", first)
    return report


def make_uniform_mesh(horizon: float, num_steps: int) -> TimeMesh:
    """Equispaced mesh with ``num_steps`` steps on ``[0, horizon]``."""
    horizon, num_steps = _check_real(horizon, "horizon", 0), _check_count(num_steps, "num_steps")
    return TimeMesh(np.linspace(0.0, horizon, num_steps + 1))


def make_graded_mesh(horizon: float, num_steps: int, grading: float) -> TimeMesh:
    """Power-graded mesh ``t_j = horizon * (j/K)**grading``.

    ``grading`` >= 1 concentrates steps near t = 0 where the solution of the
    fractional problem has weak regularity; ``grading = 1`` is uniform.
    """
    horizon, num_steps = _check_real(horizon, "horizon", 0), _check_count(num_steps, "num_steps")
    grading = _check_real(grading, "grading", 1, closed=True)
    j = np.arange(num_steps + 1, dtype=float)
    nodes = horizon * (j / num_steps) ** grading
    nodes[0], nodes[-1] = 0.0, horizon
    return TimeMesh(nodes)


def make_r_variable_mesh(horizon: float, num_steps: int, alpha: float) -> TimeMesh:
    """Mesh with a per-node exponent that relaxes from strong to mild grading.

    Node ``j`` uses ``t_j = horizon * (j/K)**r_j`` with the linear profile
    ``r_j = 2/alpha + 1.5 - 3*(j-1)/(K-1)``: the strongest grading (above the
    error-optimal exponent ``2/alpha``) near the initial-time singularity,
    decaying to milder grading at the far end.  The profile is positive and
    decreasing, which keeps the nodes strictly increasing for any
    ``alpha`` in (0, 1).
    """
    horizon, num_steps = _check_real(horizon, "horizon", 0), _check_count(num_steps, "num_steps")
    alpha = _check_real(alpha, "alpha", 0, 1)
    j = np.arange(1, num_steps + 1, dtype=float)
    if num_steps == 1:
        profile = np.array([2.0 / alpha + 1.5])
    else:
        profile = 2.0 / alpha + 1.5 - 3.0 * (j - 1.0) / (num_steps - 1.0)
    nodes = np.empty(num_steps + 1)
    nodes[0] = 0.0
    nodes[1:] = horizon * (j / num_steps) ** profile
    nodes[-1] = horizon
    return TimeMesh(nodes)


def make_graded_then_uniform(
    horizon: float,
    num_steps: int,
    grading: float,
    split_time: float,
    split_steps: int,
) -> TimeMesh:
    """Graded mesh on ``[0, split_time]`` continued uniformly to ``horizon``.

    The first ``split_steps`` steps follow ``make_graded_mesh`` on the initial
    window; the remaining ``num_steps - split_steps`` steps are equispaced on
    ``[split_time, horizon]``.  Useful for long-horizon runs that still need
    initial-layer resolution.
    """
    horizon, num_steps = _check_real(horizon, "horizon", 0), _check_count(num_steps, "num_steps")
    split_time = _check_real(split_time, "split_time", 0, horizon)
    split_steps = _check_count(split_steps, "split_steps", high=num_steps - 1)
    head = make_graded_mesh(split_time, split_steps, grading)
    tail = np.linspace(split_time, horizon, num_steps - split_steps + 1)
    return TimeMesh(np.concatenate([head.nodes, tail[1:]]))


def write_mesh(mesh: TimeMesh, path: str | Path, comments: Mapping[str, object] | None = None) -> None:
    """Write a mesh to a text file: '#' comment lines, then one node per line.

    Nodes are written with 17 significant digits so a read-back reproduces the
    mesh bit for bit.
    """
    path = Path(path)
    lines = ["# subdiff time mesh"]
    meta = {"num_steps": mesh.num_steps, "horizon": f"{mesh.horizon:.17g}"}
    if comments:
        meta.update(comments)
    for key, value in meta.items():
        lines.append(f"# {key}: {value}")
    lines.extend(f"{t:.17g}" for t in mesh.nodes)
    path.write_text("\n".join(lines) + "\n")
    logger.info("wrote mesh with %d steps to %s", mesh.num_steps, path)


def read_mesh(path: str | Path) -> TimeMesh:
    """Read a mesh from the text format produced by :func:`write_mesh`."""
    path = Path(path)
    if not path.exists():
        raise MeshFileError(f"mesh file not found: {path}")
    nodes = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nodes.append(float(line))
        except ValueError as exc:
            raise MeshFileError(f"{path}:{lineno}: not a number: {line!r}") from exc
    if len(nodes) < 2:
        raise MeshFileError(f"{path}: needs at least 2 nodes, found {len(nodes)}")
    return TimeMesh(np.asarray(nodes))


def _check_count(value: int, name: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int in ``[low, high]`` (no upper bound for None).

    Python and numpy integers are taken; a bool, a float such as 8.0 or
    8.7, a string or anything else is refused, as is a count out of range,
    with a ValidationError that names the input.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if high is None and count < low:
        raise ValidationError(f"{name} must be >= {low}, got {count}")
    if high is not None and not low <= count <= high:
        raise ValidationError(f"{name} must lie in [{low}, {high}], got {count}")
    return count


def _check_real(value: float, name: str, low=-math.inf, high=math.inf, *, closed=False) -> float:
    """``value`` as a finite float in ``(low, high)``, or in ``[low, high)``
    when ``closed``.

    Python and numpy reals are taken; a bool, anything that is not a real
    number (a string, None, a complex, an array), an int past the float
    range, a non-finite value and a value out of range are refused with a
    ValidationError that names the input.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int or a fraction past the float range
        real = math.inf if value > 0 else -math.inf
    if not math.isfinite(real):
        raise ValidationError(f"{name} must be finite, got {real}")
    if not ((real >= low if closed else real > low) and real < high):
        interval = f"{'[' if closed else '('}{low}, {high})"
        raise ValidationError(f"{name} must lie in {interval}, got {real}")
    return real


def _check_reals(values, name: str) -> np.ndarray:
    """``values`` as a float array, by the rule of :func:`_check_real`: a
    ragged nesting, a dtype that is not integer or float (bool, string,
    complex, object), a bool entry and a non-finite entry are refused."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting
        array = np.empty(0, dtype=object)
    # numpy reads a bool among numbers as a number (an ndarray holds none)
    if array.dtype.kind not in "iuf" or (
        not isinstance(values, np.ndarray)
        and any(isinstance(v, (bool, np.bool_)) for v in np.array(values, dtype=object).flat)
    ):
        raise ValidationError(
            f"{name} must be an array of real numbers, got {reprlib.repr(values)}"
        )
    array = array.astype(float, copy=False)
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} has non-finite entries")
    return array
