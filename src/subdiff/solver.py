"""Time-stepping solvers for the subdiffusion equation on nonuniform meshes.

Each time level solves ``L u = sigma*Lap(u^k) + (alpha/2)*Lap(u^{k-1}) + f(t_k*)``
where ``L`` is the discrete fractional derivative from :mod:`subdiff.kernel`
and the right side evaluates the Laplacian semi-implicitly at the offset
point.  The source is sampled pointwise at ``t_k*``; no time quadrature is
applied to it.

Two spatial discretizations are provided:

* :class:`DirichletLine`: second-order central differences on ``[0, length]``
  with homogeneous Dirichlet ends, solved by a banded tridiagonal
  factorization that is rebuilt each step (step sizes change every level).
* :class:`PeriodicSquare`: Fourier spectral discretization on
  ``[0, length]^2``, diagonal in frequency space.

The per-step linear-system residual is recorded so every run certifies its
own algebra; it sits at rounding level (far below 1e-10) for well-posed
inputs.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np
from scipy.linalg import solve_banded

from .errors import DimensionMismatchError, LinearSolveError, ValidationError
from .kernel import (
    FractionalOrder,
    KernelRow,
    KernelTable,
    QuadratureSettings,
    as_fractional_order,
    build_kernel_table,
)
from .meshes import TimeMesh
from .provenance import reproducibility_header

__all__ = [
    "DirichletLine",
    "PeriodicSquare",
    "Problem",
    "SolverState",
    "NormReport",
    "parse_space",
    "manufactured_problem",
    "manufactured_problem_1d",
    "manufactured_problem_2d",
    "initialize_state",
    "step",
    "solve",
    "solve_1d_dirichlet",
    "solve_2d_periodic",
    "discrete_norms",
    "write_snapshot_csv",
    "write_diagnostics_csv",
]

logger = logging.getLogger(__name__)

_TINY = 1e-300


@dataclass(frozen=True)
class DirichletLine:
    """1-D interval ``[0, length]`` with homogeneous Dirichlet boundaries.

    ``intervals`` is the number of spatial cells; unknowns live at the
    ``intervals - 1`` interior nodes ``x_i = i*h``.
    """

    intervals: int
    length: float = 2.0 * math.pi
    ndim: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if int(self.intervals) < 3:
            raise ValidationError(f"intervals must be >= 3, got {self.intervals}")
        if not float(self.length) > 0.0:
            raise ValidationError(f"length must be positive, got {self.length}")
        object.__setattr__(self, "intervals", int(self.intervals))
        object.__setattr__(self, "length", float(self.length))

    @property
    def h(self) -> float:
        return self.length / self.intervals

    @property
    def descriptor(self) -> str:
        return f"d1:{self.intervals}"

    @cached_property
    def grid(self) -> np.ndarray:
        x = self.h * np.arange(1, self.intervals)
        x.flags.writeable = False
        return x

    def zero_field(self) -> np.ndarray:
        return np.zeros(self.intervals - 1)

    def first_mode(self) -> np.ndarray:
        """``sin x`` on the grid."""
        return np.sin(self.grid)

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        """Central second difference with zero boundary values."""
        padded = np.concatenate([[0.0], v, [0.0]])
        return (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / self.h**2

    def l2_norm(self, v: np.ndarray) -> float:
        """Grid-sum norm ``sqrt(h * sum v_i^2)`` over interior nodes."""
        return float(np.sqrt(self.h * np.sum(np.square(v))))

    def h1_seminorm(self, v: np.ndarray) -> float:
        """Forward-difference seminorm including the boundary jumps."""
        d = np.diff(np.concatenate([[0.0], v, [0.0]]))
        return float(np.sqrt(np.sum(np.square(d)) / self.h))


@dataclass(frozen=True)
class PeriodicSquare:
    """Periodic square ``[0, length]^2`` sampled on a ``modes x modes`` grid."""

    modes: int
    length: float = 2.0 * math.pi
    ndim: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if int(self.modes) < 3:
            raise ValidationError(f"modes must be >= 3, got {self.modes}")
        if not float(self.length) > 0.0:
            raise ValidationError(f"length must be positive, got {self.length}")
        object.__setattr__(self, "modes", int(self.modes))
        object.__setattr__(self, "length", float(self.length))

    @property
    def h(self) -> float:
        return self.length / self.modes

    @property
    def descriptor(self) -> str:
        return f"p2:{self.modes}"

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.h * np.arange(self.modes)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        xx.flags.writeable = False
        yy.flags.writeable = False
        return xx, yy

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """Nonnegative spectral symbol of ``-Laplacian`` per Fourier mode."""
        k = np.fft.fftfreq(self.modes, d=1.0 / self.modes) * (2.0 * math.pi / self.length)
        lam = k[:, None] ** 2 + k[None, :] ** 2
        lam.flags.writeable = False
        return lam

    def zero_field(self) -> np.ndarray:
        return np.zeros((self.modes, self.modes))

    def first_mode(self) -> np.ndarray:
        """``sin x * sin y`` on the grid."""
        xx, yy = self.grid
        return np.sin(xx) * np.sin(yy)

    def l2_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(self.h**2 * np.sum(np.square(v))))

    def h1_seminorm(self, v: np.ndarray) -> float:
        vh = np.fft.fft2(v)
        weighted = np.sum(self.laplacian_symbol * np.abs(vh) ** 2)
        return float(np.sqrt(self.length**2 / self.modes**4 * weighted))


def parse_space(descriptor: str) -> "DirichletLine | PeriodicSquare":
    """Parse a space descriptor: ``d1:<intervals>`` or ``p2:<modes>``."""
    text = descriptor.strip().lower()
    kind, sep, arg = text.partition(":")
    if not sep or not arg:
        raise ValidationError(f"space descriptor needs kind:size, got {descriptor!r}")
    try:
        size = int(arg)
    except ValueError as exc:
        raise ValidationError(f"space size must be an integer, got {arg!r}") from exc
    if kind == "d1":
        return DirichletLine(size)
    if kind == "p2":
        return PeriodicSquare(size)
    raise ValidationError(f"space kind must be 'd1' or 'p2', got {kind!r}")


@dataclass(frozen=True)
class Problem:
    """A subdiffusion initial-boundary value problem on a fixed space.

    ``source`` and ``exact`` are callables of time returning full spatial
    fields (closures over the grid); either may be None (zero source,
    no reference solution).  ``initial`` defaults to the zero field.
    """

    order: FractionalOrder
    space: "DirichletLine | PeriodicSquare"
    source: Callable[[float], np.ndarray] | None = None
    initial: np.ndarray | None = None
    exact: Callable[[float], np.ndarray] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", as_fractional_order(self.order))
        zero = self.space.zero_field()
        if self.initial is None:
            object.__setattr__(self, "initial", zero)
        else:
            initial = np.asarray(self.initial, dtype=float)
            if initial.shape != zero.shape:
                raise DimensionMismatchError(
                    f"initial field shape {initial.shape} does not match "
                    f"space shape {zero.shape}"
                )
            object.__setattr__(self, "initial", initial)


def manufactured_problem(
    order: "float | FractionalOrder", space: "DirichletLine | PeriodicSquare"
) -> Problem:
    """Problem with exact solution ``t^alpha`` times the space's first mode.

    ``-Lap`` maps the first mode to ``ndim`` times itself, so the matching
    source is ``(Gamma(1+alpha) + ndim*t^alpha)`` times the mode; the initial
    value is zero.  The exact solution has the characteristic weak temporal
    singularity at ``t = 0`` that graded meshes are built for.
    """
    order = as_fractional_order(order)
    mode = space.first_mode()
    alpha = order.alpha
    gamma_factor = math.gamma(1.0 + alpha)

    def source(t: float) -> np.ndarray:
        return (gamma_factor + space.ndim * t**alpha) * mode

    def exact(t: float) -> np.ndarray:
        return t**alpha * mode

    return Problem(order=order, space=space, source=source, exact=exact,
                   name=f"manufactured-{space.ndim}d")


def manufactured_problem_1d(
    order: "float | FractionalOrder", intervals: int = 4096
) -> Problem:
    """:func:`manufactured_problem` with ``sin x`` on the Dirichlet line."""
    return manufactured_problem(order, DirichletLine(intervals))


def manufactured_problem_2d(
    order: "float | FractionalOrder", modes: int = 64
) -> Problem:
    """:func:`manufactured_problem` with ``sin x * sin y``, periodic."""
    return manufactured_problem(order, PeriodicSquare(modes))


@dataclass
class SolverState:
    """Marching state: full history plus per-step diagnostics.

    ``history[k]`` is the solution field at level ``k`` (levels through
    ``level`` are valid).  ``residual[k]`` is the relative max-norm residual
    of the level-``k`` linear solve and ``h1_seminorm[k]`` the energy
    seminorm of the solution, both 0.0 at unreached levels.
    """

    problem: Problem
    mesh: TimeMesh
    level: int
    history: np.ndarray = field(repr=False)
    h1_seminorm: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class NormReport:
    """Error and energy metrics of a completed run."""

    max_l2_error: float | None
    argmax_level: int | None
    l2_error: np.ndarray | None
    h1_seminorm: np.ndarray
    residual_max: float


def initialize_state(problem: Problem, mesh: TimeMesh) -> SolverState:
    """Allocate the full history and seed level 0 with the initial field."""
    k_total = mesh.num_steps
    history = np.zeros((k_total + 1,) + problem.initial.shape)
    history[0] = problem.initial
    h1 = np.zeros(k_total + 1)
    h1[0] = problem.space.h1_seminorm(problem.initial)
    return SolverState(
        problem=problem,
        mesh=mesh,
        level=0,
        history=history,
        h1_seminorm=h1,
        residual=np.zeros(k_total + 1),
    )


def step(state: SolverState, row: KernelRow, problem: Problem | None = None) -> SolverState:
    """Advance the state one level using the given kernel row.

    The row's level must be ``state.level + 1``.  Returns the same state
    object with ``history``, ``h1_seminorm`` and ``residual`` filled at the
    new level.  ``problem`` defaults to the one the state was built from.
    """
    k = row.k
    if k != state.level + 1:
        raise DimensionMismatchError(
            f"row level {k} does not follow state level {state.level}"
        )
    if problem is None:
        problem = state.problem
    order = problem.order
    alpha = order.alpha
    gamma_1ma = order.gamma_1ma
    sigma = order.sigma
    m = row.m_row
    delta_m = np.empty(k)
    delta_m[0] = m[0]
    delta_m[1:] = np.diff(m)
    history_term = (
        np.tensordot(delta_m, state.history[:k], axes=(0, 0)) / gamma_1ma
    )
    f = problem.source(row.t_star) if problem.source is not None else 0.0
    space = problem.space
    u_prev = state.history[k - 1]
    diag = m[-1] / gamma_1ma

    if isinstance(space, DirichletLine):
        rhs = 0.5 * alpha * space.laplacian(u_prev) + f + history_term
        n_int = space.intervals - 1
        band = np.empty((3, n_int))
        off = -sigma / space.h**2
        band[0].fill(off)
        band[1].fill(diag + 2.0 * sigma / space.h**2)
        band[2].fill(off)
        u = solve_banded((1, 1), band, rhs)
        if not np.all(np.isfinite(u)):
            raise LinearSolveError(f"level {k}: non-finite solution")
        res = diag * u - sigma * space.laplacian(u) - rhs
        scale = max(float(np.max(np.abs(rhs))), _TINY)
        state.residual[k] = float(np.max(np.abs(res))) / scale
    elif isinstance(space, PeriodicSquare):
        lam = space.laplacian_symbol
        rhs_hat = (
            -0.5 * alpha * lam * np.fft.fft2(u_prev)
            + np.fft.fft2(f + history_term)
        )
        u_hat = rhs_hat / (diag + sigma * lam)
        u = np.fft.ifft2(u_hat).real
        if not np.all(np.isfinite(u)):
            raise LinearSolveError(f"level {k}: non-finite solution")
        res = (diag + sigma * lam) * u_hat - rhs_hat
        scale = max(float(np.max(np.abs(rhs_hat))), _TINY)
        state.residual[k] = float(np.max(np.abs(res))) / scale
    else:
        raise ValidationError(f"unsupported space type {type(space).__name__}")

    state.history[k] = u
    state.h1_seminorm[k] = space.h1_seminorm(u)
    state.level = k
    return state


def solve(
    problem: Problem,
    mesh: TimeMesh,
    backend: str = "quadrature",
    settings: QuadratureSettings | None = None,
    table: KernelTable | None = None,
) -> SolverState:
    """March the problem across the whole mesh and return the final state.

    A prebuilt kernel table may be supplied to amortize coefficient
    construction across runs on the same mesh and order.
    """
    if table is None:
        table = build_kernel_table(mesh, problem.order, backend=backend, settings=settings)
    elif table.n < mesh.num_steps:
        raise ValidationError(
            f"kernel table covers {table.n} levels, mesh has {mesh.num_steps}"
        )
    state = initialize_state(problem, mesh)
    for k in range(1, mesh.num_steps + 1):
        step(state, table.row(k))
    logger.debug(
        "marched %d levels; max residual %.2e",
        mesh.num_steps,
        float(np.max(state.residual)),
    )
    return state


def solve_1d_dirichlet(
    problem: Problem,
    mesh: TimeMesh,
    backend: str = "quadrature",
    settings: QuadratureSettings | None = None,
    table: KernelTable | None = None,
) -> SolverState:
    """Solve a problem posed on :class:`DirichletLine`."""
    if not isinstance(problem.space, DirichletLine):
        raise ValidationError("solve_1d_dirichlet needs a DirichletLine problem")
    return solve(problem, mesh, backend, settings, table)


def solve_2d_periodic(
    problem: Problem,
    mesh: TimeMesh,
    backend: str = "quadrature",
    settings: QuadratureSettings | None = None,
    table: KernelTable | None = None,
) -> SolverState:
    """Solve a problem posed on :class:`PeriodicSquare`."""
    if not isinstance(problem.space, PeriodicSquare):
        raise ValidationError("solve_2d_periodic needs a PeriodicSquare problem")
    return solve(problem, mesh, backend, settings, table)


def discrete_norms(state: SolverState) -> NormReport:
    """Error and energy metrics of a run (through the reached level).

    When the problem carries an exact solution, ``l2_error[k]`` holds the
    grid L2 error at node time ``t_k`` and ``max_l2_error`` its maximum over
    levels with ``argmax_level`` the attaining level; without one the error
    entries are None.
    """
    levels = state.level + 1
    problem = state.problem
    space = problem.space
    l2_error = None
    max_err = None
    arg = None
    if problem.exact is not None:
        l2_error = np.zeros(levels)
        for k in range(levels):
            diff = state.history[k] - problem.exact(float(state.mesh.nodes[k]))
            l2_error[k] = space.l2_norm(diff)
        arg = int(np.argmax(l2_error))
        max_err = float(l2_error[arg])
    return NormReport(
        max_l2_error=max_err,
        argmax_level=arg,
        l2_error=l2_error,
        h1_seminorm=state.h1_seminorm[:levels].copy(),
        residual_max=float(np.max(state.residual[:levels])),
    )


def _open_csv(path: str, header_lines: list[str]):
    handle = open(path, "w", newline="")
    for line in header_lines:
        handle.write(line + "\n")
    return handle


def write_snapshot_csv(state: SolverState, path: str, level: int | None = None) -> None:
    """Write the solution field at one time level as CSV.

    Columns are ``x,u`` on the line and ``x,y,u`` on the square.  Defaults
    to the last computed level.
    """
    level = state.level if level is None else int(level)
    if not 0 <= level <= state.level:
        raise ValidationError(
            f"snapshot level {level} outside computed range 0..{state.level}"
        )
    problem = state.problem
    space = problem.space
    t = float(state.mesh.nodes[level])
    header = reproducibility_header(
        "solution-snapshot",
        {
            "problem": problem.name or "custom",
            "alpha": problem.order.alpha,
            "space": space.descriptor,
            "num_steps": state.mesh.num_steps,
            "horizon": state.mesh.horizon,
            "level": level,
            "t": t,
        },
    )
    field_u = state.history[level]
    with _open_csv(path, header) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if isinstance(space, DirichletLine):
            writer.writerow(["x", "u"])
            for x, u in zip(space.grid, field_u):
                writer.writerow([repr(float(x)), repr(float(u))])
        else:
            xx, yy = space.grid
            writer.writerow(["x", "y", "u"])
            for x, y, u in zip(xx.ravel(), yy.ravel(), field_u.ravel()):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(u))])


def write_diagnostics_csv(state: SolverState, path: str) -> None:
    """Write the per-level diagnostics stream as CSV.

    Columns are ``level,t,l2_error,h1_seminorm``; the error column is empty
    when the problem has no reference solution.
    """
    report = discrete_norms(state)
    problem = state.problem
    header = reproducibility_header(
        "diagnostics-stream",
        {
            "problem": problem.name or "custom",
            "alpha": problem.order.alpha,
            "space": problem.space.descriptor,
            "num_steps": state.mesh.num_steps,
            "horizon": state.mesh.horizon,
        },
    )
    with _open_csv(path, header) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["level", "t", "l2_error", "h1_seminorm"])
        for k in range(state.level + 1):
            err = "" if report.l2_error is None else repr(float(report.l2_error[k]))
            writer.writerow(
                [k, repr(float(state.mesh.nodes[k])), err, repr(float(state.h1_seminorm[k]))]
            )
