"""Time-stepping solvers for the subdiffusion equation on nonuniform meshes.

Each time level solves ``L u = sigma*Lap(u^k) + (alpha/2)*Lap(u^{k-1}) + f(t_k*)``
where ``L`` is the discrete fractional derivative from :mod:`subdiff.kernel`
and the right side evaluates the Laplacian semi-implicitly at the offset
point.  The source is sampled pointwise at ``t_k*``; no time quadrature is
applied to it.

Two spatial discretizations are provided:

* :class:`DirichletLine`: second-order central differences on ``[0, length]``
  with homogeneous Dirichlet ends; its eigenbasis is the sine modes
  ``sin(j*pi*i/N)`` (an orthonormal DST-I).
* :class:`PeriodicSquare`: Fourier spectral discretization on
  ``[0, length]^2``; its eigenbasis is the Hartley modes
  ``cas(k . x) = cos(k . x) + sin(k . x)`` (an orthonormal 2-D Hartley
  transform, built from a real FFT).

Both give ``laplacian``, its nonnegative eigenvalues ``laplacian_symbol``
(of ``-laplacian``) and the ``forward`` transform onto their eigenbasis,
which is real, keeps the field's shape, is orthonormal and is its own
``inverse``.

The scheme is diagonal in that basis, so :func:`solve` marches
eigen-coefficients, one scalar recursion per mode, and only on the active
set: the modes where the initial field or a source value seen so far has a
coefficient above ``_MODE_FLOOR`` (1e-13) times the largest coefficient of
that field.  The set only grows; a mode a source first excites at level k
joins with its all-zero past.  What the floor drops is at most 1e-13 of its
field, 700 times the transforms' own rounding of a single mode, and the
largest dropped fraction is kept as ``SolverState.dropped``.  A level costs
one transform of the source value (none without a source) and a dot over
the active columns of the history; the history rows hold the coefficients
during the march and become fields once, at the end.  :func:`solve` streams
the kernel rows in slabs and never holds the dense kernel table, only the
history and one slab.

The per-step residual is that of the diagonal system actually solved,
relative to its right side: rounding level, the march's check on its own
algebra.  The accuracy witness is the march's agreement with a mode-exact
scalar recursion (``tests/test_solver.py::test_paper_grid_march_is_mode_exact``)
and with a whole-field physical-space march
(``tests/test_solver.py::test_modal_march_matches_physical_march``).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np
import scipy.fft

from .errors import DimensionMismatchError, LinearSolveError, ValidationError
from .kernel import (
    FractionalOrder,
    KernelRow,
    KernelTable,
    _kernel_rows,
    as_fractional_order,
    build_kernel_table,  # not called here; perfbench/spans.py wraps this name in this module
)
from .meshes import TimeMesh
from .provenance import reproducibility_header, write_csv

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
    "discrete_norms",
    "write_snapshot_csv",
    "write_diagnostics_csv",
]

logger = logging.getLogger(__name__)

_TINY = 1e-300
# A coefficient joins the active set above this fraction of the largest
# coefficient of its field: 700x the transforms' own rounding of one mode.
_MODE_FLOOR = 1e-13


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

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """Eigenvalues ``(2/h)^2 sin^2(j*pi/(2N))`` of ``-laplacian``, ``j = 1..N-1``."""
        j = np.arange(1, self.intervals)
        lam = (2.0 / self.h) ** 2 * np.sin(j * math.pi / (2 * self.intervals)) ** 2
        lam.flags.writeable = False
        return lam

    def forward(self, v: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I onto the sine modes ``sin(j*pi*i/N)``; its own inverse."""
        return scipy.fft.dst(v, type=1, norm="ortho")

    inverse = forward

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

    def forward(self, v: np.ndarray) -> np.ndarray:
        """Orthonormal 2-D Hartley transform ``(Re F - Im F) / modes`` with
        ``F`` the FFT of ``v``; real, the field's shape, and its own inverse.

        The symbol is even in each frequency, so the transform diagonalizes
        the Laplacian as the FFT does.  It is built from the half spectrum
        (``rfft2``): the other half is ``F`` at the negated frequencies.
        """
        n = self.modes
        half = scipy.fft.rfft2(v)
        cols = n // 2 + 1
        out = np.empty((n, n))
        np.subtract(half.real, half.imag, out=out[:, :cols])
        mirror = half[:, n - cols : 0 : -1]  # columns -(cols..n-1) mod n
        np.add(mirror[0].real, mirror[0].imag, out=out[0, cols:])
        np.add(mirror[:0:-1].real, mirror[:0:-1].imag, out=out[1:, cols:])
        out /= n
        return out

    inverse = forward

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        """Spectral Laplacian."""
        return self.inverse(-self.laplacian_symbol * self.forward(v))

    def l2_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(self.h**2 * np.sum(np.square(v))))

    def h1_seminorm(self, v: np.ndarray) -> float:
        """``sqrt(h^2 * sum lam c^2)`` over the Hartley coefficients ``c``."""
        weighted = np.sum(self.laplacian_symbol * np.square(self.forward(v)))
        return float(np.sqrt(self.h**2 * weighted))


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
    no reference solution).  ``initial`` defaults to the zero field; a
    non-finite one is refused with ValidationError.
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
            if not np.all(np.isfinite(initial)):
                raise ValidationError("initial field has non-finite entries")
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
    """Marching state: full history, active modes and per-step diagnostics.

    When :func:`solve` returns, ``history[k]`` is the solution field at
    level ``k`` (levels through ``level`` are valid).  While marching, row
    ``k`` holds the level's eigen-coefficients instead, packed: column ``j``
    of the flattened row is the coefficient of mode ``modes[j]`` (a flat
    index into the space's eigenbasis), and columns from ``modes.size`` on
    are zero.  ``modes`` is the active set in the order its modes joined,
    and ``active`` marks them on the flattened eigenbasis.  ``dropped`` is the
    largest coefficient, relative to the largest of its field, that the
    initial field or a source value had on a mode outside the active set.
    ``residual[k]`` is the relative max-norm residual of the level-``k``
    diagonal solve and ``h1_seminorm[k]`` the energy seminorm of the
    solution, both 0.0 at unreached levels.
    """

    problem: Problem
    mesh: TimeMesh
    level: int
    history: np.ndarray = field(repr=False)
    h1_seminorm: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)
    dropped: float = 0.0


@dataclass(frozen=True)
class NormReport:
    """Error and energy metrics of a completed run."""

    max_l2_error: float | None
    argmax_level: int | None
    l2_error: np.ndarray | None
    h1_seminorm: np.ndarray
    residual_max: float


def initialize_state(problem: Problem, mesh: TimeMesh) -> SolverState:
    """Allocate the full history and seed level 0 with the initial field's
    coefficients on its active modes (see :class:`SolverState`)."""
    k_total = mesh.num_steps
    space = problem.space
    history = np.zeros((k_total + 1,) + problem.initial.shape)
    h1 = np.zeros(k_total + 1)
    h1[0] = space.h1_seminorm(problem.initial)
    state = SolverState(
        problem=problem,
        mesh=mesh,
        level=0,
        history=history,
        h1_seminorm=h1,
        residual=np.zeros(k_total + 1),
        modes=np.zeros(0, dtype=np.intp),
        active=np.zeros(history[0].size, dtype=bool),
    )
    coeffs = space.forward(problem.initial).ravel()
    _activate(state, coeffs)
    history.reshape(k_total + 1, -1)[0, : state.modes.size] = coeffs[state.modes]
    return state


def _activate(state: SolverState, coeffs: np.ndarray) -> None:
    """Add to the active set the modes where a field's flat coefficients
    exceed ``_MODE_FLOOR`` times their largest; record what stays out."""
    magnitude = np.abs(coeffs)
    peak = float(magnitude.max())
    outside = ~state.active
    joining = outside & (magnitude > _MODE_FLOOR * peak)
    if joining.any():
        new = np.flatnonzero(joining)
        state.active[new] = True
        outside[new] = False
        state.modes = np.concatenate([state.modes, new])
    if peak > 0.0:
        left = float(magnitude.max(where=outside, initial=0.0))
        state.dropped = max(state.dropped, left / peak)


def _source_coefficients(problem: Problem, t: float, k: int) -> np.ndarray:
    """Flat eigen-coefficients of the source at time ``t`` (level ``k``),
    refusing a value that is not a finite field of the space's shape."""
    f = np.asarray(problem.source(t), dtype=float)
    if f.shape != problem.initial.shape:
        raise DimensionMismatchError(
            f"level {k}: source value shape {f.shape} does not match "
            f"space shape {problem.initial.shape}"
        )
    if not np.all(np.isfinite(f)):
        raise ValidationError(f"level {k}: source value has non-finite entries")
    return problem.space.forward(f).ravel()


def step(state: SolverState, row: KernelRow) -> SolverState:
    """Advance the state one level using the given kernel row.

    The row's level must be ``state.level + 1``.  Returns the same state
    object with ``history``, ``h1_seminorm`` and ``residual`` filled at the
    new level.  The history rows hold packed eigen-coefficients here (see
    :class:`SolverState`); :func:`solve` turns them into fields at the end.
    The source value joins its modes to the active set first; then each
    active mode solves its own scalar equation, one diagonal division, with
    the history term a dot over the active columns only.  The residual is
    that of the diagonal system, relative to its right side.
    """
    k = row.k
    if k != state.level + 1:
        raise DimensionMismatchError(
            f"row level {k} does not follow state level {state.level}"
        )
    problem = state.problem
    order = problem.order
    space = problem.space
    f = 0.0
    if problem.source is not None:
        coeffs = _source_coefficients(problem, row.t_star, k)
        _activate(state, coeffs)
        f = coeffs[state.modes]
    s = state.modes.size
    lam = space.laplacian_symbol.ravel()[state.modes]
    packed = state.history.reshape(state.history.shape[0], -1)
    m = row.m_row
    delta_m = m.copy()
    delta_m[1:] -= m[:-1]
    history_term = (delta_m @ packed[:k, :s]) / order.gamma_1ma
    rhs = f - 0.5 * order.alpha * lam * packed[k - 1, :s] + history_term
    diag = m[-1] / order.gamma_1ma + order.sigma * lam
    c = rhs / diag
    if not np.all(np.isfinite(c)):
        raise LinearSolveError(f"level {k}: non-finite solution")
    scale = max(float(np.max(np.abs(rhs), initial=0.0)), _TINY)
    state.residual[k] = float(np.max(np.abs(diag * c - rhs), initial=0.0)) / scale
    packed[k, :s] = c
    # Parseval: the transforms are orthonormal, so the energy is a sum over modes
    state.h1_seminorm[k] = math.sqrt(space.h**space.ndim * float(np.dot(lam * c, c)))
    state.level = k
    return state


def _to_fields(state: SolverState) -> None:
    """Turn the packed coefficient rows of levels ``1..level`` into fields,
    in place, and restore level 0 to the initial field itself."""
    space = state.problem.space
    packed = state.history.reshape(state.history.shape[0], -1)
    s = state.modes.size
    coeffs = np.zeros(packed.shape[1])
    for k in range(1, state.level + 1):
        coeffs[state.modes] = packed[k, :s]
        state.history[k] = space.inverse(coeffs.reshape(state.history.shape[1:]))
    state.history[0] = state.problem.initial


def solve(
    problem: Problem,
    mesh: TimeMesh,
    backend: str = "closed",
    table: KernelTable | None = None,
) -> SolverState:
    """March the problem across the whole mesh and return the final state.

    The kernel rows are computed by ``backend`` in slabs of consecutive rows
    as the march reaches them, and each slab is dropped once its rows are marched.  A
    prebuilt ``table`` may be supplied instead, by callers that reuse one;
    its first ``mesh.num_steps`` rows are used, bit-identical to the streamed
    ones.  A table for another order, or on a mesh whose first
    ``mesh.num_steps + 1`` nodes differ, is refused with ValidationError.
    The march runs on the active modes' coefficients (see :class:`SolverState`);
    the returned history holds fields.  A source value that is not a finite
    field of the space's shape is refused, naming its level.
    """
    n = mesh.num_steps
    if table is None:
        rows = _kernel_rows(mesh, problem.order, backend)
    else:
        _check_table(table, problem, mesh)
        rows = (table.row(k) for k in range(1, n + 1))
    state = initialize_state(problem, mesh)
    for row in rows:
        step(state, row)
    _to_fields(state)
    logger.debug(
        "marched %d levels on %d of %d modes; max residual %.2e, largest dropped %.1e",
        n,
        state.modes.size,
        state.active.size,
        float(np.max(state.residual)),
        state.dropped,
    )
    return state


def _check_table(table: KernelTable, problem: Problem, mesh: TimeMesh) -> None:
    """Refuse a table built for another order or mesh than the run's."""
    n = mesh.num_steps
    if table.n < n:
        raise ValidationError(f"kernel table covers {table.n} levels, mesh has {n}")
    alpha = problem.order.alpha
    if table.order.alpha != alpha:
        raise ValidationError(f"kernel table is for alpha {table.order.alpha}, not {alpha}")
    if not np.array_equal(table.mesh.nodes[: n + 1], mesh.nodes):
        raise ValidationError(f"kernel table's first {n + 1} mesh nodes differ from the run's")


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
    coords = [space.grid] if space.ndim == 1 else [g.ravel() for g in space.grid]
    columns = ["x", "y"][: space.ndim] + ["u"]
    write_csv(path, header, columns, zip(*coords, state.history[level].ravel()))


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
    levels = state.level + 1
    errors = [""] * levels if report.l2_error is None else report.l2_error
    write_csv(
        path,
        header,
        ["level", "t", "l2_error", "h1_seminorm"],
        zip(range(levels), state.mesh.nodes, errors, state.h1_seminorm[:levels]),
    )
