"""Time-stepping solvers for the subdiffusion equation on nonuniform meshes.

Each time level solves ``L u = sigma*Lap(u^k) + (alpha/2)*Lap(u^{k-1}) + f(t_k*)``
where ``L`` is the discrete fractional derivative from :mod:`subdiff.kernel`
and the right side evaluates the Laplacian semi-implicitly at the offset
point.  The source is sampled pointwise at ``t_k*``; no time quadrature is
applied to it.

Two spatial discretizations are provided:

* :class:`DirichletLine`: second-order central differences on ``[0, 2*pi]``
  with homogeneous Dirichlet ends; its eigenbasis is the sine modes
  ``sin(j*pi*i/N)`` (an orthonormal DST-I).
* :class:`PeriodicSquare`: Fourier spectral discretization on
  ``[0, 2*pi]^2``; its eigenbasis is the Hartley modes
  ``cas(k . x) = cos(k . x) + sin(k . x)`` (an orthonormal 2-D Hartley
  transform, built from a real FFT).

Both give ``laplacian``, its nonnegative eigenvalues ``laplacian_symbol``
(of ``-laplacian``) and the ``forward`` transform onto their eigenbasis,
which is real, keeps the field's shape, is orthonormal and is its own
``inverse``.  Both transforms are built on NumPy's real FFT, so a run
needs no SciPy.

A problem's source and exact solution are short sums of separable terms,
each a function of time times a spatial profile, so each profile is
transformed once, when the :class:`Problem` is built.  The scheme is
diagonal in the eigenbasis, so :func:`solve` marches eigen-coefficients,
one scalar recursion per mode, and only on the active set: the modes where
the initial field or any source profile has a coefficient above
``_MODE_FLOOR`` (1e-13) times the largest coefficient of that field.  The
set is a property of the run's data, fixed before level 1 and kept in
ascending order.  What the floor drops is at most 1e-13 of its field, 700
times the transforms' own rounding of a single mode, and the largest
dropped fraction is kept as ``SolverState.dropped``.  The run keeps only
the coefficient history, ``(K+1) x |S|`` for ``|S|`` active modes; a
field is built on demand (``SolverState.field``), and the norms are taken
on the coefficients by Parseval.  :func:`solve` streams the kernel's
history rows in slabs of consecutive levels and never holds the dense
kernel table, only the coefficient history and one slab.  It marches a slab at a time, with no
transform: the history a slab's levels take from the levels before it is one
matrix product, and each level adds only a dot over the slab's earlier
levels and one division per mode.  The time factors are taken once per
slab, and the finite check, the residual and the H1 seminorm once per part
of a slab, as array operations.

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
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import DimensionMismatchError, LinearSolveError, ValidationError
from .kernel import (
    FractionalOrder,
    KernelRow,
    KernelTable,
    _kernel_slabs,
    _slab_edges,
    as_fractional_order,
    build_kernel_table,  # not called here; perfbench/spans.py wraps this name in this module
)
from .meshes import TimeMesh, _check_count, _check_reals
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
    "initialize_state",
    "step",
    "solve",
    "discrete_norms",
    "write_snapshot_csv",
    "write_diagnostics_csv",
]

logger = logging.getLogger(__name__)

_TINY = 1e-300
# A mode is active where some field's coefficient is above this fraction of
# that field's largest: 700x the transforms' own rounding of one mode.
_MODE_FLOOR = 1e-13
# Entries rows * (k + |S|) of one part of a slab, for levels up to k on |S|
# active modes.  It bounds the march's temporaries (the differenced history
# rows, the right sides and one work array) to twice this many floats.
_PART_ENTRIES = 2**15


@dataclass(frozen=True)
class DirichletLine:
    """1-D interval ``[0, 2*pi]`` with homogeneous Dirichlet boundaries.

    ``intervals`` is the number of spatial cells; unknowns live at the
    ``intervals - 1`` interior nodes ``x_i = i*h``.
    """

    intervals: int
    length: ClassVar[float] = 2.0 * math.pi
    ndim: ClassVar[int] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _check_count(self.intervals, "intervals", 3))

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
        """Orthonormal DST-I onto the sine modes ``sin(j*pi*i/N)``; its own inverse.

        It is the real FFT of the odd extension ``[0, v, 0, -v[::-1]]`` of
        length ``2N``: minus its imaginary part at frequencies ``1..N-1``,
        scaled by ``1/sqrt(2N)``.  That is pocketfft's own DST-I, and with the
        scale rounded once from long double it gives SciPy's
        ``dst(type=1, norm="ortho")`` bit for bit.
        """
        n = self.intervals
        odd = np.zeros(np.shape(v)[:-1] + (2 * n,))
        odd[..., 1:n] = v
        odd[..., n + 1 :] = -odd[..., n - 1 : 0 : -1]
        return np.fft.rfft(odd).imag[..., 1:n] * -float(1 / np.sqrt(np.longdouble(2 * n)))

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
    """Periodic square ``[0, 2*pi]^2`` sampled on a ``modes x modes`` grid."""

    modes: int
    length: ClassVar[float] = 2.0 * math.pi
    ndim: ClassVar[int] = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", _check_count(self.modes, "modes", 3))

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
        half = np.fft.rfft2(v)
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


# A separable term: a real function of time and a spatial profile of the
# space's shape; the term's value at time t is ``time_function(t) * profile``.
Term = tuple[Callable[[float], float], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """A subdiffusion initial-boundary value problem on a fixed space.

    ``source`` and ``exact`` are sums of separable terms, each a pair
    ``(time_function, profile)`` whose value at time ``t`` is
    ``time_function(t) * profile``; ``source`` None or empty is the zero
    source, ``exact`` None means no reference solution.  Each profile is
    refused unless it is a finite field of the space's shape, then
    transformed once: ``source_coefficients`` and ``exact_coefficients``
    hold one row of flat eigen-coefficients per term.  The time factors are
    checked where they are used, level by level.  ``initial`` defaults to
    the zero field; a non-finite one is refused with ValidationError.
    """

    order: FractionalOrder
    space: "DirichletLine | PeriodicSquare"
    source: Sequence[Term] | None = ()
    initial: np.ndarray | None = None
    exact: Sequence[Term] | None = None
    name: str = ""
    source_coefficients: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    exact_coefficients: np.ndarray | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", as_fractional_order(self.order))
        zero = self.space.zero_field()
        initial = self.initial
        initial = zero if initial is None else _space_field(initial, zero.shape, "initial field")
        object.__setattr__(self, "initial", initial)
        source = () if self.source is None else self.source
        source, source_hat = _separable_terms(self.space, source, "source")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "source_coefficients", source_hat)
        if self.exact is not None:
            exact, exact_hat = _separable_terms(self.space, self.exact, "exact")
            object.__setattr__(self, "exact", exact)
            object.__setattr__(self, "exact_coefficients", exact_hat)


def _separable_terms(space, terms, what: str) -> tuple[tuple[Term, ...], np.ndarray]:
    """Check ``(time_function, profile)`` pairs and transform each profile.

    Returns the pairs, with read-only float profiles, and their flat
    eigen-coefficients, one row per term.
    """
    if callable(terms) or isinstance(terms, np.ndarray):
        raise ValidationError(
            f"{what} must be a sequence of (time_function, profile) pairs, "
            f"f(t) * P(x) written [(f, P)]; got {type(terms).__name__}"
        )
    shape = space.zero_field().shape
    checked = []
    for i, term in enumerate(terms):
        try:
            time_function, profile = term
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"{what} term {i} is not a (time_function, profile) pair"
            ) from exc
        if not callable(time_function):
            raise ValidationError(f"{what} term {i}: time function is not callable")
        profile = _space_field(profile, shape, f"{what} term {i}: profile").copy()
        profile.flags.writeable = False
        checked.append((time_function, profile))
    coefficients = np.zeros((len(checked), math.prod(shape)))
    for row, (_, profile) in zip(coefficients, checked):
        row[:] = space.forward(profile).ravel()
    coefficients.flags.writeable = False
    return tuple(checked), coefficients


def _space_field(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``value`` as a float array, refused unless it has the space's
    ``shape`` and finite entries; ``name`` opens the refusal message."""
    values = _check_reals(value, name)
    if values.shape != shape:
        raise DimensionMismatchError(
            f"{name} shape {values.shape} does not match space shape {shape}"
        )
    return values


def _time_factors(terms: Sequence[Term], times: np.ndarray, first: int, what: str) -> np.ndarray:
    """The terms' time factors, one row per time in ``times`` (levels
    ``first``, ``first + 1``, ...); one that is not a finite real number is
    refused, named by its level, ``what`` and its term index."""
    values = np.empty((len(times), len(terms)))
    for level, (t, row) in enumerate(zip(times.tolist(), values), start=first):
        for i, (time_function, _) in enumerate(terms):
            try:
                value = float(time_function(t))
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"level {level}: {what} term {i}: time factor at t = {t!r} "
                    "is not a real number"
                ) from exc
            if not math.isfinite(value):
                raise ValidationError(
                    f"level {level}: {what} term {i}: time factor at t = {t!r} "
                    f"is {value!r}, not finite"
                )
            row[i] = value
    return values


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

    def forcing(t: float) -> float:
        return gamma_factor + space.ndim * t**alpha

    def growth(t: float) -> float:
        return t**alpha

    return Problem(
        order=order,
        space=space,
        source=[(forcing, mode)],
        exact=[(growth, mode)],
        name=f"manufactured-{space.ndim}d",
    )


def manufactured_problem_1d(
    order: "float | FractionalOrder", intervals: int = 4096
) -> Problem:
    """:func:`manufactured_problem` with ``sin x`` on the Dirichlet line."""
    return manufactured_problem(order, DirichletLine(intervals))


@dataclass
class SolverState:
    """Marching state: the coefficient history, active modes and per-step
    diagnostics.

    ``modes`` is the active set, fixed by :func:`initialize_state`: the
    flat indices into the space's eigenbasis, ascending, where the initial
    field or any source profile has a coefficient above ``_MODE_FLOOR``
    times the largest coefficient of that field.  ``coefficients`` is the
    packed coefficient history, ``(K+1) x |S|``: row ``k`` holds level
    ``k``'s eigen-coefficients on the active modes, column ``j`` that of
    mode ``modes[j]``, zero at unreached levels.  ``dropped`` is the largest
    coefficient, relative to the largest of its own field, that any of these
    fields has outside the active set.  ``residual[k]`` is the relative
    max-norm residual of the level-``k`` diagonal solve and
    ``h1_seminorm[k]`` the energy seminorm of the solution, both 0.0 at
    unreached levels.  Fields are built only on request: :meth:`field` one
    level, :attr:`history` every computed level.
    """

    problem: Problem
    mesh: TimeMesh
    level: int
    coefficients: np.ndarray = field(repr=False)
    h1_seminorm: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)
    dropped: float = 0.0

    def field(self, k: int) -> np.ndarray:
        """The solution field at computed level ``k`` (0..``level``)."""
        k = _check_count(k, "level", 0, self.level)
        flat = np.zeros(self.problem.initial.size)
        flat[self.modes] = self.coefficients[k]
        return self.problem.space.inverse(flat.reshape(self.problem.initial.shape))

    @property
    def history(self) -> np.ndarray:
        """The fields of levels ``0..level``, built anew on each read; read-only."""
        fields = np.empty((self.level + 1,) + self.problem.initial.shape)
        for k in range(self.level + 1):
            fields[k] = self.field(k)
        fields.flags.writeable = False
        return fields


@dataclass(frozen=True)
class NormReport:
    """Error and energy metrics of a completed run."""

    max_l2_error: float | None
    argmax_level: int | None
    l2_error: np.ndarray | None
    l2_norm: np.ndarray
    h1_seminorm: np.ndarray
    residual_max: float


def initialize_state(problem: Problem, mesh: TimeMesh) -> SolverState:
    """Allocate the state on the run's active set and seed level 0 with the
    initial field's coefficients (see :class:`SolverState`)."""
    k_total = mesh.num_steps
    space = problem.space
    h1 = np.zeros(k_total + 1)
    h1[0] = space.h1_seminorm(problem.initial)
    initial = space.forward(problem.initial).ravel()
    magnitude = np.abs(np.vstack([initial, problem.source_coefficients]))
    peak = magnitude.max(axis=1)
    modes = np.flatnonzero((magnitude > _MODE_FLOOR * peak[:, None]).any(axis=0))
    left = np.delete(magnitude, modes, axis=1).max(axis=1, initial=0.0)
    live = peak > 0.0
    coefficients = np.zeros((k_total + 1, modes.size))
    coefficients[0] = initial[modes]
    return SolverState(
        problem=problem,
        mesh=mesh,
        level=0,
        coefficients=coefficients,
        h1_seminorm=h1,
        residual=np.zeros(k_total + 1),
        modes=modes,
        dropped=float(np.max(left[live] / peak[live], initial=0.0)),
    )


def step(state: SolverState, row: KernelRow) -> SolverState:
    """Advance the state one level using the given kernel row.

    The row's level must be ``state.level + 1``.  This is the one-row case
    of :func:`solve`'s slab march (:func:`_march` gives the equation a level
    solves).  Returns the same state object with ``coefficients``,
    ``h1_seminorm`` and ``residual`` filled at the new level.
    """
    _march(state, row.m_row[None, :], np.array([row.t_star]))
    return state


def _part_rows(rows: int, k1: int, modes: int) -> int:
    """Rows per part of a slab of ``rows`` levels up to ``k1`` on ``modes``
    active modes: as few parts as ``_PART_ENTRIES`` allows, their rows
    evened out."""
    parts = -(-rows // max(_PART_ENTRIES // (k1 + modes), 1))
    return -(-rows // parts)


def _march_buffers(edges, modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The differenced history rows, right sides and work array
    :func:`_march` needs for every slab ``(k0, k1)`` of ``edges``."""
    parts = [(_part_rows(k1 - k0, k1, modes), k1) for k0, k1 in edges]
    rows = max(size for size, _ in parts)
    dm = np.empty(max(size * k1 for size, k1 in parts))
    return dm, np.empty((rows, modes)), np.empty((rows, modes))


def _march(
    state: SolverState,
    m: np.ndarray,
    t_star: np.ndarray,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """March one slab: levels ``k0+1..k1`` from their history rows ``m``,
    laid out as those rows of a :class:`KernelTable` (``(k1 - k0) x k1``),
    and their offset points ``t_star``; ``k0`` must be ``state.level``.

    The source's time factors are taken for the whole slab first, so one
    that is not a finite real number is refused before any of its levels is
    marched.  Level ``k`` solves, on each active mode, the diagonal equation
    ``(m_kk / Gamma(1-alpha) + sigma lam) c_k = rhs_k`` with
    ``rhs_k = f_k - (alpha/2) lam c_{k-1} + sum_j (m_{k,j+1} - m_{k,j}) c_j /
    Gamma(1-alpha)`` over ``j = 0..k-1`` (``m_{k,0} = 0``).  The levels go
    in parts of at most ``_PART_ENTRIES`` entries, in ``buffers`` from
    :func:`_march_buffers`, which :func:`solve` allocates once for the whole
    run and reuses from part to part and slab to slab (a one-slab set is
    allocated when none is given).  The history sum over the levels before
    a part is one matrix product for the whole part; each level then adds
    its dot over the part's earlier levels and does its division.  The
    finite check, the residual (that of the diagonal system, relative to
    its right side) and the H1 seminorm (by Parseval: the transforms are
    orthonormal) are taken for the whole part.  A non-finite solution is
    refused, naming its first level.
    """
    rows, k1 = m.shape
    k0 = k1 - rows
    if k0 != state.level:
        raise DimensionMismatchError(
            f"row level {k0 + 1} does not follow state level {state.level}"
        )
    problem = state.problem
    source = None
    if problem.source:
        factors = _time_factors(problem.source, t_star, k0 + 1, "source")
        source = problem.source_coefficients[:, state.modes]
    order = problem.order
    space = problem.space
    c = state.coefficients
    lam = space.laplacian_symbol.ravel()[state.modes]
    half_lam = 0.5 * order.alpha * lam
    sigma_lam = order.sigma * lam
    size = _part_rows(rows, k1, lam.size)
    if buffers is None:
        buffers = _march_buffers([(k0, k1)], lam.size)
    dm_buffer, rhs_buffer, work_buffer = buffers
    for p in range(0, rows, size):
        q = min(p + size, rows)
        start, top = k0 + p, k0 + q  # the part's levels are start+1..top
        rhs, work = rhs_buffer[: q - p], work_buffer[: q - p]
        # the history rows differenced, over Gamma(1 - alpha): column j weighs level j
        dm = dm_buffer[: (q - p) * top].reshape(q - p, top)
        dm[:, 0] = m[p:q, 0]
        np.subtract(m[p:q, 1:top], m[p:q, : top - 1], out=dm[:, 1:])
        dm /= order.gamma_1ma
        np.matmul(dm[:, : start + 1], c[: start + 1], out=rhs)
        if source is not None:
            rhs += np.matmul(factors[p:q], source, out=work)
        diag = np.add.outer(m[p:q].diagonal(start) / order.gamma_1ma, sigma_lam, out=work)
        for i, k in enumerate(range(start + 1, top + 1)):
            right = rhs[i]
            if i:
                right += dm[i, start + 1 : k] @ c[start + 1 : k]
            right -= half_lam * c[k - 1]
            np.divide(right, diag[i], out=c[k])
        new = c[start + 1 : top + 1]
        finite = np.isfinite(new).all(axis=1)
        if not finite.all():
            new[:] = 0.0
            first = start + 1 + int(np.argmin(finite))
            raise LinearSolveError(f"level {first}: non-finite solution")
        np.multiply(diag, new, out=work)  # diag lives in work, and is done with
        work -= rhs
        np.abs(work, out=work)
        error = work.max(axis=1, initial=0.0)
        np.abs(rhs, out=work)
        scale = np.maximum(work.max(axis=1, initial=0.0), _TINY)
        state.residual[start + 1 : top + 1] = error / scale
        np.multiply(lam, new, out=work)
        energy = np.einsum("ks,ks->k", work, new)
        state.h1_seminorm[start + 1 : top + 1] = np.sqrt(space.h**space.ndim * energy)
        state.level = top


def solve(
    problem: Problem,
    mesh: TimeMesh,
    backend: str = "closed",
    table: KernelTable | None = None,
) -> SolverState:
    """March the problem across the whole mesh and return the final state.

    The kernel's history rows are computed by ``backend`` in slabs of
    consecutive rows as the march reaches them, each in the one workspace
    of the kernel stream, so the next slab overwrites the one just marched;
    the march's own buffers are allocated once for the run.  A prebuilt
    ``table`` may be supplied instead, by callers that reuse one; its first
    ``mesh.num_steps`` rows are marched on the same slab edges,
    bit-identical to the streamed run.  A table for
    another order, or on a mesh whose first ``mesh.num_steps + 1`` nodes
    differ, is refused with ValidationError.  The march runs a slab at a
    time on the active modes' coefficients (see :func:`_march`), and the
    returned state holds only their history (see :class:`SolverState`).  A
    source time factor that is not a finite real number is refused before
    its slab is marched, naming its level.
    """
    n = mesh.num_steps
    if table is None:
        slabs = _kernel_slabs(mesh, problem.order, n, backend)
    else:
        _check_table(table, problem, mesh)
        slabs = (
            (k0, k1, None, None, table.m[k0:k1, :k1], table.t_star[k0:k1])
            for k0, k1 in _slab_edges(n)
        )
    state = initialize_state(problem, mesh)
    buffers = _march_buffers(_slab_edges(n), state.modes.size)
    for _, _, _, _, m, t_star in slabs:
        _march(state, m, t_star, buffers)
    logger.debug(
        "marched %d levels on %d of %d modes; max residual %.2e, largest dropped %.1e",
        n,
        state.modes.size,
        problem.initial.size,
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

    ``l2_norm[k]`` is the grid L2 norm of the solution at level ``k``.  When
    the problem carries an exact solution, ``l2_error[k]`` holds the grid L2
    error at node time ``t_k`` and ``max_l2_error`` its maximum over levels
    with ``argmax_level`` the attaining level; without one the error entries
    are None.  Both are taken on the coefficients (Parseval: the transforms
    are orthonormal): the error on the active modes against the exact
    solution's coefficients there, plus the exact solution's energy on the
    modes outside the active set.  A non-finite time factor of the exact
    solution is refused, naming its level.
    """
    levels = state.level + 1
    problem = state.problem
    space = problem.space
    weight = space.h**space.ndim
    coeffs = state.coefficients[:levels]
    l2_norm = np.sqrt(weight * np.einsum("ks,ks->k", coeffs, coeffs))
    l2_error = None
    max_err = None
    arg = None
    if problem.exact is not None:
        factors = _time_factors(problem.exact, state.mesh.nodes[:levels], 0, "exact")
        exact_hat = problem.exact_coefficients
        diff = coeffs - factors @ exact_hat[:, state.modes]
        outside = np.delete(exact_hat, state.modes, axis=1)
        energy = np.einsum("ks,ks->k", diff, diff)
        energy += np.einsum("ki,ij,kj->k", factors, outside @ outside.T, factors)
        l2_error = np.sqrt(weight * np.maximum(energy, 0.0))
        arg = int(np.argmax(l2_error))
        max_err = float(l2_error[arg])
    return NormReport(
        max_l2_error=max_err,
        argmax_level=arg,
        l2_error=l2_error,
        l2_norm=l2_norm,
        h1_seminorm=state.h1_seminorm[:levels].copy(),
        residual_max=float(np.max(state.residual[:levels])),
    )


def _run_parameters(state: SolverState) -> dict:
    """The header parameters every file of a run opens with."""
    problem = state.problem
    return {
        "problem": problem.name or "custom",
        "alpha": problem.order.alpha,
        "space": problem.space.descriptor,
        "num_steps": state.mesh.num_steps,
        "horizon": state.mesh.horizon,
    }


def write_snapshot_csv(state: SolverState, path: str, level: int | None = None) -> None:
    """Write the solution field at one time level as CSV.

    Columns are ``x,u`` on the line and ``x,y,u`` on the square.  Defaults
    to the last computed level.
    """
    level = state.level if level is None else level
    values = state.field(level).ravel()
    space = state.problem.space
    t = float(state.mesh.nodes[level])
    header = reproducibility_header(
        "solution-snapshot", {**_run_parameters(state), "level": level, "t": t}
    )
    coords = [space.grid] if space.ndim == 1 else [g.ravel() for g in space.grid]
    columns = ["x", "y"][: space.ndim] + ["u"]
    write_csv(path, header, columns, zip(*coords, values))


def write_diagnostics_csv(state: SolverState, path: str) -> None:
    """Write the per-level diagnostics stream as CSV.

    Columns are ``level,t,l2_error,h1_seminorm``; the error column is empty
    when the problem has no reference solution.
    """
    report = discrete_norms(state)
    header = reproducibility_header("diagnostics-stream", _run_parameters(state))
    levels = state.level + 1
    errors = [""] * levels if report.l2_error is None else report.l2_error
    write_csv(
        path,
        header,
        ["level", "t", "l2_error", "h1_seminorm"],
        zip(range(levels), state.mesh.nodes, errors, state.h1_seminorm[:levels]),
    )
