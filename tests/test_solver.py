"""Time marching on the two model spaces: exactness cases, spectral purity,
agreement with a scalar single-mode recursion and with a whole-field
physical-space march, the active mode set, the streamed kernel rows, norms,
refusals of bad data, and CSV outputs."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import subdiff.kernel as kernel_module
import subdiff.solver as solver_module
from subdiff import (
    DirichletLine,
    FractionalOrder,
    PeriodicSquare,
    Problem,
    build_kernel_table,
    compute_orders,
    discrete_norms,
    initialize_state,
    make_graded_mesh,
    make_graded_then_uniform,
    make_uniform_mesh,
    manufactured_problem,
    manufactured_problem_1d,
    parse_space,
    solve,
    step,
    write_diagnostics_csv,
    write_snapshot_csv,
)
from subdiff.errors import (
    DimensionMismatchError,
    LinearSolveError,
    NumericalError,
    ValidationError,
)
from test_kernel import _back_to_back_runs_mesh, _run_between_graded_mesh


def test_parse_space():
    line = parse_space("d1:512")
    assert isinstance(line, DirichletLine) and line.intervals == 512
    square = parse_space("p2:32")
    assert isinstance(square, PeriodicSquare) and square.modes == 32
    for bad in ("d1", "d1:", "d1:abc", "q3:16", "16"):
        with pytest.raises(ValidationError):
            parse_space(bad)


def test_space_validation_and_descriptors():
    assert DirichletLine(3).descriptor == "d1:3"
    assert PeriodicSquare(3).descriptor == "p2:3"
    with pytest.raises(ValidationError):
        DirichletLine(2)
    with pytest.raises(ValidationError):
        PeriodicSquare(2)


@pytest.mark.parametrize("space", [DirichletLine, PeriodicSquare])
def test_space_domain_is_fixed_at_two_pi(space):
    # the domain is [0, 2*pi] (per axis), a class constant and not a field
    assert space(8).length == 2 * math.pi
    assert space(8).h == 2 * math.pi / 8


@pytest.mark.parametrize("space", [DirichletLine, PeriodicSquare])
@pytest.mark.parametrize("length", [1.0, 2 * math.pi], ids=["1.0", "two-pi"])
def test_space_refuses_a_length_keyword(space, length):
    # the domain's own value is refused too: there is no field to set
    with pytest.raises(TypeError, match="length"):
        space(8, length=length)


def _line_eigenvalue(intervals):
    """The central difference's eigenvalue on ``sin x``: ``(4/h^2) sin^2(h/2)``."""
    h = 2 * math.pi / intervals
    return 4 / h**2 * math.sin(h / 2) ** 2


# (space, eigenvalue of -laplacian on first_mode()); the spectral Laplacian
# is exact on sin x sin y
_FIRST_MODES = [
    *((DirichletLine(n), _line_eigenvalue(n)) for n in (3, 4, 8, 16, 64)),
    *((PeriodicSquare(n), 2.0) for n in (3, 4, 8, 16)),
]
_FIRST_MODE_IDS = [space.descriptor for space, _ in _FIRST_MODES]


@pytest.mark.parametrize("space, eigenvalue", _FIRST_MODES, ids=_FIRST_MODE_IDS)
def test_first_mode_is_an_eigenvector_of_the_laplacian(space, eigenvalue):
    # first_mode() is a mode because the domain is a multiple of pi (line)
    # and of 2*pi (square); small grids keep the rounding of /h^2 small
    mode = space.first_mode()
    residual = space.laplacian(mode) + eigenvalue * mode
    assert np.max(np.abs(residual)) <= 1e-12 * eigenvalue * np.max(np.abs(mode))


@pytest.mark.parametrize("space, eigenvalue", _FIRST_MODES, ids=_FIRST_MODE_IDS)
def test_first_mode_grid_norms_are_exact_on_the_fixed_domain(space, eigenvalue):
    # on [0, 2*pi] every grid of at least 3 points sums sin^2 to half its
    # point count, so ||first_mode||^2 is pi (line) or pi^2 (square) and
    # |first_mode|_1^2 is the eigenvalue times that
    l2_squared = math.pi**space.ndim
    mode = space.first_mode()
    assert space.l2_norm(mode) == pytest.approx(math.sqrt(l2_squared), rel=1e-14)
    assert space.h1_seminorm(mode) == pytest.approx(
        math.sqrt(eigenvalue * l2_squared), rel=1e-14
    )


@pytest.mark.parametrize("modes", [3, 4, 8, 16])
def test_square_symbol_is_the_integer_wavenumbers(modes):
    # 2*pi / length is exactly 1.0, so the symbol is kx^2 + ky^2 over the
    # integer wavenumbers with no rounding
    space = PeriodicSquare(modes)
    assert 2.0 * math.pi / space.length == 1.0
    k = np.concatenate([np.arange((modes + 1) // 2), np.arange(-(modes // 2), 0)])
    np.testing.assert_array_equal(space.laplacian_symbol, k[:, None] ** 2 + k[None, :] ** 2)


def _uniform_norm_bits(problem):
    norms = discrete_norms(solve(problem, make_uniform_mesh(1.0, 4)))
    return [x.hex() for x in norms.h1_seminorm], [x.hex() for x in norms.l2_norm]


@pytest.mark.parametrize(
    "space, kind, h1, l2",
    [
        (DirichletLine(16), "decay",
         ["0x1.c2d6965172a28p+0", "0x1.1daddcc8a5a8fp+0", "0x1.e52c98de9402ap-1",
          "0x1.af7af3bc55e59p-1", "0x1.89fed62a29e3dp-1"],
         ["0x1.c5bf891b4ef6cp+0", "0x1.1f85e8780cf33p+0", "0x1.e84e47f1dfc7ap-1",
          "0x1.b243ea0430094p-1", "0x1.8c89dc2df896fp-1"]),
        (DirichletLine(16), "manufactured",
         ["0x0.0p+0", "0x1.b9698f2591679p-1", "0x1.3c011a4bdeec2p+0",
          "0x1.85b5c83efc8eap+0", "0x1.c3759a9c82bc4p+0"],
         ["0x0.0p+0", "0x1.bc42eebcb6e11p-1", "0x1.3e0b41ac15dbep+0",
          "0x1.8839b98766c4cp+0", "0x1.c65f94273f40bp+0"]),
        (PeriodicSquare(8), "decay",
         ["0x1.1c5831add62e4p+2", "0x1.dedec591f7d6ep+0", "0x1.88382b8917a21p+0",
          "0x1.4cabfe3e3b24bp+0", "0x1.26d279fb2055ap+0"],
         ["0x1.921fb54442d18p+1", "0x1.529cc419f9d46p+0", "0x1.15574c458f312p+0",
          "0x1.d67812f98c2dcp-1", "0x1.a0f1073c36872p-1"]),
        (PeriodicSquare(8), "manufactured",
         ["0x0.0p+0", "0x1.2077ccdd38ab8p+1", "0x1.90dd110df8c98p+1",
          "0x1.ebdc546ef5853p+1", "0x1.1c1c7ace0755ap+2"],
         ["0x0.0p+0", "0x1.97f48f87cad23p+0", "0x1.1b740d565f9c5p+1",
          "0x1.5bcc4a69c671cp+1", "0x1.91cb425c9be87p+1"]),
    ],
    ids=["d1-decay", "d1-manufactured", "p2-decay", "p2-manufactured"],
)
def test_fixed_domain_keeps_the_bits(space, kind, h1, l2):
    # frozen from the solver while the length was still a field (at its
    # default 2*pi): making it a class constant changed no bit of the norms
    if kind == "decay":
        problem = Problem(order=0.5, space=space, source=None, initial=space.first_mode())
    else:
        problem = manufactured_problem(0.5, space)
    assert _uniform_norm_bits(problem) == (h1, l2)


@pytest.mark.parametrize(
    "space, max_error", [(DirichletLine(256), 9.08e-5), (PeriodicSquare(32), 1.24e-4)],
    ids=["d1:256", "p2:32"],
)
def test_manufactured_error_is_small_on_the_fixed_domain(space, max_error):
    # t^alpha times first_mode() solves the manufactured problem only where
    # first_mode() is a mode; on [0, 1] these runs read 0.458 and 0.389
    norms = discrete_norms(solve(manufactured_problem(0.5, space), make_graded_mesh(1.0, 80, 4.0)))
    assert norms.max_l2_error == pytest.approx(max_error, rel=1e-2)


def test_line_norms_of_first_mode():
    # ||sin||_{L2} = sqrt(pi) on [0, 2*pi]; the H1 seminorm of sin equals
    # its L2 norm, and the grid norms converge at second order
    space = DirichletLine(10000)
    v = np.sin(space.grid)
    assert space.l2_norm(v) == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    assert space.h1_seminorm(v) == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    assert space.l2_norm(space.zero_field()) == 0.0


def test_square_norms_of_first_mode():
    space = PeriodicSquare(256)
    xx, yy = space.grid
    v = np.sin(xx) * np.sin(yy)
    # ||sin x sin y||_{L2([0,2pi]^2)} = pi; the trig grid norms are exact
    assert space.l2_norm(v) == pytest.approx(math.pi, rel=1e-12)
    assert space.h1_seminorm(v) == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-12)


def test_line_laplacian_matches_second_derivative():
    space = DirichletLine(2048)
    v = np.sin(space.grid)
    assert np.max(np.abs(space.laplacian(v) + v)) <= 1e-5


def test_problem_validation():
    space = DirichletLine(16)
    problem = Problem(order=0.5, space=space)
    assert isinstance(problem.order, FractionalOrder)
    assert np.array_equal(problem.initial, space.zero_field())
    with pytest.raises(DimensionMismatchError):
        Problem(order=0.5, space=space, initial=np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("descriptor", ["d1:16", "p2:8"])
def test_problem_refuses_non_finite_initial(descriptor, bad):
    space = parse_space(descriptor)
    initial = space.first_mode()
    initial.flat[3] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        Problem(order=0.5, space=space, initial=initial)


def _misshapen(space, value):
    shape = space.zero_field().shape
    return {
        "short": np.ones(shape[0] - 1),
        "column": np.ones((shape[0], 1)),
        "one": np.ones(1),
        "scalar": 1.0,
    }[value]


@pytest.mark.parametrize("value", ["short", "column", "one", "scalar"])
@pytest.mark.parametrize("descriptor", ["d1:16", "p2:8"])
def test_march_refuses_a_misshapen_source(descriptor, value):
    # a profile is checked once, when the Problem is built, before any march
    space = parse_space(descriptor)
    terms = [(lambda t: 1.0, space.first_mode()), (lambda t: t, _misshapen(space, value))]
    for what in ("source", "exact"):
        with pytest.raises(DimensionMismatchError, match=f"{what} term 1: profile shape"):
            Problem(order=0.5, space=space, **{what: terms})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("descriptor", ["d1:16", "p2:8"])
def test_problem_refuses_a_non_finite_profile(descriptor, bad):
    space = parse_space(descriptor)
    profile = space.first_mode()
    profile.flat[2] = bad
    with pytest.raises(ValidationError, match="source term 0: profile has non-finite"):
        Problem(order=0.5, space=space, source=[(lambda t: 1.0, profile)])


def test_problem_refuses_a_callable_naming_the_term_form():
    space = parse_space("d1:16")
    mode = space.first_mode()
    for what in ("source", "exact"):
        with pytest.raises(ValidationError, match=r"\(time_function, profile\) pairs"):
            Problem(order=0.5, space=space, **{what: lambda t: t * mode})
    with pytest.raises(ValidationError, match="source term 0 is not a"):
        Problem(order=0.5, space=space, source=[mode])
    with pytest.raises(ValidationError, match="time function is not callable"):
        Problem(order=0.5, space=space, source=[(1.0, mode)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("descriptor", ["d1:16", "p2:8"])
def test_march_refuses_a_non_finite_source_naming_its_level(descriptor, bad):
    # the time factor turns bad at t = 0.5; on a uniform 8-step mesh of [0, 1]
    # with sigma = 0.75 the first offset point past it is t_5* = 0.59375
    space = parse_space(descriptor)
    problem = Problem(
        order=0.5, space=space, source=[(lambda t: bad if t > 0.5 else 1.0, space.first_mode())]
    )
    with pytest.raises(ValidationError, match="level 5: source term 0: time factor"):
        solve(problem, make_uniform_mesh(1.0, 8), backend="closed")


def test_zero_problem_stays_zero():
    problem = Problem(order=0.5, space=DirichletLine(32))
    state = solve(problem, make_graded_mesh(1.0, 10, 2.0), backend="closed")
    assert state.level == 10
    assert np.array_equal(state.history, np.zeros_like(state.history))
    report = discrete_norms(state)
    assert report.max_l2_error is None
    assert report.l2_error is None
    assert np.array_equal(report.h1_seminorm, np.zeros(11))


def test_steady_state_reproduced_exactly():
    # u(x, t) = sin(x) with source lambda_h * sin(x) is a steady state of
    # the DISCRETE problem (lambda_h the grid eigenvalue of -Laplacian):
    # the memory term vanishes on constants-in-time, so each linear solve
    # must return the initial field to solver precision
    space = DirichletLine(64)
    mode = np.sin(space.grid)
    lam = 2.0 * (1.0 - math.cos(space.h)) / space.h**2
    problem = Problem(
        order=0.5,
        space=space,
        source=[(lambda t: lam, mode)],
        initial=mode,
        exact=[(lambda t: 1.0, mode)],
    )
    state = solve(problem, make_graded_mesh(1.0, 12, 2.0), backend="closed")
    report = discrete_norms(state)
    assert report.max_l2_error <= 1e-12


def test_manufactured_1d_accuracy_and_residual():
    problem = manufactured_problem_1d(0.5, intervals=2048)
    mesh = make_graded_mesh(1.0, 40, 4.0)
    state = solve(problem, mesh, backend="closed")
    report = discrete_norms(state)
    assert report.residual_max <= 1e-10
    # graded at the error-optimal exponent: comfortably below the
    # uniform-mesh error level at the same step count
    assert report.max_l2_error < 2e-3
    assert report.argmax_level is not None
    assert report.l2_error.shape == (41,)
    assert report.l2_error[0] == 0.0


def test_single_mode_2d_stays_spectrally_pure():
    # the data excite only the (+-1, +-1) Fourier modes; the marching must
    # not leak energy into any other mode
    problem = manufactured_problem(0.5, PeriodicSquare(16))
    state = solve(problem, make_graded_mesh(1.0, 12, 4.0), backend="closed")
    spectrum = np.abs(np.fft.fft2(state.history[-1]))
    active = np.zeros((16, 16), dtype=bool)
    active[1, 1] = active[1, -1] = active[-1, 1] = active[-1, -1] = True
    peak = spectrum[active].max()
    assert peak > 0.0
    assert spectrum[~active].max() <= 1e-12 * peak


@pytest.mark.parametrize("descriptor", ["d1:37", "d1:10000", "p2:8", "p2:9"])
def test_space_transform_pair_diagonalizes_the_laplacian(descriptor):
    space = parse_space(descriptor)
    v = np.random.default_rng(7).standard_normal(space.zero_field().shape)
    v_hat = space.forward(v)
    # real, shape-keeping, orthonormal (Parseval) and its own inverse
    assert np.isrealobj(v_hat) and v_hat.shape == v.shape
    assert type(space).inverse is type(space).forward
    assert np.sum(np.square(v_hat)) == pytest.approx(np.sum(np.square(v)), rel=1e-12)
    assert np.max(np.abs(space.inverse(v_hat) - v)) <= 1e-12 * np.max(np.abs(v))
    # on the line this checks the symbol against the finite-difference operator
    expected = -space.laplacian_symbol * v_hat
    gap = np.max(np.abs(space.forward(space.laplacian(v)) - expected))
    assert gap <= 1e-12 * np.max(np.abs(expected))


def _scalar_mode_march(table, order, lam, forcing=None, start=0.0):
    """The scheme on one mode: a scalar recursion with the mode's discrete
    eigenvalue ``lam``, the mode's source amplitude ``forcing(t)`` and
    initial amplitude ``start``.  The default forcing is that of the
    manufactured problem, ``Gamma(1+alpha) + t^alpha``."""
    alpha = order.alpha
    if forcing is None:
        gamma_factor = math.gamma(1.0 + alpha)

        def forcing(t):
            return gamma_factor + t**alpha

    v = np.zeros(table.n + 1)
    v[0] = start
    for k in range(1, table.n + 1):
        row = table.row(k)
        m = row.m_row
        delta_m = np.concatenate([[m[0]], np.diff(m)])
        hist = np.dot(delta_m, v[:k]) / order.gamma_1ma
        f = forcing(row.t_star)
        rhs = -0.5 * alpha * lam * v[k - 1] + f + hist
        v[k] = rhs / (m[-1] / order.gamma_1ma + order.sigma * lam)
    return v


def test_line_march_matches_scalar_mode_recursion():
    # project the 1-D run onto its single Fourier mode and re-run the same
    # scheme as a scalar recursion with the discrete mode eigenvalue;
    # the two trajectories must agree to near machine precision
    alpha = 0.5
    order = FractionalOrder(alpha)
    intervals, num_steps = 512, 64
    problem = manufactured_problem_1d(alpha, intervals=intervals)
    mesh = make_graded_mesh(1.0, num_steps, 4.0)
    table = build_kernel_table(mesh, order, backend="closed")
    state = solve(problem, mesh, table=table)

    space = problem.space
    mode = np.sin(space.grid)
    weight = mode / np.dot(mode, mode)
    lam = 2.0 * (1.0 - math.cos(space.h)) / space.h**2  # discrete eigenvalue
    v = _scalar_mode_march(table, order, lam)

    projected = state.history @ weight
    assert np.max(np.abs(projected - v)) <= 1e-8


def test_paper_grid_march_is_mode_exact():
    # on the paper's reference grid d1:10000 the solution stays on sin x, so
    # its projection per level and the written L2 error follow the scalar
    # march to rounding; the bounds sit orders of magnitude below what an
    # elimination solve reaches, whose rounding the grid's conditioning
    # (about 4*sigma/h^2) amplifies
    order = FractionalOrder(0.3)
    mesh = make_graded_mesh(1.0, 160, 2.0 / order.alpha)
    problem = manufactured_problem(order, parse_space("d1:10000"))
    state = solve(problem, mesh, backend="closed")
    space = problem.space
    lam = (2.0 / space.h) ** 2 * math.sin(space.h / 2.0) ** 2
    v = _scalar_mode_march(build_kernel_table(mesh, order, backend="closed"), order, lam)

    mode = space.first_mode()
    projected = state.history @ (mode / np.dot(mode, mode))
    assert projected[0] == v[0] == 0.0
    assert np.max(np.abs(projected[1:] - v[1:]) / np.abs(v[1:])) <= 1e-13
    expected = np.max(np.abs(v - mesh.nodes**order.alpha)) * space.l2_norm(mode)
    assert discrete_norms(state).max_l2_error == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("modes", [8, 9, 16])
def test_square_forward_is_the_hartley_transform(modes):
    space = PeriodicSquare(modes)
    v = np.random.default_rng(3).standard_normal((modes, modes))
    spectrum = np.fft.fft2(v)
    expected = (spectrum.real - spectrum.imag) / modes
    assert np.max(np.abs(space.forward(v) - expected)) <= 1e-14 * np.max(np.abs(expected))


# below 512 every size listed is one where a scale rounded in double
# precision, 1/np.sqrt(2N), would miss SciPy's last bit
@pytest.mark.parametrize("intervals", [4, 6, 9, 11, 12, 16, 17, 30, 512, 10000])
def test_line_forward_is_scipys_dst_bit_for_bit(intervals):
    space = DirichletLine(intervals)
    v = np.random.default_rng(intervals).standard_normal((3, intervals - 1))
    for field in (v[0], v):
        assert np.array_equal(space.forward(field), scipy.fft.dst(field, type=1, norm="ortho"))


@pytest.mark.parametrize("modes", [33, 64, 192])
def test_square_forward_is_scipys_hartley_bit_for_bit(modes):
    v = np.random.default_rng(modes).standard_normal((modes, modes))
    half = scipy.fft.rfft2(v)
    # the other columns are F at the negated frequencies, conj(F(-k))
    cols = modes // 2 + 1
    rows = -np.arange(modes) % modes
    full = np.concatenate([half, np.conj(half[rows, modes - cols : 0 : -1])], axis=1)
    expected = (full.real - full.imag) / modes
    assert np.array_equal(PeriodicSquare(modes).forward(v), expected)


def _physical_march(problem, table):
    """Whole-field oracle march: the history term on full physical fields
    (``tensordot`` over every past level) and the semi-implicit Laplacian
    applied in physical space, each level solved by an FFT-family transform
    taken here, not from the space.  It is the arithmetic of a march without
    mode selection, kept as an independent witness."""
    space = problem.space
    order = problem.order
    lam = space.laplacian_symbol
    if space.ndim == 1:
        def lap(u):
            return space.laplacian(u)

        def solve_diag(rhs, diag):
            hat = scipy.fft.dst(rhs, type=1, norm="ortho") / (diag + order.sigma * lam)
            return scipy.fft.dst(hat, type=1, norm="ortho")
    else:
        def lap(u):
            return np.fft.ifft2(-lam * np.fft.fft2(u)).real

        def solve_diag(rhs, diag):
            return np.fft.ifft2(np.fft.fft2(rhs) / (diag + order.sigma * lam)).real

    u = np.zeros((table.n + 1,) + problem.initial.shape)
    u[0] = problem.initial
    for k in range(1, table.n + 1):
        m = table.row(k).m_row
        delta_m = np.concatenate([[m[0]], np.diff(m)])
        history_term = np.tensordot(delta_m, u[:k], axes=(0, 0)) / order.gamma_1ma
        t_star = table.row(k).t_star
        f = sum((g(t_star) * profile for g, profile in problem.source), 0.0)
        rhs = 0.5 * order.alpha * lap(u[k - 1]) + f + history_term
        u[k] = solve_diag(rhs, m[-1] / order.gamma_1ma)
    return u


@pytest.mark.parametrize("descriptor", ["d1:64", "p2:16", "p2:9"])
def test_modal_march_matches_physical_march(descriptor):
    space = parse_space(descriptor)
    rng = np.random.default_rng(11)
    initial = rng.standard_normal(space.zero_field().shape)
    source = ()
    if space.ndim == 1:
        x = space.grid
        source = [(lambda t: 1.0 + t, np.sin(x)), (lambda t: t**2, np.sin(3.0 * x))]
    problem = Problem(order=0.4, space=space, source=source, initial=initial)
    mesh = make_graded_mesh(1.0, 40, 2.5)
    table = build_kernel_table(mesh, 0.4, backend="closed")
    state = solve(problem, mesh, table=table)
    assert state.modes.size == initial.size  # a random field occupies every mode
    oracle = _physical_march(problem, table)
    for k in range(mesh.num_steps + 1):
        scale = np.max(np.abs(oracle[k]))
        assert np.max(np.abs(state.field(k) - oracle[k])) <= 1e-12 * scale
        assert state.h1_seminorm[k] == pytest.approx(space.h1_seminorm(oracle[k]), rel=1e-12)
    assert discrete_norms(state).residual_max <= 1e-15


def test_manufactured_problems_march_their_own_modes():
    mesh = make_graded_mesh(1.0, 8, 2.0)
    line = solve(manufactured_problem(0.5, parse_space("d1:10000")), mesh, backend="closed")
    # sin x is the second DST-I mode of a 2*pi line
    assert line.modes.tolist() == [1]
    square = solve(manufactured_problem(0.5, parse_space("p2:16")), mesh, backend="closed")
    # sin x sin y lives on the four frequencies (+-1, +-1)
    assert sorted(square.modes.tolist()) == [17, 31, 241, 255]
    assert line.dropped < 1e-15 and square.dropped < 1e-15
    space = parse_space("p2:16")
    noise = Problem(order=0.5, space=space, initial=np.random.default_rng(5).standard_normal((16, 16)))
    assert solve(noise, mesh, backend="closed").modes.size == 256


def test_source_adds_a_mode_when_it_first_excites_it():
    # sin 2x enters the source once t > 0.5; its mode is in the active set
    # from level 0, as every source profile's is, and stays at rounding level
    # until the first level whose offset point passes 0.5; each mode follows
    # its own scalar recursion
    order = FractionalOrder(0.5)
    space = parse_space("d1:64")
    x = space.grid
    modes = np.sin(x), np.sin(2.0 * x)

    def ramp(t):
        return max(t - 0.5, 0.0)

    problem = Problem(order=order, space=space, source=[(lambda t: 1.0, modes[0]), (ramp, modes[1])])
    mesh = make_graded_mesh(1.0, 32, 2.0)
    table = build_kernel_table(mesh, order, backend="closed")
    state = initialize_state(problem, mesh)
    assert state.modes.tolist() == [1, 3]
    for k in range(1, mesh.num_steps + 1):
        step(state, table.row(k))
    first = next(k for k in range(1, 33) if table.row(k).t_star > 0.5)
    scale = np.max(np.abs(state.coefficients))
    # the late mode picks up only the first profile's transform rounding
    assert np.all(np.abs(state.coefficients[:first, 1]) <= 1e-15 * scale)
    assert np.all(np.abs(state.coefficients[first:, 1]) > 1e-9 * scale)

    state = solve(problem, mesh, table=table)
    assert state.modes.tolist() == [1, 3]
    lam = space.laplacian_symbol
    for mode, index, forcing in ((modes[0], 1, lambda t: 1.0), (modes[1], 3, ramp)):
        v = _scalar_mode_march(table, order, lam[index], forcing)
        projected = state.history @ (mode / np.dot(mode, mode))
        nonzero = v != 0.0
        assert np.all(np.abs(projected[nonzero] - v[nonzero]) <= 1e-13 * np.abs(v[nonzero]))
        assert np.all(np.abs(projected[~nonzero]) <= 1e-13 * np.max(np.abs(v)))


def test_small_initial_mode_is_kept():
    order = FractionalOrder(0.5)
    space = parse_space("d1:64")
    x = space.grid
    problem = Problem(order=order, space=space, initial=np.sin(x) + 1e-6 * np.sin(3.0 * x))
    mesh = make_graded_mesh(1.0, 16, 2.0)
    table = build_kernel_table(mesh, order, backend="closed")
    state = solve(problem, mesh, table=table)
    assert state.modes.tolist() == [1, 5]
    assert state.dropped < 1e-13
    mode = np.sin(3.0 * x)
    v = _scalar_mode_march(table, order, space.laplacian_symbol[5], lambda t: 0.0, start=1e-6)
    projected = state.history @ (mode / np.dot(mode, mode))
    assert np.max(np.abs(projected - v) / np.abs(v)) <= 1e-9


def test_active_set_is_fixed_from_every_field_before_level_one():
    # a term whose factor is zero throughout still brings its mode; what each
    # field leaves below the floor is measured against its own peak
    space = parse_space("d1:64")
    x = space.grid
    problem = Problem(
        order=0.5,
        space=space,
        initial=np.sin(x) + 1e-14 * np.sin(3.0 * x),
        source=[(lambda t: 0.0, 5.0 * (np.sin(2.0 * x) + 1e-15 * np.sin(4.0 * x)))],
    )
    mesh = make_uniform_mesh(1.0, 4)
    state = initialize_state(problem, mesh)
    assert state.modes.tolist() == [1, 3]
    assert state.coefficients.shape == (5, 2)
    assert state.dropped == pytest.approx(1e-14, rel=0.1)
    solved = solve(problem, mesh, backend="closed")
    assert np.array_equal(solved.modes, state.modes)
    # it holds only the initial field's transform rounding
    assert np.all(np.abs(solved.coefficients[:, 1]) <= 1e-15 * np.abs(solved.coefficients[0, 0]))


def test_march_holds_one_history_sized_array():
    # every mode active: the march must neither copy the history nor keep
    # its coefficients beside the fields.  Streamed, it may add what the
    # kernel stream alone peaks at; on a prebuilt table (allocated before
    # tracing starts) it may add only small temporaries
    space = parse_space("d1:512")
    initial = np.random.default_rng(2).standard_normal(space.zero_field().shape)
    problem = Problem(order=0.5, space=space, initial=initial)
    mesh = make_graded_mesh(1.0, 1024, 2.0)
    table = build_kernel_table(mesh, problem.order, backend="closed")
    history_bytes = (mesh.num_steps + 1) * initial.nbytes
    tracemalloc.start()
    try:
        for _ in kernel_module._kernel_slabs(mesh, problem.order, mesh.num_steps, "closed"):
            pass
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        streamed = solve(problem, mesh, backend="closed")
        _, streamed_peak = tracemalloc.get_traced_memory()
        del streamed
        tracemalloc.reset_peak()
        tabled = solve(problem, mesh, table=table)
        _, tabled_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tabled.modes.size == initial.size
    assert streamed_peak <= history_bytes + stream_peak + 2**20
    assert tabled_peak <= history_bytes + 2**20


@pytest.mark.parametrize("descriptor", ["d1:512", "p2:64"])
def test_a_march_call_holds_one_part_of_temporaries(descriptor):
    # the soak mesh's first slab (181 levels, 181 columns) on one active mode
    # and on all 4096 of a random p2:64 field: a _march call takes
    # size * columns + 2 * size * |S| floats for its differenced rows, right
    # sides and work array (size rows per part), plus NumPy's ufunc buffers
    # (np.getbufsize() floats for each of at most three operands) and small
    # per-part vectors; a slab-sized differenced block or right side is more
    space = parse_space(descriptor)
    initial = space.first_mode()
    if descriptor == "p2:64":
        initial = np.random.default_rng(3).standard_normal(space.zero_field().shape)
    problem = Problem(
        order=0.5, space=space, initial=initial,
        source=[(lambda t: min(t, 1.0), space.first_mode())],
    )
    mesh = make_graded_then_uniform(50.0, 2560, 2.0, 1.0, 512)
    *_, m, t_star, run = next(
        kernel_module._kernel_slabs(mesh, problem.order, mesh.num_steps, "closed")
    )
    state = initialize_state(problem, mesh)
    rows, columns = m.shape
    modes = state.modes.size
    assert (rows, columns, modes) == (181, 181, 1 if descriptor == "d1:512" else 4096)
    parts = -(-rows // (solver_module._PART_ENTRIES // (columns + modes)))
    size = -(-rows // parts)
    assert parts > 1
    tracemalloc.start()
    try:
        solver_module._march(state, m, t_star, run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.level == rows
    floats = size * columns + 2 * size * modes + 3 * np.getbufsize()
    assert peak <= 8 * floats + 2**15


def _parseval_case(descriptor):
    space = parse_space(descriptor)
    if space.ndim == 1:
        # a two-term source; the exact solution's second term, sin 5x, lies
        # outside the active set, so its energy there enters the error
        x = space.grid
        source = [(lambda t: 1.0 + t, np.sin(x)), (lambda t: t**2, np.sin(3.0 * x))]
        exact = [(lambda t: t**0.4, np.sin(x)), (lambda t: 0.1 * t, np.sin(5.0 * x))]
        return Problem(order=0.4, space=space, source=source, exact=exact)
    initial = np.random.default_rng(13).standard_normal(space.zero_field().shape)
    return Problem(
        order=0.4, space=space, initial=initial, exact=[(lambda t: math.exp(-t), initial)]
    )


@pytest.mark.parametrize("descriptor", ["d1:512", "p2:16"])
def test_parseval_norms_equal_field_norms(descriptor):
    problem = _parseval_case(descriptor)
    space = problem.space
    mesh = make_graded_mesh(1.0, 40, 2.5)
    state = solve(problem, mesh, backend="closed")
    report = discrete_norms(state)
    for k in range(mesh.num_steps + 1):
        u = state.field(k)
        t = float(mesh.nodes[k])
        exact = sum(g(t) * profile for g, profile in problem.exact)
        assert report.l2_norm[k] == pytest.approx(space.l2_norm(u), rel=1e-12)
        assert report.h1_seminorm[k] == pytest.approx(space.h1_seminorm(u), rel=1e-12)
        assert report.l2_error[k] == pytest.approx(space.l2_norm(u - exact), rel=1e-12)


@pytest.mark.parametrize("descriptor", ["d1:64", "p2:9"])
def test_field_is_the_history_level(descriptor):
    problem = _parseval_case(descriptor)
    state = solve(problem, make_graded_mesh(1.0, 12, 2.0), backend="closed")
    history = state.history
    assert history.shape == (13,) + problem.initial.shape
    assert not history.flags.writeable
    for k in range(13):
        assert np.array_equal(state.field(k), history[k])
    for bad in (-1, 13):
        with pytest.raises(ValidationError, match=r"level must lie in \[0, 12\]"):
            state.field(bad)


def test_single_mode_march_holds_only_its_coefficient_history():
    # one active mode on d1:512 at K=2560: the run keeps 8 |S| (K+1) bytes of
    # history; a field history would be 8 N (K+1) = 10.5 MB, more than the
    # whole march (kernel stream included) may peak at
    space = parse_space("d1:512")
    mode = space.first_mode()
    problem = Problem(
        order=0.5, space=space, source=[(lambda t: min(t, 1.0), mode)], initial=mode
    )
    mesh = make_graded_then_uniform(50.0, 2560, 2.0, 1.0, 512)
    field_bytes = 8 * mode.size * (mesh.num_steps + 1)
    tracemalloc.start()
    try:
        state = solve(problem, mesh, backend="closed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.modes.size == 1
    assert state.coefficients.nbytes == 8 * state.modes.size * (mesh.num_steps + 1)
    assert peak < field_bytes


def test_2d_manufactured_order_near_two():
    # graded at 2/alpha the scheme is second order; check the observed
    # order on the final refinement pair
    alpha = 0.7
    errors = []
    counts = (40, 80, 160)
    problem = manufactured_problem(alpha, PeriodicSquare(64))
    for num_steps in counts:
        mesh = make_graded_mesh(1.0, num_steps, 2.0 / alpha)
        state = solve(problem, mesh, backend="closed")
        errors.append(discrete_norms(state).max_l2_error)
    orders = compute_orders(errors, counts)
    assert 1.9 <= orders[-1] <= 2.1


def test_single_step_run():
    problem = manufactured_problem_1d(0.5, intervals=32)
    state = solve(problem, make_uniform_mesh(1.0, 1), backend="closed")
    assert state.level == 1
    assert discrete_norms(state).max_l2_error < 0.2


def test_unforced_problem_decays_monotonically():
    space = DirichletLine(128)
    problem = Problem(order=0.7, space=space, initial=np.sin(space.grid))
    mesh = make_graded_mesh(2.0, 48, 2.0)
    state = solve(problem, mesh, backend="closed")
    l2 = np.array([space.l2_norm(state.history[k]) for k in range(49)])
    h1 = state.h1_seminorm
    assert np.all(np.diff(l2) <= 1e-12 * l2[:-1])
    assert np.all(np.diff(h1) <= 1e-12 * h1[:-1])
    assert l2[-1] < l2[0]


def test_step_level_mismatch_rejected():
    problem = manufactured_problem_1d(0.5, intervals=16)
    mesh = make_uniform_mesh(1.0, 4)
    table = build_kernel_table(mesh, 0.5, backend="closed")
    state = initialize_state(problem, mesh)
    with pytest.raises(DimensionMismatchError):
        step(state, table.row(2))
    step(state, table.row(1))
    assert state.level == 1


def test_solve_rejects_short_table():
    problem = manufactured_problem_1d(0.5, intervals=16)
    mesh = make_uniform_mesh(1.0, 8)
    table = build_kernel_table(mesh, 0.5, n=4, backend="closed")
    with pytest.raises(ValidationError):
        solve(problem, mesh, table=table)


def test_solve_rejects_table_for_another_problem():
    problem = manufactured_problem_1d(0.5, intervals=16)
    mesh = make_graded_mesh(1.0, 8, 2.0)
    with pytest.raises(ValidationError, match="alpha"):
        solve(problem, mesh, table=build_kernel_table(mesh, 0.4, backend="closed"))
    other = make_graded_mesh(1.0, 8, 3.0)
    with pytest.raises(ValidationError, match="nodes"):
        solve(problem, mesh, table=build_kernel_table(other, 0.5, backend="closed"))
    # a table on a longer mesh with the same first nodes is reusable
    longer = make_uniform_mesh(2.0, 16)
    state = solve(problem, longer.head(8), table=build_kernel_table(longer, 0.5, backend="closed"))
    assert state.level == 8


def _closed_slab_edges(mesh, alpha):
    slabs = kernel_module._kernel_slabs(
        mesh, FractionalOrder(alpha), mesh.num_steps, "closed"
    )
    return [k1 for _, k1, *_ in slabs][:-1]


# graded meshes keyed by their step count, and meshes with long exact runs
# (see subdiff.kernel._exact_runs) keyed by name
_MARCH_MESHES = {
    "24": lambda: make_graded_mesh(1.0, 24, 2.0),
    "400": lambda: make_graded_mesh(1.0, 400, 2.0),
    # the soak's shape: 512 graded steps on [0, 1], then 1024 of 49/1024
    "soak": lambda: make_graded_then_uniform(50.0, 1536, 2.0, 1.0, 512),
    "run-between-graded": _run_between_graded_mesh,
    "back-to-back-runs": _back_to_back_runs_mesh,
    "uniform-512": lambda: make_uniform_mesh(1.0, 512),
}


@pytest.mark.parametrize(
    "backend, mesh_name, space",
    [
        ("closed", "400", "d1:16"),
        ("quadrature", "24", "p2:8"),
        ("quadrature", "400", "d1:16"),
        ("closed", "soak", "d1:16"),
        ("closed", "run-between-graded", "p2:8"),
        ("closed", "back-to-back-runs", "d1:16"),
        ("closed", "uniform-512", "p2:8"),
    ],
)
def test_streamed_march_equals_table_march(backend, mesh_name, space):
    problem = manufactured_problem(0.5, parse_space(space))
    mesh = _MARCH_MESHES[mesh_name]()
    num_steps = mesh.num_steps
    if num_steps == 400:
        assert len(_closed_slab_edges(mesh, 0.5)) >= 3
    runs = kernel_module._exact_runs(mesh, num_steps, 0.75)
    assert bool(runs) == (mesh_name not in ("24", "400"))
    streamed = solve(problem, mesh, backend=backend)
    table = build_kernel_table(mesh, 0.5, backend=backend)
    tabled = solve(problem, mesh, table=table)
    assert np.array_equal(streamed.history, tabled.history)
    assert np.array_equal(streamed.h1_seminorm, tabled.h1_seminorm)
    assert np.array_equal(streamed.residual, tabled.residual)
    if backend == "quadrature":
        closed = build_kernel_table(mesh, 0.5, backend="closed").m
        lower = np.tril_indices(num_steps)
        assert np.max(np.abs(table.m - closed)[lower] / np.abs(closed[lower])) <= 1e-13


def test_a_table_on_a_longer_mesh_marches_like_the_stream():
    # the table's mesh runs on past the run's mesh, so its exact run ends
    # later: the march reads the run's table from the run's own last row
    mesh = _MARCH_MESHES["soak"]()
    head = mesh.head(1000)
    assert kernel_module._exact_runs(head, 1000, 0.75) == [(512, 1000)]
    problem = manufactured_problem(0.5, parse_space("d1:16"))
    streamed = solve(problem, head, backend="closed")
    tabled = solve(problem, head, table=build_kernel_table(mesh, 0.5, backend="closed"))
    assert np.array_equal(streamed.coefficients, tabled.coefficients)
    assert np.array_equal(streamed.residual, tabled.residual)


def test_solve_cuts_the_slabs_once(monkeypatch):
    # the slab source cuts the slabs, once per solve, with a table or without
    mesh = make_graded_then_uniform(5.0, 640, 2.0, 1.0, 128)
    problem = manufactured_problem(0.5, parse_space("d1:16"))
    table = build_kernel_table(mesh, 0.5, backend="closed")
    layout, calls = kernel_module._slab_layout, []

    def counted(*args):
        calls.append(args[1])
        return layout(*args)

    monkeypatch.setattr(kernel_module, "_slab_layout", counted)
    solve(problem, mesh, backend="closed")
    solve(problem, mesh, table=table)
    assert calls == [640, 640]


@pytest.mark.parametrize("alpha", [0.01, 0.99])
@pytest.mark.parametrize("descriptor", ["d1:16", "p2:8"])
def test_run_march_matches_the_one_row_march(descriptor, alpha):
    # 128 graded steps, then an exact run of 512 steps of 2^-7: inside the
    # run the march reads each row's history weights from the run's table;
    # a march of one full table row at a time gives the same coefficients
    # up to rounding, on every mode of a random field
    mesh = make_graded_then_uniform(5.0, 640, 2.0, 1.0, 128)
    order = FractionalOrder(alpha)
    assert kernel_module._exact_runs(mesh, 640, order.sigma) == [(128, 640)]
    space = parse_space(descriptor)
    initial = np.random.default_rng(7).standard_normal(space.zero_field().shape)
    problem = Problem(
        order=order, space=space, initial=initial,
        source=[(lambda t: min(t, 1.0), space.first_mode())],
    )
    streamed = solve(problem, mesh, backend="closed")
    table = build_kernel_table(mesh, order, backend="closed")
    one_row = initialize_state(problem, mesh)
    for k in range(1, mesh.num_steps + 1):
        step(one_row, table.row(k))
    assert streamed.modes.size == initial.size
    scale = np.max(np.abs(one_row.coefficients), axis=0)
    assert np.all(np.abs(streamed.coefficients - one_row.coefficients) <= 1e-13 * scale)
    assert np.max(streamed.residual) <= 1e-15


def test_streamed_march_never_holds_the_table():
    # a table would hold a, c and m, three dense n x n float64 arrays; the
    # streamed march holds the history (120 B per level here) and one slab
    problem = manufactured_problem(0.5, parse_space("d1:16"))
    mesh = make_graded_mesh(1.0, 1024, 2.0)
    n = mesh.num_steps
    tracemalloc.start()
    try:
        solve(problem, mesh, backend="closed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n


def test_streamed_march_refuses_a_non_finite_slab(monkeypatch):
    problem = manufactured_problem(0.5, parse_space("d1:16"))
    mesh = make_graded_mesh(1.0, 400, 2.0)
    level = _closed_slab_edges(mesh, 0.5)[1]  # last level of the second slab
    original = kernel_module._closed_a_c
    calls = []

    def poisoned(*args):
        a, c = original(*args)
        calls.append(args)
        if len(calls) == 2:
            # the last entry of a slab's triangle is interval k1 - 1 of level
            # k1; its a enters M off the diagonal
            a = a.copy()
            a[-1] = np.nan
        return a, c

    monkeypatch.setattr(kernel_module, "_closed_a_c", poisoned)
    with pytest.raises(NumericalError, match=f"first at level {level}"):
        solve(problem, mesh, backend="closed")


def test_march_refuses_a_non_finite_solution_inside_a_slab():
    # the time factor jumps to 1e308 once t > 0.248, so the right side
    # overflows first at level 100 (t_100* = 99.75/400), inside the first
    # slab (levels 1..181) and not at its first row
    space = parse_space("d1:16")
    problem = Problem(
        order=0.5,
        space=space,
        source=[(lambda t: 1e308 if t > 0.248 else 1.0, space.first_mode())],
    )
    mesh = make_uniform_mesh(1.0, 400)
    edges = _closed_slab_edges(mesh, 0.5)
    assert 0 < 100 - 1 < edges[0]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LinearSolveError, match=r"^level 100: non-finite solution$"):
            solve(problem, mesh, backend="closed")


def _switching_case(descriptor, t_on):
    space = parse_space(descriptor)
    if space.ndim == 1:
        second = np.sin(2.0 * space.grid)
    else:
        xx, yy = space.grid
        second = np.sin(2.0 * xx) * np.sin(yy)
    first = space.first_mode()
    return Problem(
        order=0.5,
        space=space,
        initial=first,
        source=[(lambda t: 1.0, first), (lambda t: max(t - t_on, 0.0), second)],
    )


@pytest.mark.parametrize("descriptor", ["d1:64", "p2:16"])
def test_source_switching_on_mid_slab_matches_the_one_row_march(descriptor):
    # the second term switches on at the seventh level of the third slab;
    # its modes are active from level 0 and stay at rounding level until
    # then, and the slab march gives the coefficients of a march of one row
    # at a time
    mesh = make_graded_mesh(1.0, 400, 2.0)
    edges = _closed_slab_edges(mesh, 0.5)
    assert len(edges) >= 3
    join = edges[1] + 7
    table = build_kernel_table(mesh, 0.5, backend="closed")
    t_on = 0.5 * (table.t_star[join - 2] + table.t_star[join - 1])
    problem = _switching_case(descriptor, t_on)
    streamed = solve(problem, mesh, backend="closed")
    one_row = initialize_state(problem, mesh)
    assert np.array_equal(streamed.modes, one_row.modes)
    assert np.all(np.diff(one_row.modes) > 0)
    for k in range(1, mesh.num_steps + 1):
        step(one_row, table.row(k))
    first = np.abs(problem.source_coefficients[0, streamed.modes])
    late = streamed.coefficients[:, first <= 1e-13 * first.max()]
    assert late.shape[1] == (1 if descriptor == "d1:64" else 4)
    top = np.max(np.abs(streamed.coefficients))
    assert np.all(np.abs(late[:join]) <= 1e-15 * top) and np.all(np.abs(late[join]) > 1e-9 * top)
    scale = np.max(np.abs(one_row.coefficients), axis=0)
    assert np.all(np.abs(streamed.coefficients - one_row.coefficients) <= 1e-13 * scale)


def test_snapshot_csv_1d(tmp_path):
    problem = manufactured_problem_1d(0.5, intervals=16)
    state = solve(problem, make_uniform_mesh(1.0, 4), backend="closed")
    path = tmp_path / "snapshot.csv"
    write_snapshot_csv(state, str(path))
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert any("solution-snapshot" in line for line in header)
    assert any("# level = 4" in line for line in header)
    assert data[0] == "x,u"
    assert len(data) == 1 + 15  # interior nodes only
    with pytest.raises(ValidationError):
        write_snapshot_csv(state, str(path), level=9)


def test_snapshot_csv_2d(tmp_path):
    problem = manufactured_problem(0.5, PeriodicSquare(8))
    state = solve(problem, make_uniform_mesh(1.0, 2), backend="closed")
    path = tmp_path / "snapshot2d.csv"
    write_snapshot_csv(state, str(path), level=1)
    data = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert data[0] == "x,y,u"
    assert len(data) == 1 + 64


def test_diagnostics_csv(tmp_path):
    problem = manufactured_problem_1d(0.5, intervals=16)
    state = solve(problem, make_uniform_mesh(1.0, 4), backend="closed")
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(state, str(path))
    data = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert data[0] == "level,t,l2_error,h1_seminorm"
    assert len(data) == 1 + 5
    first = data[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_diagnostics_csv_without_reference(tmp_path):
    space = DirichletLine(16)
    problem = Problem(order=0.5, space=space, initial=np.sin(space.grid))
    state = solve(problem, make_uniform_mesh(1.0, 3), backend="closed")
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(state, str(path))
    data = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    # error column empty when no exact solution is attached
    assert data[1].split(",")[2] == ""
