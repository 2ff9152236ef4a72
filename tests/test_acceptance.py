"""End-to-end acceptance suite: ten numbered criteria, one test and one
printed PASS/FAIL line each.

The reference error tables are reproduced on the reference spatial grid,
the observed-order bookkeeping and temporal-error order envelope are checked,
the discrete operator is stress-tested for positivity and structure on
named and fuzzed meshes, both coefficient backends are compared entry by
entry, and the long-horizon stability and mesh-comparison claims are
re-measured.  Every verdict is computed fresh in this run; nothing is
asserted from cached outputs.
"""
import itertools
import math
import time

import numpy as np
import pytest

from subdiff import (
    DirichletLine,
    Problem,
    TimeMesh,
    admissibility_thresholds,
    apply_operator,
    build_complementary_kernel,
    build_kernel_table,
    caputo_reference,
    check_properties_P,
    check_properties_Q,
    check_psd,
    compute_orders,
    discrete_norms,
    make_graded_mesh,
    make_r_variable_mesh,
    make_uniform_mesh,
    reproduce_tables,
    run_pointwise_comparison,
    run_stability_soak,
    solve,
)
from subdiff import benchmarks

FUZZ_SEED = 20260816
FUZZ_LEVELS = 128
# step-count pair and spatial grid of the order-envelope measurement; the
# temporal error does not depend on the grid, so a coarse one suffices
ENVELOPE_STEP_COUNTS = (640, 1280)
ENVELOPE_INTERVALS = 16


@pytest.fixture
def announce(capsys):
    """Print the criterion verdict straight to the terminal, bypassing capture."""

    def _announce(number: int, ok: bool, detail: str = "") -> None:
        tail = f"  {detail}" if detail else ""
        with capsys.disabled():
            print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'}{tail}")

    return _announce


@pytest.fixture(scope="session")
def paper_tables():
    """One shared reference-grid reproduction of the benchmark tables."""
    return reproduce_tables(paper_exact=True)


def mesh_from_ratios(ratios):
    steps = np.cumprod(np.concatenate([[1.0], np.asarray(ratios, dtype=float)]))
    return TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))


@pytest.fixture(scope="session")
def fuzzed_admissible():
    """1000 admissible meshes with every step ratio drawn from [eta, 3]."""
    rng = np.random.default_rng(FUZZ_SEED)
    _, eta = admissibility_thresholds()
    return [
        mesh_from_ratios(rng.uniform(eta, 3.0, size=FUZZ_LEVELS - 1))
        for _ in range(1000)
    ]


@pytest.fixture(scope="session")
def fuzzed_unrestricted():
    """300 meshes with unconstrained ratios in [0.05, 3]; most are inadmissible."""
    rng = np.random.default_rng(FUZZ_SEED + 1)
    return [
        mesh_from_ratios(rng.uniform(0.05, 3.0, size=FUZZ_LEVELS - 1))
        for _ in range(300)
    ]


def test_criterion_01_reference_tables(paper_tables, announce):
    # every error cell of the reference tables, re-measured on the reference
    # spatial grid, must sit inside the tolerance ladder (1% for cells at or
    # above 1e-5, 5% below)
    report = paper_tables
    failed = [v for v in report.verdicts if not v.passed]
    total = len(report.verdicts)
    announce(
        1,
        not failed and total > 0,
        f"{total - len(failed)}/{total} error cells within the tolerance ladder",
    )
    assert total == 36  # 3 orders x 4 families x 3 step counts
    details = [
        f"alpha={v.alpha:g} {v.family_label} K={v.num_steps}: got {v.value:.4e}, "
        f"reference {v.reference:.4e} (dev {v.rel_dev:.2%} > tol {v.rel_tol:.0%})"
        for v in failed
    ]
    assert not failed, "cells outside the tolerance ladder:\n" + "\n".join(details)


def test_criterion_02_printed_orders(announce):
    # the observed-order bookkeeping must reproduce every printed order cell
    # of the reference tables from the printed error cells
    worst = 0.0
    cells = 0
    for alpha in benchmarks.ALPHAS:
        for label in benchmarks.FAMILY_LABELS:
            got = compute_orders(
                benchmarks.reference_errors(alpha, label), benchmarks.STEP_COUNTS
            )
            want = benchmarks.reference_orders(alpha, label)
            worst = max(worst, float(np.max(np.abs(got - want))))
            cells += want.size
    ok = worst <= 0.002
    announce(2, ok, f"max |computed - printed| = {worst:.1e} over {cells} order cells")
    assert cells == 60
    assert ok, f"order recomputation deviates by {worst:.2e} (allowed 0.002)"


def time_only_problem(alpha):
    """``u = t^alpha * sin(x)`` solving the semi-discrete problem exactly.

    The source uses the discrete eigenvalue ``lam_h`` of the line's second
    difference instead of the continuous eigenvalue 1, so the error of a run
    is its temporal error alone, free of the O(h^2) spatial error.
    """
    space = DirichletLine(ENVELOPE_INTERVALS)
    sin_x = np.sin(space.grid)
    lam_h = (4.0 / space.h**2) * math.sin(space.h / 2.0) ** 2
    # guard: sin(x) must be an eigenvector of the line's Laplacian with
    # eigenvalue -lam_h, or the run would measure spatial error again
    gap = float(np.max(np.abs(space.laplacian(sin_x) + lam_h * sin_x)))
    assert gap <= 1e-12 * lam_h * float(np.max(np.abs(sin_x))), (
        f"DirichletLine.laplacian(sin x) is off -lam_h * sin x by {gap:.3e}"
    )
    gamma_factor = math.gamma(1.0 + alpha)

    def source(t):
        return (gamma_factor + lam_h * t**alpha) * sin_x

    def exact(t):
        return t**alpha * sin_x

    return Problem(order=alpha, space=space, source=source, exact=exact,
                   name="time-only-1d")


def test_criterion_03_order_envelope(announce):
    # the observed order of the temporal error at the largest step-count pair
    # should match the predicted envelope min(r*alpha, 2) within +-0.1 for
    # every combination.  The envelope is asymptotic: the 40/80/160 tables are
    # still pre-asymptotic (the trusted reference orders show the same gaps),
    # and on d1:10000 their spatial error floors the finer orders, so the
    # order is measured on the time-only problem at K=640 -> K=1280
    misses = []
    worst = 0.0
    for alpha in benchmarks.ALPHAS:
        problem = time_only_problem(alpha)
        for label in benchmarks.FAMILY_LABELS:
            grading = benchmarks.grading_for_label(label, alpha)
            errors = [
                discrete_norms(
                    solve(problem, make_graded_mesh(1.0, k, grading), backend="closed")
                ).max_l2_error
                for k in ENVELOPE_STEP_COUNTS
            ]
            observed = float(compute_orders(errors, ENVELOPE_STEP_COUNTS)[-1])
            predicted = benchmarks.theoretical_order(alpha, grading)
            worst = max(worst, abs(observed - predicted))
            if abs(observed - predicted) > 0.1:
                misses.append(
                    f"alpha={alpha:g} {label}: observed {observed:.4f}, "
                    f"envelope {predicted:.4f}"
                )
    ok = not misses
    announce(
        3,
        ok,
        f"{12 - len(misses)}/12 combinations inside the +-0.1 envelope "
        f"(worst gap {worst:.3f}) at the largest pair "
        f"(K={ENVELOPE_STEP_COUNTS[0]} -> K={ENVELOPE_STEP_COUNTS[1]}, temporal error)",
    )
    assert ok, (
        "observed orders of the temporal error at K="
        f"{ENVELOPE_STEP_COUNTS[0]} -> K={ENVELOPE_STEP_COUNTS[1]} are outside "
        "the +-0.1 envelope of min(r*alpha, 2):\n" + "\n".join(misses)
    )


def test_criterion_04_operator_positivity(fuzzed_admissible, announce):
    # the symmetrized history operator must be numerically PSD and the
    # per-level positivity certificates strictly positive on the benchmark
    # meshes and on 1000 fuzzed admissible meshes
    started = time.perf_counter()
    bad = []
    named = []
    for alpha in benchmarks.ALPHAS:
        for label in benchmarks.FAMILY_LABELS:
            grading = benchmarks.grading_for_label(label, alpha)
            named.append(
                (alpha, make_graded_mesh(1.0, FUZZ_LEVELS, grading), label, "quadrature")
            )
        named.append(
            (alpha, make_r_variable_mesh(1.0, FUZZ_LEVELS, alpha), "rvariable", "quadrature")
        )
    for alpha, mesh, name, backend in named:
        report = check_psd(build_kernel_table(mesh, alpha, backend=backend))
        if not report.passed:
            bad.append(
                f"{name} alpha={alpha:g}: min eig {report.min_eigenvalue:.3e} "
                f"vs max {report.max_eigenvalue:.3e}"
            )
        if not np.all(report.g > 0.0):
            bad.append(f"{name} alpha={alpha:g}: nonpositive certificate value")
    for i, mesh in enumerate(fuzzed_admissible):
        alpha = benchmarks.ALPHAS[i % 3]
        report = check_psd(build_kernel_table(mesh, alpha, backend="closed"))
        if not report.passed:
            bad.append(
                f"fuzz #{i} alpha={alpha:g}: min eig {report.min_eigenvalue:.3e} "
                f"vs max {report.max_eigenvalue:.3e}"
            )
        if not np.all(report.g > 0.0):
            bad.append(f"fuzz #{i} alpha={alpha:g}: nonpositive certificate value")
    elapsed = time.perf_counter() - started
    ok = not bad
    announce(
        4,
        ok,
        f"{len(named)} named + {len(fuzzed_admissible)} fuzzed admissible meshes "
        f"at {FUZZ_LEVELS} levels PSD with positive certificates ({elapsed:.1f}s)",
    )
    assert ok, "\n".join(bad)


def test_criterion_05_structure_properties(
    fuzzed_admissible, fuzzed_unrestricted, announce
):
    # the sign/monotonicity properties of the coefficient tables must hold on
    # every fuzzed mesh (admissibility plays no role for the first eight);
    # the gated monotonicity pair and the integral lower bounds must hold on
    # all admissible meshes with ratios at or above eta
    started = time.perf_counter()
    bad = []
    for i, mesh in enumerate(fuzzed_admissible):
        alpha = benchmarks.ALPHAS[i % 3]
        table = build_kernel_table(mesh, alpha, backend="closed")
        p_viol = check_properties_P(table)
        q_viol = check_properties_Q(table)
        for v in itertools.chain(p_viol, q_viol):
            bad.append(
                f"admissible fuzz #{i} alpha={alpha:g}: {v.check} at "
                f"(k={v.level}, j={v.interval}), margin {v.amount:.3e}"
            )
    for i, mesh in enumerate(fuzzed_unrestricted):
        alpha = benchmarks.ALPHAS[i % 3]
        for v in check_properties_P(build_kernel_table(mesh, alpha, backend="closed")):
            bad.append(
                f"unrestricted fuzz #{i} alpha={alpha:g}: {v.check} at "
                f"(k={v.level}, j={v.interval}), margin {v.amount:.3e}"
            )
    elapsed = time.perf_counter() - started
    ok = not bad
    announce(
        5,
        ok,
        f"sign/monotonicity and integral-bound checks clean on "
        f"{len(fuzzed_admissible)} admissible + {len(fuzzed_unrestricted)} "
        f"unrestricted meshes ({elapsed:.1f}s)",
    )
    assert ok, "\n".join(bad[:20])


def test_criterion_06_complementary_kernel(announce):
    # forward substitution against the history matrix must reproduce the
    # all-ones lower triangle to 1e-11 with no entry below -1e-13
    worst_residual = 0.0
    worst_entry = 0.0
    count = 0
    rows, cols = np.tril_indices(FUZZ_LEVELS)
    for alpha in benchmarks.ALPHAS:
        for label in benchmarks.FAMILY_LABELS:
            grading = benchmarks.grading_for_label(label, alpha)
            mesh = make_graded_mesh(1.0, FUZZ_LEVELS, grading)
            table = build_kernel_table(mesh, alpha, backend="quadrature")
            p = build_complementary_kernel(table)
            product = p @ table.matrix()
            worst_residual = max(
                worst_residual, float(np.max(np.abs(product[rows, cols] - 1.0)))
            )
            worst_entry = min(worst_entry, float(np.min(p[rows, cols])))
            count += 1
    ok = worst_residual <= 1e-11 and worst_entry >= -1e-13
    announce(
        6,
        ok,
        f"{count} graded meshes at {FUZZ_LEVELS} levels: identity residual "
        f"{worst_residual:.1e} (tol 1e-11), smallest entry {worst_entry:.1e} "
        f"(floor -1e-13)",
    )
    assert ok


def test_criterion_07_operator_consistency(announce):
    # applying the discrete operator to the characteristic solution profile
    # t^alpha must converge to the adaptive reference derivative at the
    # final offset point with rate at least 1.9 on near-optimally graded
    # meshes, and the reference integrator must match the monomial closed
    # form
    counts = (40, 80, 160)
    bad = []
    rate_notes = []
    for alpha in benchmarks.ALPHAS:
        errors = []
        for num_steps in counts:
            mesh = make_graded_mesh(1.0, num_steps, 2.0 / alpha)
            table = build_kernel_table(mesh, alpha, backend="quadrature")
            history = mesh.nodes**alpha
            row = table.row(num_steps)
            reference = caputo_reference(
                lambda s, a=alpha: a * s ** (a - 1.0), row.t_star, alpha
            )
            errors.append(abs(apply_operator(row, history, alpha) - reference))
        rates = compute_orders(errors, counts)
        rate_notes.append(f"alpha={alpha:g}: " + "/".join(f"{r:.2f}" for r in rates))
        if np.any(rates < 1.9):
            bad.append(
                f"alpha={alpha:g}: consistency rates {rates} fall below 1.9"
            )

    worst_rel = 0.0
    for alpha in benchmarks.ALPHAS:
        for exponent in (alpha, 1.0, 2.0 - alpha, 2.5):
            for t in (0.35, 1.0):
                got = caputo_reference(
                    lambda s, g=exponent: g * s ** (g - 1.0), t, alpha
                )
                want = (
                    math.gamma(exponent + 1.0)
                    / math.gamma(exponent + 1.0 - alpha)
                    * t ** (exponent - alpha)
                )
                worst_rel = max(worst_rel, abs(got - want) / abs(want))
    if worst_rel > 1e-9:
        bad.append(f"reference integrator off by {worst_rel:.2e} (allowed 1e-9)")
    ok = not bad
    announce(
        7,
        ok,
        f"consistency rates {'; '.join(rate_notes)} (floor 1.9); "
        f"monomial reference deviation {worst_rel:.1e}",
    )
    assert ok, "\n".join(bad)


def test_criterion_08_backend_equivalence(announce):
    # the closed-form and adaptive-quadrature coefficient routes must agree
    # entry by entry on every tested mesh
    rng = np.random.default_rng(FUZZ_SEED + 2)
    _, eta = admissibility_thresholds()
    num_steps = 160
    meshes = []
    for alpha in benchmarks.ALPHAS:
        for label in benchmarks.FAMILY_LABELS:
            grading = benchmarks.grading_for_label(label, alpha)
            meshes.append((alpha, make_graded_mesh(1.0, num_steps, grading), label))
        meshes.append((alpha, make_r_variable_mesh(1.0, num_steps, alpha), "rvariable"))
        meshes.append((alpha, make_uniform_mesh(1.0, num_steps), "uniform"))
        meshes.append(
            (alpha, mesh_from_ratios(rng.uniform(eta, 3.0, size=num_steps - 1)), "fuzz")
        )
    worst = 0.0
    worst_at = ""
    for alpha, mesh, name in meshes:
        closed = build_kernel_table(mesh, alpha, backend="closed")
        quad = build_kernel_table(mesh, alpha, backend="quadrature")
        for k in range(1, num_steps + 1):
            row_c, row_q = closed.row(k), quad.row(k)
            for field in ("a", "b", "c", "d", "m_row"):
                x = getattr(row_c, field)
                y = getattr(row_q, field)
                if x.size == 0:
                    continue
                scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-300)
                dev = float(np.max(np.abs(x - y) / scale))
                if dev > worst:
                    worst = dev
                    worst_at = f"{name} alpha={alpha:g} level {k} field {field}"
    ok = worst <= 1e-10
    announce(
        8,
        ok,
        f"{len(meshes)} meshes x {num_steps} levels: largest relative "
        f"backend deviation {worst:.1e} (tol 1e-10)",
    )
    assert ok, f"backends disagree by {worst:.2e} at {worst_at}"


def test_criterion_09_stability_soak(announce):
    # long-horizon marching with bounded-variation forcing must plateau
    # (late-window growth of the energy seminorm at most 1%), the unforced
    # run must decay monotonically, and both runs must finish within a minute
    started = time.perf_counter()
    forced = run_stability_soak(0.5)
    decay = run_stability_soak(0.5, zero_source=True)
    elapsed = time.perf_counter() - started
    ok = (
        forced.passed
        and forced.plateau_ok
        and decay.passed
        and decay.h1_nonincreasing
        and decay.l2_nonincreasing
        and elapsed < 60.0
    )
    announce(
        9,
        ok,
        f"growth ratio {forced.growth_ratio:.6f} (cap {forced.plateau_factor}); "
        f"unforced run monotone; {elapsed:.1f}s wall (cap 60s)",
    )
    assert forced.plateau_ok, (
        f"H1 plateau exceeded: late window {forced.max_second_window:.6e} vs "
        f"early {forced.max_first_window:.6e}"
    )
    assert decay.h1_nonincreasing and decay.l2_nonincreasing
    assert forced.passed and decay.passed
    assert elapsed < 60.0, f"soak took {elapsed:.1f}s (allowed 60s)"


def test_criterion_10_pointwise_comparison(announce):
    # at the strongest refinement the node-dependent grading must beat both
    # fixed-exponent gradings in maximum L2 error
    curves = run_pointwise_comparison(
        0.7,
        families=("graded:r=2/alpha", "graded:r=3/alpha", "rvariable"),
        num_steps=640,
        space="d1:10000",
        backend="closed",
    )
    errors = {curve.family_label: curve.max_l2_error for curve in curves}
    ok = (
        errors["rvariable"] < errors["r=2/alpha"]
        and errors["rvariable"] < errors["r=3/alpha"]
    )
    announce(
        10,
        ok,
        f"max L2 at K=640: rvariable {errors['rvariable']:.4e} vs "
        f"r=2/alpha {errors['r=2/alpha']:.4e}, r=3/alpha {errors['r=3/alpha']:.4e}",
    )
    assert ok, f"node-dependent grading did not win: {errors}"
