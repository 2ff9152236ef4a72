"""The four benchmark workloads.

Every workload is a closed loop with one client: one pass runs to completion
before the next starts.  Each is driven from one process through the public
API or ``subdiff.cli.dispatch``, with ``--workers 1`` and BLAS/OpenMP pinned
to one thread.  The seed is the benchmark's ``--seed``; the benchmark builds
every random input from it and hands the program only the generated files or
arrays.

=============  =========================================  ====================
name           one pass                                   seed
=============  =========================================  ====================
paper-tables   ``reproduce-tables --paper-exact`` (36     unused: the fixed
               cells, default backend, ``d1:10000``)      paper configuration
soak-long      ``soak --alpha 0.5 --K 2560                unused: the mesh is
               --split-steps 512`` (closed, ``d1:512``)   fixed by the command
operator-fuzz  ``analyze --backend closed`` on 64         mesh step ratios
               admissible 128-level meshes                uniform in [eta, 3]
decay-2d       ``solve`` on ``PeriodicSquare(192)``,      N(0, 1) initial
               K=256 graded mesh, plus ``discrete_norms``  field
=============  =========================================  ====================

Why each workload exists is in its ``why`` attribute.  ``BENCHMARK.json``
gates ``soak-long`` and ``operator-fuzz``; ``paper-tables`` and ``decay-2d``
are run by hand (see README.md for why).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import subdiff
import subdiff.cli


@dataclass
class PassResult:
    """What one pass did and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    item_s: list[float] = field(default_factory=list)  # item latencies timed here
    ref_dev: float | None = None  # largest relative deviation from a reference
    residual_max: float = 0.0
    violations: int = 0
    io_bytes: int = 0
    peak_rss_mb: float = 0.0  # process peak so far, set after the pass
    problems: list[str] = field(default_factory=list)


def _dispatch(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; return exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # looked up at call time so the tracer's wrapper is the one called
        code = subdiff.cli.dispatch(argv)
    return code, out.getvalue()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class PaperTables:
    name = "paper-tables"
    why = (
        "The headline figure as users run it: 36 verified cells on d1:10000 with "
        "the default backend; quadrature kernel build ~70% and march ~30% at seed."
    )
    items = 36  # cells
    item_span = "solver.solve"

    def setup(self, seed: int, workdir: Path) -> None:
        self.out_dir = _fresh_dir(workdir / "tables")

    def run_pass(self, clock) -> PassResult:
        result = PassResult(attempted=self.items)
        out_dir = _fresh_dir(self.out_dir)
        with clock:
            code, _ = _dispatch(
                ["reproduce-tables", "--paper-exact", "--workers", "1", "--out-dir", str(out_dir)]
            )
        summary_path = out_dir / "table_summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
        verdicts = summary.get("verdicts", [])
        result.residual_max = max(
            (float(c["residual_max"]) for c in summary.get("cells", [])), default=math.nan
        )
        passed = [v for v in verdicts if v.get("passed") is True]
        if code != 0 or len(verdicts) != self.items:
            result.failed = self.items
            result.problems.append(f"exit {code}, {len(verdicts)} verdicts (want {self.items})")
        else:
            result.failed = self.items - len(passed)
            if result.failed:
                result.problems.append(f"{result.failed} cells outside the tolerance ladder")
        if verdicts:
            result.ref_dev = max(float(v["rel_dev"]) for v in verdicts)
        result.io_bytes = _tree_bytes(out_dir)
        return result


class SoakLong:
    name = "soak-long"
    why = (
        "Many levels on a small grid: the O(K^2) closed table (K=2560) dominates "
        "time and peak memory, and the march's per-step cost grows with k."
    )
    items = 1  # soak runs
    item_span = "cli.dispatch"

    def setup(self, seed: int, workdir: Path) -> None:
        self.out_dir = _fresh_dir(workdir / "soak")

    def run_pass(self, clock) -> PassResult:
        result = PassResult(attempted=self.items)
        out_dir = _fresh_dir(self.out_dir)
        with clock:
            code, stdout = _dispatch(
                ["soak", "--alpha", "0.5", "--K", "2560", "--split-steps", "512",
                 "--out-dir", str(out_dir)]
            )
        result.item_s.append(clock.elapsed)
        try:
            report = json.loads(stdout)
        except ValueError:
            report = {}
        ok = (
            code == 0
            and report.get("passed") is True
            and report.get("growth_ratio", math.inf) <= report.get("plateau_factor", -math.inf)
        )
        if not ok:
            result.failed = 1
            result.problems.append(
                f"exit {code}, passed={report.get('passed')}, "
                f"growth_ratio={report.get('growth_ratio')}"
            )
        result.residual_max = float(report.get("residual_max", math.nan))
        result.io_bytes = _tree_bytes(out_dir)
        return result


class OperatorFuzz:
    name = "operator-fuzz"
    why = (
        "All analysis (PSD, P/Q suites, certificate, complementary kernel) plus "
        "many small closed tables; no march and no quadrature."
    )
    items = 64  # meshes
    item_span = "cli.dispatch"
    levels = 128
    alphas = (0.3, 0.5, 0.7)

    def setup(self, seed: int, workdir: Path) -> None:
        # Built as acceptance criteria 04/05 build their admissible meshes:
        # unit first step, every step ratio uniform in [eta, 3].
        rng = np.random.default_rng(seed)
        _, eta = subdiff.admissibility_thresholds()
        mesh_dir = _fresh_dir(workdir / "meshes")
        self.paths = []
        for i in range(self.items):
            ratios = rng.uniform(eta, 3.0, size=self.levels - 1)
            steps = np.cumprod(np.concatenate([[1.0], ratios]))
            nodes = np.concatenate([[0.0], np.cumsum(steps)])
            path = mesh_dir / f"mesh{i:02d}.txt"
            path.write_text("".join(f"{t:.17g}\n" for t in nodes))
            self.paths.append(path)

    def run_pass(self, clock) -> PassResult:
        result = PassResult(attempted=self.items)
        outputs = []
        with clock:
            for i, path in enumerate(self.paths):
                alpha = self.alphas[i % len(self.alphas)]
                started = time.perf_counter()
                outputs.append(_dispatch(
                    ["analyze", "--file", str(path), "--alpha", str(alpha), "--backend", "closed"]
                ))
                result.item_s.append(time.perf_counter() - started)
        for i, (path, (code, stdout)) in enumerate(zip(self.paths, outputs)):
            alpha = self.alphas[i % len(self.alphas)]
            try:
                report = json.loads(stdout)
            except ValueError:
                report = {}
            result.violations += int(report.get("sign_monotonicity_violations", 0))
            result.violations += int(report.get("integral_bound_violations", 0))
            if code != 0 or report.get("passed") is not True:
                result.failed += 1
                result.problems.append(f"{path.name} alpha={alpha}: exit {code}")
        return result


class Decay2d:
    name = "decay-2d"
    why = (
        "The only FFT-path workload, every Fourier mode populated: the O(K^2 N) "
        "history term dominates, and a mode-sparse march gets no shortcut."
    )
    items = 1  # solves
    item_span = "solver.solve"
    modes = 192
    num_steps = 256
    alpha = 0.5
    grading = 4.0
    residual_floor = 1e-10
    oracle_rel_tol = 1e-11

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.initial = rng.standard_normal((self.modes, self.modes))
        self.first_final_l2 = None

    def run_pass(self, clock) -> PassResult:
        result = PassResult(attempted=self.items)
        with clock:
            mesh = subdiff.make_graded_mesh(1.0, self.num_steps, self.grading)
            space = subdiff.PeriodicSquare(self.modes)
            problem = subdiff.Problem(
                order=self.alpha, space=space, initial=self.initial, source=None
            )
            state = subdiff.solve(problem, mesh, backend="closed")
            norms = subdiff.discrete_norms(state)
        result.item_s.append(clock.elapsed)
        result.residual_max = float(norms.residual_max)
        result.problems.extend(self._check(mesh, space, state, norms))
        result.failed = 1 if result.problems else 0
        return result

    def _check(self, mesh, space, state, norms) -> list[str]:
        problems = []
        levels = state.level + 1
        history = state.history[:levels]
        h1 = np.asarray(norms.h1_seminorm)
        if state.level != self.num_steps:
            problems.append(f"stopped at level {state.level}")
        if not (np.all(np.isfinite(history)) and np.all(np.isfinite(h1))):
            problems.append("non-finite entries")
            return problems
        if not norms.residual_max < self.residual_floor:
            problems.append(f"residual_max {norms.residual_max:.3e} >= {self.residual_floor:g}")
        l2 = np.array([space.l2_norm(u) for u in history])
        for label, series in (("L2", l2), ("H1", h1)):
            if not np.all(np.diff(series) <= 1e-12 * series[:-1] + 1e-300):
                problems.append(f"{label} trajectory increases")
        final = float(l2[-1])
        if self.first_final_l2 is None:
            self.first_final_l2 = final
            expected = self._oracle_final_l2(mesh, space)
            if not abs(final - expected) <= self.oracle_rel_tol * expected:
                problems.append(f"final L2 {final!r} vs mode-by-mode oracle {expected!r}")
        elif final != self.first_final_l2:
            problems.append(f"final L2 {final!r} differs from the first pass {self.first_final_l2!r}")
        return problems

    def _oracle_final_l2(self, mesh, space) -> float:
        """Final L2 norm from the scheme's recurrence run mode by mode.

        It uses the program's kernel rows but none of its marching code.  With
        zero source every Fourier mode evolves alone; with ``lam`` its
        ``-Laplacian`` symbol, ``m`` the level-k history row,
        ``g = Gamma(1 - alpha)`` and ``sigma = 1 - alpha/2`` the amplification
        ``R_k`` of a unit mode satisfies
        ``(m_kk/g + sigma*lam) R_k = -(alpha/2) lam R_{k-1} + sum_{i<k} dm_i R_i / g``
        with ``dm = diff(m)`` (``dm_0 = m_0``).  This runs that recurrence once
        per distinct ``lam`` instead of on whole fields.
        """
        alpha, sigma, g = self.alpha, 1.0 - 0.5 * self.alpha, math.gamma(1.0 - self.alpha)
        table = subdiff.build_kernel_table(mesh, alpha, backend="closed")
        freq = np.fft.fftfreq(self.modes, d=1.0 / self.modes) * (2.0 * math.pi / space.length)
        lam_all = freq[:, None] ** 2 + freq[None, :] ** 2
        lam, inverse = np.unique(lam_all, return_inverse=True)
        amp = np.zeros((self.num_steps + 1, lam.size))
        amp[0] = 1.0
        for k in range(1, self.num_steps + 1):
            m = table.row(k).m_row
            dm = np.diff(m, prepend=0.0)
            rhs = -0.5 * alpha * lam * amp[k - 1] + (dm @ amp[:k]) / g
            amp[k] = rhs / (m[-1] / g + sigma * lam)
        final_hat = amp[-1][inverse.reshape(lam_all.shape)] * np.fft.fft2(self.initial)
        # Parseval: sum |u|^2 = sum |u_hat|^2 / modes^2
        return float(space.h * np.sqrt(np.sum(np.abs(final_hat) ** 2)) / self.modes)


WORKLOADS = {w.name: w for w in (PaperTables, SoakLong, OperatorFuzz, Decay2d)}
