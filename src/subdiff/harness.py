"""Experiment orchestration: convergence studies and stability soaks.

This module turns the solver into reproducible experiments:

* :func:`run_convergence` sweeps (alpha, mesh family, step count) cells and
  reports max-in-time L2 errors with observed orders.
* :func:`reproduce_tables` runs the benchmark configuration and, in
  paper-exact mode, compares every cell against the trusted reference values
  in :mod:`subdiff.benchmarks` under the tolerance ladder.
* :func:`run_pointwise_comparison` records per-level error curves for
  several mesh families on a common problem.
* :func:`run_stability_soak` marches a long-horizon bounded-variation forcing
  and applies the plateau verdict to the discrete H1 trajectory.

All file outputs start with a reproducibility header and contain no
timestamps or timings, so identical runs produce bit-identical files.
Independent cells run in parallel worker threads (the heavy kernels release
the interpreter lock); results are merged in job order, so the worker count
does not change any output.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import benchmarks
from ._version import __version__
from .errors import ValidationError
from .kernel import BACKENDS, QuadratureSettings, as_fractional_order
from .meshes import (
    TimeMesh,
    certify_mesh,
    make_graded_mesh,
    make_graded_then_uniform,
    make_r_variable_mesh,
    make_uniform_mesh,
    read_mesh,
)
from .provenance import reproducibility_header
from .solver import (
    Problem,
    discrete_norms,
    manufactured_problem,
    parse_space,
    solve,
)

__all__ = [
    "WORKERS_ENV_VAR",
    "MeshFamily",
    "parse_mesh_descriptor",
    "benchmark_families",
    "ExperimentSpec",
    "parse_config_file",
    "CellResult",
    "Verdict",
    "ErrorReport",
    "PointwiseCurve",
    "SoakReport",
    "compute_orders",
    "run_convergence",
    "reproduce_tables",
    "run_pointwise_comparison",
    "run_stability_soak",
]

logger = logging.getLogger(__name__)

WORKERS_ENV_VAR = "SUBDIFF_WORKERS"

_MESH_KINDS = ("uniform", "graded", "rvariable", "file")


@dataclass(frozen=True)
class MeshFamily:
    """A named rule that builds a time mesh for any (alpha, horizon, K).

    Kinds: ``uniform``; ``graded`` with either a fixed ``grading`` exponent
    or an alpha-dependent one ``grading_numerator / alpha``; ``rvariable``
    (node-dependent exponents); ``file`` (a stored mesh, valid only for its
    own step count and horizon).
    """

    kind: str
    grading: float | None = None
    grading_numerator: float | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _MESH_KINDS:
            raise ValidationError(
                f"mesh family kind must be one of {_MESH_KINDS}, got {self.kind!r}"
            )
        if self.kind == "graded":
            if (self.grading is None) == (self.grading_numerator is None):
                raise ValidationError(
                    "graded family needs exactly one of grading, grading_numerator"
                )
            value = self.grading if self.grading is not None else self.grading_numerator
            if not float(value) > 0.0:
                raise ValidationError(f"grading must be positive, got {value}")
        else:
            if self.grading is not None or self.grading_numerator is not None:
                raise ValidationError(f"{self.kind} family takes no grading")
        if (self.kind == "file") != (self.path is not None):
            raise ValidationError("path is required for file families and only them")

    @property
    def label(self) -> str:
        if self.kind == "graded":
            if self.grading is not None:
                return f"r={self.grading:g}"
            return f"r={self.grading_numerator:g}/alpha"
        if self.kind == "file":
            return f"file:{self.path}"
        return self.kind

    def grading_at(self, alpha: float) -> float:
        """Numeric grading exponent for a given alpha (graded kind only)."""
        if self.kind != "graded":
            raise ValidationError(f"{self.kind} family has no grading exponent")
        if self.grading is not None:
            return float(self.grading)
        return float(self.grading_numerator) / float(alpha)

    def build(self, alpha: float, horizon: float, num_steps: int) -> TimeMesh:
        """Construct the mesh; file meshes must match the requested size."""
        if self.kind == "uniform":
            return make_uniform_mesh(horizon, num_steps)
        if self.kind == "graded":
            return make_graded_mesh(horizon, num_steps, self.grading_at(alpha))
        if self.kind == "rvariable":
            return make_r_variable_mesh(horizon, num_steps, alpha)
        mesh = read_mesh(self.path)
        if mesh.num_steps != num_steps:
            raise ValidationError(
                f"mesh file {self.path} has {mesh.num_steps} steps, "
                f"experiment asks for {num_steps}"
            )
        if not math.isclose(mesh.horizon, horizon, rel_tol=1e-9):
            raise ValidationError(
                f"mesh file {self.path} has horizon {mesh.horizon}, "
                f"experiment asks for {horizon}"
            )
        return mesh


def parse_mesh_descriptor(text: str) -> MeshFamily:
    """Parse ``uniform``, ``rvariable``, ``graded:r=<x | n/alpha>``, ``file:<path>``."""
    descriptor = text.strip()
    if descriptor == "uniform":
        return MeshFamily(kind="uniform")
    if descriptor in ("rvariable", "r-variable"):
        return MeshFamily(kind="rvariable")
    head, sep, arg = descriptor.partition(":")
    if head == "file" and sep and arg:
        return MeshFamily(kind="file", path=arg)
    if head == "graded" and sep and arg.startswith("r="):
        value = arg[2:]
        try:
            if value.endswith("/alpha"):
                return MeshFamily(
                    kind="graded", grading_numerator=float(value[: -len("/alpha")])
                )
            return MeshFamily(kind="graded", grading=float(value))
        except ValueError as exc:
            raise ValidationError(
                f"bad grading in mesh descriptor {text!r}"
            ) from exc
    raise ValidationError(
        f"bad mesh descriptor {text!r}; expected uniform, rvariable, "
        "graded:r=<x>, graded:r=<n>/alpha, or file:<path>"
    )


def benchmark_families() -> tuple[MeshFamily, ...]:
    """The four mesh families of the benchmark tables."""
    return (
        MeshFamily(kind="graded", grading=1.0),
        MeshFamily(kind="graded", grading=2.0),
        MeshFamily(kind="graded", grading_numerator=2.0),
        MeshFamily(kind="graded", grading_numerator=3.0),
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated convergence-experiment description.

    ``families`` entries may be given as descriptor strings; they are parsed
    on construction.  ``workers=None`` defers to the SUBDIFF_WORKERS
    environment variable (default 1).
    """

    alphas: tuple[float, ...]
    families: tuple[MeshFamily, ...]
    step_counts: tuple[int, ...]
    space: str = "d1:4096"
    horizon: float = 1.0
    backend: str = "quadrature"
    quad_rel_tol: float = 1e-13
    quad_abs_tol: float = 1e-15
    workers: int | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        alphas = tuple(as_fractional_order(a).alpha for a in _as_iterable(self.alphas))
        if not alphas:
            raise ValidationError("alphas must be nonempty")
        families = tuple(
            f if isinstance(f, MeshFamily) else parse_mesh_descriptor(str(f))
            for f in _as_iterable(self.families)
        )
        if not families:
            raise ValidationError("families must be nonempty")
        labels = [f.label for f in families]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate mesh families: {labels}")
        step_counts = tuple(int(k) for k in _as_iterable(self.step_counts))
        if not step_counts or step_counts[0] < 1:
            raise ValidationError("step_counts must be nonempty positive integers")
        if any(b <= a for a, b in zip(step_counts, step_counts[1:])):
            raise ValidationError(f"step_counts must be strictly increasing: {step_counts}")
        parse_space(self.space)
        if not float(self.horizon) > 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.backend not in BACKENDS:
            raise ValidationError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.workers is not None and int(self.workers) < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "step_counts", step_counts)
        object.__setattr__(self, "space", str(self.space))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(
            self, "workers", None if self.workers is None else int(self.workers)
        )
        # Instantiating validates the tolerance pair.
        QuadratureSettings(rel_tol=self.quad_rel_tol, abs_tol=self.quad_abs_tol)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "ExperimentSpec":
        """Build a spec from config-file keys (see :func:`parse_config_file`)."""
        known = {
            "alphas", "meshes", "step_counts", "space", "horizon", "backend",
            "quad_rel_tol", "quad_abs_tol", "workers", "out_dir",
        }
        unknown = set(mapping) - known
        if unknown:
            raise ValidationError(f"unknown experiment keys: {sorted(unknown)}")
        kwargs: dict = {}
        if "alphas" in mapping:
            kwargs["alphas"] = tuple(float(v) for v in _split_list(mapping["alphas"]))
        if "meshes" in mapping:
            kwargs["families"] = tuple(
                parse_mesh_descriptor(v) for v in _split_list(mapping["meshes"])
            )
        if "step_counts" in mapping:
            kwargs["step_counts"] = tuple(
                int(v) for v in _split_list(mapping["step_counts"])
            )
        for key in ("space", "backend", "out_dir"):
            if key in mapping:
                kwargs[key] = mapping[key]
        for key in ("horizon", "quad_rel_tol", "quad_abs_tol"):
            if key in mapping:
                kwargs[key] = float(mapping[key])
        if "workers" in mapping:
            kwargs["workers"] = int(mapping["workers"])
        missing = {"alphas", "families", "step_counts"} - set(kwargs)
        if missing:
            raise ValidationError(f"experiment spec missing keys: {sorted(missing)}")
        return cls(**kwargs)

    def quadrature_settings(self) -> QuadratureSettings:
        return QuadratureSettings(rel_tol=self.quad_rel_tol, abs_tol=self.quad_abs_tol)

    def parameters(self) -> dict:
        """Header-ready parameter mapping (deterministic order)."""
        return {
            "alphas": list(self.alphas),
            "mesh_families": [f.label for f in self.families],
            "step_counts": list(self.step_counts),
            "space": self.space,
            "horizon": self.horizon,
            "backend": self.backend,
        }

    def tolerances(self) -> dict:
        return {"quad_rel_tol": self.quad_rel_tol, "quad_abs_tol": self.quad_abs_tol}


def _as_iterable(value) -> Iterable:
    if isinstance(value, (str, bytes)):
        return (value,)
    try:
        return tuple(value)
    except TypeError:
        return (value,)


def _split_list(text: str) -> list[str]:
    items = [item.strip() for item in text.split(",")]
    return [item for item in items if item]


def parse_config_file(path: "str | Path") -> dict[str, str]:
    """Read a key = value experiment file; '#' starts a comment."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        mapping[key.strip().lower()] = value.strip()
    return mapping


@dataclass(frozen=True)
class CellResult:
    """One (alpha, mesh family, step count) run of the convergence study."""

    alpha: float
    family_label: str
    num_steps: int
    max_l2_error: float
    argmax_level: int
    l2_error: np.ndarray = field(repr=False)
    residual_max: float = 0.0


@dataclass(frozen=True)
class Verdict:
    """Comparison of one error cell against its trusted reference value."""

    alpha: float
    family_label: str
    num_steps: int
    value: float
    reference: float
    rel_dev: float
    rel_tol: float
    passed: bool


@dataclass(frozen=True)
class ErrorReport:
    """Assembled convergence results: cells, observed orders, verdicts."""

    spec: ExperimentSpec
    cells: tuple[CellResult, ...]
    orders: dict = field(default_factory=dict)
    verdicts: tuple[Verdict, ...] = ()
    passed: bool = True

    def cell(self, alpha: float, family_label: str, num_steps: int) -> CellResult:
        for cell in self.cells:
            if (
                abs(cell.alpha - alpha) < 1e-12
                and cell.family_label == family_label
                and cell.num_steps == int(num_steps)
            ):
                return cell
        raise ValidationError(
            f"no cell for alpha={alpha}, family={family_label!r}, K={num_steps}"
        )

    def max_errors(self, alpha: float, family_label: str) -> np.ndarray:
        return np.array(
            [
                self.cell(alpha, family_label, k).max_l2_error
                for k in self.spec.step_counts
            ]
        )

    def observed_orders(self, alpha: float, family_label: str) -> np.ndarray:
        for (a, label), orders in self.orders.items():
            if abs(a - alpha) < 1e-12 and label == family_label:
                return orders
        raise ValidationError(
            f"no orders for alpha={alpha}, family={family_label!r}"
        )

    def to_dict(self) -> dict:
        return {
            "spec": _jsonify(self.spec.parameters()),
            "tolerances": _jsonify(self.spec.tolerances()),
            "cells": [
                {
                    "alpha": cell.alpha,
                    "family": cell.family_label,
                    "num_steps": cell.num_steps,
                    "max_l2_error": cell.max_l2_error,
                    "argmax_level": cell.argmax_level,
                    "residual_max": cell.residual_max,
                }
                for cell in self.cells
            ],
            "orders": {
                f"alpha={alpha:g}|{label}": [float(v) for v in orders]
                for (alpha, label), orders in self.orders.items()
            },
            "verdicts": [
                {
                    "alpha": v.alpha,
                    "family": v.family_label,
                    "num_steps": v.num_steps,
                    "value": v.value,
                    "reference": v.reference,
                    "rel_dev": v.rel_dev,
                    "rel_tol": v.rel_tol,
                    "passed": v.passed,
                }
                for v in self.verdicts
            ],
            "passed": self.passed,
        }


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def compute_orders(errors: Sequence[float], step_counts: Sequence[int]) -> np.ndarray:
    """Observed orders between consecutive step counts.

    ``order_i = ln(e_{i-1}/e_i) / ln(K_i/K_{i-1})``; a constant error
    sequence gives all zeros.
    """
    e = np.asarray(errors, dtype=float)
    k = np.asarray(step_counts, dtype=float)
    if e.ndim != 1 or k.ndim != 1 or e.size != k.size:
        raise ValidationError(
            f"errors and step counts need equal 1-d shapes, got {e.shape} vs {k.shape}"
        )
    if e.size < 2:
        raise ValidationError("need at least two error values to compute an order")
    if not np.all(np.isfinite(e)) or np.any(e <= 0.0):
        raise ValidationError("errors must be finite and positive")
    if np.any(k <= 0.0) or np.any(np.diff(k) <= 0.0):
        raise ValidationError("step counts must be positive and strictly increasing")
    return np.log(e[:-1] / e[1:]) / np.log(k[1:] / k[:-1])


def _resolve_workers(explicit: int | None) -> int:
    if explicit is not None:
        return int(explicit)
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


def _run_cell(
    spec: ExperimentSpec,
    problem: Problem,
    family: MeshFamily,
    num_steps: int,
    settings: QuadratureSettings,
) -> CellResult:
    alpha = problem.order.alpha
    mesh = family.build(alpha=alpha, horizon=spec.horizon, num_steps=num_steps)
    started = time.perf_counter()
    state = solve(problem, mesh, backend=spec.backend, settings=settings)
    wall = time.perf_counter() - started
    norms = discrete_norms(state)
    logger.info(
        "cell alpha=%g %s K=%d: max L2 error %.4e (level %d) in %.2fs",
        alpha, family.label, num_steps, norms.max_l2_error, norms.argmax_level, wall,
    )
    return CellResult(
        alpha=alpha,
        family_label=family.label,
        num_steps=num_steps,
        max_l2_error=norms.max_l2_error,
        argmax_level=norms.argmax_level,
        l2_error=norms.l2_error,
        residual_max=norms.residual_max,
    )


def _execute_cells(spec: ExperimentSpec) -> list[CellResult]:
    """Run all cells of the spec; flush completed cells if one fails."""
    settings = spec.quadrature_settings()
    space = parse_space(spec.space)
    problems = {alpha: manufactured_problem(alpha, space) for alpha in spec.alphas}
    jobs = [
        (problems[alpha], family, k)
        for alpha in spec.alphas
        for family in spec.families
        for k in spec.step_counts
    ]
    workers = _resolve_workers(spec.workers)
    completed: list[CellResult] = []
    try:
        if workers == 1:
            for problem, family, k in jobs:
                completed.append(_run_cell(spec, problem, family, k, settings))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = pool.map(
                    lambda job: _run_cell(spec, job[0], job[1], job[2], settings), jobs
                )
                for cell in results:
                    completed.append(cell)
    except Exception as exc:
        if spec.out_dir is not None and completed:
            _flush_partial(spec, completed, exc)
        raise
    return completed


def _flush_partial(spec: ExperimentSpec, cells: list[CellResult], exc: Exception) -> None:
    out_dir = _ensure_out_dir(spec.out_dir)
    path = out_dir / "partial_cells.csv"
    header = reproducibility_header(
        "partial-convergence-cells",
        spec.parameters(),
        spec.tolerances(),
        extra=[f"# incomplete = {type(exc).__name__}"],
    )
    with open(path, "w", newline="") as handle:
        for line in header:
            handle.write(line + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["alpha", "family", "num_steps", "max_l2_error", "argmax_level"])
        for cell in cells:
            writer.writerow(
                [
                    repr(cell.alpha),
                    cell.family_label,
                    cell.num_steps,
                    repr(cell.max_l2_error),
                    cell.argmax_level,
                ]
            )
    logger.warning("experiment aborted; %d finished cells flushed to %s", len(cells), path)


def _orders_by_group(spec: ExperimentSpec, cells: list[CellResult]) -> dict:
    orders: dict = {}
    by_key: dict = {}
    for cell in cells:
        by_key[(cell.alpha, cell.family_label, cell.num_steps)] = cell.max_l2_error
    for alpha in spec.alphas:
        for family in spec.families:
            errors = [by_key[(alpha, family.label, k)] for k in spec.step_counts]
            if len(errors) >= 2 and all(e > 0.0 for e in errors):
                orders[(alpha, family.label)] = compute_orders(errors, spec.step_counts)
            else:
                orders[(alpha, family.label)] = np.zeros(0)
    return orders


def _ensure_out_dir(out_dir: "str | Path") -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _alpha_slug(alpha: float) -> str:
    return f"{alpha:g}".replace(".", "p")


def _family_slug(label: str) -> str:
    return label.replace("=", "").replace("/", "-").replace(":", "-")


def _write_alpha_table(
    path: Path,
    spec: ExperimentSpec,
    alpha: float,
    report: ErrorReport,
    kind: str,
    with_references: bool,
) -> None:
    """One CSV per alpha in the benchmark layout.

    Rows come in per-family blocks (error row, then order row aligned to the
    right); columns are the step counts.  Reference/deviation rows are added
    when the run was compared against trusted values.
    """
    tolerances = dict(spec.tolerances())
    if with_references:
        tolerances["cells_at_or_above_1e-05"] = 1e-2
        tolerances["cells_below_1e-05"] = 5e-2
    header = reproducibility_header(
        kind, {"alpha": alpha, **spec.parameters()}, tolerances
    )
    verdict_by = {
        (v.alpha, v.family_label, v.num_steps): v
        for v in report.verdicts
        if abs(v.alpha - alpha) < 1e-12
    }
    with open(path, "w", newline="") as handle:
        for line in header:
            handle.write(line + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["family", "metric"] + [f"K={k}" for k in spec.step_counts])
        for family in spec.families:
            errors = report.max_errors(alpha, family.label)
            orders = report.observed_orders(alpha, family.label)
            writer.writerow(
                [family.label, "error"] + [repr(float(e)) for e in errors]
            )
            writer.writerow(
                [family.label, "order", ""] + [f"{o:.4f}" for o in orders]
            )
            if with_references:
                refs = [
                    verdict_by[(alpha, family.label, k)] for k in spec.step_counts
                ]
                writer.writerow(
                    [family.label, "reference"] + [repr(v.reference) for v in refs]
                )
                writer.writerow(
                    [family.label, "rel_deviation"] + [f"{v.rel_dev:.2e}" for v in refs]
                )
                writer.writerow(
                    [family.label, "verdict"]
                    + ["pass" if v.passed else "FAIL" for v in refs]
                )


def _write_summary_json(path: Path, report: ErrorReport, kind: str) -> None:
    payload = {"version": __version__, "kind": kind, **report.to_dict()}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_report_files(report: ErrorReport, kind: str, with_references: bool) -> None:
    spec = report.spec
    if spec.out_dir is None:
        return
    out_dir = _ensure_out_dir(spec.out_dir)
    for alpha in spec.alphas:
        path = out_dir / f"{kind}_alpha{_alpha_slug(alpha)}.csv"
        _write_alpha_table(path, spec, alpha, report, kind, with_references)
    _write_summary_json(out_dir / f"{kind}_summary.json", report, kind)
    logger.info("wrote %s outputs to %s", kind, out_dir)


def run_convergence(spec: ExperimentSpec) -> ErrorReport:
    """Run every (alpha, family, K) cell of the spec and assemble the report.

    Emits one CSV per alpha in the benchmark table layout plus a JSON
    summary when the spec names an output directory.
    """
    cells = _execute_cells(spec)
    orders = _orders_by_group(spec, cells)
    report = ErrorReport(spec=spec, cells=tuple(cells), orders=orders)
    _write_report_files(report, "convergence", with_references=False)
    return report


def reproduce_tables(
    alphas: Sequence[float] | None = None,
    extended: bool = False,
    paper_exact: bool = False,
    backend: str = "quadrature",
    workers: int | None = None,
    out_dir: "str | Path | None" = None,
) -> ErrorReport:
    """Reproduce the benchmark error tables.

    ``paper_exact`` selects the reference spatial grid (h = 2*pi/10000) and
    turns on cell-by-cell verdicts against the trusted values under the
    tolerance ladder; the default desk grid (h = 2*pi/4096) runs faster but
    its smallest cells are spatially saturated, so no verdicts are issued.
    ``extended`` adds the {320, 480, 640} step counts to the CI set.
    """
    alphas = benchmarks.ALPHAS if alphas is None else tuple(alphas)
    step_counts = benchmarks.STEP_COUNTS if extended else benchmarks.CI_STEP_COUNTS
    intervals = (
        benchmarks.PAPER_EXACT_INTERVALS if paper_exact else benchmarks.DESK_INTERVALS
    )
    spec = ExperimentSpec(
        alphas=alphas,
        families=benchmark_families(),
        step_counts=step_counts,
        space=f"d1:{intervals}",
        horizon=1.0,
        backend=backend,
        workers=workers,
        out_dir=None if out_dir is None else str(out_dir),
    )
    cells = _execute_cells(spec)
    orders = _orders_by_group(spec, cells)
    verdicts: list[Verdict] = []
    if paper_exact:
        for cell in cells:
            reference = float(
                benchmarks.reference_errors(
                    cell.alpha, cell.family_label, (cell.num_steps,)
                )[0]
            )
            rel_tol = benchmarks.tolerance_ladder(reference)
            rel_dev = abs(cell.max_l2_error - reference) / reference
            verdicts.append(
                Verdict(
                    alpha=cell.alpha,
                    family_label=cell.family_label,
                    num_steps=cell.num_steps,
                    value=cell.max_l2_error,
                    reference=reference,
                    rel_dev=rel_dev,
                    rel_tol=rel_tol,
                    passed=bool(rel_dev <= rel_tol),
                )
            )
    passed = all(v.passed for v in verdicts) if verdicts else True
    report = ErrorReport(
        spec=spec,
        cells=tuple(cells),
        orders=orders,
        verdicts=tuple(verdicts),
        passed=passed,
    )
    _write_report_files(report, "table", with_references=paper_exact)
    if verdicts:
        failed = [v for v in verdicts if not v.passed]
        logger.info(
            "table reproduction: %d/%d cells within tolerance",
            len(verdicts) - len(failed),
            len(verdicts),
        )
    return report


@dataclass(frozen=True)
class PointwiseCurve:
    """Per-level error trajectory of one mesh family at a fixed step count."""

    family_label: str
    num_steps: int
    times: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    l2_error: np.ndarray = field(repr=False)
    max_l2_error: float = 0.0
    argmax_level: int = 0


def run_pointwise_comparison(
    order: "float | object",
    families: Sequence[MeshFamily],
    num_steps: int,
    space: str = "d1:4096",
    horizon: float = 1.0,
    backend: str = "closed",
    out_dir: "str | Path | None" = None,
) -> list[PointwiseCurve]:
    """Per-level L2 error curves for several mesh families on one problem.

    Each curve has exactly ``num_steps`` rows (levels 1..K) of
    (t_k, step size, error).  One CSV per family is written when an output
    directory is given.
    """
    order = as_fractional_order(order)
    families = tuple(
        f if isinstance(f, MeshFamily) else parse_mesh_descriptor(str(f))
        for f in families
    )
    if not families:
        raise ValidationError("families must be nonempty")
    num_steps = int(num_steps)
    if num_steps < 1:
        raise ValidationError(f"num_steps must be >= 1, got {num_steps}")
    problem = manufactured_problem(order.alpha, parse_space(space))
    curves: list[PointwiseCurve] = []
    for family in families:
        mesh = family.build(alpha=order.alpha, horizon=horizon, num_steps=num_steps)
        state = solve(problem, mesh, backend=backend)
        norms = discrete_norms(state)
        curves.append(
            PointwiseCurve(
                family_label=family.label,
                num_steps=num_steps,
                times=mesh.nodes[1:].copy(),
                steps=mesh.steps.copy(),
                l2_error=norms.l2_error[1:].copy(),
                max_l2_error=norms.max_l2_error,
                argmax_level=norms.argmax_level,
            )
        )
    if out_dir is not None:
        out_path = _ensure_out_dir(out_dir)
        for curve in curves:
            name = (
                f"pointwise_alpha{_alpha_slug(order.alpha)}"
                f"_K{num_steps}_{_family_slug(curve.family_label)}.csv"
            )
            header = reproducibility_header(
                "pointwise-errors",
                {
                    "alpha": order.alpha,
                    "mesh_family": curve.family_label,
                    "num_steps": num_steps,
                    "space": space,
                    "horizon": horizon,
                    "backend": backend,
                },
            )
            with open(out_path / name, "w", newline="") as handle:
                for line in header:
                    handle.write(line + "\n")
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(["level", "t", "step", "l2_error"])
                for k in range(num_steps):
                    writer.writerow(
                        [
                            k + 1,
                            repr(float(curve.times[k])),
                            repr(float(curve.steps[k])),
                            repr(float(curve.l2_error[k])),
                        ]
                    )
    return curves


@dataclass(frozen=True)
class SoakReport:
    """Long-horizon stability run: H1 trajectory, plateau verdict, decay flags."""

    alpha: float
    num_steps: int
    horizon: float
    zero_source: bool
    mesh_admissible: bool
    first_violation: int | None
    plateau_factor: float
    max_first_window: float
    max_second_window: float
    growth_ratio: float
    plateau_ok: bool
    h1_nonincreasing: bool
    l2_nonincreasing: bool
    residual_max: float
    passed: bool
    times: np.ndarray = field(repr=False, default=None)
    h1_seminorm: np.ndarray = field(repr=False, default=None)
    l2_norm: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "num_steps": self.num_steps,
            "horizon": self.horizon,
            "zero_source": self.zero_source,
            "mesh_admissible": self.mesh_admissible,
            "first_violation": self.first_violation,
            "plateau_factor": self.plateau_factor,
            "max_first_window": self.max_first_window,
            "max_second_window": self.max_second_window,
            "growth_ratio": self.growth_ratio,
            "plateau_ok": self.plateau_ok,
            "h1_nonincreasing": self.h1_nonincreasing,
            "l2_nonincreasing": self.l2_nonincreasing,
            "residual_max": self.residual_max,
            "passed": self.passed,
        }


def run_stability_soak(
    order: "float | object",
    horizon: float = 50.0,
    num_steps: int = 500,
    grading: float = 2.0,
    split_time: float = 1.0,
    split_steps: int = 100,
    space: str = "d1:512",
    zero_source: bool = False,
    backend: str = "closed",
    mesh: TimeMesh | None = None,
    plateau_factor: float = 1.01,
    out_dir: "str | Path | None" = None,
) -> SoakReport:
    """Long-horizon H1 stability soak with the plateau verdict.

    The default mesh resolves the initial layer with a graded head on
    [0, split_time] and continues with a uniform tail to the horizon.  The
    initial field is the first Dirichlet mode; unless ``zero_source``, the
    forcing is that mode scaled by min(t, 1) (bounded variation in time).
    The plateau verdict compares the H1 seminorm maxima of the level windows
    [1, K/2] and [K/2, K]; with zero source the trajectory must additionally
    be nonincreasing.

    An inadmissible mesh triggers a RuntimeWarning (sourced from the
    certifier) before the run starts.
    """
    order = as_fractional_order(order)
    if mesh is None:
        mesh = make_graded_then_uniform(
            horizon=horizon,
            num_steps=num_steps,
            grading=grading,
            split_time=split_time,
            split_steps=split_steps,
        )
    certificate = certify_mesh(mesh)
    if not certificate.satisfied:
        warnings.warn(
            f"mesh fails the admissibility conditions at step "
            f"{certificate.first_violation}; the stability guarantee does not "
            f"apply to this run",
            RuntimeWarning,
            stacklevel=2,
        )
    num_steps = mesh.num_steps
    horizon = mesh.horizon
    space_obj = parse_space(space)
    mode = space_obj.first_mode()
    if zero_source:
        source = None
    else:
        def source(t: float) -> np.ndarray:
            return min(t, 1.0) * mode
    problem = Problem(
        order=order,
        space=space_obj,
        source=source,
        initial=mode,
        name="stability-soak",
    )
    state = solve(problem, mesh, backend=backend)
    levels = num_steps + 1
    h1 = state.h1_seminorm[:levels].copy()
    l2 = np.array([space_obj.l2_norm(state.history[k]) for k in range(levels)])
    half = max(num_steps // 2, 1)
    max_first = float(np.max(h1[1 : half + 1]))
    max_second = float(np.max(h1[half:]))
    growth_ratio = max_second / max(max_first, 1e-300)
    plateau_ok = bool(max_second <= plateau_factor * max_first)
    h1_noninc = bool(np.all(np.diff(h1) <= 1e-12 * h1[:-1] + 1e-300))
    l2_noninc = bool(np.all(np.diff(l2) <= 1e-12 * l2[:-1] + 1e-300))
    passed = plateau_ok and (not zero_source or (h1_noninc and l2_noninc))
    report = SoakReport(
        alpha=order.alpha,
        num_steps=num_steps,
        horizon=horizon,
        zero_source=zero_source,
        mesh_admissible=certificate.satisfied,
        first_violation=certificate.first_violation,
        plateau_factor=plateau_factor,
        max_first_window=max_first,
        max_second_window=max_second,
        growth_ratio=growth_ratio,
        plateau_ok=plateau_ok,
        h1_nonincreasing=h1_noninc,
        l2_nonincreasing=l2_noninc,
        residual_max=float(np.max(state.residual[:levels])),
        passed=passed,
        times=mesh.nodes.copy(),
        h1_seminorm=h1,
        l2_norm=l2,
    )
    if out_dir is not None:
        out_path = _ensure_out_dir(out_dir)
        params = {
            "alpha": order.alpha,
            "horizon": horizon,
            "num_steps": num_steps,
            "space": space,
            "backend": backend,
            "zero_source": zero_source,
            "mesh_admissible": certificate.satisfied,
        }
        header = reproducibility_header(
            "stability-soak", params, {"plateau_factor": plateau_factor}
        )
        with open(out_path / "soak_trajectory.csv", "w", newline="") as handle:
            for line in header:
                handle.write(line + "\n")
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["level", "t", "l2_norm", "h1_seminorm"])
            for k in range(levels):
                writer.writerow(
                    [k, repr(float(mesh.nodes[k])), repr(float(l2[k])), repr(float(h1[k]))]
                )
        with open(out_path / "soak_summary.json", "w") as handle:
            payload = {"version": __version__, "kind": "stability-soak", **report.to_dict()}
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    logger.info(
        "soak alpha=%g: growth ratio %.6f (plateau %s), residual max %.2e",
        order.alpha, growth_ratio, "ok" if plateau_ok else "FAIL",
        report.residual_max,
    )
    return report
