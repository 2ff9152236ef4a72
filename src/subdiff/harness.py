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

One cell runner (build the mesh, march, take the norms) serves the first
three, and the two table runs share one report body.

All file outputs start with a reproducibility header and contain no
timestamps or timings, so identical runs produce bit-identical files.
Independent cells run in parallel worker threads (the heavy kernels release
the interpreter lock); results are merged in job order, so the worker count
does not change any output.
"""
from __future__ import annotations

import logging
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import benchmarks
from .errors import ValidationError
from .kernel import _check_backend, as_fractional_order
from .meshes import (
    TimeMesh,
    _check_count,
    _check_real,
    _check_reals,
    certify_mesh,
    make_graded_mesh,
    make_graded_then_uniform,
    make_r_variable_mesh,
    make_uniform_mesh,
    read_mesh,
)
from .provenance import record_dict, reproducibility_header, write_csv, write_json
from .solver import (
    Problem,
    discrete_norms,
    manufactured_problem,
    parse_space,
    solve,
)

__all__ = [
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
# The soak's plateau verdict: the late window's H1 maximum may exceed the
# early window's by at most this factor.
_PLATEAU_FACTOR = 1.01


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
            if self.grading is not None:
                grading = _check_real(self.grading, "grading", 1, closed=True)
                object.__setattr__(self, "grading", grading)
            else:  # whether n/alpha >= 1 holds depends on the alpha a build is given
                numerator = _check_real(self.grading_numerator, "grading_numerator", 0)
                object.__setattr__(self, "grading_numerator", numerator)
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
            return self.grading
        return self.grading_numerator / _check_real(alpha, "alpha", 0, 1)

    def build(self, alpha: float | None, horizon: float | None, num_steps: int | None) -> TimeMesh:
        """Construct the mesh.  ``alpha`` may be None where the family does not
        depend on it.  A descriptor needs ``num_steps`` and takes horizon 1.0
        for None; a file mesh must match each one given, and None takes its own."""
        if self.kind != "file":
            if num_steps is None:
                raise ValidationError(f"mesh family {self.label!r} needs a step count")
            if alpha is None and (self.kind == "rvariable" or self.grading_numerator is not None):
                raise ValidationError(f"mesh family {self.label!r} depends on alpha; give one")
            horizon = 1.0 if horizon is None else horizon
        if self.kind == "uniform":
            return make_uniform_mesh(horizon, num_steps)
        if self.kind == "graded":
            return make_graded_mesh(horizon, num_steps, self.grading_at(alpha))
        if self.kind == "rvariable":
            return make_r_variable_mesh(horizon, num_steps, alpha)
        mesh = read_mesh(self.path)
        if num_steps is not None and mesh.num_steps != num_steps:
            raise ValidationError(
                f"mesh file {self.path} has {mesh.num_steps} steps, "
                f"not the {num_steps} asked for"
            )
        if horizon is not None and not math.isclose(
            mesh.horizon, _check_real(horizon, "horizon", 0), rel_tol=1e-9
        ):
            raise ValidationError(
                f"mesh file {self.path} has horizon {mesh.horizon}, "
                f"not the {horizon} asked for"
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
            raise ValidationError(f"bad grading in mesh descriptor {text!r}: {exc}") from exc
    raise ValidationError(
        f"bad mesh descriptor {text!r}; expected uniform, rvariable, "
        "graded:r=<x>, graded:r=<n>/alpha, or file:<path>"
    )


def benchmark_families() -> tuple[MeshFamily, ...]:
    """The graded mesh families of the benchmark tables, in table order."""
    return tuple(
        parse_mesh_descriptor(f"graded:{label}") for label in benchmarks.FAMILY_LABELS
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
    backend: str = "closed"
    workers: int | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        alphas = tuple(as_fractional_order(a).alpha for a in _as_iterable(self.alphas))
        if not alphas:
            raise ValidationError("alphas must be nonempty")
        if len(set(alphas)) != len(alphas):
            raise ValidationError(f"duplicate alphas: {list(alphas)}")
        families = tuple(
            f if isinstance(f, MeshFamily) else parse_mesh_descriptor(str(f))
            for f in _as_iterable(self.families)
        )
        if not families:
            raise ValidationError("families must be nonempty")
        labels = [f.label for f in families]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate mesh families: {labels}")
        step_counts = tuple(
            _check_count(k, "step_counts") for k in _as_iterable(self.step_counts)
        )
        if not step_counts:
            raise ValidationError("step_counts must be nonempty")
        if any(b <= a for a, b in zip(step_counts, step_counts[1:])):
            raise ValidationError(f"step_counts must be strictly increasing: {step_counts}")
        parse_space(self.space)
        horizon = _check_real(self.horizon, "horizon", 0)
        _check_backend(self.backend)
        if self.workers is not None:
            object.__setattr__(self, "workers", _check_count(self.workers, "workers"))
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "step_counts", step_counts)
        object.__setattr__(self, "space", str(self.space))
        object.__setattr__(self, "horizon", horizon)

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


def _as_iterable(value) -> Iterable:
    if isinstance(value, (str, bytes)):
        return (value,)
    try:
        return tuple(value)
    except TypeError:
        return (value,)


def _parse_config_value(key: str, text: str, kind):
    """Convert one config value with ``kind`` (``int``, ``float`` or a parser
    such as :func:`parse_mesh_descriptor`); a value that does not convert is
    refused with ValidationError naming the key."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ValidationError(
            f"config key {key} needs {kind.__name__} values, got {text!r}"
        ) from exc


def _parse_config_list(key: str, text: str, kind) -> tuple:
    """A comma-separated config value: each nonblank item, stripped, is
    converted as by :func:`_parse_config_value`."""
    items = (item.strip() for item in text.split(","))
    return tuple(_parse_config_value(key, item, kind) for item in items if item)


def _parse_bool(key: str, text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"config key {key} must be boolean, got {text!r}")


# The one table of a reproduce-tables run's settings: each config key with the
# flag that gives its default (None: no flag) and the parser of its text.
_CONFIG_KEYS = {
    "alphas": ("alpha", partial(_parse_config_list, kind=float)),
    "backend": ("backend", partial(_parse_config_value, kind=str)),
    "workers": ("workers", partial(_parse_config_value, kind=int)),
    "out_dir": ("out_dir", partial(_parse_config_value, kind=str)),
    "paper_exact": ("paper_exact", _parse_bool),
    "extended": ("extended", _parse_bool),
    "meshes": (None, partial(_parse_config_list, kind=parse_mesh_descriptor)),
    "step_counts": (None, partial(_parse_config_list, kind=int)),
    "space": (None, partial(_parse_config_value, kind=str)),
    "horizon": (None, partial(_parse_config_value, kind=float)),
}
_TABLE_KEYS = ("paper_exact", "extended")
_CUSTOM_KEYS = ("meshes", "step_counts", "space", "horizon")


def _config_settings(flags: Mapping[str, object], config: Mapping[str, str]) -> dict:
    """Each key's parsed config entry, or else its flag's value if not None."""
    unknown = set(config) - set(_CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown experiment keys: {sorted(unknown)}")
    settings = {}
    for key, (flag, parse) in _CONFIG_KEYS.items():
        if key in config:
            settings[key] = parse(key, config[key])
        elif flags.get(flag) is not None:
            settings[key] = flags[flag]
    return settings


def _tables_or_experiment(
    flags: Mapping[str, object], config: Mapping[str, str]
) -> "ExperimentSpec | dict":
    """A reproduce-tables run: the spec of the custom experiment if any custom
    key is set (over every benchmark alpha by default), else the keyword
    arguments of :func:`reproduce_tables`."""
    settings = _config_settings(flags, config)
    if not any(key in settings for key in _CUSTOM_KEYS):
        return settings
    table = [key for key in _TABLE_KEYS if key in settings]
    if table:
        raise ValidationError(
            f"the benchmark-table keys {table} do not mix with the "
            f"custom-experiment keys {list(_CUSTOM_KEYS)}"
        )
    missing = {"meshes", "step_counts"} - set(settings)
    if missing:
        raise ValidationError(f"experiment spec missing keys: {sorted(missing)}")
    settings = {"alphas": benchmarks.ALPHAS, **settings}
    return ExperimentSpec(families=settings.pop("meshes"), **settings)


def parse_config_file(path: "str | Path") -> dict[str, str]:
    """Read a key = value experiment file; '#' starts a comment; a repeated key is refused."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    entries: dict[str, tuple[str, int]] = {}  # key -> (value, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep or not key:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key in entries:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r} (line {entries[key][1]})")
        entries[key] = value.strip(), lineno
    return {key: value for key, (value, _) in entries.items()}


# cells and verdicts are written with their family label under this key
_FAMILY_KEY = {"family_label": "family"}


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
    """Assembled convergence results: cells and verdicts, with the observed
    orders derived from the cells."""

    spec: ExperimentSpec
    cells: tuple[CellResult, ...]
    verdicts: tuple[Verdict, ...] = ()

    @cached_property
    def _cells_by_key(self) -> dict:
        return {(c.alpha, c.family_label, c.num_steps): c for c in self.cells}

    @cached_property
    def orders(self) -> dict:
        """Observed orders keyed by (alpha, family label); empty where the spec
        has one step count or an error is not positive."""
        orders = {}
        for alpha in self.spec.alphas:
            for family in self.spec.families:
                errors = self.max_errors(alpha, family.label)
                if errors.size >= 2 and np.all(errors > 0.0):
                    orders[(alpha, family.label)] = compute_orders(errors, self.spec.step_counts)
                else:
                    orders[(alpha, family.label)] = np.zeros(0)
        return orders

    @property
    def passed(self) -> bool:
        """Whether every verdict passed (True without verdicts)."""
        return all(v.passed for v in self.verdicts)

    def cell(self, alpha: float, family_label: str, num_steps: int) -> CellResult:
        """The cell at exactly one of the spec's alphas, families and step counts."""
        alpha = _check_real(alpha, "alpha", 0, 1)
        key = (alpha, family_label, _check_count(num_steps, "num_steps"))
        cell = self._cells_by_key.get(key)
        if cell is None:
            raise ValidationError(
                f"no cell for alpha={alpha!r}, family={family_label!r}, K={num_steps}"
            )
        return cell

    def max_errors(self, alpha: float, family_label: str) -> np.ndarray:
        return np.array(
            [
                self.cell(alpha, family_label, k).max_l2_error
                for k in self.spec.step_counts
            ]
        )

    def observed_orders(self, alpha: float, family_label: str) -> np.ndarray:
        orders = self.orders.get((_check_real(alpha, "alpha", 0, 1), family_label))
        if orders is None:
            raise ValidationError(f"no orders for alpha={alpha!r}, family={family_label!r}")
        return orders

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.parameters(),
            "cells": [record_dict(c, omit=("l2_error",), rename=_FAMILY_KEY) for c in self.cells],
            "orders": {
                f"alpha={alpha!r}|{label}": orders.tolist()
                for (alpha, label), orders in self.orders.items()
            },
            "verdicts": [record_dict(v, rename=_FAMILY_KEY) for v in self.verdicts],
            "passed": self.passed,
        }


def compute_orders(errors: Sequence[float], step_counts: Sequence[int]) -> np.ndarray:
    """Observed orders between consecutive step counts.

    ``order_i = ln(e_{i-1}/e_i) / ln(K_i/K_{i-1})``; a constant error
    sequence gives all zeros.
    """
    e = _check_reals(errors, "errors")
    k = _check_reals(step_counts, "step_counts")
    if e.ndim != 1 or k.ndim != 1 or e.size != k.size:
        raise ValidationError(
            f"errors and step counts need equal 1-d shapes, got {e.shape} vs {k.shape}"
        )
    if e.size < 2:
        raise ValidationError("need at least two error values to compute an order")
    if np.any(e <= 0.0):
        raise ValidationError("errors must be positive")
    if np.any(k <= 0.0) or np.any(np.diff(k) <= 0.0):
        raise ValidationError("step_counts must be positive and strictly increasing")
    return np.log(e[:-1] / e[1:]) / np.log(k[1:] / k[:-1])


def _resolve_workers(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from exc
    return _check_count(value, WORKERS_ENV_VAR)


def _run_cell(
    spec: ExperimentSpec,
    problem: Problem,
    family: MeshFamily,
    mesh: TimeMesh,
) -> CellResult:
    alpha = problem.order.alpha
    num_steps = mesh.num_steps
    started = time.perf_counter()
    state = solve(problem, mesh, backend=spec.backend)
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


def _execute_cells(spec: ExperimentSpec) -> tuple[list[TimeMesh], list[CellResult]]:
    """Run all cells of the spec; return their meshes and results, in cell
    order.  Every mesh is built before the first cell marches, so a family
    that cannot build one fails the run with no cell marched; completed
    cells are flushed if a march fails."""
    space = parse_space(spec.space)
    problems = {alpha: manufactured_problem(alpha, space) for alpha in spec.alphas}
    jobs = [
        (problems[alpha], family, family.build(alpha=alpha, horizon=spec.horizon, num_steps=k))
        for alpha in spec.alphas
        for family in spec.families
        for k in spec.step_counts
    ]
    workers = _resolve_workers(spec.workers)
    completed: list[CellResult] = []
    try:
        if workers == 1:
            for job in jobs:
                completed.append(_run_cell(spec, *job))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = pool.map(lambda job: _run_cell(spec, *job), jobs)
                for cell in results:
                    completed.append(cell)
    except Exception as exc:
        if spec.out_dir is not None and completed:
            _flush_partial(spec, completed, exc)
        raise
    return [mesh for _, _, mesh in jobs], completed


def _flush_partial(spec: ExperimentSpec, cells: list[CellResult], exc: Exception) -> None:
    path = Path(spec.out_dir) / "partial_cells.csv"
    header = reproducibility_header(
        "partial-convergence-cells",
        spec.parameters(),
        extra=[f"# incomplete = {type(exc).__name__}"],
    )
    records = [
        record_dict(c, omit=("l2_error", "residual_max"), rename=_FAMILY_KEY) for c in cells
    ]
    write_csv(path, header, list(records[0]), (r.values() for r in records))
    logger.warning("experiment aborted; %d finished cells flushed to %s", len(cells), path)


def _alpha_slug(alpha: float) -> str:
    return repr(alpha).replace(".", "p")


def _family_slug(label: str) -> str:
    return label.replace("=", "").replace("/", "-").replace(":", "-")


def _table_rows(report: ErrorReport, alpha: float) -> list[list]:
    """One alpha's table in the benchmark layout: the column row, then per
    family an error row and an order row (aligned to the right), plus
    reference, deviation and verdict rows when the report carries verdicts.

    Errors and references stay floats; the other entries are text.
    """
    spec = report.spec
    verdict_by = {(v.alpha, v.family_label, v.num_steps): v for v in report.verdicts}
    rows = [["family", "metric", *(f"K={k}" for k in spec.step_counts)]]
    for family in spec.families:
        errors = report.max_errors(alpha, family.label)
        orders = report.observed_orders(alpha, family.label)
        rows.append([family.label, "error", *errors])
        rows.append([family.label, "order", "", *(f"{o:.4f}" for o in orders)])
        if report.verdicts:
            refs = [verdict_by[(alpha, family.label, k)] for k in spec.step_counts]
            rows.append([family.label, "reference", *(v.reference for v in refs)])
            rows.append([family.label, "rel_deviation", *(f"{v.rel_dev:.2e}" for v in refs)])
            rows.append([family.label, "verdict", *("pass" if v.passed else "FAIL" for v in refs)])
    return rows


def _write_alpha_table(path: Path, report: ErrorReport, alpha: float, kind: str) -> None:
    """One CSV per alpha of :func:`_table_rows`, with the tolerance ladder in
    its header when the report carries verdicts."""
    ladder = benchmarks.TOLERANCE_LADDER if report.verdicts else None
    header = reproducibility_header(kind, {"alpha": alpha, **report.spec.parameters()}, ladder)
    columns, *rows = _table_rows(report, alpha)
    write_csv(path, header, columns, rows)


def _write_report_files(report: ErrorReport, kind: str) -> None:
    spec = report.spec
    if spec.out_dir is None:
        return
    out_dir = Path(spec.out_dir)
    for alpha in spec.alphas:
        path = out_dir / f"{kind}_alpha{_alpha_slug(alpha)}.csv"
        _write_alpha_table(path, report, alpha, kind)
    write_json(out_dir / f"{kind}_summary.json", kind, report.to_dict())
    logger.info("wrote %s outputs to %s", kind, out_dir)


def _verdict(cell: CellResult) -> Verdict:
    """Compare one cell against its trusted reference under the tolerance ladder."""
    reference = float(
        benchmarks.reference_errors(cell.alpha, cell.family_label, (cell.num_steps,))[0]
    )
    rel_tol = benchmarks.tolerance_ladder(reference)
    rel_dev = abs(cell.max_l2_error - reference) / reference
    return Verdict(
        alpha=cell.alpha,
        family_label=cell.family_label,
        num_steps=cell.num_steps,
        value=cell.max_l2_error,
        reference=reference,
        rel_dev=rel_dev,
        rel_tol=rel_tol,
        passed=bool(rel_dev <= rel_tol),
    )


def _run_report(spec: ExperimentSpec, kind: str, with_verdicts: bool) -> ErrorReport:
    """Run the spec's cells and assemble orders, plus reference verdicts when
    asked; write the ``kind`` files when the spec names an output directory."""
    if with_verdicts:  # a cell without reference data fails before any cell marches
        for alpha in spec.alphas:
            for family in spec.families:
                benchmarks.reference_errors(alpha, family.label, spec.step_counts)
    _, cells = _execute_cells(spec)
    verdicts = tuple(_verdict(cell) for cell in cells) if with_verdicts else ()
    report = ErrorReport(spec=spec, cells=tuple(cells), verdicts=verdicts)
    _write_report_files(report, kind)
    if verdicts:
        logger.info(
            "table reproduction: %d/%d cells within tolerance",
            sum(v.passed for v in verdicts),
            len(verdicts),
        )
    return report


def run_convergence(spec: ExperimentSpec) -> ErrorReport:
    """Run every (alpha, family, K) cell of the spec and assemble the report.

    Emits one CSV per alpha in the benchmark table layout plus a JSON
    summary when the spec names an output directory.
    """
    return _run_report(spec, "convergence", with_verdicts=False)


def reproduce_tables(
    alphas: Sequence[float] | None = None,
    extended: bool = False,
    paper_exact: bool = False,
    backend: str = "closed",
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
    intervals = (
        benchmarks.PAPER_EXACT_INTERVALS if paper_exact else benchmarks.DESK_INTERVALS
    )
    spec = ExperimentSpec(
        alphas=benchmarks.ALPHAS if alphas is None else tuple(alphas),
        families=benchmark_families(),
        step_counts=benchmarks.STEP_COUNTS if extended else benchmarks.CI_STEP_COUNTS,
        space=f"d1:{intervals}",
        backend=backend,
        workers=workers,
        out_dir=None if out_dir is None else str(out_dir),
    )
    return _run_report(spec, "table", with_verdicts=paper_exact)


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
    (t_k, step size, error).  The cells run as a one-alpha, one-K
    :class:`ExperimentSpec` (on the SUBDIFF_WORKERS pool); one CSV per family
    is written when an output directory is given.
    """
    order = as_fractional_order(order)
    spec = ExperimentSpec(
        alphas=(order.alpha,),
        families=families,
        step_counts=(num_steps,),
        space=space,
        horizon=horizon,
        backend=backend,
    )
    num_steps = spec.step_counts[0]
    curves = []
    for mesh, cell in zip(*_execute_cells(spec)):
        curves.append(
            PointwiseCurve(
                family_label=cell.family_label,
                num_steps=num_steps,
                times=mesh.nodes[1:].copy(),
                steps=mesh.steps.copy(),
                l2_error=cell.l2_error[1:].copy(),
                max_l2_error=cell.max_l2_error,
                argmax_level=cell.argmax_level,
            )
        )
    if out_dir is not None:
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
            write_csv(
                Path(out_dir) / name,
                header,
                ["level", "t", "step", "l2_error"],
                zip(range(1, num_steps + 1), curve.times, curve.steps, curve.l2_error),
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
        return record_dict(self, omit=("times", "h1_seminorm", "l2_norm"))


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
    out_dir: "str | Path | None" = None,
) -> SoakReport:
    """Long-horizon H1 stability soak with the plateau verdict.

    The default mesh resolves the initial layer with a graded head on
    [0, split_time] and continues with a uniform tail to the horizon.  The
    initial field is the first Dirichlet mode; unless ``zero_source``, the
    forcing is that mode scaled by min(t, 1) (bounded variation in time).
    The plateau verdict compares the H1 seminorm maxima of the level windows
    [1, K/2] and [K/2, K]: the later one may exceed the earlier by at most
    the factor ``_PLATEAU_FACTOR``.  With zero source the trajectory must
    additionally be nonincreasing.

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
    problem = Problem(
        order=order,
        space=space_obj,
        source=() if zero_source else [(lambda t: min(t, 1.0), mode)],
        initial=mode,
        name="stability-soak",
    )
    norms = discrete_norms(solve(problem, mesh, backend=backend))
    levels = num_steps + 1
    h1 = norms.h1_seminorm
    l2 = norms.l2_norm
    half = max(num_steps // 2, 1)
    max_first = float(np.max(h1[1 : half + 1]))
    max_second = float(np.max(h1[half:]))
    growth_ratio = max_second / max(max_first, 1e-300)
    plateau_ok = bool(max_second <= _PLATEAU_FACTOR * max_first)
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
        plateau_factor=_PLATEAU_FACTOR,
        max_first_window=max_first,
        max_second_window=max_second,
        growth_ratio=growth_ratio,
        plateau_ok=plateau_ok,
        h1_nonincreasing=h1_noninc,
        l2_nonincreasing=l2_noninc,
        residual_max=norms.residual_max,
        passed=passed,
        times=mesh.nodes.copy(),
        h1_seminorm=h1,
        l2_norm=l2,
    )
    if out_dir is not None:
        out_path = Path(out_dir)
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
            "stability-soak", params, {"plateau_factor": _PLATEAU_FACTOR}
        )
        write_csv(
            out_path / "soak_trajectory.csv",
            header,
            ["level", "t", "l2_norm", "h1_seminorm"],
            zip(range(levels), mesh.nodes, l2, h1),
        )
        write_json(out_path / "soak_summary.json", "stability-soak", report.to_dict())
    logger.info(
        "soak alpha=%g: growth ratio %.6f (plateau %s), residual max %.2e",
        order.alpha, growth_ratio, "ok" if plateau_ok else "FAIL",
        report.residual_max,
    )
    return report
