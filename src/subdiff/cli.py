"""Command-line front door for the subdiffusion toolkit.

Subcommands: ``mesh-generate``, ``mesh-certify``, ``analyze``, ``solve``,
``reproduce-tables``, ``soak``.  Exit codes: 0 success, 1 invalid input,
2 numerical failure, 3 a check or tolerance verdict failed.  Errors go to
standard error as ``subdiff: error: <category>: <message>``.

Outputs land under the directory given by ``--out-dir`` and every written
file starts with a reproducibility header (version, parameters,
tolerances).  ``--config`` accepts a key = value experiment file whose
entries override the corresponding flags; the SUBDIFF_WORKERS environment
variable sets the default worker count.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .analysis import (
    build_complementary_kernel,
    check_properties_P,
    check_properties_Q,
    check_psd,
    positivity_certificate,
)
from .benchmarks import ALPHAS
from .errors import NumericalError, SubdiffError, ValidationError
from .harness import (
    WORKERS_ENV_VAR,
    ExperimentSpec,
    MeshFamily,
    parse_config_file,
    parse_mesh_descriptor,
    reproduce_tables,
    run_convergence,
    run_stability_soak,
)
from .kernel import build_kernel_table, dump_kernel_csv
from .meshes import certify_mesh, read_mesh, write_mesh
from .provenance import reproducibility_header
from .solver import (
    Problem,
    discrete_norms,
    manufactured_problem,
    parse_space,
    solve,
    write_diagnostics_csv,
    write_snapshot_csv,
)

__all__ = ["main", "dispatch", "build_parser"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_VERDICT = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports problems through the package errors.

    Unknown flags and malformed values become ValidationError (exit 1 with
    the machine-parsable stderr prefix) instead of argparse's bare exit.
    """

    def error(self, message: str) -> None:
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subdiff",
        description=(
            "Nonuniform-mesh subdiffusion toolkit: mesh admissibility "
            "certification, discrete fractional-operator diagnostics, "
            "initial-boundary-value solves, and benchmark reproduction."
        ),
    )
    parser.add_argument("--version", action="version", version=f"subdiff {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    mesh_common = argparse.ArgumentParser(add_help=False)
    mesh_common.add_argument(
        "--mesh", metavar="DESC",
        help="mesh descriptor: uniform, rvariable, graded:r=<x>, "
             "graded:r=<n>/alpha, file:<path>",
    )
    mesh_common.add_argument("--file", metavar="PATH", help="mesh file (same as --mesh file:PATH)")
    mesh_common.add_argument("--K", type=int, metavar="N", help="number of time steps")
    mesh_common.add_argument("--horizon", type=float, default=1.0, metavar="T",
                             help="final time (default 1.0)")

    p = commands.add_parser(
        "mesh-generate", parents=[mesh_common],
        help="build a time mesh and write it to a file",
        description="Build a time mesh from a descriptor and write it as a text file.",
    )
    p.add_argument("--alpha", type=float, help="fractional order (needed by alpha-dependent meshes)")
    p.add_argument("--out", required=True, metavar="PATH", help="output mesh file")
    p.set_defaults(func=_cmd_mesh_generate)

    p = commands.add_parser(
        "mesh-certify", parents=[mesh_common],
        help="check the step-ratio admissibility conditions",
        description=(
            "Certify a mesh against the step-ratio admissibility conditions; "
            "prints a JSON report.  Exit 0 when satisfied, 3 when violated."
        ),
    )
    p.add_argument("--alpha", type=float, help="fractional order (needed by alpha-dependent meshes)")
    p.add_argument("--out-dir", metavar="DIR", help="also write certificate.json under DIR")
    p.set_defaults(func=_cmd_mesh_certify)

    p = commands.add_parser(
        "analyze", parents=[mesh_common],
        help="operator diagnostics: sign/monotonicity checks, PSD certificate",
        description=(
            "Build the discrete fractional-derivative coefficients on a mesh "
            "and run the structure checks: coefficient sign/monotonicity "
            "properties, history-row integral bounds, eigenvalue positivity "
            "of the symmetrized operator, complementary-kernel nonnegativity. "
            "Exit 3 when any check fails."
        ),
    )
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0,1)")
    p.add_argument("--levels", type=int, metavar="N",
                   help="number of leading levels to analyze (default min(K, 128))")
    p.add_argument("--backend", choices=("quadrature", "closed"), default="quadrature",
                   help="coefficient construction route (default quadrature)")
    p.add_argument("--out-dir", metavar="DIR", help="write analysis.json and kernel.csv under DIR")
    p.set_defaults(func=_cmd_analyze)

    p = commands.add_parser(
        "solve", parents=[mesh_common],
        help="run one initial-boundary-value solve",
        description=(
            "March the scheme for one problem on one mesh.  The default "
            "problem is the manufactured single-mode solution with known "
            "exact field; 'decay' starts from the first mode with zero "
            "source."
        ),
    )
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0,1)")
    p.add_argument("--space", default="d1:4096", metavar="KIND:N",
                   help="spatial discretization d1:<intervals> or p2:<modes> (default d1:4096)")
    p.add_argument("--problem", choices=("manufactured", "decay"), default="manufactured",
                   help="problem preset (default manufactured)")
    p.add_argument("--backend", choices=("quadrature", "closed"), default="quadrature",
                   help="coefficient construction route (default quadrature)")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write snapshot.csv, diagnostics.csv, summary.json under DIR")
    p.set_defaults(func=_cmd_solve)

    p = commands.add_parser(
        "reproduce-tables",
        help="rerun the benchmark convergence tables",
        description=(
            "Reproduce the benchmark error tables over alpha in {0.3,0.5,0.7} "
            "and the four mesh families.  --paper-exact uses the reference "
            "spatial grid and issues per-cell verdicts under the tolerance "
            "ladder (exit 3 if any cell misses).  A --config file overrides "
            "flags; a config carrying meshes/step_counts runs that custom "
            "experiment instead (no reference verdicts)."
        ),
    )
    p.add_argument("--alpha", type=float, action="append", metavar="A",
                   help="restrict to this alpha (repeatable; default all)")
    p.add_argument("--paper-exact", action="store_true",
                   help="reference spatial grid h=2*pi/10000 plus cell verdicts")
    p.add_argument("--extended", action="store_true",
                   help="include the {320,480,640} step counts")
    p.add_argument("--backend", choices=("quadrature", "closed"), default="quadrature",
                   help="coefficient construction route (default quadrature)")
    p.add_argument("--workers", type=int, metavar="N",
                   help=f"parallel cells (default ${WORKERS_ENV_VAR} or 1)")
    p.add_argument("--config", metavar="PATH", help="experiment spec file (key = value)")
    p.add_argument("--out-dir", metavar="DIR", help="write per-alpha CSV tables and JSON summary")
    p.set_defaults(func=_cmd_reproduce_tables)

    p = commands.add_parser(
        "soak",
        help="long-horizon H1 stability soak",
        description=(
            "March a bounded-variation forcing over a long horizon on a "
            "graded-then-uniform mesh and apply the plateau verdict to the "
            "H1 trajectory.  Exit 3 when the verdict fails."
        ),
    )
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0,1)")
    p.add_argument("--horizon", type=float, default=50.0, help="final time (default 50)")
    p.add_argument("--K", type=int, default=500, help="total steps (default 500)")
    p.add_argument("--grading", type=float, default=2.0,
                   help="grading exponent of the initial layer (default 2)")
    p.add_argument("--split-time", type=float, default=1.0,
                   help="end of the graded head (default 1)")
    p.add_argument("--split-steps", type=int, default=100,
                   help="steps in the graded head (default 100)")
    p.add_argument("--space", default="d1:512", metavar="KIND:N",
                   help="spatial discretization (default d1:512)")
    p.add_argument("--zero-source", action="store_true",
                   help="decay run: zero forcing, monotone norms expected")
    p.add_argument("--mesh-file", metavar="PATH",
                   help="march on this stored mesh instead of the built one")
    p.add_argument("--plateau-factor", type=float, default=1.01,
                   help="allowed late-window growth factor (default 1.01)")
    p.add_argument("--backend", choices=("quadrature", "closed"), default="closed",
                   help="coefficient construction route (default closed)")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write soak_trajectory.csv and soak_summary.json under DIR")
    p.set_defaults(func=_cmd_soak)

    return parser


def _mesh_family_from_args(args) -> MeshFamily:
    if getattr(args, "file", None):
        if getattr(args, "mesh", None):
            raise ValidationError("give either --mesh or --file, not both")
        return MeshFamily(kind="file", path=args.file)
    if not getattr(args, "mesh", None):
        raise ValidationError("a mesh is required: --mesh DESC or --file PATH")
    return parse_mesh_descriptor(args.mesh)


def _family_needs_alpha(family: MeshFamily) -> bool:
    return family.kind == "rvariable" or family.grading_numerator is not None


def _mesh_from_args(args):
    family = _mesh_family_from_args(args)
    if family.kind == "file":
        mesh = read_mesh(family.path)
        return family, mesh
    if args.K is None:
        raise ValidationError("--K is required when building a mesh from a descriptor")
    alpha = getattr(args, "alpha", None)
    if _family_needs_alpha(family):
        if alpha is None:
            raise ValidationError(
                f"mesh family {family.label!r} depends on alpha; pass --alpha"
            )
    elif alpha is None:
        alpha = 0.5  # unused by alpha-independent families
    mesh = family.build(alpha=alpha, horizon=args.horizon, num_steps=args.K)
    return family, mesh


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_mesh_generate(args) -> int:
    family, mesh = _mesh_from_args(args)
    certificate = certify_mesh(mesh)
    comments = {
        "generator": f"subdiff {__version__}",
        "descriptor": family.label,
        "admissible": certificate.satisfied,
    }
    if getattr(args, "alpha", None) is not None:
        comments["alpha"] = args.alpha
    write_mesh(mesh, args.out, comments=comments)
    print(
        f"wrote {args.out}: {mesh.num_steps} steps to horizon {mesh.horizon:g}, "
        f"admissible={str(certificate.satisfied).lower()}"
    )
    return EXIT_OK


def _cmd_mesh_certify(args) -> int:
    family, mesh = _mesh_from_args(args)
    report = certify_mesh(mesh)
    payload = {
        "version": __version__,
        "kind": "mesh-certificate",
        "mesh": family.label,
        "num_steps": mesh.num_steps,
        "horizon": mesh.horizon,
        **report.to_dict(),
    }
    _print_json(payload)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "certificate.json", "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK if report.satisfied else EXIT_VERDICT


def _cmd_analyze(args) -> int:
    family, mesh = _mesh_from_args(args)
    n = args.levels if args.levels is not None else min(mesh.num_steps, 128)
    table = build_kernel_table(mesh, args.alpha, n=n, backend=args.backend)
    psd = check_psd(table)
    p_violations = check_properties_P(table)
    q_violations = check_properties_Q(table)
    complementary = build_complementary_kernel(table)
    matrix = table.matrix()
    product = complementary @ matrix
    # Every lower-triangle entry of P*M must be 1 (all-ones target).
    lower = np.tril_indices(n)
    identity_residual = float(np.max(np.abs(product[lower] - 1.0)))
    min_entry = float(np.min(complementary[lower]))
    g = positivity_certificate(table)
    checks_ok = (
        psd.passed
        and not p_violations
        and not q_violations
        and min_entry >= -1e-13
        and identity_residual <= 1e-11
        and bool(np.all(g > 0.0))
    )
    payload = {
        "version": __version__,
        "kind": "operator-analysis",
        "mesh": family.label,
        "alpha": args.alpha,
        "levels": n,
        "backend": args.backend,
        "psd": psd.to_dict(),
        "sign_monotonicity_violations": len(p_violations),
        "integral_bound_violations": len(q_violations),
        "complementary_min_entry": min_entry,
        "complementary_identity_residual": identity_residual,
        "diagonal_certificate_min": float(np.min(g)),
        "passed": checks_ok,
    }
    _print_json(payload)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "analysis.json", "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        header = reproducibility_header(
            "kernel-coefficients",
            {"mesh": family.label, "alpha": args.alpha, "levels": n, "backend": args.backend},
        )
        dump_kernel_csv(table, out_dir / "kernel.csv", header_lines=header)
    return EXIT_OK if checks_ok else EXIT_VERDICT


def _build_problem(args, space) -> Problem:
    if args.problem == "manufactured":
        return manufactured_problem(args.alpha, space)
    return Problem(order=args.alpha, space=space, source=None, initial=space.first_mode(),
                   name="decay")


def _cmd_solve(args) -> int:
    family, mesh = _mesh_from_args(args)
    space = parse_space(args.space)
    problem = _build_problem(args, space)
    state = solve(problem, mesh, backend=args.backend)
    norms = discrete_norms(state)
    if norms.max_l2_error is not None:
        t_at = float(mesh.nodes[norms.argmax_level])
        print(
            f"max_l2_error = {norms.max_l2_error:.6e} "
            f"(level {norms.argmax_level}, t = {t_at:.6g})"
        )
    print(f"h1_seminorm_final = {state.h1_seminorm[state.level]:.6e}")
    print(f"residual_max = {norms.residual_max:.3e}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_snapshot_csv(state, str(out_dir / "snapshot.csv"))
        write_diagnostics_csv(state, str(out_dir / "diagnostics.csv"))
        payload = {
            "version": __version__,
            "kind": "solve-summary",
            "alpha": args.alpha,
            "mesh": family.label,
            "num_steps": mesh.num_steps,
            "horizon": mesh.horizon,
            "space": space.descriptor,
            "problem": problem.name,
            "backend": args.backend,
            "max_l2_error": norms.max_l2_error,
            "argmax_level": norms.argmax_level,
            "h1_seminorm_final": float(state.h1_seminorm[state.level]),
            "residual_max": norms.residual_max,
        }
        with open(out_dir / "summary.json", "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK


def _parse_bool(text: str, key: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"config key {key} must be boolean, got {text!r}")


def _print_report_tables(report) -> None:
    spec = report.spec
    for alpha in spec.alphas:
        print(f"alpha = {alpha:g}  (space {spec.space}, backend {spec.backend})")
        width = 13
        head = "family".ljust(12) + "metric".ljust(10)
        head += "".join(f"K={k}".rjust(width) for k in spec.step_counts)
        print(head)
        for family in spec.families:
            errors = report.max_errors(alpha, family.label)
            orders = report.observed_orders(alpha, family.label)
            row = family.label.ljust(12) + "error".ljust(10)
            row += "".join(f"{e:.4e}".rjust(width) for e in errors)
            print(row)
            row = family.label.ljust(12) + "order".ljust(10) + " " * width
            row += "".join(f"{o:.4f}".rjust(width) for o in orders)
            print(row)
        print()
    if report.verdicts:
        failed = [v for v in report.verdicts if not v.passed]
        print(
            f"verdicts: {len(report.verdicts) - len(failed)}/{len(report.verdicts)} "
            f"cells within the tolerance ladder"
        )
        for v in failed:
            print(
                f"  MISS alpha={v.alpha:g} {v.family_label} K={v.num_steps}: "
                f"got {v.value:.4e}, reference {v.reference:.4e} "
                f"(dev {v.rel_dev:.2%} > tol {v.rel_tol:.0%})"
            )


def _cmd_reproduce_tables(args) -> int:
    config = parse_config_file(args.config) if args.config else {}
    custom_keys = {"meshes", "step_counts", "space", "horizon"}
    if custom_keys & set(config):
        mapping = dict(config)
        mapping.setdefault(
            "alphas", ",".join(f"{a:g}" for a in (args.alpha or ALPHAS))
        )
        mapping.setdefault("backend", args.backend)
        if args.workers is not None:
            mapping.setdefault("workers", str(args.workers))
        if args.out_dir is not None:
            mapping.setdefault("out_dir", args.out_dir)
        spec = ExperimentSpec.from_mapping(mapping)
        report = run_convergence(spec)
        _print_report_tables(report)
        return EXIT_OK
    alphas = args.alpha
    if "alphas" in config:
        alphas = [float(v) for v in config["alphas"].split(",") if v.strip()]
    paper_exact = args.paper_exact
    if "paper_exact" in config:
        paper_exact = _parse_bool(config["paper_exact"], "paper_exact")
    extended = args.extended
    if "extended" in config:
        extended = _parse_bool(config["extended"], "extended")
    backend = config.get("backend", args.backend)
    workers = args.workers
    if "workers" in config:
        workers = int(config["workers"])
    out_dir = config.get("out_dir", args.out_dir)
    report = reproduce_tables(
        alphas=alphas,
        extended=extended,
        paper_exact=paper_exact,
        backend=backend,
        workers=workers,
        out_dir=out_dir,
    )
    _print_report_tables(report)
    return EXIT_OK if report.passed else EXIT_VERDICT


def _cmd_soak(args) -> int:
    mesh = read_mesh(args.mesh_file) if args.mesh_file else None
    report = run_stability_soak(
        args.alpha,
        horizon=args.horizon,
        num_steps=args.K,
        grading=args.grading,
        split_time=args.split_time,
        split_steps=args.split_steps,
        space=args.space,
        zero_source=args.zero_source,
        backend=args.backend,
        mesh=mesh,
        plateau_factor=args.plateau_factor,
        out_dir=args.out_dir,
    )
    _print_json({"version": __version__, "kind": "stability-soak", **report.to_dict()})
    return EXIT_OK if report.passed else EXIT_VERDICT


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run the selected command, map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        level = logging.WARNING
        if args.verbose == 1:
            level = logging.INFO
        elif args.verbose >= 2:
            level = logging.DEBUG
        logging.basicConfig(
            stream=sys.stderr, level=level, format="subdiff: %(levelname)s: %(message)s"
        )
        logging.getLogger("subdiff").setLevel(level)
        return args.func(args)
    except SystemExit as exc:  # --help/--version paths
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK
    except ValidationError as exc:
        print(f"subdiff: error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"subdiff: error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SubdiffError as exc:
        print(f"subdiff: error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"subdiff: error: io: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
