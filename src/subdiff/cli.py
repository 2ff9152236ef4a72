"""Command-line front door for the subdiffusion toolkit.

Subcommands: ``mesh-generate``, ``mesh-certify``, ``analyze``, ``solve``,
``reproduce-tables``, ``soak``.  Exit codes: 0 success, 1 invalid input,
2 numerical failure, 3 a check or tolerance verdict failed.  Errors go to
standard error as ``subdiff: error: <category>: <message>``.

Outputs land under the directory given by ``--out-dir`` and every written
file starts with a reproducibility header (version, parameters,
tolerances).  ``reproduce-tables --config`` reads a key = value experiment
file by one rule: the flags are defaults and a config entry overrides its
flag; a custom-experiment key runs that experiment in place of the
benchmark tables, and the table-only settings (``--paper-exact``,
``--extended`` or their keys) are refused with it.  The SUBDIFF_WORKERS
environment variable sets the default worker count.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import logging
import sys
from pathlib import Path
from typing import Sequence

from ._version import __version__
from .analysis import (  # only analyze_operator is called; perfbench/spans.py wraps the rest
    analyze_operator,
    build_complementary_kernel,
    check_properties_P,
    check_properties_Q,
    check_psd,
    positivity_certificate,
)
from .errors import SubdiffError, ValidationError
from .harness import (
    WORKERS_ENV_VAR,
    ExperimentSpec,
    MeshFamily,
    _table_rows,
    _tables_or_experiment,
    parse_config_file,
    parse_mesh_descriptor,
    reproduce_tables,
    run_convergence,
    run_stability_soak,
)
from .kernel import BACKENDS, build_kernel_table, dump_kernel_csv
from .meshes import (
    certify_mesh,
    read_mesh,  # not called here; perfbench/spans.py wraps this name in this module
    write_mesh,
)
from .provenance import json_text, record_dict, reproducibility_header, write_json
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
    mesh_common.add_argument("--K", type=int, metavar="N",
                             help="number of time steps (a mesh file's by default; "
                                  "any other is refused)")
    mesh_common.add_argument("--horizon", type=float, metavar="T",
                             help="final time (default 1.0, or a mesh file's; "
                                  "a file's other is refused)")

    backend_common = argparse.ArgumentParser(add_help=False)
    backend_common.add_argument(
        "--backend", choices=BACKENDS, default="closed",
        help="coefficient route: closed forms (default) or the adaptive-quadrature "
             "oracle, several times slower",
    )

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
        "analyze", parents=[mesh_common, backend_common],
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
    p.add_argument("--out-dir", metavar="DIR", help="write analysis.json and kernel.csv under DIR")
    p.set_defaults(func=_cmd_analyze)

    p = commands.add_parser(
        "solve", parents=[mesh_common, backend_common],
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
    p.add_argument("--out-dir", metavar="DIR",
                   help="write snapshot.csv, diagnostics.csv, summary.json under DIR")
    p.set_defaults(func=_cmd_solve)

    p = commands.add_parser(
        "reproduce-tables", parents=[backend_common],
        help="rerun the benchmark convergence tables",
        description=(
            "Reproduce the benchmark error tables over alpha in {0.3,0.5,0.7} "
            "and the four mesh families.  --paper-exact uses the reference "
            "spatial grid and issues per-cell verdicts under the tolerance "
            "ladder (exit 3 if any cell misses).  A --config file (keys alphas, "
            "backend, workers, out_dir, paper_exact, extended) overrides the "
            "flag of each key it sets.  A config carrying meshes, step_counts, "
            "space or horizon runs that custom experiment instead (no reference "
            "verdicts), and is refused together with --paper-exact, --extended "
            "or their keys.  Other keys are refused."
        ),
    )
    p.add_argument("--alpha", type=float, action="append", metavar="A",
                   help="restrict to this alpha (repeatable; default all)")
    # None when left out: only a given flag counts against a custom config
    p.add_argument("--paper-exact", action="store_true", default=None,
                   help="reference spatial grid h=2*pi/10000 plus cell verdicts")
    p.add_argument("--extended", action="store_true", default=None,
                   help="include the {320,480,640} step counts")
    p.add_argument("--workers", type=int, metavar="N",
                   help=f"parallel cells (default ${WORKERS_ENV_VAR} or 1)")
    p.add_argument("--config", metavar="PATH", help="experiment spec file (key = value)")
    p.add_argument("--out-dir", metavar="DIR", help="write per-alpha CSV tables and JSON summary")
    p.set_defaults(func=_cmd_reproduce_tables)

    p = commands.add_parser(
        "soak", parents=[backend_common],
        help="long-horizon H1 stability soak",
        description=(
            "March a bounded-variation forcing over a long horizon on a "
            "graded-then-uniform mesh and apply the plateau verdict to the "
            "H1 trajectory.  Exit 3 when the verdict fails."
        ),
    )
    # the soak defaults are run_stability_soak's own
    soak = {k: v.default for k, v in inspect.signature(run_stability_soak).parameters.items()}
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0,1)")
    p.add_argument("--horizon", type=float,
                   help=f"final time (default {soak['horizon']}, or a mesh file's; "
                        f"a file's other is refused)")
    p.add_argument("--K", type=int,
                   help=f"total steps (default {soak['num_steps']}, or a mesh file's; "
                        f"any other is refused)")
    p.add_argument("--grading", type=float, default=soak["grading"],
                   help="grading exponent of the initial layer (default %(default)s)")
    p.add_argument("--split-time", type=float, default=soak["split_time"],
                   help="end of the graded head (default %(default)s)")
    p.add_argument("--split-steps", type=int, default=soak["split_steps"],
                   help="steps in the graded head (default %(default)s)")
    p.add_argument("--space", default=soak["space"], metavar="KIND:N",
                   help="spatial discretization (default %(default)s)")
    p.add_argument("--zero-source", action="store_true",
                   help="decay run: zero forcing, monotone norms expected")
    p.add_argument("--mesh-file", metavar="PATH",
                   help="march on this stored mesh instead of the built one; "
                        "the grading and split flags are then unused")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write soak_trajectory.csv and soak_summary.json under DIR")
    p.set_defaults(func=_cmd_soak)

    return parser


def _mesh_from_args(args):
    if args.mesh and args.file:
        raise ValidationError("give either --mesh or --file, not both")
    if not (args.mesh or args.file):
        raise ValidationError("a mesh is required: --mesh DESC or --file PATH")
    family = parse_mesh_descriptor(args.mesh or f"file:{args.file}")
    return family, family.build(alpha=args.alpha, horizon=args.horizon, num_steps=args.K)


def _cmd_mesh_generate(args) -> int:
    family, mesh = _mesh_from_args(args)
    certificate = certify_mesh(mesh)
    comments = {
        "generator": f"subdiff {__version__}",
        "descriptor": family.label,
        "admissible": certificate.satisfied,
    }
    if args.alpha is not None:
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
        "mesh": family.label,
        "num_steps": mesh.num_steps,
        "horizon": mesh.horizon,
        **report.to_dict(),
    }
    print(json_text("mesh-certificate", payload))
    if args.out_dir:
        write_json(Path(args.out_dir) / "certificate.json", "mesh-certificate", payload)
    return EXIT_OK if report.satisfied else EXIT_VERDICT


def _cmd_analyze(args) -> int:
    family, mesh = _mesh_from_args(args)
    n = args.levels if args.levels is not None else min(mesh.num_steps, 128)
    table = build_kernel_table(mesh, args.alpha, n=n, backend=args.backend)
    context = {"mesh": family.label, "alpha": args.alpha, "levels": n, "backend": table.backend}
    payload = {**context, **analyze_operator(table)}
    print(json_text("operator-analysis", payload))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        write_json(out_dir / "analysis.json", "operator-analysis", payload)
        header = reproducibility_header("kernel-coefficients", context)
        dump_kernel_csv(table, out_dir / "kernel.csv", header_lines=header)
    return EXIT_OK if payload["passed"] else EXIT_VERDICT


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
        write_snapshot_csv(state, str(out_dir / "snapshot.csv"))
        write_diagnostics_csv(state, str(out_dir / "diagnostics.csv"))
        payload = {
            "alpha": args.alpha,
            "mesh": family.label,
            "num_steps": mesh.num_steps,
            "horizon": mesh.horizon,
            "space": space.descriptor,
            "problem": problem.name,
            "backend": args.backend,
            "h1_seminorm_final": float(state.h1_seminorm[state.level]),
            **record_dict(norms, omit=("l2_error", "l2_norm", "h1_seminorm")),
        }
        write_json(out_dir / "summary.json", "solve-summary", payload)
    return EXIT_OK


def _print_report_tables(report) -> None:
    """Print the column, error and order rows of each alpha's table, with
    errors as ``.4e``; the files carry the full rows (see ``_table_rows``)."""
    spec = report.spec
    for alpha in spec.alphas:
        print(f"alpha = {alpha!r}  (space {spec.space}, backend {spec.backend})")
        for label, metric, *values in _table_rows(report, alpha):
            if metric in ("metric", "error", "order"):
                cells = (f"{v:.4e}" if isinstance(v, float) else v for v in values)
                print(label.ljust(12) + metric.ljust(10) + "".join(c.rjust(13) for c in cells))
        print()
    if report.verdicts:
        failed = [v for v in report.verdicts if not v.passed]
        print(
            f"verdicts: {len(report.verdicts) - len(failed)}/{len(report.verdicts)} "
            f"cells within the tolerance ladder"
        )
        for v in failed:
            print(
                f"  MISS alpha={v.alpha!r} {v.family_label} K={v.num_steps}: "
                f"got {v.value:.4e}, reference {v.reference:.4e} "
                f"(dev {v.rel_dev:.2%} > tol {v.rel_tol:.0%})"
            )


def _cmd_reproduce_tables(args) -> int:
    config = parse_config_file(args.config) if args.config else {}
    run = _tables_or_experiment(vars(args), config)
    if isinstance(run, ExperimentSpec):
        report = run_convergence(run)
    else:
        report = reproduce_tables(**run)
    _print_report_tables(report)
    return EXIT_OK if report.passed else EXIT_VERDICT


def _cmd_soak(args) -> int:
    # --horizon and --K go on only when given, so run_stability_soak's
    # defaults hold; a mesh file refuses any other than its own
    given = {k: v for k, v in (("horizon", args.horizon), ("num_steps", args.K)) if v is not None}
    mesh = None
    if args.mesh_file:
        family = MeshFamily(kind="file", path=args.mesh_file)
        mesh = family.build(alpha=None, horizon=args.horizon, num_steps=args.K)
    report = run_stability_soak(
        args.alpha,
        **given,
        grading=args.grading,
        split_time=args.split_time,
        split_steps=args.split_steps,
        space=args.space,
        zero_source=args.zero_source,
        backend=args.backend,
        mesh=mesh,
        out_dir=args.out_dir,
    )
    print(json_text("stability-soak", report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VERDICT


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``dispatch`` call uses, built on the first call.

    Parsing keeps no state in the parser: each call fills a fresh namespace.
    """
    return build_parser()


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run the selected command, map errors to exit codes."""
    try:
        args = _shared_parser().parse_args(argv)
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
    except SubdiffError as exc:  # NumericalError and the rest
        print(f"subdiff: error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"subdiff: error: io: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
