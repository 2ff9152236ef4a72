"""Subdiffusion solver on general nonuniform time meshes.

The package discretizes the Caputo time derivative of order alpha in (0,1)
with a second-order offset-point scheme on arbitrary nonuniform meshes and
provides:

* mesh construction and step-ratio admissibility certification (:mod:`subdiff.meshes`),
* the discrete fractional-derivative kernel, computed from closed-form
  coefficients, with adaptive quadrature kept as their independent oracle
  (:mod:`subdiff.kernel`),
* structural diagnostics of the operator: sign/monotonicity property
  suites, integral lower bounds, eigenvalue positivity, complementary
  kernel (:mod:`subdiff.analysis`),
* 1-D Dirichlet finite-difference and 2-D periodic spectral time marching
  (:mod:`subdiff.solver`),
* convergence/benchmark harness and long-horizon stability soaks
  (:mod:`subdiff.harness`), with trusted reference tables in
  :mod:`subdiff.benchmarks`,
* the ``subdiff`` command line (:mod:`subdiff.cli`).
"""
from . import benchmarks
from ._version import __version__
from .analysis import (
    PsdReport,
    Violation,
    build_complementary_kernel,
    check_properties_P,
    check_properties_Q,
    check_psd,
    positivity_certificate,
    ratio_condition_holds,
)
from .errors import (
    DimensionMismatchError,
    LinearSolveError,
    MeshFileError,
    NonMonotoneMeshError,
    NumericalError,
    QuadratureConvergenceError,
    SingularDiagonalError,
    SubdiffError,
    ValidationError,
)
from .harness import (
    CellResult,
    ErrorReport,
    ExperimentSpec,
    MeshFamily,
    PointwiseCurve,
    SoakReport,
    Verdict,
    benchmark_families,
    compute_orders,
    parse_config_file,
    parse_mesh_descriptor,
    reproduce_tables,
    run_convergence,
    run_pointwise_comparison,
    run_stability_soak,
)
from .kernel import (
    BACKENDS,
    FractionalOrder,
    KernelRow,
    KernelTable,
    apply_operator,
    as_fractional_order,
    build_kernel_table,
    caputo_reference,
    dump_kernel_csv,
)
from .meshes import (
    AdmissibilityReport,
    TimeMesh,
    admissibility_thresholds,
    certify_mesh,
    make_graded_mesh,
    make_graded_then_uniform,
    make_r_variable_mesh,
    make_uniform_mesh,
    pair_ratio_bound,
    ratio_condition_margins,
    read_mesh,
    write_mesh,
)
from .solver import (
    DirichletLine,
    NormReport,
    PeriodicSquare,
    Problem,
    SolverState,
    discrete_norms,
    initialize_state,
    manufactured_problem,
    manufactured_problem_1d,
    parse_space,
    solve,
    step,
    write_diagnostics_csv,
    write_snapshot_csv,
)

__all__ = [
    "__version__",
    "benchmarks",
    # errors
    "SubdiffError",
    "ValidationError",
    "NonMonotoneMeshError",
    "DimensionMismatchError",
    "MeshFileError",
    "NumericalError",
    "QuadratureConvergenceError",
    "SingularDiagonalError",
    "LinearSolveError",
    # meshes
    "TimeMesh",
    "AdmissibilityReport",
    "admissibility_thresholds",
    "pair_ratio_bound",
    "ratio_condition_margins",
    "certify_mesh",
    "make_uniform_mesh",
    "make_graded_mesh",
    "make_r_variable_mesh",
    "make_graded_then_uniform",
    "read_mesh",
    "write_mesh",
    # kernel
    "BACKENDS",
    "FractionalOrder",
    "as_fractional_order",
    "KernelRow",
    "KernelTable",
    "build_kernel_table",
    "apply_operator",
    "caputo_reference",
    "dump_kernel_csv",
    # analysis
    "PsdReport",
    "Violation",
    "check_properties_P",
    "check_properties_Q",
    "check_psd",
    "positivity_certificate",
    "ratio_condition_holds",
    "build_complementary_kernel",
    # solver
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
    # harness
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
