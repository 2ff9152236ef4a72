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
from . import analysis, benchmarks, errors, harness, kernel, meshes, solver
from ._version import __version__
from .analysis import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .kernel import *  # noqa: F403
from .meshes import *  # noqa: F403
from .solver import *  # noqa: F403

# each module's __all__ is the one list of its public names
__all__ = [
    "__version__",
    "benchmarks",
    *errors.__all__,
    *meshes.__all__,
    *kernel.__all__,
    *analysis.__all__,
    *solver.__all__,
    *harness.__all__,
]
