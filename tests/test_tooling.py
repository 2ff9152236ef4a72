"""Names and scripts outside the package that must keep working.

The traced benchmark run wraps program functions by module attribute
(``perfbench/spans.py``) and stops when one of them is gone; a refactor that
renames or drops such a name must fail here first.  The same holds for the
public names and for the demo scripts.  Each module's ``__all__`` is the one
list of its public names: the package star-imports the modules and builds
its own ``__all__`` from their lists."""
import importlib
import importlib.util
import inspect
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import subdiff
from subdiff import benchmarks, errors
import subdiff.cli  # noqa: F401  (imports every module the span sites name)

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["subdiff", *(f"subdiff.{m.name}" for m in pkgutil.iter_modules(subdiff.__path__))]


def _load(name, path):
    """The module at ``path``, imported under ``name`` without a package
    (and registered, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves():
    spans = _load("perfbench_spans", ROOT / "perfbench" / "spans.py")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans._SITES
        if getattr(sys.modules.get(module), attr, None) is None
    ]
    assert spans._SITES and missing == []


# The benchmark's workload names, as perfbench/run.py lists them before it
# imports the program.
WORKLOAD_NAMES = ("paper-tables", "soak-long", "operator-fuzz", "decay-2d")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_benchmark_workload_passes_its_own_check(tmp_path, name):
    # one pass of the workload, judged by the check the benchmark applies
    # to its outputs: the fields it reads (a soak's plateau_factor, a
    # space's length) must still be there
    spans = _load("perfbench_spans", ROOT / "perfbench" / "spans.py")
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    assert tuple(workloads.WORKLOADS) == WORKLOAD_NAMES
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, tmp_path)
    result = workload.run_pass(spans.PassClock(None))
    assert (result.failed, result.problems) == (0, [])


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_package_export_is_listed_in_its_module_all():
    # the package re-exports module names; each must be in the __all__ of a
    # module that holds the same object (the version string and the
    # benchmarks module are the package's own)
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    unlisted = [
        name
        for name in subdiff.__all__
        if name not in ("__version__", "benchmarks")
        and not any(
            name in getattr(module, "__all__", ())
            and getattr(module, name) is getattr(subdiff, name)
            for module in modules
        )
    ]
    assert unlisted == []


# the modules the package exports from, in the order of its __all__
EXPORTING = ["errors", "meshes", "kernel", "analysis", "solver", "harness"]


def test_package_all_is_the_module_lists_in_order():
    expected = ["__version__", "benchmarks"]
    for name in EXPORTING:
        expected += importlib.import_module(f"subdiff.{name}").__all__
    assert subdiff.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_exactly_the_package_all():
    # no np, logging, submodule or private name leaks into the caller
    namespace = {}
    exec("from subdiff import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(subdiff.__all__)


@pytest.mark.parametrize("name", sorted(EXPORTING))
def test_every_module_export_is_a_package_export(name):
    # the other direction of the check above: a module lists in its __all__
    # only names the package exports too
    module = importlib.import_module(f"subdiff.{name}")
    assert [attr for attr in module.__all__ if attr not in subdiff.__all__] == []


# public parameters annotated float that the real-site table in
# tests/test_meshes.py does not drive, each with the reason
_RESULT_RECORD = "a result record: the package fills its floats in, a caller does not"
_NOT_A_REAL_SITE = {
    "reproduce_tables.alphas": "each alpha goes through ExperimentSpec.alphas",
    "caputo_reference.derivative": "a callable, not a number",
    **dict.fromkeys(
        [
            "AdmissibilityReport", "KernelRow", "Violation", "PsdReport", "SolverState",
            "NormReport", "CellResult", "Verdict", "PointwiseCurve", "SoakReport",
        ],
        _RESULT_RECORD,
    ),
}


def test_every_real_parameter_is_a_real_site():
    # a real-number parameter added to a public callable without the one
    # check fails here until it is a row of the table or exempt with a reason
    sites = _load("real_sites", ROOT / "tests" / "test_meshes.py")
    rows = {*sites.REAL_SITES, *sites.ARRAY_SITES}
    # the exception classes take a message only
    public = [(name, getattr(subdiff, name)) for name in subdiff.__all__ if name not in errors.__all__]
    public += [(f"benchmarks.{name}", getattr(benchmarks, name)) for name in benchmarks.__all__]
    uncovered = [
        f"{name}.{param.name}"
        for name, obj in public
        if callable(obj) and name not in _NOT_A_REAL_SITE
        for param in inspect.signature(obj).parameters.values()
        if "float" in str(param.annotation)
        and f"{name}.{param.name}" not in rows
        and f"{name}.{param.name}" not in _NOT_A_REAL_SITE
    ]
    assert uncovered == []


# 07 takes several seconds; the rest run in a few seconds together.  Each
# runs from a copy, so 05's outputs land next to the copy, not in demos/out/.
@pytest.mark.parametrize(
    "demo",
    [
        "01_mesh_certification.py",
        "02_kernel_and_operator.py",
        "03_positivity_diagnostics.py",
        "04_solve_subdiffusion.py",
        "05_convergence_study.py",
        "06_stability_soak.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    src = str(Path(subdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = shutil.copy(ROOT / "demos" / demo, tmp_path)
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
