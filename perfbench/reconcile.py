"""Measure the ROADMAP baseline lines under the benchmark's settings.

    python3 perfbench/reconcile.py

Prints, one per line, the figures ROADMAP.md quotes for the seed commit:
``reproduce-tables --paper-exact`` with the default (quadrature) and the
closed backend, the K=2560 closed kernel table (time, and peak RSS of a fresh
process that only builds it), and the warm ``d1:10000`` K=160 march with a
prebuilt table.  Threads are pinned to one, as in ``run.py``.
"""
import contextlib
import io
import resource
import shutil
import statistics
import subprocess
import sys
import time

import run  # pins BLAS/OpenMP threads before numpy is imported

_TABLE_2560 = (
    "import resource, sys, time; sys.path.insert(0, sys.argv[1]); import subdiff; "
    "mesh = subdiff.make_graded_then_uniform(horizon=50.0, num_steps=2560, grading=2.0, "
    "split_time=1.0, split_steps=512); t = time.perf_counter(); "
    "subdiff.build_kernel_table(mesh, 0.5, backend='closed'); "
    "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)


def paper_exact_seconds(backend):
    import subdiff.cli

    out_dir = run.WORK / "reconcile"
    shutil.rmtree(out_dir, ignore_errors=True)
    started = time.perf_counter()
    code = subdiff.cli.dispatch(
        ["reproduce-tables", "--paper-exact", "--workers", "1", "--backend", backend,
         "--out-dir", str(out_dir)]
    )
    elapsed = time.perf_counter() - started
    shutil.rmtree(out_dir, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"reproduce-tables --backend {backend} exited {code}")
    return elapsed


def march_seconds(repeats=5):
    import subdiff

    problem = subdiff.manufactured_problem_1d(0.5, intervals=10000)
    mesh = subdiff.make_graded_mesh(1.0, 160, 4.0)
    table = subdiff.build_kernel_table(mesh, 0.5, backend="closed")
    subdiff.solve(problem, mesh, table=table)  # warm-up
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subdiff.solve(problem, mesh, table=table)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def main():
    run.import_program()
    with contextlib.redirect_stdout(io.StringIO()):
        quadrature = paper_exact_seconds("quadrature")
        closed = paper_exact_seconds("closed")
    print(f"paper-exact quadrature = {quadrature!r} s")
    print(f"paper-exact closed = {closed!r} s")
    out = subprocess.run(
        [sys.executable, "-c", _TABLE_2560, str(run.SRC)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    seconds, rss_mb = (float(v) for v in out.stdout.split())
    print(f"closed table K=2560 = {seconds!r} s")
    print(f"closed table K=2560 peak RSS (fresh process) = {rss_mb!r} MB")
    print(f"march d1:10000 K=160, prebuilt table, warm = {march_seconds()!r} s")
    print(f"peak RSS of this process = {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024!r} MB")


if __name__ == "__main__":
    main()
