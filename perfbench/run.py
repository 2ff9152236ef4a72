"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  The run sets up its inputs
(several times, to report a median set-up time), then runs whole passes of
the workload until ``--seconds`` have passed, checking every output.  An
untraced run also times the import once more after each pass.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the program's public functions are wrapped in spans (see
``spans.py``) and the metrics are the per-layer ones.  Earlier lines of
standard output hold the environment record and every detail metric, each
with its unit; the last line is the result object.  Scratch files and span
dumps go to ``.perfbench/`` in the checkout.
"""
import os

# Pin native thread pools before numpy is imported anywhere in this process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["SUBDIFF_WORKERS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import MissingSite, PassClock, Tracer  # noqa: E402  (standard library only)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# The keys of workloads.WORKLOADS, known here before the program is imported.
WORKLOAD_NAMES = ("paper-tables", "soak-long", "operator-fuzz", "decay-2d")
SETUP_REPEATS = 3
# Import time is most of set-up and varies most, so it gets more samples: this
# process's import, fresh processes before the passes and one fresh process
# after each untraced pass.  Host speed drifts within seconds, so samples
# spread over the whole run give a steadier median than samples taken
# together.
IMPORT_SAMPLES_BEFORE = 4
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import subdiff, subdiff.cli; print(time.perf_counter() - t)"
)

# Layer metrics of the traced run: name -> span names whose self time it
# sums.  Each goes into the detail lines in seconds (``<name>_s``) and as a
# share of the traced pass (``<name>_pct``).  Most layers are used by only some
# workloads, so the result line holds only layer times every gated workload
# has (see ``per_layer``).
LAYER_SELF = {
    "cli.self": ("cli.dispatch",),
    "harness.self": ("harness.run",),
    "meshes.build": ("meshes.build",),
    "meshes.certify": ("meshes.certify",),
    "meshes.io": ("meshes.io",),
    "kernel.table_quadrature": ("kernel.table_quadrature",),
    "kernel.table_closed": ("kernel.table_closed",),
    "solver.march": ("solver.solve", "solver.step"),
    "solver.norms": ("solver.norms",),
    "analysis.psd": ("analysis.psd",),
    "analysis.props_p": ("analysis.props_p",),
    "analysis.props_q": ("analysis.props_q",),
    "analysis.certificate": ("analysis.certificate",),
    "analysis.complementary": ("analysis.complementary",),
    "io.write": ("io.write",),
    "unattributed": ("pass",),
}
KERNEL_SPANS = ("kernel.table_quadrature", "kernel.table_closed")
MESH_SPANS = ("meshes.build", "meshes.certify", "meshes.io")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def percentile_or_none(values, q):
    """The q-th percentile, or None when fewer than TAIL_SAMPLES lie beyond it."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def import_program():
    """Import subdiff from this checkout's ``src/``; return the import time."""
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    importlib.import_module("subdiff")
    importlib.import_module("subdiff.cli")
    elapsed = time.perf_counter() - started
    loaded = Path(sys.modules["subdiff"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise ImportError(f"subdiff was imported from {loaded}, not from {SRC}")
    return elapsed


def import_seconds_in_fresh_process():
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment_record():
    import numpy
    import scipy

    record = {
        "commit": None,
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_cache": None,
        "l3_cache": None,
    }
    if (ROOT / ".git").exists():
        try:
            record["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "L2 cache":
            record["l2_cache"] = value.strip()
        elif key.strip() == "L3 cache":
            record["l3_cache"] = value.strip()
    return record


def _source_digest():
    """Digest of the program source, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_passes(workload, seconds, tracer, after_pass=None):
    """Run whole passes for about ``seconds``; return per-pass records.

    A new pass starts only while it would end less than half a pass late,
    so a run with long passes stays close to ``seconds`` too.  ``after_pass``,
    if given, is called after each pass, outside its clock.
    """
    from workloads import PassResult  # imported with the program, after set-up timing

    records = []
    started = time.perf_counter()
    while not records or time.perf_counter() - started + 0.5 * records[-1][0] < seconds:
        if tracer is not None:
            tracer.pass_id = len(records)
        clock = PassClock(tracer)
        try:
            result = workload.run_pass(clock)
        except Exception:  # a crashed pass counts every item as failed
            result = PassResult(
                attempted=workload.items, failed=workload.items,
                problems=[traceback.format_exc(limit=3)],
            )
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records.append((clock.elapsed, result))
        if after_pass is not None:
            after_pass()
    return records


def end_to_end(workload, setup_s, records):
    pass_times = [elapsed for elapsed, _ in records]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        # Through the first pass, as a user running the command once sees it;
        # later passes add only what the allocator keeps from earlier ones.
        "peak_rss_mb": (records[0][1].peak_rss_mb, "MB"),
    }
    items = [t for _, r in records for t in r.item_s]
    attempted = sum(r.attempted for _, r in records)
    failed = sum(r.failed for _, r in records)
    detail = {
        "passes": (len(records), "count"),
        "pass_s_each": (pass_times, "s"),
        "fail_frac": (failed / attempted, "ratio"),
        "item_samples": (len(items), "count"),
    }
    for name, q in (("item_s_p50", 50), ("item_s_p90", 90)):
        value = percentile_or_none(items, q)
        if value is not None:
            detail[name] = (value, "s")
    ref_devs = [r.ref_dev for _, r in records if r.ref_dev is not None]
    if ref_devs:
        detail["max_ref_dev"] = (max(ref_devs), "ratio")
    return metrics, detail


def per_layer(workload, tracer, records):
    self_times = tracer.pass_self_times()
    pass_times = [elapsed for elapsed, _ in records]

    def layer_seconds(*names):
        return statistics.median(
            sum(self_times[i].get(name, 0.0) for name in names) for i in range(len(records))
        )

    def layer_share(*names):
        return statistics.median(
            100.0 * sum(self_times[i].get(name, 0.0) for name in names) / pass_times[i]
            for i in range(len(records))
        )

    def other_layers(i):
        return pass_times[i] - sum(
            self_times[i].get(name, 0.0) for name in KERNEL_SPANS + MESH_SPANS
        )

    first = records[0][1]
    # The result line holds only metrics that are nonzero on every gated
    # workload: a layer a workload skips would read exactly 0 on every run.
    # The kernel table and mesh layers are in all of them; the rest of the
    # pass is mostly the march (soak-long, decay-2d) or the analysis calls'
    # own code (operator-fuzz).
    metrics = {
        "pass_traced_s": (statistics.median(pass_times), "s"),
        "kernel.table_s": (layer_seconds(*KERNEL_SPANS), "s"),
        "meshes_s": (layer_seconds(*MESH_SPANS), "s"),
        "other_layers_s": (statistics.median(map(other_layers, range(len(records)))), "s"),
        "items": (first.attempted, "count"),
        "kernel.coeffs": (int(tracer.counts[0].get("kernel.coeffs", 0)), "count"),
        "kernel.table_peak_mb": (tracer.table_peak_mb(), "MB"),
    }

    detail = {f"{name}_s": (layer_seconds(*spans), "s") for name, spans in LAYER_SELF.items()}
    detail.update(
        {f"{name}_pct": (layer_share(*spans), "%") for name, spans in LAYER_SELF.items()}
    )
    # analysis calls build their own closed tables; this share includes them
    inside = tracer.pass_inclusive_times("analysis.")
    detail["analysis.inclusive_pct"] = (statistics.median(
        100.0 * inside.get(i, 0.0) / pass_times[i] for i in range(len(records))
    ), "%")
    detail["solver.residual_max"] = (max(r.residual_max for _, r in records), "ratio")
    steps = tracer.durations("solver.step")
    detail["solver.step_samples"] = (len(steps), "count")
    for name, q in (("solver.step_s_p50", 50), ("solver.step_s_p90", 90)):
        value = percentile_or_none(steps, q)
        if value is not None:
            detail[name] = (value, "s")
    items = tracer.durations(workload.item_span)
    detail["item_samples"] = (len(items), "count")
    for name, q in (("item_s_p50", 50), ("item_s_p90", 90)):
        value = percentile_or_none(items, q)
        if value is not None:
            detail[name] = (value, "s")
    detail["spans_per_pass"] = (len(tracer.spans) / len(records), "count")
    counts = [pass_counts(tracer.counts[i], r) for i, (_, r) in enumerate(records)]
    detail["counts_repeat_across_passes"] = (int(all(c == counts[0] for c in counts)), "bool")
    return metrics, detail, counts[0]


def pass_counts(counts, result):
    """The work counts of one pass, which must repeat exactly."""
    return {
        "items": result.attempted,
        "kernel.coeffs": int(counts.get("kernel.coeffs", 0)),
        "solver.level_dofs": int(counts.get("solver.level_dofs", 0)),
        # bytes the history term reads, 8 * N * sum of k (computed, not measured)
        "solver.history_gb": counts.get("solver.history_bytes", 0) / 1e9,
        "analysis.violations": result.violations,
        "io.bytes": result.io_bytes,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "subdiff" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'subdiff'}", file=sys.stderr)
        return 2
    try:
        import_samples = [import_program()]
        import_samples += [
            import_seconds_in_fresh_process() for _ in range(IMPORT_SAMPLES_BEFORE)
        ]
        from workloads import WORKLOADS
    except (ImportError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"run-{os.getpid()}"
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_samples.append(time.perf_counter() - started)

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            try:
                tracer.install()
            except MissingSite as exc:
                print(f"perfbench: call sites gone from the program: {exc}", file=sys.stderr)
                return 2
        try:
            records = run_passes(
                workload, args.seconds, tracer,
                after_pass=None if tracer else (
                    lambda: import_samples.append(import_seconds_in_fresh_process())
                ),
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = None
    if tracer is None:
        setup_s = statistics.median(import_samples) + statistics.median(setup_samples)
        metrics, detail = end_to_end(workload, setup_s, records)
        detail["import_samples"] = (len(import_samples), "count")
    else:
        metrics, detail, counts = per_layer(workload, tracer, records)
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")

    attempted = sum(r.attempted for _, r in records)
    failed = sum(r.failed for _, r in records)
    problems = [p for _, r in records for p in r.problems]
    print("# env " + json.dumps(environment_record(), sort_keys=True))
    print(f"# workload {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"# {name} = {value!r} {unit}")
    if counts is not None:
        print("# counts " + json.dumps(counts, sort_keys=True))
    for problem in problems[:20]:
        print(f"# FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
