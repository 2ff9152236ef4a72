"""Run every workload and print every metric, with its unit, in one table.

    python3 perfbench/suite.py [--seed N]

Each of the four workloads runs in its own process through ``run.py``, for
the ``run_seconds`` of ``BENCHMARK.json``: once untraced (the end-to-end
metrics) and twice traced with the same seed (the per-layer metrics).  The
two traced runs must report identical work counts, and the tracing overhead
is the traced ``pass_s`` minus the untraced one.  Exits 1 when any run fails,
any output check fails or any count differs.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload run.py knows, including paper-tables and decay-2d, which
# BENCHMARK.json leaves out (see README.md).
WORKLOAD_NAMES = ("paper-tables", "soak-long", "operator-fuzz", "decay-2d")
COUNTS_PREFIX = "counts "


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-2000:]}")
    detail = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    counts = [json.loads(line[len(COUNTS_PREFIX):]) for line in detail
              if line.startswith(COUNTS_PREFIX)]
    return json.loads(lines[-1]), detail, counts


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    ok = True
    for workload in WORKLOAD_NAMES:
        try:
            plain, plain_detail, _ = run(workload, args.seed, seconds, 0)
            traced, traced_detail, counts = run(workload, args.seed, seconds, 1)
            again, _, counts_again = run(workload, args.seed, seconds, 1)
        except (RuntimeError, ValueError) as exc:
            print(f"{workload}: FAILED RUN: {exc}")
            ok = False
            continue
        print(f"== {workload} (seed {args.seed})")
        for line in plain_detail + traced_detail[1:]:
            print(f"  {line}")
        overhead = traced["metrics"]["pass_traced_s"]["value"] - plain["metrics"]["pass_s"]["value"]
        print(f"  tracing overhead = {overhead!r} s (traced pass_s minus untraced pass_s)")
        verdicts = {
            "outputs correct": all(r["correct"] and r["failed"] == 0 for r in (plain, traced, again)),
            "counts identical in two traced runs": len(counts) == 1 and counts == counts_again,
        }
        for label, passed in verdicts.items():
            print(f"  {label}: {'yes' if passed else 'NO'}")
            ok = ok and passed
        if counts != counts_again:
            print(f"  counts: {counts} vs {counts_again}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
