"""Benchmark of surrogate_dfl on two workloads (see workloads.py).

    python3 perfbench/run.py --workload portfolio-n100 --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ../src.

--trace 0 times set-up (median of SETUP_REPEATS fresh processes), then runs
the workload serially on one seed block after another while one more block
and a repeat of the first still fit in --seconds, then on the first block
once more, which checks that non-timing results repeat.  Timings are means
over the seeds run, each scaled to a reference speed (see workloads.py).

--trace 1 runs the workload untraced (with one worker per core where its
protocol runs in parallel, and serially), then once serially with a span
around every layer function, and reports the per-layer metrics in raw
seconds.  Its length is
set by the workload, not by --seconds.

Every job's decisions are checked for feasibility, regret and KKT residual;
the last line of standard output is the JSON result.  Spans and full
results, raw times included, are written to .perfbench_out/.

BLAS is pinned to one thread before numpy loads: with more threads, timings
spread several-fold and regrets change in their last digits.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_CHILD = (
    "import time; t0 = time.perf_counter()\n"
    "import sys; sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.set_up(workloads.config(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1'))\n"
    "print(time.perf_counter() - t0)\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for smoke runs")
    return ap.parse_args(argv)


def time_setup(args, probe, ref_s) -> list:
    """Seconds from interpreter start-up to the first epoch, per fresh process,
    scaled by the reference speed sampled right before and after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), args.workload,
             str(args.seed), "1" if args.toy else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        speed = 0.5 * (ref_s / before + ref_s / probe())
        times.append(float(done.stdout.strip().splitlines()[-1]) * speed)
    return times


def environment(workloads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": workloads.nproc(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "surrogate_dfl" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import instrument
    import metrics
    import workloads

    cfg = workloads.config(args.workload, args.seed, args.toy)
    checker = workloads.Checker()
    stem = f"{args.workload}_s{args.seed}" + ("_toy" if args.toy else "")
    OUT.mkdir(exist_ok=True)
    detail = {}
    with instrument.patched() as undo:
        if not args.trace:
            instrument.Audit(workloads.reference_s, workloads.REF_S,
                             workloads.PROBE_GAP[args.workload]).install(undo)
            setup_times = time_setup(args, workloads.reference_s, workloads.REF_S)
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(workloads.run_pass(workloads.seed_block(cfg, len(passes))))
                elapsed = time.perf_counter() - start
                # another block only if it and the repeat still fit in --seconds
                if elapsed + 2 * elapsed / len(passes) > args.seconds:
                    break
            passes.append(workloads.run_pass(cfg))  # the first block again
            for _, rows in passes:
                checker.check(rows)
            result = metrics.end_to_end(setup_times, passes, checker)
            detail = {"setup_times": setup_times,
                      "passes": [(s, [vars(r) for r in rows]) for s, rows in passes],
                      "regret": workloads.mean_regrets(passes[0][1])}
        else:
            instrument.Audit().install(undo)  # per-layer times are raw
            workers = workloads.protocol_workers(args.workload)
            parallel_s = None
            if workers > 1:
                parallel_s, rows = workloads.run_pass(replace(cfg, max_workers=workers))
                checker.check(rows)
            serial_s, serial_rows = workloads.run_pass(cfg)
            checker.check(serial_rows)
            tracer = instrument.Tracer()
            with instrument.patched() as trace_undo:
                tracer.install(trace_undo)
                traced_s, traced_rows = workloads.run_pass(cfg)
            checker.check(traced_rows)
            result = metrics.per_layer(
                tracer, traced_s, traced_rows, serial_s, serial_rows,
                parallel_s or serial_s, workers,
            )
            tracer.write(OUT / f"{stem}_spans.csv.gz")
            detail = {"traced_s": traced_s, "serial_s": serial_s, "parallel_s": parallel_s,
                      "traced_rows": [vars(r) for r in traced_rows]}

    record = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result,
    }
    env = environment(workloads)
    with open(OUT / f"{stem}_t{args.trace}.json", "w") as fh:
        json.dump(dict(record, env=env, detail=detail, failures=checker.messages), fh, indent=1)
    for message in checker.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
