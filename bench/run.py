"""polydual benchmark: drives the real CLI paths in one process.

    python3 bench/run.py --workload {solve-small,realize-large,certify}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
Set-up generates the workload's input documents from the seed (three times,
reporting the median). The measured phase runs whole rounds of jobs, each a
chain of `polydual.cli.main` calls, until the time is up, and checks every
job's output. The last line of standard output is one JSON object:

* with --trace 0, the end-to-end metrics: jobs_per_s, job_s_p50, job_s_tail,
  setup_s and peak_rss_mb;
* with --trace 1, the per-layer metrics of the first round, run once without
  tracing and twice with it; see `harness.layer_metrics`.

Human-readable detail (environment, failures per job, the tail percentile and
its sample count, fail_frac) goes to the lines before it, and the full record
to bench/out/.
"""
from time import perf_counter

START = perf_counter()

import argparse
import os
import sys

# one process, no extra threads: pin BLAS and OpenMP pools before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "polydual")):
        print(f"no polydual sources under {SRC_DIR}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)

    import json
    import statistics

    import harness
    import workloads

    import_s = perf_counter() - START
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    reps = 1 if args.trace else SETUP_REPEATS
    gen_times = []
    for _ in range(reps):
        t0 = perf_counter()
        rounds = workloads.write_inputs(workload, args.seed, run_dir)
        gen_times.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(gen_times)

    env = harness.environment(THREAD_VARS)
    print(f"polydual benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"set-up: import {import_s:.3f} s + input generation "
          f"{', '.join(f'{t:.3f}' for t in gen_times)} s")

    if args.trace:
        record = harness.traced_run(rounds[0], run_dir)
    else:
        record = harness.measured_run(workload, rounds, args.seconds, setup_s)
    record.update(workload=args.workload, seed=args.seed, environment=env,
                  import_s=import_s, generation_s=gen_times)
    harness.report(record)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(os.path.join(OUT_DIR, name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
