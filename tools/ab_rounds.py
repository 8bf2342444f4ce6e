"""Time two checkouts on one benchmark workload in one process, job by job.

    python3 tools/ab_rounds.py A_SRC B_SRC --workload W --seed N --pairs P

A_SRC and B_SRC are the `src/` directories of two checkouts. Each one's
`polydual` package is loaded under its own name (`polydual_a`,
`polydual_b`), so both are in memory at once; the workload's input
documents come from A's `bench/workloads.py`, which, like `bench/solids.py`,
sees A's package as `polydual`. A pair is one pass over every job of every
round of the workload by both sides: each job runs its CLI calls through A's
`cli.main` and through B's, the side that goes first alternating from job
to job and from pair to pair, and each side's output is checked by the
job's `verify` before the other side runs, outside the timing. A side's
pass time is the sum of its job times.

Two runs of `bench/run.py`, one per tree, one after the other, see the
machine's speed drift between them as a difference of the trees; pairing
every job cancels most of it. Prints each pair's pass times, then each
side's median and quartiles and the number of pairs each side won. Exits 1
when a job fails on either side, 2 on bad arguments.
"""
import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from time import perf_counter

# one thread, as the benchmark runs: pin BLAS and OpenMP pools before numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

SIDES = ("A", "B")


def load_package(name: str, src_dir: str):
    """The polydual package under src_dir, imported as `name`."""
    pkg_dir = os.path.join(src_dir, "polydual")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workloads(package, src_dir: str):
    """The `workloads` module of the bench directory beside src_dir, with
    `package`, loaded under another name, and its loaded modules as
    `polydual` and its modules."""
    prefix = package.__name__ + "."
    sys.modules["polydual"] = package
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix):
            sys.modules["polydual." + name[len(prefix):]] = module
    sys.path.insert(0, os.path.join(os.path.dirname(src_dir), "bench"))
    import workloads
    return workloads


def run_job(main, job) -> tuple:
    """(seconds, error or None) of one job's CLI calls through `main`; the
    output check runs after the clock stops."""
    out = io.StringIO()
    error = None
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for argv in job.calls:
            try:
                code = main(argv)
            except Exception as exc:
                error = f"`{argv[0]}` raised {type(exc).__name__}: {exc}"
                break
            if code != 0:
                error = f"`{argv[0]}` exited {code}"
                break
    seconds = perf_counter() - t0
    if error is None:
        try:
            job.verify()
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    return seconds, error


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a_src")
    p.add_argument("b_src")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    srcs = [os.path.abspath(s) for s in (args.a_src, args.b_src)]
    for src in srcs:
        if not os.path.isdir(os.path.join(src, "polydual")):
            print(f"no polydual package under {src}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("--pairs must be at least 1", file=sys.stderr)
        return 2
    packages = [load_package(f"polydual_{s.lower()}", src)
                for s, src in zip(SIDES, srcs)]
    mains = [importlib.import_module(f"{p.__name__}.cli").main for p in packages]
    workloads = load_workloads(packages[0], srcs[0])
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as directory:
        jobs = [job for jobs in workloads.write_inputs(workload, args.seed,
                                                       directory)
                for job in jobs]
        print(f"ab_rounds: workload {args.workload}, seed {args.seed}, "
              f"{args.pairs} pairs of {len(jobs)} jobs a side")
        for side, src in zip(SIDES, srcs):
            print(f"  {side}: {src}")
        passes = np.zeros((args.pairs, 2))
        failures = []
        for pair in range(args.pairs):
            for j, job in enumerate(jobs):
                for side in ((0, 1), (1, 0))[(pair + j) % 2]:
                    seconds, error = run_job(mains[side], job)
                    passes[pair, side] += seconds
                    if error:
                        failures.append(f"pair {pair + 1} {SIDES[side]} "
                                        f"{job.label}: {error}")
            print(f"pair {pair + 1}: A {passes[pair, 0]:.4f} s, "
                  f"B {passes[pair, 1]:.4f} s, "
                  f"B/A {passes[pair, 1] / passes[pair, 0]:.3f}")

    for side in range(2):
        q1, median, q3 = np.percentile(passes[:, side], [25, 50, 75])
        won = int(np.sum(passes[:, side] < passes[:, 1 - side]))
        print(f"{SIDES[side]}: pass median {median:.4f} s, quartiles "
              f"{q1:.4f}-{q3:.4f} s, won {won} of {args.pairs} pairs")
    ratio = np.median(passes[:, 1] / passes[:, 0])
    print(f"median B/A {ratio:.3f}")
    for line in failures:
        print(f"  FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
