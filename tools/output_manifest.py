"""Hash every output of the benchmark's jobs, to show that a change keeps
them byte for byte.

    python3 tools/output_manifest.py SRC_DIR OUT_DIR

SRC_DIR is the `src/` directory of a checkout: the program is imported from
it, and the workloads from the `bench/` directory beside it. Every job of
seeds 1 and 2 of each workload runs once through `polydual.cli.main`, in
OUT_DIR/<workload>-seed<N>/, which is emptied first. The manifest on
standard output gives a sha256 for every file written there and for each
job's standard output and standard error, and each job's exit codes.

Documents record the paths they were made from, so compare two checkouts
with the same OUT_DIR:

    python3 tools/output_manifest.py ../parent/src /tmp/manifest > before.txt
    python3 tools/output_manifest.py src /tmp/manifest > after.txt
    diff before.txt after.txt

Exits 1 when a job exits nonzero or raises, 2 on bad arguments.
"""
import contextlib
import hashlib
import io
import os
import shutil
import sys

# one thread, as the benchmark runs: BLAS reductions may round differently
# on more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SEEDS = (1, 2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_calls(calls) -> tuple:
    """Run one job's CLI calls in order; returns (codes, stdout, stderr).
    A call that raises is recorded by its exception type and ends the job."""
    import polydual.cli

    out, err = io.StringIO(), io.StringIO()
    codes = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in calls:
            try:
                code = polydual.cli.main(argv)
            except Exception as exc:
                codes.append(f"raised {type(exc).__name__}")
                print(f"{type(exc).__name__}: {exc}", file=err)
                break
            codes.append(code)
            if code != 0:
                break
    return codes, out.getvalue(), err.getvalue()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src_dir, out_dir = (os.path.abspath(a) for a in argv)
    bench_dir = os.path.join(os.path.dirname(src_dir), "bench")
    if not os.path.isdir(os.path.join(src_dir, "polydual")):
        print(f"no polydual package under {src_dir}", file=sys.stderr)
        return 2
    sys.path[:0] = [src_dir, bench_dir]
    import workloads

    failed = 0
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            run_dir = os.path.join(out_dir, f"{name}-seed{seed}")
            shutil.rmtree(run_dir, ignore_errors=True)
            rounds = workloads.write_inputs(workload, seed, run_dir)
            for r, jobs in enumerate(rounds):
                for job in jobs:
                    codes, stdout, stderr = run_calls(job.calls)
                    failed += any(c != 0 for c in codes)
                    label = f"{name} seed {seed} round {r}: {job.label}"
                    print(f"job {label}: exit {codes}")
                    print(f"  stdout {sha256(stdout.encode())}")
                    print(f"  stderr {sha256(stderr.encode())}")
            for root, _, files in sorted(os.walk(run_dir)):
                for f in sorted(files):
                    path = os.path.join(root, f)
                    with open(path, "rb") as fh:
                        digest = sha256(fh.read())
                    print(f"file {os.path.relpath(path, out_dir)} {digest}")
    if failed:
        print(f"{failed} jobs exited nonzero or raised", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
