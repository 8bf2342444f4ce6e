"""Time each CLI command in a fresh process, as a user pays for it: the
import of the program and of what it loads included.

    python3 tools/cold_start.py SRC [SRC ...] [--repeats N] [--commands C ...]

Each SRC is the `src/` directory of a checkout. The benchmark runs every job
in one process, so it never pays the per-process import; this does. Every
command runs as `python -m polydual ...` in a new interpreter with
PYTHONDONTWRITEBYTECODE=1 (no `.pyc` is read or written, as in a fresh
checkout) and OPENBLAS_NUM_THREADS=1. The commands:

    gen        gen random --n 14
    dualize    dualize of that solid
    check      check of its dual (depth 8)
    roundtrip  roundtrip --steps 8 of the solid
    realize    realize --steps 4 of its dual, from the solid
    fuchsian   fuchsian-demo

Their input documents are written once, by the first tree, before any
timing. Each repeat runs every command once per tree, the trees in turn,
the first tree alternating from repeat to repeat. For each command and tree
it prints the median wall time and the median of the child's peak resident
set (ru_maxrss, from os.wait4). Exits 1 when a command exits nonzero, 2 on
bad arguments.
"""
import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = {
    "gen": ["gen", "random", "--n", "14", "--seed", "1", "--out", "{out}"],
    "dualize": ["dualize", "{poly}", "--out", "{out}"],
    "check": ["check", "{dual}"],
    "roundtrip": ["roundtrip", "{poly}", "--steps", "8"],
    "realize": ["realize", "{dual}", "--start", "{poly}", "--steps", "4",
                "--out", "{out}"],
    "fuchsian": ["fuchsian-demo"],
}


def run(src: str, argv: list) -> tuple:
    """(exit code, seconds, peak RSS in MB, stderr) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "polydual", *argv],
                                 env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - t0
        # reaped here, so Popen must not wait for it again
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    # ru_maxrss is in kilobytes on Linux
    return child.returncode, seconds, usage.ru_maxrss / 1024.0, text


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("srcs", nargs="+", metavar="SRC")
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--commands", nargs="+", choices=list(COMMANDS),
                   default=list(COMMANDS))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    srcs = [os.path.abspath(s) for s in args.srcs]
    for src in srcs:
        if not os.path.isdir(os.path.join(src, "polydual")):
            print(f"no polydual package under {src}", file=sys.stderr)
            return 2
    if args.repeats < 1:
        print("--repeats must be at least 1", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as directory:
        paths = {"poly": os.path.join(directory, "poly.json"),
                 "dual": os.path.join(directory, "dual.json"),
                 "out": os.path.join(directory, "out.json")}
        for name, out in (("gen", paths["poly"]), ("dualize", paths["dual"])):
            argv = [a.format(**dict(paths, out=out)) for a in COMMANDS[name]]
            code, _, _, err = run(srcs[0], argv)
            if code != 0:
                print(f"writing the inputs: `{name}` exited {code}\n{err}",
                      file=sys.stderr)
                return 1
        times = {(c, s): [] for c in args.commands for s in range(len(srcs))}
        rss = {key: [] for key in times}
        failed = []
        for repeat in range(args.repeats):
            order = list(range(len(srcs)))
            order = order[repeat % len(srcs):] + order[:repeat % len(srcs)]
            for command in args.commands:
                argv = [a.format(**paths) for a in COMMANDS[command]]
                for side in order:
                    code, seconds, peak, err = run(srcs[side], argv)
                    if code != 0:
                        failed.append(f"{command} on {srcs[side]} exited "
                                      f"{code}: {err.strip()[-200:]}")
                    times[command, side].append(seconds)
                    rss[command, side].append(peak)

    print(f"cold_start: {args.repeats} repeats, medians")
    for side, src in enumerate(srcs):
        print(f"  tree {side + 1}: {src}")
    for command in args.commands:
        cells = [f"tree {side + 1} {1e3 * statistics.median(times[command, side]):7.0f} ms "
                 f"{statistics.median(rss[command, side]):6.1f} MB"
                 for side in range(len(srcs))]
        print(f"{command:10s} " + "  ".join(cells))
    for line in failed:
        print(f"  FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
