"""Running jobs, the untraced and traced measurement phases, and the metrics
derived from them."""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
from collections import Counter
from time import perf_counter

import numpy as np
import scipy

import polydual.cli
from spans import LINSOLVE, Tracer, check_nesting, layer_of, self_times


def environment(thread_vars) -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
        env["blas_config"] = blas.get("openblas configuration", "")
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["threads"] = " ".join(f"{v}={os.environ[v]}" for v in thread_vars)
    return env


def run_job(job, tracer=None, job_id=None):
    """Run one job's CLI calls; returns (seconds, error or None).

    The time covers the CLI calls only; the output check runs after it. A
    raised exception, a nonzero exit code and a failed check are all errors.
    """
    out = io.StringIO()
    error = None
    argv = job.calls[0]
    span = tracer.job(job_id) if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            for argv in job.calls:
                # looked up at call time, so an installed tracer sees it
                code = polydual.cli.main(argv)
                if code != 0:
                    last = out.getvalue().strip().splitlines()[-1:] or [""]
                    error = f"`{argv[0]}` exited {code}: {last[0]}"
                    break
    except Exception as exc:
        error = f"{argv[0]} raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if error is None:
        try:
            job.verify()
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    return seconds, error


def _job_record(job, seconds, error):
    return {"job": job.label, "seconds": seconds, "error": error}


# -- untraced: end-to-end metrics -------------------------------------------------


def measured_run(workload, rounds, seconds, setup_s) -> dict:
    """Whole rounds of jobs; another round starts only if it should end less
    than half a round past `seconds`, so the run lasts `seconds` give or take
    half a round and every run holds the same mix of jobs.

    job_s_tail is taken at the workload's fixed percentile, chosen so that at
    this program's speed about 10 jobs of a run lie beyond it. The highest
    percentile with 10 jobs beyond it would rise with throughput, and a
    faster program, measured further out in the tail, could read as slower.
    """
    jobs = []
    t_start = perf_counter()
    r = 0
    while True:
        t_round = perf_counter()
        for job in rounds[r % len(rounds)]:
            jobs.append(_job_record(job, *run_job(job)))
        r += 1
        now = perf_counter()
        if now - t_start + (now - t_round) / 2 >= seconds:
            break
    wall = perf_counter() - t_start
    times = np.array([j["seconds"] for j in jobs])
    failed = [j for j in jobs if j["error"]]
    tail = float(np.percentile(times, workload.tail_percentile))
    metrics = {
        "jobs_per_s": (len(jobs) - len(failed)) / wall,
        "job_s_p50": float(np.median(times)),
        "job_s_tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"jobs_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "fail_frac": len(failed) / len(jobs),
        "rounds": r,
        "wall_s": wall,
        "tail": {"percentile": workload.tail_percentile, "samples": len(jobs),
                 "beyond": int(np.sum(times > tail))},
        "jobs": jobs,
    }


# -- traced: per-layer metrics ------------------------------------------------------

# counts that must repeat exactly between two traced runs of the same jobs
EXACT = ("solver.jacobian_calls", "solver.check_feasible_calls",
         "solver.state_builds", "solver.newton_iters", "polyhedra.hull_calls",
         "surface.cone_metric_builds", "geodesic.cycles_checked",
         "minkowski.inner_calls")

PER_LAYER_UNITS = {
    "solver.jacobian_s": "s", "solver.jacobian_calls": "count",
    "solver.state_builds": "count", "solver.rigidity_s": "s",
    "solver.check_feasible_s": "s", "solver.check_feasible_calls": "count",
    "solver.newton_iters": "count", "solver.newton_failures": "count",
    "solver.trial_accept_ratio": "ratio", "solver.linsolve_s": "s",
    "polyhedra.hull_calls": "count", "polyhedra.hull_s": "s",
    "polyhedra.dualize_s": "s", "minkowski.inner_calls": "count",
    "surface.cone_metric_builds": "count", "surface.cone_metric_s": "s",
    "surface.is_concave_s": "s", "geodesic.search_s": "s",
    "geodesic.cycles_checked": "count", "geodesic.cycles_per_s": "1/s",
    "geodesic.hit_ratio": "ratio", "fuchsian.dualize_s": "s",
    "serialize.read_s": "s", "serialize.write_s": "s",
    "serialize.bytes_written": "bytes", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics over all jobs of one traced pass.

    Times are totals in seconds over the pass. Ratios whose base is zero
    (the layer did not run) are reported as 0.
    """
    self_s = self_times(spans)
    calls, incl, excl, layer_self = Counter(), Counter(), Counter(), Counter()
    under_newton = Counter()
    newton_failures = 0
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        incl[s[0]] += s[2] - s[1]
        excl[s[0]] += self_s[i]
        layer_self[layer_of(s[0])] += self_s[i]
        if s[3] is not None and spans[s[3]][0] == "solver.newton_solve":
            under_newton[s[0]] += 1
        if s[0] == "solver.newton_solve" and s[5] is not None:
            newton_failures += 1
    iters = under_newton["solver.jacobian"]
    trials = under_newton["solver.SolverState.moved"]
    cycles = counts["geodesic.cycles_checked"]
    search_s = incl["geodesic.closed_geodesic_search"]
    return {
        "solver.jacobian_s": incl["solver.jacobian"],
        "solver.jacobian_calls": calls["solver.jacobian"],
        "solver.state_builds": calls["solver.SolverState.__init__"],
        "solver.rigidity_s": excl["solver.rigidity_report"],
        "solver.check_feasible_s": excl["solver.check_feasible"],
        "solver.check_feasible_calls": calls["solver.check_feasible"],
        "solver.newton_iters": iters,
        "solver.newton_failures": newton_failures,
        "solver.trial_accept_ratio": iters / trials if trials else 0.0,
        "solver.linsolve_s": incl[LINSOLVE],
        "polyhedra.hull_calls": calls["polyhedra.hull_from_dual_points"],
        "polyhedra.hull_s": incl["polyhedra.hull_from_dual_points"],
        "polyhedra.dualize_s": incl["polyhedra.dualize"],
        "minkowski.inner_calls": counts["minkowski.minkowski_inner"],
        "surface.cone_metric_builds": calls["surface.ConeMetric.__init__"],
        "surface.cone_metric_s": incl["surface.ConeMetric.__init__"],
        "surface.is_concave_s": incl["surface.is_concave"],
        "geodesic.search_s": search_s,
        "geodesic.cycles_checked": cycles,
        "geodesic.cycles_per_s": cycles / search_s if search_s else 0.0,
        "geodesic.hit_ratio": (counts["geodesic.geodesics_found"] / cycles
                               if cycles else 0.0),
        "fuchsian.dualize_s": incl["fuchsian.fuchsian_dualize"],
        "serialize.read_s": incl["serialize.read_document"],
        "serialize.write_s": incl["serialize.write_document"],
        "serialize.bytes_written": counts["serialize.bytes_written"],
        "cli.self_s": layer_self["cli"],
    }


def _traced(tracer, job, job_id):
    tracer.install()
    try:
        return run_job(job, tracer, job_id)
    finally:
        tracer.remove()


def traced_run(jobs, run_dir) -> dict:
    """Each job of one round untraced and then traced, paired so that slow
    drift in machine speed hits both alike; then the round traced once more.
    Per-layer metrics come from the first traced pass, and the exact counts
    must agree between the two."""
    tracer, tracer2 = Tracer(), Tracer()
    untraced, traced = [], []
    for i, job in enumerate(jobs):
        untraced.append(_job_record(job, *run_job(job)))
        traced.append(_job_record(job, *_traced(tracer, job, i)))
    for i, job in enumerate(jobs):
        _traced(tracer2, job, i)
    metrics = layer_metrics(tracer.spans, tracer.counts)
    again = layer_metrics(tracer2.spans, tracer2.counts)
    metrics["trace.overhead_s"] = _p50(traced) - _p50(untraced)

    problems = check_nesting(tracer.spans, self_times(tracer.spans))
    problems += [f"count {k} differs between traced runs: {metrics[k]} vs {again[k]}"
                 for k in EXACT if metrics[k] != again[k]]
    failed = [r for r in untraced + traced if r["error"]]
    spans_path = os.path.join(run_dir, "spans.jsonl")
    _write_spans(spans_path, tracer.spans, [j.label for j in jobs])
    return {
        "correct": not failed and not problems,
        "attempted": len(untraced) + len(traced),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                    for k, v in metrics.items()},
        "fail_frac": len(failed) / (len(untraced) + len(traced)),
        "trace_problems": problems,
        "untraced_job_s_p50": _p50(untraced),
        "traced_job_s_p50": _p50(traced),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path),
        "jobs": untraced + traced,
    }


def _p50(records):
    return float(np.median([r["seconds"] for r in records]))


def _write_spans(path, spans, labels):
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[0], "start": s[1],
                                 "end": s[2], "parent": s[3],
                                 "job": labels[s[4]], "error": s[5]}) + "\n")


# -- printing -------------------------------------------------------------------------


def report(record):
    m = record["metrics"]
    print(f"jobs: {record['attempted']} attempted, {record['failed']} failed, "
          f"fail_frac {record['fail_frac']:.4f} (of {record['attempted']})")
    for j in record["jobs"]:
        if j["error"]:
            print(f"  FAILED {j['job']}: {j['error']}")
    if "tail" in record:
        t = record["tail"]
        print(f"{record['rounds']} rounds in {record['wall_s']:.2f} s; "
              f"job_s_tail is p{t['percentile']:g} of {t['samples']} jobs, "
              f"{t['beyond']} beyond it")
    else:
        print(f"trace: {record['spans']} spans in {record['spans_file']}; "
              f"job_s_p50 untraced {record['untraced_job_s_p50']:.4f} s, "
              f"traced {record['traced_job_s_p50']:.4f} s")
        print("trace: the program runs nothing concurrently, so no layer "
              "waits on another; there is no per-layer waiting time")
        for p in record["trace_problems"]:
            print(f"  TRACE PROBLEM {p}")
    for name, v in m.items():
        print(f"  {name:28s} {v['value']:.6g} {v['unit']}")
