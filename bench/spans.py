"""In-memory spans around polydual's layer boundaries, recorded from outside.

A Tracer replaces chosen functions of the polydual modules with wrappers
while it is installed and restores them on removal; no file of the program is
changed. A name bound elsewhere with `from .x import f` (for instance
`polydual.solver.hull_from_dual_points` or `polydual.cli.continuation`) is
replaced wherever the same function object is bound, so calls through every
binding are seen.

Spans are recorded only inside a job opened with `Tracer.job`; outside one
the wrappers pass straight through. Each span is
[name, start, end, parent index, job id, error type or None]. Functions
called hundreds of thousands of times per job get a call counter instead of
a span, which would cost more than the work it measures.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer -> functions (or Class.method) that get a span
SPANNED = {
    "cli": ["main", "cmd_check", "cmd_dualize", "cmd_realize", "cmd_roundtrip"],
    "serialize": ["read_document", "write_document", "decode_polyhedron",
                  "decode_dual_output", "encode_polyhedron",
                  "encode_dual_output", "encode_cone_metric"],
    "polyhedra": ["hull_from_dual_points", "dualize"],
    "surface": ["ConeMetric.__init__", "is_concave", "flip_edge",
                "gauss_bonnet_residual"],
    "geodesic": ["closed_geodesic_search"],
    "fuchsian": ["fuchsian_octagon_group", "fuchsian_dualize"],
    "solver": ["continuation", "newton_solve", "jacobian", "rigidity_report",
               "check_feasible", "validate_target", "perturbed_polyhedron",
               "recovered_polyhedron", "match_dihedral_angles", "build_gauge",
               "SolverState.__init__", "SolverState.moved"],
}
# layer -> functions that only get a call counter
COUNTED = {"minkowski": ["minkowski_inner"]}

ROOT = "cli.job"
LINSOLVE = "solver.linsolve"     # np.linalg.solve called by newton_solve


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._job = None
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "polydual" or name.startswith("polydual.")]
        for layer, names in SPANNED.items():
            for name in names:
                self._wrap(modules, layer, name, self._span_wrapper)
        for layer, names in COUNTED.items():
            for name in names:
                self._wrap(modules, layer, name, self._count_wrapper)
        self._patch(np.linalg, "solve",
                    self._span_wrapper(LINSOLVE, np.linalg.solve,
                                       only_under="solver.newton_solve"))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, modules, layer, name, make):
        home = sys.modules[f"polydual.{layer}"]
        if "." in name:
            cls_name, attr = name.split(".")
            owner = getattr(home, cls_name)
            original = getattr(owner, attr)
            self._patch(owner, attr, make(f"{layer}.{name}", original))
            return
        original = getattr(home, name)
        wrapper = make(f"{layer}.{name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording ------------------------------------------------------------

    def _span_wrapper(self, name, fn, only_under=None):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None or (
                    only_under and self.spans[self._stack[-1]][0] != only_under):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1], self._job, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, out)
            return out
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is not None:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def job(self, job_id):
        """Open the root span of one job; every span inside it nests below."""
        rec = [ROOT, 0.0, 0.0, None, job_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._job = job_id
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._job = None
            self._stack.pop()


def _after_search(counts, args, report):
    counts["geodesic.cycles_checked"] += report.n_cycles_checked
    counts["geodesic.geodesics_found"] += len(report.geodesics)


def _after_write(counts, args, out):
    counts["serialize.bytes_written"] += os.path.getsize(args[0])


_AFTER = {"geodesic.closed_geodesic_search": _after_search,
          "serialize.write_document": _after_write}


# -- analysis -------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Nothing in the program runs concurrently, so children never overlap and
    their covered time is the sum of their durations.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def check_nesting(spans, self_s) -> list:
    """Problems with the span tree; an empty list when it is consistent.

    Every child must lie inside its parent and belong to the same job, and the
    self times of one job's spans must add up to its root span's duration.
    """
    problems = []
    per_job = Counter()
    roots = {}
    for i, s in enumerate(spans):
        per_job[s[4]] += self_s[i]
        if s[3] is None:
            roots[s[4]] = s[2] - s[1]
            continue
        p = spans[s[3]]
        if p[4] != s[4] or s[1] < p[1] or s[2] > p[2]:
            problems.append(f"span {i} ({s[0]}) escapes its parent {p[0]}")
    for job, wall in roots.items():
        if abs(per_job[job] - wall) > 1e-9 + 1e-9 * wall:
            problems.append(
                f"job {job}: self times sum to {per_job[job]:.9f} s, "
                f"job wall time is {wall:.9f} s")
    return problems
