"""The benchmark's workloads: generated input documents, CLI call chains, and
the check of every job's output.

A workload's inputs form rounds. Every round holds the same mix of job kinds
and solid sizes, and rounds differ only in the seeded solids. A run executes
whole rounds, so its job-time distribution does not depend on where the clock
stopped.

Why each workload:

* solve-small: many short `roundtrip --steps 8` solves on the three fixtures
  and on 8-20-face solids. The hull rebuild inside `check_feasible` and the
  finite-difference Jacobian each take about half of a job, so this is the
  workload for chart-aware feasibility.
* realize-large: `realize --start S --steps 4` on 30-50-face solids, with the
  default depth-6 largeness validation. The finite-difference Jacobian and
  the per-step rigidity report take about three quarters of a job, so this is
  the workload for an analytic sparse Jacobian.
* certify: `dualize` then `check --depth 12` on the duals of 8-20-face solids,
  the fixtures, and the genus-2 metrics at three apex heights. The solver is
  bypassed and the closed-geodesic search is about 95% of a job, so this is
  the control for solver changes and the workload for the largeness search.
  Depth 8 costs too little to measure and finds no closed geodesic on some
  12-20-face duals; the search cost roughly triples per 2 of depth.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from polydual import serialize
from polydual.polyhedra import hexahedron, regular_tetrahedron, triangular_bipyramid
from polydual.solver import match_dihedral_angles

from solids import fibonacci_solid

REALIZE_TOL = 1e-10     # the `realize --tol` default
MATCH_TOL = 1e-8
CHECK_DEPTH = 12
FUCHSIAN_HEIGHTS = ("0.5", "1.0", "2.0")
# Primal edges at least ten times the perturbation a job starts from: 1e-3
# for the realize start, 1e-2 for `roundtrip`, whose perturbation search
# otherwise retries (a hull rebuild each) far more often on some solids.
MIN_EDGE = 0.02
ROUNDTRIP_MIN_EDGE = 0.1


class Unverified(Exception):
    """A job finished but its output does not check out."""


@dataclass
class Job:
    label: str
    calls: list                     # argv lists, run in order through the CLI
    verify: Callable[[], None]      # raises when the output is wrong


@dataclass
class Workload:
    name: str
    sizes: tuple                    # generated solid face counts per round
    rounds: int                     # rounds of distinct generated solids
    min_edge: float                 # shortest primal edge of a generated solid
    tail_percentile: float          # see harness.measured_run
    make_jobs: Callable             # writes one round's documents, returns its Jobs


def write_inputs(workload: Workload, seed: int, directory: str) -> list:
    """Generate and write every input document; returns the rounds of jobs."""
    os.makedirs(directory, exist_ok=True)
    fixtures = {"tet": regular_tetrahedron(1.15), "hex": hexahedron(0.5),
                "bip": triangular_bipyramid()}
    out = _Writer(directory, seed)
    rounds = []
    for r in range(workload.rounds):
        solids = {f"r{r}-n{n}": fibonacci_solid(
                      np.random.RandomState([seed, r, n]), n, workload.min_edge)
                  for n in workload.sizes}
        rounds.append(workload.make_jobs(out, fixtures, solids, r))
    return rounds


class _Writer:
    def __init__(self, directory, seed):
        self.directory = directory
        self.seed = seed

    def path(self, key, what):
        return os.path.join(self.directory, f"{key}-{what}.json")

    def write(self, key, what, kind, payload):
        path = self.path(key, what)
        prov = {"command": "bench-generator",
                "parameters": {"input": key, "document": what},
                "seed": self.seed}
        serialize.write_document(path, serialize.envelope(kind, payload, prov))
        return path

    def polyhedron(self, key, poly, what="poly"):
        return self.write(key, what, "polyhedron",
                          serialize.encode_polyhedron(poly))


# -- jobs ---------------------------------------------------------------------------


def _nothing_more():
    """Exit code 0 is the whole check for this job."""


def _solve_small_jobs(out, fixtures, solids, r):
    # The roundtrip perturbation seed is the round's, not the run's: the
    # fixtures then run the same jobs in every run, while the generated
    # solids still change with the run seed.
    polys = {**fixtures, **{k: s.poly for k, s in solids.items()}}
    return [Job(f"roundtrip {key} seed {r + 1}",
                [["roundtrip", out.polyhedron(key, poly), "--steps", "8",
                  "--seed", str(r + 1)]],
                _nothing_more)
            for key, poly in polys.items()]


def _realize_large_jobs(out, fixtures, solids, r):
    jobs = []
    for key, solid in solids.items():
        target = out.write(key, "target", "dual_output",
                           serialize.encode_dual_output(solid.dual))
        start = out.polyhedron(key, solid.start, "start")
        report = out.path(key, "report")
        jobs.append(Job(
            f"realize {key}",
            [["realize", target, "--start", start, "--steps", "4",
              "--out", report]],
            _report_check(solid.poly, report)))
    return jobs


def _report_check(source, report_path):
    def verify():
        doc = serialize.read_document(report_path, expect_kind="solver_report")
        last = doc["payload"]["steps"][-1]
        if last["s"] != 1.0 or not last["residual"] < REALIZE_TOL:
            raise Unverified(f"final step s={last['s']} residual "
                             f"{last['residual']:.3e} (tol {REALIZE_TOL})")
        recovered = serialize.decode_polyhedron(doc["payload"]["polyhedron"])
        if not match_dihedral_angles(source, recovered, tol=MATCH_TOL):
            raise Unverified("recovered polyhedron differs from the source "
                             f"beyond {MATCH_TOL}")
    return verify


def _certify_jobs(out, fixtures, solids, r):
    polys = {**fixtures, **{k: s.poly for k, s in solids.items()}}
    chains = [(key, ["dualize", out.polyhedron(key, poly)])
              for key, poly in polys.items()]
    chains += [(f"fuchsian-h{h}", ["dualize", "--fuchsian", h])
               for h in FUCHSIAN_HEIGHTS]
    jobs = []
    for key, dualize in chains:
        dual = out.path(key, "dual")
        jobs.append(Job(f"certify {key}",
                        [dualize + ["--out", dual],
                         ["check", dual, "--depth", str(CHECK_DEPTH)]],
                        _nothing_more))
    return jobs


# Sizes step finely where jobs are short, so a round's job times spread
# without gaps and the median does not sit between two clusters. The
# realize-large sizes are three, so the median is a 40-face job and the tail
# percentile lands among the 50-face jobs. A 40-face job takes 13 or 17
# Jacobians depending on the solid, so a run of three rounds needs three
# distinct 40-face solids for its median not to rest on one of them. With 60
# faces only nine jobs fit in a run, and the median, resting on three 45-face
# jobs, spread to 0.29 of itself over ten seeds.
SMALL = (8, 10, 12, 14, 16, 18, 20)
WORKLOADS = {
    w.name: w for w in (
        Workload("solve-small", sizes=SMALL, rounds=2,
                 min_edge=ROUNDTRIP_MIN_EDGE, tail_percentile=65.0,
                 make_jobs=_solve_small_jobs),
        Workload("realize-large", sizes=(30, 40, 50), rounds=3,
                 min_edge=MIN_EDGE, tail_percentile=85.0,
                 make_jobs=_realize_large_jobs),
        Workload("certify", sizes=SMALL, rounds=2,
                 min_edge=MIN_EDGE, tail_percentile=70.0,
                 make_jobs=_certify_jobs),
    )
}
