"""Seeded, scalable convex solids for the benchmark's inputs.

Why this generator exists: `polydual.polyhedra.random_polyhedron` draws plane
distances from 0.25-0.5, so as the face count grows most planes end up
redundant; it fails for every seed at 30 faces. Here every plane sits at a
near-fixed distance along a jittered Fibonacci direction, which keeps every
plane essential, and a short primal edge is repaired by redrawing one plane
near it, which keeps edges long enough for chart-preserving perturbations.
With a minimum edge of 0.02 this reaches 60 faces; towards 100 faces edges
below 5e-3 stay common.

Everything is drawn from the `numpy.random.RandomState` passed in, so one
seed gives one solid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polydual.errors import InvalidPolyhedron, SolverError
from polydual.minkowski import DSPoint
from polydual.polyhedra import (
    ConvexPolyhedronH3,
    DualMetricOutput,
    _fibonacci_directions,
    dualize,
    hull_from_dual_points,
)
from polydual.solver import perturbed_polyhedron

PLANE_DISTANCE = 0.5      # hyperbolic distance of each face plane from the origin
DISTANCE_JITTER = 0.02    # relative spread of that distance
DIRECTION_JITTER = 0.15   # direction noise, as a share of the mean direction spacing
START_MAGNITUDE = 1e-3    # size of the chart-preserving start perturbation
MAX_ROUNDS = 200


@dataclass
class Solid:
    poly: ConvexPolyhedronH3
    dual: DualMetricOutput
    start: ConvexPolyhedronH3     # perturbed solid realizing the dual's chart


def fibonacci_solid(rng: np.random.RandomState, n_faces: int,
                    min_edge: float) -> Solid:
    """A solid with n_faces essential faces and no primal edge below min_edge.

    The dual metric must build, and a perturbation of size START_MAGNITUDE
    that still realizes its chart must exist; that perturbation is returned
    as the solver start. Raises InvalidPolyhedron after MAX_ROUNDS repairs.
    """
    rot, _ = np.linalg.qr(rng.randn(3, 3))
    base = _fibonacci_directions(n_faces) @ rot.T
    spread = DIRECTION_JITTER * np.sqrt(4 * np.pi / n_faces)
    dirs = np.empty((n_faces, 3))
    dist = np.empty(n_faces)

    def redraw(idx):
        d = base[idx] + spread * rng.randn(len(idx), 3)
        dirs[idx] = d / np.linalg.norm(d, axis=1)[:, None]
        dist[idx] = PLANE_DISTANCE * (1 + DISTANCE_JITTER * rng.randn(len(idx)))

    redraw(np.arange(n_faces))
    for _ in range(MAX_ROUNDS):
        duals = [DSPoint(np.array([np.sinh(t), *(np.cosh(t) * u)]))
                 for u, t in zip(dirs, dist)]
        try:
            poly = hull_from_dual_points(duals)
        except InvalidPolyhedron:
            redraw(np.arange(n_faces))
            continue
        if poly.discarded:
            redraw(np.array(poly.discarded))
            continue
        # no plane was discarded, so face indices are plane indices
        short = [e for e in range(poly.n_edges) if poly.edge_length(e) < min_edge]
        if short:
            redraw(np.array(sorted({_plane_near(poly, e, rng) for e in short})))
            continue
        dual = dualize(poly)
        try:
            start = perturbed_polyhedron(poly, rng, START_MAGNITUDE,
                                         chart=dual.metric)
        except SolverError:
            redraw(np.arange(n_faces))
            continue
        return Solid(poly=poly, dual=dual, start=start)
    raise InvalidPolyhedron(
        f"no {n_faces}-face solid without short edges in {MAX_ROUNDS} rounds")


def _plane_near(poly: ConvexPolyhedronH3, e: int, rng) -> int:
    """One face meeting an end of edge e but not containing it.

    A short edge means four planes nearly meet in a point; moving one of the
    two that cap its ends separates them.
    """
    caps = set()
    for v in poly.edges[e].vertices:
        caps.update(poly.faces_at_vertex(v))
    caps -= set(poly.edges[e].faces)
    caps = sorted(caps)
    return caps[rng.randint(len(caps))]
