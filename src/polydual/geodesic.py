"""Depth-bounded search for short closed geodesics of spherical cone-metrics.

Each triangle is developed once, isometrically onto the unit sphere in R^3,
and each half-edge carries the rotation that glues its neighbour's
development to its own; a triangle strip develops by composing them. A
closed geodesic crossing a cycle of edges develops onto a single great
circle; the search solves for it from the rotation holonomy of the strip.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConeMetric
from .surface import (
    SPHERICAL,
    ConeMetric,
    base_pair,
    develop_third_point,
    he_index,
    sphere_angle,
)

CROSSING_TOL = 1e-9
IDENTITY_TOL = 1e-8
LENGTH_CAP = 2 * np.pi           # largeness: no closed geodesic this short


def _develop(m: ConeMetric, t: int) -> np.ndarray:
    """Triangle t developed alone, positively oriented; corners as columns."""
    l01, l12, l20 = (m.lengths[m.surface.edge_of(t, k)] for k in range(3))
    A, B = base_pair(l01)
    return np.stack([A, B, develop_third_point(A, B, l20, l12, +1.0)], axis=1)


def _edge_frame(P, Q) -> np.ndarray:
    return np.stack([P, Q, np.cross(P, Q)], axis=1)


def _crossings(m: ConeMetric, corners) -> list:
    """Per half-edge h = (t, k): the rotation R_h carrying the neighbour across
    h, developed alone, into t's chart (the glued edge's corners onto their
    images), and the deck word picked up by crossing h."""
    surf = m.surface
    out = []
    for h in range(3 * surf.n_triangles):
        t, k = divmod(h, 3)
        t2, k2 = divmod(surf.mate(h), 3)
        X, X2 = corners[t], corners[t2]
        R = (_edge_frame(X[:, (k + 1) % 3], X[:, k])
             @ np.linalg.inv(_edge_frame(X2[:, k2], X2[:, (k2 + 1) % 3])))
        out.append((R, m.edge_word(h)))
    return out


def _strictly_inside(q, A, B) -> bool:
    """Whether q lies on segment AB, away from both endpoints."""
    da = sphere_angle(A, q)
    db = sphere_angle(q, B)
    return (abs(da + db - sphere_angle(A, B)) <= 1e-7
            and da >= CROSSING_TOL and db >= CROSSING_TOL)


# -- closed geodesic search ----------------------------------------------------


@dataclass
class ClosedGeodesic:
    length: float
    cycle: tuple                 # entering half-edges, cyclic
    contractible: bool


@dataclass
class SearchReport:
    min_length: Optional[float] = None
    found_within_cap: bool = False
    n_cycles_checked: int = 0
    geodesics: list = field(default_factory=list)


def _closed_walks(m: ConeMetric, depth: int):
    """Closed walks in the strip graph, canonical up to rotation."""
    surf = m.surface
    n_he = 3 * surf.n_triangles
    for h0 in range(n_he):
        stack = [(h0, (h0,))]
        while stack:
            h, walk = stack.pop()
            t, k = divmod(h, 3)
            for off in (1, 2):
                exit_he = he_index(t, (k + off) % 3)
                nxt = surf.mate(exit_he)
                if nxt == h0:
                    yield walk
                    continue
                if len(walk) < depth and nxt >= h0:
                    stack.append((nxt, walk + (nxt,)))


def _strip_holonomy(m: ConeMetric, walk, corners, crossings):
    """Compose the strip once around in the chart of its first triangle;
    return (holonomy, crossed developed edges, deck word product or None)."""
    surf = m.surface
    M = np.eye(3)
    edges = []
    word = np.eye(4) if m.deck_words is not None else None
    for i in range(len(walk)):
        exit_he = surf.mate(walk[(i + 1) % len(walk)])
        assert exit_he // 3 == walk[i] // 3
        t, ke = divmod(exit_he, 3)
        X = M @ corners[t]
        edges.append((X[:, ke], X[:, (ke + 1) % 3]))
        R, w = crossings[exit_he]
        M = M @ R
        if word is not None:
            word = word @ w
    # project to the rotation group to control drift
    u, _, vt = np.linalg.svd(M)
    return u @ vt, edges, word


def _axis_of_rotation(H):
    u, s, vt = np.linalg.svd(H - np.eye(3))
    return vt[-1]


def _fit_flat_normal(edges):
    mids = np.array([(A + B) / np.linalg.norm(A + B) for A, B in edges])
    w, v = np.linalg.eigh(mids.T @ mids)
    return v[:, 0]


def _circle_length_through_strip(n, edges, H):
    """Total length of the circle with normal n crossing every edge in order.

    The strip develops once around, so the segment after the last crossing
    ends at the holonomy image of the first one. Returns None unless the
    circle crosses each developed edge strictly inside and advances
    monotonically.
    """
    pts = []
    for A, B in edges:
        fa, fb = float(A @ n), float(B @ n)
        if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
            return None
        q = A - (fa / (fa - fb)) * (A - B)  # chord meets the circle plane
        nq = np.linalg.norm(q)
        if nq < 1e-12:
            return None
        q = q / nq
        if not _strictly_inside(q, A, B):
            return None
        pts.append(q)
    pts.append(H @ pts[0])
    total = 0.0
    sign_ref = None
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        sgn = float(np.dot(n, np.cross(a, b)))
        step = float(np.arctan2(abs(sgn), np.dot(a, b)))
        if step < CROSSING_TOL or step > np.pi - 1e-12:
            return None
        if sign_ref is None:
            sign_ref = np.sign(sgn)
            if sign_ref == 0:
                return None
        elif np.sign(sgn) != sign_ref:
            return None
        total += step
    return total


def _rotation_about(n, angle):
    n = n / np.linalg.norm(n)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def closed_geodesic_search(m: ConeMetric, depth: int = 8,
                           contractible_only: bool = True) -> SearchReport:
    """Depth-bounded search for closed geodesics of a spherical cone-metric.

    Enumerates edge-crossing cycles up to the given depth, develops each
    strip, and accepts a cycle when its holonomy admits an invariant great
    circle threading every crossed edge. The result is a bounded search, not
    a completeness certificate. With contractible_only, cycles whose deck
    word is nontrivial are skipped (metrics without deck words treat every
    cycle as contractible).
    """
    if m.geometry != SPHERICAL:
        raise InvalidConeMetric("closed geodesic search expects a spherical metric")
    report = SearchReport()
    corners = [_develop(m, t) for t in range(m.surface.n_triangles)]
    crossings = _crossings(m, corners)
    for walk in _closed_walks(m, depth):
        report.n_cycles_checked += 1
        H, edges, word = _strip_holonomy(m, walk, corners, crossings)
        contractible = True
        if word is not None:
            contractible = np.max(np.abs(word - np.eye(4))) < IDENTITY_TOL
        if contractible_only and not contractible:
            continue
        if np.max(np.abs(H - np.eye(3))) < IDENTITY_TOL:
            normal = _fit_flat_normal(edges)
            length = _circle_length_through_strip(normal, edges, np.eye(3))
        else:
            normal = _axis_of_rotation(H)
            length = _circle_length_through_strip(normal, edges, H)
            if length is not None:
                # holonomy must be the rotation by the traversed length about
                # the effective axis (sign fixed by the traversal direction)
                ok = min(np.max(np.abs(_rotation_about(normal, length) - H)),
                         np.max(np.abs(_rotation_about(-normal, length) - H)))
                if ok > 1e-6:
                    length = None
        if length is None:
            continue
        report.geodesics.append(ClosedGeodesic(length, walk, contractible))
        if report.min_length is None or length < report.min_length:
            report.min_length = length
    report.found_within_cap = (report.min_length is not None
                               and report.min_length <= LENGTH_CAP)
    return report
