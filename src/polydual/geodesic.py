"""Depth-bounded search for short closed geodesics of spherical cone-metrics.

Each triangle is developed once, isometrically onto the unit sphere in R^3,
and each half-edge carries the rotation that glues its neighbour's
development to its own; a triangle strip develops by composing them. A
closed geodesic crossing a cycle of edges develops onto a single great
circle; the search solves for it from the rotation holonomy of the strip.

The search is batched in two stages. The strip walks are enumerated level
by level, the tree of walks held as int32 arrays (current half-edge, root,
parent index per node), and only the walks that close are read back along
their parent pointers, into one (N, L) array per walk length L. Then every
closed walk of a length is tested at once on stacked arrays: holonomy and
deck word by stacked matrix products, crossing points, strictly-inside and
monotone-advance tests, and step lengths.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConeMetric
from .surface import (
    SPHERICAL,
    ConeMetric,
    base_pair,
    develop_third_point,
    rowdot,
    sphere_angle,
)

CROSSING_TOL = 1e-9              # shortest crossing offset and circle step
IDENTITY_TOL = 1e-8              # holonomy or deck word taken as the identity
ON_SEGMENT_TOL = 1e-7            # |Aq| + |qB| - |AB| for q on segment AB
CHORD_TOL = 1e-12                # shortest chord point projected to the sphere
MAX_STEP = np.pi - 1e-12         # longest step between consecutive crossings
LENGTH_CAP = 2 * np.pi           # largeness: no closed geodesic this short


def _develop(m: ConeMetric) -> np.ndarray:
    """Every triangle developed alone, positively oriented: (T, 3, 3), the
    corners of triangle t as the columns of [t]."""
    surf = m.surface
    edges = [[surf.edge_of(t, k) for k in range(3)] for t in range(surf.n_triangles)]
    l01, l12, l20 = m.lengths[np.array(edges)].T
    A, B = base_pair(l01)
    return np.stack([A, B, develop_third_point(A, B, l20, l12, +1.0)], axis=-1)


def _edge_frame(P, Q) -> np.ndarray:
    return np.stack([P, Q, np.cross(P, Q)], axis=-1)


def _mates(m: ConeMetric) -> np.ndarray:
    return np.array([m.surface.mate(h) for h in range(3 * m.surface.n_triangles)],
                    dtype=np.int32)


def _crossings(m: ConeMetric, corners, mate):
    """Per half-edge h = (t, k): the rotation R_h carrying the neighbour across
    h, developed alone, into t's chart (the glued edge's corners onto their
    images), stacked (3T, 3, 3); and the deck words picked up by crossing
    each h, stacked (3T, 4, 4), or None when the metric has none."""
    t, k = np.divmod(np.arange(3 * m.surface.n_triangles), 3)
    t2, k2 = np.divmod(mate, 3)
    R = (_edge_frame(corners[t, :, (k + 1) % 3], corners[t, :, k])
         @ np.linalg.inv(_edge_frame(corners[t2, :, k2], corners[t2, :, (k2 + 1) % 3])))
    if m.deck_words is None:
        return R, None
    return R, np.array([m.edge_word(h) for h in range(len(t))])


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


def _closed_walks(mate: np.ndarray, depth: int) -> list:
    """Closed walks in the strip graph, canonical up to rotation: one (N, L)
    int32 array of entering half-edges per walk length L that occurs, rows in
    lexicographic order.

    A walk from root h0 entering triangle t by half-edge (t, k) steps on to
    the mates of (t, k+1) and (t, k+2). It closes when the next half-edge is
    h0, and extends while it is shorter than depth and the next half-edge
    exceeds h0, so each cycle is found from its least half-edge. The tree is
    grown one level at a time; a node keeps only its half-edge, root and
    parent, and closed walks are read back along the parent pointers.
    """
    h = np.arange(len(mate))
    k = h % 3
    succ = mate[np.stack([h - k + (k + 1) % 3, h - k + (k + 2) % 3], axis=1)]
    cur = root = h.astype(np.int32)
    levels = []                  # (half-edge, parent) of the nodes per level
    parent = np.full(len(h), -1, dtype=np.int32)
    out = []
    for length in itertools.count(1):
        levels.append((cur, parent))
        nxt = succ[cur]
        closing = np.nonzero(nxt == root[:, None])[0]
        if len(closing):
            walks = np.empty((len(closing), length), dtype=np.int32)
            node = closing
            for i in range(length - 1, -1, -1):
                walks[:, i] = levels[i][0][node]
                node = levels[i][1][node]
            out.append(walks[np.lexsort(walks.T[::-1])])
        if length >= depth:
            return out
        node, col = np.nonzero(nxt > root[:, None])
        cur, parent, root = nxt[node, col], node.astype(np.int32), root[node]


def _strip_holonomy(walks, mate, corners, rotations, words):
    """Compose every strip of an (N, L) walk array once around in the chart
    of its first triangle. Returns the holonomies projected onto SO(3)
    (N, 3, 3), the ends A, B of the crossed developed edges (N, L, 3) each,
    and the deck word products (N, 4, 4), or None without deck words."""
    n, length = walks.shape
    exits = mate[np.roll(walks, -1, axis=1)]    # exit half-edge of each step
    rows = np.arange(n)
    M = np.tile(np.eye(3), (n, 1, 1))
    word = None if words is None else np.tile(np.eye(4), (n, 1, 1))
    A, B = np.empty((n, length, 3)), np.empty((n, length, 3))
    for i in range(length):
        e = exits[:, i]
        X = M @ corners[e // 3]
        A[:, i], B[:, i] = X[rows, :, e % 3], X[rows, :, (e + 1) % 3]
        M = M @ rotations[e]
        if word is not None:
            word = word @ words[e]
    # project to the rotation group to control drift
    u, _, vt = np.linalg.svd(M)
    return u @ vt, A, B, word


def _max_deviation(X, Y) -> np.ndarray:
    return np.max(np.abs(X - Y), axis=(-2, -1))


def _fit_flat_normal(A, B) -> np.ndarray:
    mids = A + B
    mids = mids / np.sqrt(rowdot(mids, mids))[..., None]
    return np.linalg.eigh(np.swapaxes(mids, -1, -2) @ mids)[1][..., 0]


def _crossing_points(n, A, B):
    """Where the great circle with normal n (N, 3) meets each developed edge
    AB (N, L, 3), and whether it crosses the edge strictly inside."""
    nn = n[:, None, :]
    fa, fb = rowdot(A, nn), rowdot(B, nn)
    ok = (fa != 0.0) & (fb != 0.0) & ((fa > 0) != (fb > 0))
    # where the chord AB meets the circle's plane; masked rows divide by one
    q = A - (fa / np.where(ok, fa - fb, 1.0))[..., None] * (A - B)
    nq = np.sqrt(rowdot(q, q))
    ok &= ~(nq < CHORD_TOL)
    q = q / np.where(ok, nq, 1.0)[..., None]
    da, db = sphere_angle(A, q), sphere_angle(q, B)
    ok &= ((np.abs(da + db - sphere_angle(A, B)) <= ON_SEGMENT_TOL)
           & (da >= CROSSING_TOL) & (db >= CROSSING_TOL))
    return q, ok


def _circle_lengths(n, A, B, H):
    """Per strip: whether the circle with normal n crosses every edge in order
    and advances monotonically, and its total length.

    The strip develops once around, so the segment after the last crossing
    ends at the holonomy image H of the first one. Steps are summed in walk
    order.
    """
    q, ok = _crossing_points(n, A, B)
    ends = np.concatenate([q[:, 1:], (H @ q[:, 0, :, None])[:, None, :, 0]], axis=1)
    sgn = rowdot(n[:, None, :], np.cross(q, ends))
    step = np.arctan2(np.abs(sgn), rowdot(q, ends))
    sign = np.sign(sgn)
    found = (ok.all(axis=1)
             & ~((step < CROSSING_TOL) | (step > MAX_STEP)).any(axis=1)
             & (sign[:, 0] != 0) & (sign == sign[:, :1]).all(axis=1))
    return found, np.cumsum(step, axis=1)[:, -1]


def _closed_geodesics(H, A, B):
    """Per strip with holonomy H and crossed edges A, B: whether a great
    circle invariant under H threads every crossed edge, and its length.

    Off the flat branch the normal n is H's own axis, so H is the rotation
    by the traversed length L, untested: a monotone traversal about +-n from
    q0 (orthogonal to n) ends at H q0, so the rotation by L about that way
    of n agrees with H on q0; both fix n, so they are equal, for lengths
    near 2 pi too. Numerically, n is H - I's singular vector for its zero
    singular value; the other two are 2 sin(phi / 2) >= |H - I|_max >=
    IDENTITY_TOL for a rotation by phi, so a roundoff eps in H moves n by
    about eps / |H - I| (1e-8 for eps = 1e-16), and L matches H to that.
    """
    flat = _max_deviation(H, np.eye(3)) < IDENTITY_TOL
    normal = np.empty((len(H), 3))
    normal[flat] = _fit_flat_normal(A[flat], B[flat])
    normal[~flat] = np.linalg.svd(H[~flat] - np.eye(3))[2][:, -1]  # rotation axis
    H = np.where(flat[:, None, None], np.eye(3), H)
    return _circle_lengths(normal, A, B, H)


def closed_geodesic_search(m: ConeMetric, depth: int = 8,
                           contractible_only: bool = True) -> SearchReport:
    """Depth-bounded search for closed geodesics of a spherical cone-metric.

    Enumerates the edge-crossing cycles of up to `depth` crossings level by
    level, then tests all cycles of one length together: it develops each
    strip and accepts a cycle when its holonomy admits an invariant great
    circle threading every crossed edge. The result is a bounded search, not
    a completeness certificate. With contractible_only, cycles whose deck
    word is nontrivial are skipped (metrics without deck words treat every
    cycle as contractible). `geodesics` is sorted by walk length, then by
    walk (the tuple of entering half-edges, starting from its least).
    """
    if m.geometry != SPHERICAL:
        raise InvalidConeMetric("closed geodesic search expects a spherical metric")
    report = SearchReport()
    corners = _develop(m)
    mate = _mates(m)
    rotations, words = _crossings(m, corners, mate)
    for walks in _closed_walks(mate, depth):
        report.n_cycles_checked += len(walks)
        H, A, B, word = _strip_holonomy(walks, mate, corners, rotations, words)
        contractible = np.ones(len(walks), dtype=bool)
        if word is not None:
            contractible = _max_deviation(word, np.eye(4)) < IDENTITY_TOL
        keep = contractible if contractible_only else np.ones_like(contractible)
        found, length = _closed_geodesics(H[keep], A[keep], B[keep])
        for walk, ell, c in zip(walks[keep][found], length[found],
                                contractible[keep][found]):
            report.geodesics.append(
                ClosedGeodesic(float(ell), tuple(walk.tolist()), bool(c)))
    if report.geodesics:
        report.min_length = min(g.length for g in report.geodesics)
    report.found_within_cap = (report.min_length is not None
                               and report.min_length <= LENGTH_CAP)
    return report
