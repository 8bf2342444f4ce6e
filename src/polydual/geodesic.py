"""Depth-bounded search for short closed geodesics of spherical cone-metrics.

Each triangle is developed once, isometrically onto the unit sphere in R^3,
and each half-edge carries the rotation that glues its neighbour's
development to its own; a triangle strip develops by composing them. A
closed geodesic crossing a cycle of edges develops onto a single great
circle; the search solves for it from the rotation holonomy of the strip.

The search is batched in two stages. The strip walks are enumerated level
by level, the tree of walks held as one int32 array of paths per level, in
lexicographic order, and pruned where the root is out of reach; the walks
that close at length L are one (N, L) array. Then all closed walks, padded
to the longest length with an identity step, are tested in one pass on
stacked arrays: holonomy and deck word by stacked matrix products, the
holonomy's axis in closed form (no SVD, and no projection back onto SO(3)),
then crossing points, strictly-inside and monotone-advance tests, and step
lengths, each reading only the steps of its own walk. A stage with no rows
left is skipped.
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
    cross,
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
    l01, l12, l20 = m.lengths[m.surface.halfedge_edge.reshape(-1, 3)].T
    A, B = base_pair(l01)
    return np.stack([A, B, develop_third_point(A, B, l20, l12, +1.0)], axis=-1)


def _edge_frame(P, Q) -> np.ndarray:
    return np.stack([P, Q, cross(P, Q)], axis=-1)


def _crossings(m: ConeMetric, corners, mate):
    """Per half-edge h = (t, k), and one padding step after the last: the
    frame [B, A, B x A] of h's edge AB in t's development, stacked
    (3T + 1, 3, 3); the rotation R_h carrying the neighbour across h,
    developed alone, into t's chart (the glued edge's corners onto their
    images), stacked (3T + 1, 3, 3); and the deck words picked up by
    crossing each h, stacked (3T + 1, 4, 4), or None when the metric has
    none. The padding step is the identity in all three, so a walk padded
    with it composes as if it had ended. An edge's word is crossed out of
    its smaller half-edge, and its inverse, one stacked inverse for all
    edges, out of the larger."""
    t, k = np.divmod(np.arange(3 * m.surface.n_triangles), 3)
    t2, k2 = np.divmod(mate, 3)
    frame = _edge_frame(corners[t, :, (k + 1) % 3], corners[t, :, k])
    R = frame @ np.linalg.inv(_edge_frame(corners[t2, :, k2],
                                          corners[t2, :, (k2 + 1) % 3]))
    frames = np.concatenate([frame, np.eye(3)[None]])
    R = np.concatenate([R, np.eye(3)[None]])
    if m.deck_words is None:
        return frames, R, None
    edge, first = m.surface.halfedge_edge, m.surface.edge_halfedges[:, 0]
    words = np.array([m.deck_words.get(e, np.eye(4)) for e in range(len(first))])
    smaller = (first[edge] == np.arange(len(edge)))[:, None, None]
    words = np.where(smaller, words[edge], np.linalg.inv(words)[edge])
    return frames, R, np.concatenate([words, np.eye(4)[None]])


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
    h0, and extends while it is shorter than depth, the next half-edge
    exceeds h0, and h0 can still be reached within depth, so each cycle is
    found from its least half-edge and no branch is grown that cannot close.
    The tree is grown one level at a time, each node's path carried as a
    row. Roots come in increasing order and every node's successors too, so
    each level's rows, and the closed walks among them, are in
    lexicographic order.
    """
    h = np.arange(len(mate))
    k = h % 3
    succ = np.sort(mate[np.stack([h - k + (k + 1) % 3, h - k + (k + 2) % 3],
                                 axis=1)], axis=1)
    # one lookup per step and root: 0 back at the root, the steps back to it
    # from a larger half-edge, and out of reach from a smaller one
    reach = np.where(h[:, None] < h, depth + 1,
                     _step_distances(succ, depth)).ravel()
    cur = root = h
    paths = h[:, None].astype(np.int32)
    out = []
    for length in range(1, depth + 1):
        nxt = np.take(succ, cur, axis=0)
        d = reach[nxt * len(h) + root[:, None]]
        back = d == 0
        closing = back[:, 0] | back[:, 1]
        if closing.any():
            out.append(paths[closing])
        node, col = ((d > 0) & (d <= depth - length)).nonzero()
        if not len(node):
            break
        cur, root = nxt[node, col], root[node]
        paths = np.concatenate([np.take(paths, node, axis=0),
                                cur[:, None].astype(np.int32)], axis=1)
    return out


def _step_distances(succ: np.ndarray, depth: int) -> np.ndarray:
    """Steps from half-edge a to half-edge r in the strip graph of successors
    succ (H, 2), as table[a, r]: exact below depth and at least depth beyond.
    Its entries never exceed depth, so it is held in the smallest signed
    integer type that holds depth + 1, where 1 + an entry cannot overflow;
    at the search's depths that is int8, a quarter of int32's memory
    traffic."""
    kind = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max > depth)
    dist = np.where(np.eye(len(succ), dtype=bool), 0, depth).astype(kind)
    for _ in range(depth - 1):
        dist = np.minimum(dist, 1 + np.minimum(dist[succ[:, 0]], dist[succ[:, 1]]))
    return dist


def _padded_walks(groups: list, mate: np.ndarray):
    """The closed walks of every length in one (N, Lmax) int32 array, in
    length order, each row padded after its walk with the padding step
    len(mate); their lengths (N,); and the exit half-edge of every step
    (N, Lmax), the mate of the next entering half-edge, the first one's
    after the last, and the padding step after that."""
    pad = len(mate)
    lengths = np.repeat([g.shape[1] for g in groups], [len(g) for g in groups])
    valid = np.arange(lengths[-1]) < lengths[:, None]
    walks = np.full(valid.shape, pad, dtype=np.int32)
    walks[valid] = np.concatenate([g.ravel() for g in groups])
    nxt = np.roll(walks, -1, axis=1)
    nxt[np.arange(len(walks)), lengths - 1] = walks[:, 0]
    return walks, lengths, np.where(valid, np.append(mate, pad)[nxt], pad)


def _strip_holonomy(exits, frames, rotations):
    """Compose every strip of a padded (N, Lmax) exit array once around in
    the chart of its first triangle. Returns the holonomies (N, 3, 3) and
    the ends A, B of the crossed developed edges (N, Lmax, 3) each, padding
    steps included. A product of at most Lmax rotations stays orthogonal to
    about Lmax roundoffs, so it is not projected back onto SO(3). Each step
    is one product with the frame's two edge ends and the rotation side by
    side, (3, 5)."""
    steps = np.concatenate([frames[..., :2], rotations], axis=-1)
    A, B = np.empty(exits.shape + (3,)), np.empty(exits.shape + (3,))
    M = np.tile(np.eye(3), (len(exits), 1, 1))
    for i, e in enumerate(exits.T):
        P = M @ steps[e]
        B[:, i], A[:, i], M = P[..., 0], P[..., 1], P[..., 2:]
    return M, A, B


def _word_products(exits, words) -> np.ndarray:
    """The deck word product of every padded walk, (N, 4, 4)."""
    W = np.tile(np.eye(4), (len(exits), 1, 1))
    for e in exits.T:
        W = W @ words[e]
    return W


def _max_deviation(X, Y) -> np.ndarray:
    return np.abs(X - Y).max(axis=(-2, -1))


def _fit_flat_normal(A, B, valid) -> np.ndarray:
    mids = A + B
    mids = mids / np.sqrt(rowdot(mids, mids))[..., None]
    mids = np.where(valid[..., None], mids, 0.0)       # padding steps
    return np.linalg.eigh(np.swapaxes(mids, -1, -2) @ mids)[1][..., 0]


def _rotation_axis(H) -> np.ndarray:
    """Unit axis n of each rotation H (N, 3, 3) off the identity, up to
    sign. H - I has the adjugate (3 - tr H) n n^T, so the cross products of
    its consecutive rows are (3 - tr H) n_k n for k = 0, 1, 2; the longest,
    at least (3 - tr H) / sqrt(3) long, is normalized."""
    K = H - np.eye(3)
    c = cross(K, K[:, [1, 2, 0]])
    c = c[np.arange(len(c)), np.argmax(rowdot(c, c), axis=1)]
    return c / np.sqrt(rowdot(c, c))[:, None]


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


def _circle_lengths(n, A, B, H, lengths):
    """Per strip of a padded (N, Lmax) array: whether the circle with normal n
    crosses every edge in order and advances monotonically, and its total
    length. Only the first lengths[i] steps of row i are read.

    The strip develops once around, so the segment after the last crossing
    ends at the holonomy image H of the first one. Steps are summed in walk
    order.
    """
    valid = np.arange(A.shape[1]) < lengths[:, None]
    q, ok = _crossing_points(n, A, B)
    ends = np.roll(q, -1, axis=1)
    ends[np.arange(len(q)), lengths - 1] = (H @ q[:, 0, :, None])[..., 0]
    sgn = rowdot(n[:, None, :], cross(q, ends))
    step = np.arctan2(np.abs(sgn), rowdot(q, ends))
    sign = np.sign(sgn)
    found = (ok.all(axis=1, where=valid)
             & ~((step < CROSSING_TOL) | (step > MAX_STEP)).any(axis=1, where=valid)
             & (sign[:, 0] != 0) & (sign == sign[:, :1]).all(axis=1, where=valid))
    return found, np.cumsum(np.where(valid, step, 0.0), axis=1)[:, -1]


def _closed_geodesics(H, A, B, lengths):
    """Per padded strip with holonomy H and crossed edges A, B: whether a
    great circle invariant under H threads every crossed edge, and its
    length.

    Off the flat branch the normal n is H's own axis, so H is the rotation
    by the traversed length L, untested: a monotone traversal about +-n from
    q0 (orthogonal to n) ends at H q0, so the rotation by L about that way
    of n agrees with H on q0; both fix n, so they are equal, for lengths
    near 2 pi too. Numerically, n is the longest cross product of two rows
    of H - I (`_rotation_axis`). For a rotation by phi the rows are at most
    2 sin(phi / 2) long and the product at least 4 sin(phi / 2)^2 / sqrt(3),
    with 2 sin(phi / 2) >= |H - I|_max >= IDENTITY_TOL, so a roundoff eps in
    H moves n by about eps / |H - I| (1e-8 for eps = 1e-16), as an SVD
    would, and L matches H to that. The sign of n is free: the crossing
    points do not depend on it, and the monotone test asks only that every
    step turn the same way.
    """
    flat = _max_deviation(H, np.eye(3)) < IDENTITY_TOL
    valid = np.arange(A.shape[1]) < lengths[:, None]
    normal = np.empty((len(H), 3))
    normal[~flat] = _rotation_axis(H[~flat])
    if flat.any():
        normal[flat] = _fit_flat_normal(A[flat], B[flat], valid[flat])
        H = np.where(flat[:, None, None], np.eye(3), H)
    # most circles leave some crossed edge on one side: test only the rest
    fa, fb = rowdot(A, normal[:, None]), rowdot(B, normal[:, None])
    live = ((fa > 0) != (fb > 0)).all(axis=1, where=valid).nonzero()[0]
    found, length = np.zeros(len(H), dtype=bool), np.zeros(len(H))
    if len(live):
        found[live], length[live] = _circle_lengths(
            normal[live], A[live], B[live], H[live], lengths[live])
    return found, length


def closed_geodesic_search(m: ConeMetric, depth: int = 8,
                           contractible_only: bool = True) -> SearchReport:
    """Depth-bounded search for closed geodesics of a spherical cone-metric.

    Enumerates the edge-crossing cycles of up to `depth` crossings level by
    level, then tests all of them together, padded to the longest: it
    develops each strip and accepts a cycle when its holonomy admits an
    invariant great circle threading every crossed edge. The result is a
    bounded search, not a completeness certificate. With contractible_only,
    cycles whose deck word is nontrivial are skipped (metrics without deck
    words treat every cycle as contractible). `geodesics` is sorted by walk
    length, then by walk (the tuple of entering half-edges, starting from
    its least).
    """
    if m.geometry != SPHERICAL:
        raise InvalidConeMetric("closed geodesic search expects a spherical metric")
    report = SearchReport()
    mate = m.surface.mate
    groups = _closed_walks(mate, depth)
    if groups:
        frames, rotations, words = _crossings(m, _develop(m), mate)
        walks, lengths, exits = _padded_walks(groups, mate)
        report.n_cycles_checked = len(walks)
        contractible = np.ones(len(walks), dtype=bool)
        if words is not None:
            contractible = (_max_deviation(_word_products(exits, words), np.eye(4))
                            < IDENTITY_TOL)
        kept = (contractible.nonzero()[0] if contractible_only
                else np.arange(len(walks)))
        if len(kept):
            H, A, B = _strip_holonomy(exits[kept], frames, rotations)
            found, length = _closed_geodesics(H, A, B, lengths[kept])
            rows = kept[found]
            for walk, n, ell, c in zip(walks[rows], lengths[rows], length[found],
                                       contractible[rows]):
                report.geodesics.append(
                    ClosedGeodesic(float(ell), tuple(walk[:n].tolist()), bool(c)))
    if report.geodesics:
        report.min_length = min(g.length for g in report.geodesics)
    report.found_within_cap = (report.min_length is not None
                               and report.min_length <= LENGTH_CAP)
    return report
