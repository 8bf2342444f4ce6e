"""Triangulated closed oriented surfaces carrying spherical or hyperbolic
cone-metrics: cone angles, concavity, Gauss-Bonnet bookkeeping, uniform
length scaling, fan triangulation of polygons, and the spherical
development behind edge flips.

Half-edge (t, k) of triangle t runs from corner k to corner (k+1) % 3.
Half-edges are also addressed by the linear index 3*t + k. An edge is an
unordered pair of mutually glued half-edges; edges are numbered by sorting
on their smaller half-edge index, and all per-edge arrays follow that order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DomainExceeded,
    FlipBlocked,
    InvalidConeMetric,
    InvalidSurface,
    LengthOverflow,
)
from .minkowski import clamped

SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"

ANG_SLACK = 1e-12
MIN_TRIANGLE_AREA = 1e-12


_NEXT = np.array([1, 2, 0])      # corner k + 1, or the side after side k
_PREV = np.array([2, 0, 1])


def cross(u, w):
    """u x w along the last axis of two arrays of 3-vectors, with np.cross's
    arithmetic and bits (not its C memory order), without its axis
    handling."""
    return u[..., _NEXT] * w[..., _PREV] - u[..., _PREV] * w[..., _NEXT]


def directed_mates(tri, n_vertices) -> np.ndarray:
    """Per half-edge 3t + k, running from vertex tri[t, k] to tri[t, k + 1]:
    the half-edge running back between the same two vertices, by one sort;
    -1 where no half-edge or several run back."""
    tail, head = tri.ravel(), tri[:, _NEXT].ravel()
    key = tail * n_vertices + head
    back = head * n_vertices + tail
    order = np.argsort(key)
    ranked = key[order]
    spot = np.minimum(np.searchsorted(ranked, back), len(key) - 1)
    twice = np.append(ranked[1:] == ranked[:-1], False)
    return np.where((ranked[spot] == back) & ~twice[spot], order[spot], -1)


class CombSurface:
    """Combinatorics of a closed oriented triangulated surface, as arrays.

    triangles (T, 3): the vertex ids of each triangle's corners.
    mate (3T,): the half-edge glued to each half-edge.
    halfedge_edge (3T,): the edge of each half-edge.
    edge_halfedges (E, 2): the two half-edges of each edge, smaller first.

    gluing is the involution pairing half-edges: a mapping h -> mate, or a
    sequence of every half-edge's mate (-1 for none). If omitted it is
    derived by matching each directed edge (u, w) with its reverse (w, u),
    which works whenever that matching is unambiguous. The arrays are
    read-only.
    """

    def __init__(self, n_vertices: int, triangles, gluing=None):
        self.n_vertices = n = int(n_vertices)
        if isinstance(triangles, np.ndarray):
            three = triangles.ndim == 2 and triangles.shape[1] == 3
        else:
            triangles = [tuple(t) for t in triangles]
            three = all(len(t) == 3 for t in triangles)
        if not three:
            raise InvalidSurface("triangles need exactly three corners")
        # C order, as every per-triangle array built from it
        tri = np.array(triangles, dtype=int, order="C").reshape(-1, 3)
        if tri.size and (tri.min() < 0 or tri.max() >= n):
            raise InvalidSurface("vertex id out of range")
        if np.count_nonzero(np.bincount(tri.ravel(), minlength=n)) != n:
            raise InvalidSurface("every vertex id must appear in some triangle")
        if gluing is None:
            mate = _derived_gluing(tri, n)
        else:
            mate = _checked_gluing(tri, gluing)
        # edges numbered by their smaller half-edge
        first = (np.arange(len(mate)) < mate).nonzero()[0]
        edge = np.empty(len(mate), dtype=int)
        edge[first] = edge[mate[first]] = np.arange(len(first))
        _check_connected(mate)
        self.triangles = tri
        self.mate = mate
        self.halfedge_edge = edge
        self.edge_halfedges = np.stack([first, mate[first]], axis=1)
        for a in (tri, mate, edge, self.edge_halfedges):
            a.setflags(write=False)

    # -- queries ---------------------------------------------------------------

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edge_halfedges)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

    @property
    def genus(self) -> int:
        chi = self.euler_characteristic
        if chi % 2 != 0 or chi > 2:
            raise InvalidSurface(f"Euler characteristic {chi} is not closed-orientable")
        return (2 - chi) // 2

    def triangle_edge_lengths(self, t: int, lengths: np.ndarray) -> np.ndarray:
        """Side lengths (a, b, c) opposite corners 0, 1, 2 of triangle t."""
        return lengths[self.triangle_sides[t]]

    @cached_property
    def edge_pairs(self) -> np.ndarray:
        """(n_edges, 2) endpoints of every edge, in edge order, as its smaller
        half-edge runs; read-only."""
        h = self.edge_halfedges[:, 0]
        pairs = np.stack([self.triangles.ravel()[h],
                          self.triangles[:, _NEXT].ravel()[h]], axis=1)
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def triangle_sides(self) -> np.ndarray:
        """(n_triangles, 3) edge of the side opposite each corner; read-only."""
        # the side opposite corner k is the half-edge (t, k + 1)
        sides = np.roll(self.halfedge_edge.reshape(-1, 3), -1, axis=1)
        sides.setflags(write=False)
        return sides

    @cached_property
    def triangle_vertex_mask(self) -> np.ndarray:
        """(n_triangles, n_vertices): True where the vertex is a corner of
        the triangle; read-only."""
        own = np.zeros((self.n_triangles, self.n_vertices), dtype=bool)
        np.put_along_axis(own, self.triangles, True, axis=1)
        own.setflags(write=False)
        return own

    @cached_property
    def has_parallel_edges(self) -> bool:
        """True when two edges join the same two vertices."""
        keys = np.sort(self.edge_pairs, axis=1) @ [self.n_vertices, 1]
        return len(np.unique(keys)) != self.n_edges


def _derived_gluing(tri, n_vertices) -> np.ndarray:
    """The mates of `directed_mates`, or InvalidSurface naming the first
    half-edge whose directed edge is repeated or has no unique reverse."""
    mate = directed_mates(tri, n_vertices)
    if (mate >= 0).all():
        return mate
    # a repeated directed edge leaves some half-edge without a mate
    key = tri.ravel() * n_vertices + tri[:, _NEXT].ravel()
    _, at, count = np.unique(key, return_inverse=True, return_counts=True)
    h = np.argmax((count[at] != 1) | (mate < 0))
    uw = (int(tri.flat[h]), int(tri[:, _NEXT].flat[h]))
    if count[at[h]] != 1:
        raise InvalidSurface(f"directed edge {uw} appears {count[at[h]]} times; "
                             "pass an explicit gluing")
    raise InvalidSurface(f"directed edge {uw} has no unique mate")


def _checked_gluing(tri, gluing) -> np.ndarray:
    """The mate array of an explicit gluing, checked in its own order (a
    mapping's item order, a sequence's index order) to be an involution
    without fixed points covering every half-edge and reversing
    orientation; InvalidSurface names the first pair that is not."""
    n_he = 3 * len(tri)
    if isinstance(gluing, dict):
        heads = np.fromiter(gluing, dtype=int, count=len(gluing))
        mates = np.fromiter(gluing.values(), dtype=int, count=len(gluing))
    else:
        mates = np.asarray(gluing, dtype=int).ravel()
        heads = np.where(mates >= 0, np.arange(len(mates)), -1)
    # the heads are distinct: n_he of them in range cover every half-edge
    if len(heads) != n_he or ((heads < 0) | (heads >= n_he)).any():
        raise InvalidSurface("gluing must cover every half-edge")
    mate = np.empty(n_he, dtype=int)
    mate[heads] = mates
    back = np.where((mates >= 0) & (mates < n_he), mates, heads)
    twisted = (back == heads) | (mate[back] != heads)
    tail, head = tri.ravel(), tri[:, _NEXT].ravel()
    bad = twisted | (tail[heads] != head[back]) | (head[heads] != tail[back])
    if bad.any():
        i = np.argmax(bad)
        if twisted[i]:
            raise InvalidSurface("gluing must be a fixed-point-free involution")
        raise InvalidSurface(f"half-edges {heads[i]} and {mates[i]} glued "
                             "without reversing orientation")
    return mate


def _check_connected(mate):
    """InvalidSurface unless the triangles are connected across their mates."""
    if not len(mate):
        raise InvalidSurface("empty surface")
    if least_labels(mate.reshape(-1, 3) // 3).any():
        raise InvalidSurface("surface is not connected")


def least_labels(neighbours: np.ndarray) -> np.ndarray:
    """The least node of each node's component in a graph given by a
    symmetric neighbour table (n, k), by label propagation: each label
    falls to the least label among its node's neighbours, then jumps to
    its label's label, until no label changes."""
    label = np.arange(len(neighbours))
    while True:
        low = np.minimum(label, label[neighbours].min(axis=1))
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def corner_angles(sides: np.ndarray, geometry: str) -> tuple:
    """Interior angles of triangles by the law of cosines, over the last
    axis of `sides` (any leading axes): angle k is opposite sides[..., k].
    Returns (angles, cosines), each angle the arccos of its cosine clipped
    into [-1, 1]; a cosine beyond that by more than ANG_SLACK is outside the
    law's domain, which `metric_rows` reports."""
    if geometry == SPHERICAL:
        sin, cos = np.sin(sides), np.cos(sides)
    elif geometry == HYPERBOLIC:
        sin, cos = np.sinh(sides), np.cosh(sides)
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    # corner k against the sides k + 1 and k + 2 that meet there
    cos1, cos2 = cos[..., _NEXT], cos[..., _PREV]
    opposite = cos - cos1 * cos2 if geometry == SPHERICAL else cos1 * cos2 - cos
    cosines = opposite / (sin[..., _NEXT] * sin[..., _PREV])
    return np.arccos(np.clip(cosines, -1.0, 1.0)), cosines


class MetricRows(NamedTuple):
    """What `ConeMetric` finds on each row of a stack of edge lengths."""
    errors: list                 # per row: None, or the exception it raises
    corner_angles: np.ndarray    # (S, T, 3); NaN where no angle was taken


def metric_rows(surface: CombSurface, geometry: str, lengths) -> MetricRows:
    """ConeMetric's checks on every row of an (S, E) stack of edge lengths,
    in one stacked pass, in ConeMetric's order and with its messages: the
    lengths positive and finite, spherical ones below pi, every triangle's
    inequalities (and a spherical perimeter below 2 pi, the first failing
    triangle named), every cosine of `corner_angles` inside its domain
    (else DomainExceeded, at the row's first cosine beyond it), and no
    degenerate or wrongly curved triangle. A row's error is the exception
    `ConeMetric(surface, geometry, row)` raises, and the angles of a row
    without one are the angles it keeps. Each row is checked on its own:
    the rows past a failing one are checked all the same."""
    spherical = geometry == SPHERICAL
    errors = [None] * len(lengths)
    sides = lengths[:, surface.triangle_sides]            # (S, T, 3)
    with np.errstate(invalid="ignore"):
        value = ~(np.isfinite(lengths) & (lengths > 0)).all(axis=1)
        a, b, c = sides[..., 0], sides[..., 1], sides[..., 2]
        unequal = (a + b <= c) | (b + c <= a) | (c + a <= b)
        if spherical:
            long_edge = (lengths >= np.pi).any(axis=1)
            triangle = unequal | (a + b + c >= 2 * np.pi)
        else:
            long_edge, triangle = np.zeros(len(lengths), bool), unequal
        shaped = ~(value | long_edge | triangle.any(axis=1))
        # sides below about 1e-162 have sines whose product underflows and
        # cosines that round to 1, so their angles come out 0 / 0
        if shaped.all():
            angles, cosines = corner_angles(sides, geometry)
            rows, kept = np.arange(len(lengths)), angles
        else:
            for r in (~shaped).nonzero()[0]:
                t = int(np.argmax(triangle[r]))
                errors[r] = InvalidConeMetric(
                    "edge lengths must be positive and finite" if value[r]
                    else "spherical edge lengths must stay below pi" if long_edge[r]
                    else f"triangle {t} violates the triangle inequality"
                    if unequal[r, t] else f"triangle {t} has perimeter >= 2*pi")
            rows = shaped.nonzero()[0]
            angles = np.full(sides.shape, np.nan)
            angles[rows], cosines = corner_angles(sides[rows], geometry)
            kept = angles[rows]
    beyond = np.abs(cosines) > 1.0 + ANG_SLACK
    excess = kept.sum(axis=2) - np.pi
    # a NaN excess is degenerate too
    flat = ~(np.abs(excess) >= MIN_TRIANGLE_AREA).all(axis=1)
    bent = ((excess <= 0) if spherical else (excess >= 0)).any(axis=1)
    for k in (beyond.any(axis=(1, 2)) | flat | bent).nonzero()[0]:
        if beyond[k].any():
            try:
                clamped(cosines[k].flat[np.argmax(beyond[k])], -1.0, 1.0, ANG_SLACK)
            except DomainExceeded as exc:
                errors[rows[k]] = exc
        else:
            errors[rows[k]] = InvalidConeMetric(
                "degenerate triangle (area below 1e-12)" if flat[k]
                else "spherical triangle with nonpositive excess" if spherical
                else "hyperbolic triangle with nonnegative defect")
    return MetricRows(errors, angles)


def cone_angle_rows(surface: CombSurface, corner_angles: np.ndarray) -> np.ndarray:
    """(S, n) every vertex's sum of corner angles in each of S stacked rows
    of corner angles (S, T, 3), added in triangle and corner order: one
    bincount, each row's vertices offset by n."""
    n, rows = surface.n_vertices, len(corner_angles)
    at = surface.triangles.ravel() + n * np.arange(rows)[:, None]
    return np.bincount(at.ravel(), weights=corner_angles.ravel(),
                       minlength=n * rows).reshape(rows, n)


class ConeMetric:
    """Per-edge lengths on a CombSurface, one spherical or hyperbolic triangle
    per face.

    deck_words optionally attaches a 4x4 holonomy matrix to each edge (same
    matrix convention for the smaller half-edge of the pair; the mate crosses
    with the inverse). It is used to decide which curve classes are
    contractible in an ambient 3-manifold; None means every class is.
    """

    def __init__(self, surface: CombSurface, geometry: str, lengths,
                 deck_words: Optional[dict] = None):
        if geometry not in (SPHERICAL, HYPERBOLIC):
            raise InvalidConeMetric(f"unknown geometry {geometry!r}")
        self.surface = surface
        self.geometry = geometry
        self.lengths = np.asarray(lengths, dtype=float).copy()
        if self.lengths.shape != (surface.n_edges,):
            raise InvalidConeMetric(
                f"need {surface.n_edges} edge lengths, got {self.lengths.shape}")
        self.deck_words = None
        if deck_words is not None:
            self.deck_words = {int(e): np.asarray(w, dtype=float)
                               for e, w in deck_words.items()}
        (error,), (angles,) = metric_rows(surface, geometry, self.lengths[None])
        if error is not None:
            raise error
        self.corner_angles = angles

    # -- intrinsic quantities --------------------------------------------------

    def cone_angles(self) -> np.ndarray:
        """Each vertex's sum of corner angles, added in triangle and corner
        order."""
        return cone_angle_rows(self.surface, self.corner_angles[None])[0]

    def edge_word(self, h: int) -> Optional[np.ndarray]:
        """Deck holonomy picked up when crossing half-edge h out of its triangle."""
        if self.deck_words is None:
            return None
        e = self.surface.halfedge_edge[h]
        w = self.deck_words.get(int(e))
        if w is None:
            return np.eye(4)
        return w if h == self.surface.edge_halfedges[e, 0] else np.linalg.inv(w)


@dataclass(frozen=True)
class ConcavityReport:
    concave: bool
    margins: np.ndarray = field(repr=False)
    min_margin: float = 0.0


def is_concave(m: ConeMetric) -> ConcavityReport:
    """Check that every cone angle exceeds 2*pi, with per-vertex margins."""
    if m.geometry != SPHERICAL:
        raise InvalidConeMetric("concavity is defined for spherical cone-metrics")
    margins = m.cone_angles() - 2 * np.pi
    return ConcavityReport(concave=bool((margins > 0).all()),
                           margins=margins,
                           min_margin=float(margins.min()))


def gauss_bonnet_residual(m: ConeMetric) -> float:
    """Curvature integral plus vertex deficits minus 2*pi*chi; zero when consistent.

    The curvature integral of each triangle is its angle sum minus pi, which
    equals +area for spherical triangles and -area for hyperbolic ones.
    """
    curvature = float(m.corner_angles.sum() - np.pi * m.surface.n_triangles)
    deficit = float(np.sum(2 * np.pi - m.cone_angles()))
    return curvature + deficit - 2 * np.pi * m.surface.euler_characteristic


def scale(m: ConeMetric, lam: float) -> ConeMetric:
    """Multiply every edge length by exp(lam)."""
    new_lengths = np.exp(lam) * m.lengths
    if m.geometry == SPHERICAL and (new_lengths >= np.pi).any():
        raise LengthOverflow(
            f"scaling by exp({lam}) pushes an edge length to "
            f"{new_lengths.max():.6f} >= pi")
    return ConeMetric(m.surface, m.geometry, new_lengths, deck_words=m.deck_words)


def fan_triangulations(sizes) -> tuple:
    """The fans of polygons with the given corner counts, each from its
    corner 0, numbered one polygon after the other: polygon p's triangles
    follow those of polygons 0, ..., p - 1, and its j-th triangle has the
    polygon corners (0, j + 1, j + 2).

    Returns (owner, corners, sides, diagonals, diagonal_owner): triangle t
    lies in polygon owner[t] with the polygon corners corners[t]; sides[p, j]
    is the half-edge of polygon p's side from corner j to corner j + 1 (-1
    past its corners); diagonals[d] is the glued pair (j -> 0, 0 -> j) of
    half-edges of a diagonal to corner j, the first one in the earlier
    triangle, in polygon diagonal_owner[d], in order of j.
    """
    sizes = np.asarray(sizes, dtype=int)
    count = sizes - 2
    base = np.cumsum(count) - count            # each polygon's first triangle
    owner = np.repeat(np.arange(len(sizes)), count)
    corners = np.zeros((len(owner), 3), dtype=int)
    corners[:, 1] = np.arange(len(owner)) - base[owner] + 1
    corners[:, 2] = corners[:, 1] + 1
    # side 0 is half-edge 0 of the first triangle, side i < m - 1 half-edge
    # 1 of triangle i - 1, and side m - 1 half-edge 2 of the last
    sides = 3 * base[:, None] + 3 * np.arange(int(sizes.max())) - 2
    sides[:, 0] = 3 * base
    sides[np.arange(len(sizes)), sizes - 1] = 3 * (base + count - 1) + 2
    sides[np.arange(sides.shape[1]) >= sizes[:, None]] = -1
    # polygon p's diagonals sit between its consecutive triangles
    diagonal_owner = np.repeat(np.arange(len(sizes)), count - 1)
    first = np.repeat(base - (np.cumsum(count - 1) - (count - 1)), count - 1)
    d = 3 * (np.arange(len(diagonal_owner)) + first) + 2
    diagonals = np.stack([d, d + 1], axis=1)
    return owner, corners, sides, diagonals, diagonal_owner


# -- canned builders ----------------------------------------------------------


def octahedron_sphere() -> ConeMetric:
    """The round sphere triangulated as a regular octahedron, all edges pi/2."""
    tris = [(0, 1, 2), (1, 3, 2), (3, 4, 2), (4, 0, 2),
            (1, 0, 5), (3, 1, 5), (4, 3, 5), (0, 4, 5)]
    surf = CombSurface(6, tris)
    return ConeMetric(surf, SPHERICAL, np.full(surf.n_edges, np.pi / 2))


# -- spherical development and edge flip --------------------------------------


def rowdot(a, b):
    """Dot products of vectors stacked along the leading axes, each with the
    arithmetic of a 1-D `a @ b` (a stacked matmul of 1x3 by 3x1 blocks)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def sphere_angle(u, w):
    """Angle between vectors of R^3, stacked along the leading axes; the
    distance of unit ones on S^2."""
    c = cross(u, w)
    return np.arctan2(np.sqrt(rowdot(c, c)), rowdot(u, w))


def base_pair(length):
    """Two unit vectors of R^3 at sphere distance length, in the x-y plane;
    an array of lengths gives stacked pairs."""
    one, zero = np.ones_like(length), np.zeros_like(length)
    return (np.stack([one, zero, zero], axis=-1),
            np.stack([np.cos(length), np.sin(length), zero], axis=-1))


def develop_third_point(A, B, dist_a, dist_b, sign: float):
    """Place C on the unit sphere with |AC| = dist_a, |BC| = dist_b, on the
    side of the great circle AB given by sign. A and B may be stacks of
    vectors, with one pair of distances per stacked pair."""
    gram = np.stack([np.stack([rowdot(A, A), rowdot(A, B)], axis=-1),
                     np.stack([rowdot(B, A), rowdot(B, B)], axis=-1)], axis=-2)
    rhs = np.stack([np.cos(dist_a), np.cos(dist_b)], axis=-1)
    xy = np.linalg.solve(gram, rhs[..., None])[..., 0]
    planar = xy[..., 0, None] * A + xy[..., 1, None] * B
    z2 = 1.0 - rowdot(planar, planar)
    if (z2 <= 0).any():
        raise FlipBlocked("development degenerates (points nearly collinear)")
    normal = cross(A, B)
    normal = normal / np.sqrt(rowdot(normal, normal))[..., None]
    return planar + (sign * np.sqrt(z2))[..., None] * normal


def flip_edge(m: ConeMetric, e: int) -> tuple:
    """Replace edge e by the opposite diagonal of its developed quadrilateral.

    Returns (new_metric, new_edge_index). Raises FlipBlocked when the
    quadrilateral is not convex at the shared edge's endpoints, or when the
    new diagonal would reach length pi.
    """
    if m.geometry != SPHERICAL:
        raise InvalidConeMetric("edge flips expect a spherical metric")
    surf = m.surface
    h1, h2 = surf.edge_halfedges[e]
    t1, k1 = divmod(h1, 3)
    t2, k2 = divmod(h2, 3)
    if t1 == t2:
        raise FlipBlocked("edge bounds a single triangle on both sides")

    # local corner labels: t1 = (A, B, C) with h1 = A->B; t2 = (B, A, D) with
    # h2 = B->A (slots relative to k1, k2)
    tri1 = surf.triangles[t1]
    tri2 = surf.triangles[t2]
    A_id, B_id = tri1[k1], tri1[(k1 + 1) % 3]
    C_id = tri1[(k1 + 2) % 3]
    D_id = tri2[(k2 + 2) % 3]

    edge = surf.halfedge_edge
    len_AB = m.lengths[e]
    len_BC = m.lengths[edge[3 * t1 + (k1 + 1) % 3]]
    len_CA = m.lengths[edge[3 * t1 + (k1 + 2) % 3]]
    len_AD = m.lengths[edge[3 * t2 + (k2 + 1) % 3]]
    len_DB = m.lengths[edge[3 * t2 + (k2 + 2) % 3]]

    A, B = base_pair(len_AB)
    C = develop_third_point(A, B, len_CA, len_BC, +1.0)
    D = develop_third_point(A, B, len_AD, len_DB, -1.0)

    # convexity of the quadrilateral C-A-D-B at the old diagonal's endpoints:
    # the angles at P from C to Q to D, between the tangents toward them
    for P, Q in ((A, B), (B, A)):
        ray = np.stack([C, Q, D])
        tangent = ray - (ray @ P)[:, None] * P
        if sphere_angle(tangent[:-1], tangent[1:]).sum() >= np.pi - 1e-10:
            raise FlipBlocked("developed quadrilateral is not convex at the diagonal")
    new_len = sphere_angle(C, D)
    if new_len >= np.pi - 1e-12:
        raise FlipBlocked("new diagonal would reach length pi")
    if new_len <= 0:
        raise FlipBlocked("new diagonal degenerates")

    # rebuild combinatorics: t1 -> (A, D, C), t2 -> (D, B, C); both new
    # triangles keep developing in t1's chart, so the diagonal's word is I
    new_tris = surf.triangles.copy()
    new_tris[t1] = (A_id, D_id, C_id)
    new_tris[t2] = (D_id, B_id, C_id)

    # the half-edges of t1 and t2 renumbered: each boundary side keeps its
    # geometric edge, and the old diagonal becomes the new one, D->C with
    # C->D; the sides A->D and D->B belonged to t2's old chart
    moved = [3 * t2 + (k2 + 1) % 3, 3 * t1 + (k1 + 2) % 3,
             3 * t2 + (k2 + 2) % 3, 3 * t1 + (k1 + 1) % 3, h1, h2]
    renamed = np.arange(len(surf.mate))
    renamed[moved] = [3 * t1, 3 * t1 + 2, 3 * t2, 3 * t2 + 1, 3 * t1 + 1, 3 * t2 + 2]
    new_mate = np.empty_like(renamed)
    new_mate[renamed] = renamed[surf.mate]
    new_surf = CombSurface(surf.n_vertices, new_tris, new_mate)
    old_of = np.argsort(renamed)

    diag_edge = int(new_surf.halfedge_edge[3 * t1 + 1])
    new_lengths = m.lengths[edge[old_of[new_surf.edge_halfedges[:, 0]]]]
    new_lengths[diag_edge] = new_len
    new_words = None
    if m.deck_words is not None:
        word_into_t2 = m.edge_word(h1)  # crossing from t1's chart into t2's
        from_t2_chart = (3 * t1, 3 * t2)

        def crossing_word(h_new: int):
            """Deck word for crossing out of half-edge h_new in the new complex."""
            w = m.edge_word(old_of[h_new])
            if h_new in from_t2_chart:
                w = word_into_t2 @ w
            if new_mate[h_new] in from_t2_chart:
                w = w @ np.linalg.inv(word_into_t2)
            return w

        new_words = {enew: np.eye(4) if enew == diag_edge else crossing_word(a)
                     for enew, a in enumerate(new_surf.edge_halfedges[:, 0].tolist())}
    return (ConeMetric(new_surf, m.geometry, new_lengths, deck_words=new_words),
            diag_edge)
