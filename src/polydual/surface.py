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
from typing import Optional

import numpy as np

from .errors import FlipBlocked, InvalidConeMetric, InvalidSurface, LengthOverflow

SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"

ANG_SLACK = 1e-12
MIN_TRIANGLE_AREA = 1e-12


def he_index(t: int, k: int) -> int:
    return 3 * t + k


class CombSurface:
    """Combinatorics of a closed oriented triangulated surface.

    triangles: list of (v0, v1, v2) vertex ids per triangle.
    gluing: involution pairing half-edge linear indices; if omitted it is
    derived by matching each directed edge (u, w) with its reverse (w, u),
    which works whenever that matching is unambiguous.
    """

    def __init__(self, n_vertices: int, triangles, gluing: Optional[dict] = None):
        self.n_vertices = int(n_vertices)
        self.triangles = [tuple(int(v) for v in t) for t in triangles]
        if any(len(t) != 3 for t in self.triangles):
            raise InvalidSurface("triangles need exactly three corners")
        used = {v for t in self.triangles for v in t}
        if used and (min(used) < 0 or max(used) >= self.n_vertices):
            raise InvalidSurface("vertex id out of range")
        if used != set(range(self.n_vertices)):
            raise InvalidSurface("every vertex id must appear in some triangle")
        if gluing is None:
            gluing = self._derive_gluing()
        self.gluing = {int(a): int(b) for a, b in gluing.items()}
        self._validate_gluing()
        self._build_edges()
        self._check_connected()

    # -- construction helpers -------------------------------------------------

    def _derive_gluing(self) -> dict:
        directed = {}
        for t, tri in enumerate(self.triangles):
            for k in range(3):
                key = (tri[k], tri[(k + 1) % 3])
                directed.setdefault(key, []).append(he_index(t, k))
        gluing = {}
        for (u, w), hes in directed.items():
            if len(hes) != 1:
                raise InvalidSurface(
                    f"directed edge {(u, w)} appears {len(hes)} times; "
                    "pass an explicit gluing")
            mates = directed.get((w, u), [])
            if len(mates) != 1:
                raise InvalidSurface(f"directed edge {(u, w)} has no unique mate")
            gluing[hes[0]] = mates[0]
        return gluing

    def _validate_gluing(self):
        n_he = 3 * len(self.triangles)
        if set(self.gluing) != set(range(n_he)):
            raise InvalidSurface("gluing must cover every half-edge")
        for a, b in self.gluing.items():
            if a == b or self.gluing[b] != a:
                raise InvalidSurface("gluing must be a fixed-point-free involution")
            ua, wa = self.halfedge_endpoints(a)
            ub, wb = self.halfedge_endpoints(b)
            if (ua, wa) != (wb, ub):
                raise InvalidSurface(
                    f"half-edges {a} and {b} glued without reversing orientation")

    def _build_edges(self):
        pairs = sorted({tuple(sorted((a, b))) for a, b in self.gluing.items()})
        self.edge_halfedges = pairs
        self.halfedge_edge = {}
        for e, (a, b) in enumerate(pairs):
            self.halfedge_edge[a] = e
            self.halfedge_edge[b] = e

    def _check_connected(self):
        if not self.triangles:
            raise InvalidSurface("empty surface")
        seen = {0}
        stack = [0]
        while stack:
            t = stack.pop()
            for k in range(3):
                t2 = self.gluing[he_index(t, k)] // 3
                if t2 not in seen:
                    seen.add(t2)
                    stack.append(t2)
        if len(seen) != len(self.triangles):
            raise InvalidSurface("surface is not connected")

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

    def halfedge_endpoints(self, h: int) -> tuple:
        t, k = divmod(h, 3)
        tri = self.triangles[t]
        return tri[k], tri[(k + 1) % 3]

    def mate(self, h: int) -> int:
        return self.gluing[h]

    def edge_endpoints(self, e: int) -> tuple:
        return self.halfedge_endpoints(self.edge_halfedges[e][0])

    def edge_of(self, t: int, k: int) -> int:
        return self.halfedge_edge[he_index(t, k)]

    def triangle_edge_lengths(self, t: int, lengths: np.ndarray) -> np.ndarray:
        """Side lengths (a, b, c) opposite corners 0, 1, 2 of triangle t."""
        # side opposite corner k is the half-edge (t, k+1)
        return np.array([lengths[self.edge_of(t, (k + 1) % 3)] for k in range(3)])

    @cached_property
    def edge_pairs(self) -> np.ndarray:
        """(n_edges, 2) endpoints of every edge, in edge order; read-only."""
        pairs = np.array([self.edge_endpoints(e) for e in range(self.n_edges)])
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def triangle_array(self) -> np.ndarray:
        """(n_triangles, 3) corners of every triangle; read-only."""
        tris = np.array(self.triangles)
        tris.setflags(write=False)
        return tris

    @cached_property
    def triangle_sides(self) -> np.ndarray:
        """(n_triangles, 3) edge of the side opposite each corner; read-only."""
        # the side opposite corner k is the half-edge (t, k + 1)
        edge = [self.halfedge_edge[h] for h in range(3 * self.n_triangles)]
        sides = np.roll(np.reshape(edge, (-1, 3)), -1, axis=1)
        sides.setflags(write=False)
        return sides

    @cached_property
    def triangle_vertex_mask(self) -> np.ndarray:
        """(n_triangles, n_vertices): True where the vertex is a corner of
        the triangle; read-only."""
        own = np.zeros((self.n_triangles, self.n_vertices), dtype=bool)
        np.put_along_axis(own, self.triangle_array, True, axis=1)
        own.setflags(write=False)
        return own

    @cached_property
    def has_parallel_edges(self) -> bool:
        """True when two edges join the same two vertices."""
        pairs = {frozenset(p) for p in self.edge_pairs.tolist()}
        return len(pairs) != self.n_edges


def corner_angles(sides: np.ndarray, geometry: str) -> np.ndarray:
    """Interior angles of triangles by the law of cosines, one row per
    triangle: angle k is opposite sides[t, k]. A cosine beyond [-1, 1] by
    more than ANG_SLACK raises DomainExceeded, the first in row order."""
    from .minkowski import clamped

    if geometry == SPHERICAL:
        sin, cos = np.sin(sides), np.cos(sides)
    elif geometry == HYPERBOLIC:
        sin, cos = np.sinh(sides), np.cosh(sides)
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    # corner k against the sides k + 1 and k + 2 that meet there
    cos1, cos2 = cos[:, [1, 2, 0]], cos[:, [2, 0, 1]]
    opposite = cos - cos1 * cos2 if geometry == SPHERICAL else cos1 * cos2 - cos
    cosines = opposite / (sin[:, [1, 2, 0]] * sin[:, [2, 0, 1]])
    beyond = np.abs(cosines) > 1.0 + ANG_SLACK
    if np.any(beyond):
        clamped(cosines.flat[np.argmax(beyond)], -1.0, 1.0, ANG_SLACK)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


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
        self._validate()
        self._compute_angles()

    def _validate(self):
        if not np.all(np.isfinite(self.lengths)) or np.any(self.lengths <= 0):
            raise InvalidConeMetric("edge lengths must be positive and finite")
        if self.geometry == SPHERICAL and np.any(self.lengths >= np.pi):
            raise InvalidConeMetric("spherical edge lengths must stay below pi")
        a, b, c = self.lengths[self.surface.triangle_sides].T
        unequal = (a + b <= c) | (b + c <= a) | (c + a <= b)
        too_long = (a + b + c >= 2 * np.pi) & (self.geometry == SPHERICAL)
        if np.any(unequal | too_long):
            t = int(np.argmax(unequal | too_long))
            if unequal[t]:
                raise InvalidConeMetric(f"triangle {t} violates the triangle inequality")
            raise InvalidConeMetric(f"triangle {t} has perimeter >= 2*pi")

    def _compute_angles(self):
        angles = corner_angles(self.lengths[self.surface.triangle_sides],
                               self.geometry)
        self.corner_angles = angles
        excess = angles.sum(axis=1) - np.pi
        if np.any(np.abs(excess) < MIN_TRIANGLE_AREA):
            raise InvalidConeMetric("degenerate triangle (area below 1e-12)")
        if self.geometry == SPHERICAL and np.any(excess <= 0):
            raise InvalidConeMetric("spherical triangle with nonpositive excess")
        if self.geometry == HYPERBOLIC and np.any(excess >= 0):
            raise InvalidConeMetric("hyperbolic triangle with nonnegative defect")

    # -- intrinsic quantities --------------------------------------------------

    def cone_angles(self) -> np.ndarray:
        """Each vertex's sum of corner angles, added in triangle and corner
        order."""
        return np.bincount(self.surface.triangle_array.ravel(),
                           weights=self.corner_angles.ravel(),
                           minlength=self.surface.n_vertices)

    def edge_word(self, h: int) -> Optional[np.ndarray]:
        """Deck holonomy picked up when crossing half-edge h out of its triangle."""
        if self.deck_words is None:
            return None
        e = self.surface.halfedge_edge[h]
        w = self.deck_words.get(e)
        if w is None:
            return np.eye(4)
        a, _ = self.surface.edge_halfedges[e]
        return w if h == a else np.linalg.inv(w)


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
    return ConcavityReport(concave=bool(np.all(margins > 0)),
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
    if m.geometry == SPHERICAL and np.any(new_lengths >= np.pi):
        raise LengthOverflow(
            f"scaling by exp({lam}) pushes an edge length to "
            f"{new_lengths.max():.6f} >= pi")
    return ConeMetric(m.surface, m.geometry, new_lengths, deck_words=m.deck_words)


def fan_triangulation(m: int, base: int = 0) -> tuple:
    """Fan of an m-gon from its corner 0, as triangles base, ..., base + m - 3.

    Triangle base + j - 1 has the polygon corners (0, j, j + 1). Returns
    (corners, sides, diagonals): corners lists those corner triples; sides[j]
    is the half-edge carrying the polygon side from corner j to corner j + 1;
    diagonals[j - 2] is the glued pair (j -> 0, 0 -> j) of half-edges of the
    diagonal to corner j, the first one lying in the earlier triangle.
    """
    _, corners, sides, diagonals, _ = fan_triangulations([m])
    return (list(map(tuple, corners.tolist())), (sides[0] + 3 * base).tolist(),
            list(map(tuple, (diagonals + 3 * base).tolist())))


def fan_triangulations(sizes) -> tuple:
    """The fans of polygons with the given corner counts, numbered one
    polygon after the other, as `fan_triangulation` numbers one: polygon p's
    triangles follow those of polygons 0, ..., p - 1.

    Returns (owner, corners, sides, diagonals, diagonal_owner): triangle t
    lies in polygon owner[t] with the polygon corners corners[t]; sides[p, j]
    is the half-edge of polygon p's side from corner j to corner j + 1 (-1
    past its corners); diagonals[d] is a glued pair of half-edges, as in
    `fan_triangulation`, in polygon diagonal_owner[d].
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
    c = np.cross(u, w)
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
    if np.any(z2 <= 0):
        raise FlipBlocked("development degenerates (points nearly collinear)")
    normal = np.cross(A, B)
    normal = normal / np.sqrt(rowdot(normal, normal))[..., None]
    return planar + (sign * np.sqrt(z2))[..., None] * normal


def _sphere_corner(P, Q, R) -> float:
    """Interior angle at P between the great circles toward Q and R."""
    tq = Q - (P @ Q) * P
    tr = R - (P @ R) * P
    tq = tq / np.sqrt(tq @ tq)
    tr = tr / np.sqrt(tr @ tr)
    return float(np.arccos(np.clip(tq @ tr, -1.0, 1.0)))


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

    len_AB = m.lengths[e]
    len_BC = m.lengths[surf.edge_of(t1, (k1 + 1) % 3)]
    len_CA = m.lengths[surf.edge_of(t1, (k1 + 2) % 3)]
    len_AD = m.lengths[surf.edge_of(t2, (k2 + 1) % 3)]
    len_DB = m.lengths[surf.edge_of(t2, (k2 + 2) % 3)]

    A, B = base_pair(len_AB)
    C = develop_third_point(A, B, len_CA, len_BC, +1.0)
    D = develop_third_point(A, B, len_AD, len_DB, -1.0)

    # convexity of the quadrilateral C-A-D-B at the old diagonal's endpoints
    ang_A = _sphere_corner(A, C, B) + _sphere_corner(A, B, D)
    ang_B = _sphere_corner(B, C, A) + _sphere_corner(B, A, D)
    if ang_A >= np.pi - 1e-10 or ang_B >= np.pi - 1e-10:
        raise FlipBlocked("developed quadrilateral is not convex at the diagonal")
    new_len = sphere_angle(C, D)
    if new_len >= np.pi - 1e-12:
        raise FlipBlocked("new diagonal would reach length pi")
    if new_len <= 0:
        raise FlipBlocked("new diagonal degenerates")

    # rebuild combinatorics: t1 -> (A, D, C), t2 -> (D, B, C); both new
    # triangles keep developing in t1's chart, so the diagonal's word is I
    new_tris = list(surf.triangles)
    new_tris[t1] = (A_id, D_id, C_id)
    new_tris[t2] = (D_id, B_id, C_id)

    # boundary sides, old half-edge -> new half-edge carrying the same
    # geometric edge (True marks sides that belonged to t2's old chart)
    bmap = {
        he_index(t2, (k2 + 1) % 3): he_index(t1, 0),  # A->D
        he_index(t1, (k1 + 2) % 3): he_index(t1, 2),  # C->A
        he_index(t2, (k2 + 2) % 3): he_index(t2, 0),  # D->B
        he_index(t1, (k1 + 1) % 3): he_index(t2, 1),  # B->C
    }
    from_t2_chart = {he_index(t1, 0), he_index(t2, 0)}

    new_gluing = {}
    for h, mate in surf.gluing.items():
        if h // 3 in (t1, t2) or mate // 3 in (t1, t2):
            continue
        new_gluing[h] = mate
    for hb, hb_new in bmap.items():
        mate = surf.mate(hb)
        mate_new = bmap.get(mate, mate)
        new_gluing[hb_new] = mate_new
        new_gluing[mate_new] = hb_new
    new_gluing[he_index(t1, 1)] = he_index(t2, 2)  # D->C with C->D
    new_gluing[he_index(t2, 2)] = he_index(t1, 1)

    new_surf = CombSurface(surf.n_vertices, new_tris, new_gluing)

    inv_bmap = {new: old for old, new in bmap.items()}
    word_into_t2 = m.edge_word(h1)  # crossing from t1's chart into t2's

    def crossing_word(h_new: int):
        """Deck word for crossing out of half-edge h_new in the new complex."""
        h_old = inv_bmap.get(h_new, h_new)
        w = m.edge_word(h_old)
        if w is None:
            return None
        if h_new in from_t2_chart:
            w = word_into_t2 @ w
        mate_new = new_gluing[h_new]
        if mate_new in from_t2_chart:
            w = w @ np.linalg.inv(word_into_t2)
        return w

    new_lengths = np.empty(new_surf.n_edges)
    new_words = {} if m.deck_words is not None else None
    diag_edge = new_surf.halfedge_edge[he_index(t1, 1)]
    for enew, (a, b) in enumerate(new_surf.edge_halfedges):
        if enew == diag_edge:
            new_lengths[enew] = new_len
            if new_words is not None:
                new_words[enew] = np.eye(4)
            continue
        h_old = inv_bmap.get(a, a)
        new_lengths[enew] = m.lengths[surf.halfedge_edge[h_old]]
        if new_words is not None:
            new_words[enew] = crossing_word(a)
    return (ConeMetric(new_surf, m.geometry, new_lengths, deck_words=new_words),
            diag_edge)
