"""Genus-2 surface group from the regular octagon, acting on a plane in H^3,
and the dual cone-metric of the equivariant hull of one apex orbit.

The group is generated by the eight translations pairing opposite sides of
the regular octagon with vertex angle pi/4 centered at the origin of the
invariant plane x3 = 0. The hull of the orbit of a point at height h above
that plane is an equivariant polyhedral dome; its quotient carries a genus-2
polyhedral structure whose dual metric this module assembles explicitly,
every edge length the de Sitter distance of two apex face normals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull

from .errors import InvalidPolyhedron, OrbitBoundTooSmall
from .minkowski import DSPoint, Isometry, J, corner_angle, ds_distances
from .polyhedra import order_face_cycles
from .surface import SPHERICAL, CombSurface, ConeMetric, fan_triangulation

OCTAGON_HALF_WIDTH = float(np.arccosh(1.0 / np.tan(np.pi / 8)))
OCTAGON_CIRCUMRADIUS = float(np.arccosh(1.0 / np.tan(np.pi / 8) ** 2))
TRANSLATION_LENGTH = 2.0 * OCTAGON_HALF_WIDTH
MAX_FACE_CORNERS = 64           # _trace_face_polygon's walk
RELATION_TOL = 1e-8             # max |entry| of the relation product minus I
ORBIT_DIGITS = 9                # orbit matrices are equal when equal rounded
SIGNATURE_DIGITS = 8            # apex stars are equal when equal rounded
MEMBER_TOL = 1e-9               # relative |<x, n>| of an orbit point on a face
WORD_MATCH_TOL = 1e-8           # max |entry| difference of equal edge words
PAIRING_TOL = 1e-7              # max |entry| of a paired normal's mismatch
WALK_TOL = 1e-8                 # relative: corner on the face plane, or at apex
NEW_CORNER_TOL = 1e-6           # relative distance of a step from its corner


@dataclass
class FuchsianData:
    """Octagon surface group embedded as plane-preserving isometries of H^3."""

    generators: list                 # eight translations, [k+4] inverse to [k]
    invariant_plane: DSPoint
    relation: list                   # generator indices multiplying to identity
    word_bound: int = 3

    def relation_residual(self) -> float:
        prod = np.eye(4)
        for k in self.relation:
            prod = prod @ self.generators[k].m
        return float(np.max(np.abs(prod - np.eye(4))))


def _octagon_vertices_h2():
    R = OCTAGON_CIRCUMRADIUS
    pts = []
    for k in range(8):
        a = (2 * k + 1) * np.pi / 8
        pts.append(np.array([np.cosh(R), np.sinh(R) * np.cos(a),
                             np.sinh(R) * np.sin(a), 0.0]))
    return pts


def fuchsian_octagon_group() -> FuchsianData:
    """The genus-2 group of the regular octagon with opposite sides identified.

    Translation k runs along the direction k*pi/4 in the invariant plane with
    length 2*arccosh(1 + sqrt(2)); the defining relation is recovered by
    walking the corner cycle of the octagon and verified numerically.
    """
    gens = [Isometry.rotation(1, 2, k * np.pi / 4)
            @ Isometry.boost(1, TRANSLATION_LENGTH)
            @ Isometry.rotation(1, 2, -k * np.pi / 4) for k in range(8)]
    verts = _octagon_vertices_h2()

    # the corner cycle: repeatedly follow the pairing of one adjacent side;
    # side k joins verts[k-1], verts[k], and generator k maps side k+4 onto it
    relation = []
    prod = np.eye(4)
    v, s = 0, 0
    for _ in range(8):
        ginv = gens[(s + 4) % 8].m
        img = ginv @ verts[v]
        vnew = int(np.argmin([np.max(np.abs(img - w)) for w in verts]))
        relation.append((s + 4) % 8)
        prod = prod @ ginv
        arrived = (s + 4) % 8
        s = vnew if arrived == (vnew + 1) % 8 else (vnew + 1) % 8
        v = vnew
    data = FuchsianData(generators=gens,
                        invariant_plane=DSPoint(np.array([0.0, 0, 0, 1.0])),
                        relation=relation)
    if data.relation_residual() > RELATION_TOL:
        raise InvalidPolyhedron("octagon relation failed to close")
    return data


# -- the apex-orbit hull and its dual metric ------------------------------------


def _orbit(data: FuchsianData, h: float, word_bound: int):
    """Orbit of the apex at height h, deduplicated by matrix, identity first."""
    apex = np.array([np.cosh(h), 0.0, 0.0, np.sinh(h)])
    seen = {tuple(np.round(np.eye(4).ravel(), ORBIT_DIGITS))}
    mats = [np.eye(4)]
    frontier = [np.eye(4)]
    for _ in range(word_bound):
        nxt = []
        for m in frontier:
            for g in data.generators:
                cand = m @ g.m
                key = tuple(np.round(cand.ravel(), ORBIT_DIGITS))
                if key not in seen:
                    seen.add(key)
                    mats.append(cand)
                    nxt.append(cand)
        frontier = nxt
    points = np.array([m @ apex for m in mats])
    return mats, points


def _plane_through_points(rows: np.ndarray) -> np.ndarray:
    """Best-fit Minkowski plane normal through the given points (spacelike)."""
    scaled = rows / np.linalg.norm(rows, axis=1)[:, None]
    _, _, vt = np.linalg.svd(scaled @ J)
    n = vt[-1]
    q = float(n @ J @ n)
    if q <= 0:
        raise InvalidPolyhedron("support plane through apex is not spacelike")
    return n / np.sqrt(q)


def _members_on_plane(points: np.ndarray, n: np.ndarray) -> tuple:
    resid = np.abs(points @ J @ n)
    scale = np.linalg.norm(points, axis=1)
    return tuple(int(i) for i in np.where(resid <= MEMBER_TOL * scale)[0])


@dataclass
class ApexStar:
    faces: list          # per face: dict(normal, members, cycle)
    order: list          # cyclic order of faces around the apex
    neighbors: list      # orbit index of the edge endpoint between consecutive faces


def _apex_star(data: FuchsianData, points: np.ndarray) -> ApexStar:
    klein = points[:, 1:] / points[:, [0]]
    hull = ConvexHull(klein)
    if 0 not in set(int(v) for v in hull.vertices):
        raise InvalidPolyhedron("apex is not extreme in the sampled orbit")
    groups = {}
    for simplex in hull.simplices:
        if 0 not in simplex:
            continue
        n = _plane_through_points(points[simplex])
        members = _members_on_plane(points, n)
        n = _plane_through_points(points[list(members)])
        members = _members_on_plane(points, n)
        groups[members] = n
    faces = []
    for members, n in sorted(groups.items()):
        # orient outward: the rest of the orbit lies strictly on the negative side
        vals = points @ J @ n
        off = [v for i, v in enumerate(vals) if i not in members]
        if np.max(off) > 0:
            if np.min(off) < 0:
                raise InvalidPolyhedron("apex face plane does not support the orbit")
            n = -n
        faces.append({"normal": n, "members": members})
    incidence = np.zeros((len(faces), len(points)), dtype=bool)
    for row, f in zip(incidence, faces):
        row[list(f["members"])] = True
    cycles = order_face_cycles([f["normal"][1:] for f in faces], klein, incidence)
    for f, cycle in zip(faces, cycles):
        f["cycle"] = cycle

    # cyclic order around the apex: follow, inside each face cycle, the
    # successor of the apex; the next face shares that edge
    by_edge = {}
    for idx, f in enumerate(faces):
        cyc = f["cycle"]
        i0 = cyc.index(0)
        succ, pred = cyc[(i0 + 1) % len(cyc)], cyc[i0 - 1]
        by_edge.setdefault(frozenset((0, succ)), []).append(idx)
        by_edge.setdefault(frozenset((0, pred)), []).append(idx)
    order = [0]
    neighbors = []
    cur = 0
    for _ in range(len(faces)):
        cyc = faces[cur]["cycle"]
        succ = cyc[(cyc.index(0) + 1) % len(cyc)]
        neighbors.append(succ)
        pair = by_edge[frozenset((0, succ))]
        if len(pair) != 2:
            raise InvalidPolyhedron("apex edge not shared by exactly two faces")
        cur = pair[0] if pair[1] == cur else pair[1]
        if cur == 0 and len(order) < len(faces):
            raise InvalidPolyhedron("apex face fan closed early")
        if len(order) < len(faces):
            order.append(cur)
    if cur != 0:
        raise InvalidPolyhedron("apex face fan did not close")
    return ApexStar(faces=faces, order=order, neighbors=neighbors)


def _star_signature(star: ApexStar, points, mats):
    sig = []
    for i, idx in enumerate(star.order):
        sig.append((tuple(np.round(star.faces[idx]["normal"], SIGNATURE_DIGITS)),
                    tuple(np.round(points[star.neighbors[i]], SIGNATURE_DIGITS))))
    return sorted(sig)


@dataclass
class FuchsianDualOutput:
    metric: ConeMetric
    marking: list                  # dual vertex -> representative apex face index
    core_distance: float
    word_bound: int
    face_areas: list = field(repr=False, default_factory=list)


def fuchsian_dualize(data: FuchsianData, h: float,
                     word_bound: Optional[int] = None) -> FuchsianDualOutput:
    """Dual spherical cone-metric of the equivariant hull of one apex orbit.

    The apex at height h above the invariant plane has a single vertex orbit;
    the polar dual of its link, glued to itself along the side pairing induced
    by the group, is the genus-2 dual metric. The link must be stable between
    the used word bound and the next one, else OrbitBoundTooSmall.
    """
    if h <= 0:
        raise InvalidPolyhedron("apex height must be positive")
    explicit = word_bound is not None
    bounds = [word_bound] if explicit else [2, 3, 4, 5]
    star = points = mats = None
    used = None
    for W in bounds:
        mats, points = _orbit(data, h, W)
        star = _apex_star(data, points)
        mats2, points2 = _orbit(data, h, W + 1)
        star2 = _apex_star(data, points2)
        if _star_signature(star, points, mats) == _star_signature(star2, points2, mats2):
            used = W
            break
        if explicit:
            raise OrbitBoundTooSmall(
                f"apex link changed between word bounds {W} and {W + 1}")
    if used is None:
        raise OrbitBoundTooSmall("apex link did not stabilize by word bound 5")

    m = len(star.order)
    # gamma_i carries the apex to the far endpoint of edge i
    gammas = [mats[star.neighbors[i]] for i in range(m)]

    def match_gamma(target):
        for j in range(m):
            if np.max(np.abs(gammas[j] - target)) < WORD_MATCH_TOL:
                return j
        raise InvalidPolyhedron("side pairing leaves the apex star")

    sigma = [match_gamma(np.linalg.inv(g)) for g in gammas]

    # corner identification: side i glued to side sigma(i) reversing direction
    normals = [star.faces[idx]["normal"] for idx in star.order]
    for i in range(m):
        ginv = np.linalg.inv(gammas[i])
        mapped = ginv @ normals[i]
        j = sigma[i]
        if np.max(np.abs(mapped - normals[(j + 1) % m])) > PAIRING_TOL:
            raise InvalidPolyhedron(
                "side pairing does not reverse the polygon orientation")

    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i in range(m):
        union(i, (sigma[i] + 1) % m)
        union((i + 1) % m, sigma[i])
    classes = sorted({find(i) for i in range(m)})
    class_of = {i: classes.index(find(i)) for i in range(m)}
    n_vertices = len(classes)

    fan, sides, diagonals = fan_triangulation(m)
    tris = [tuple(class_of[c] for c in tri) for tri in fan]
    gluing = {}
    for he_a, he_b in diagonals:
        gluing[he_a] = he_b
        gluing[he_b] = he_a
    for i in range(m):
        a, b = sides[i], sides[sigma[i]]
        gluing[a] = b
        gluing[b] = a
    surf = CombSurface(n_vertices, tris, gluing)

    # an edge's length is the de Sitter distance of its corners' normals, as
    # in `polyhedra.dualize`: side i joins corners i, i + 1 and carries
    # gamma_i, diagonal j joins corners 0, j
    ends = {he: (i, (i + 1) % m, gammas[i]) for i, he in enumerate(sides)}
    ends.update({a: (0, j, np.eye(4))
                 for j, (a, _) in enumerate(diagonals, start=2)})
    u, w, words = zip(*(ends[ha] for ha, _ in surf.edge_halfedges))
    x = np.array(normals)
    metric = ConeMetric(surf, SPHERICAL, ds_distances(x[list(u)], x[list(w)]),
                        deck_words=dict(enumerate(words)))

    core_distance = min(
        float(np.arccosh(abs(f["normal"][3])))
        for f in star.faces)

    apex = np.array([np.cosh(h), 0.0, 0.0, np.sinh(h)])
    marking = []
    face_areas = []
    for c in classes:
        idx = star.order[c]
        corners_m = _trace_face_polygon(gammas, star.faces[idx]["normal"], apex)
        pts = [mm @ apex for mm in corners_m]
        angs = [corner_angle(pts[k], pts[k - 1], pts[(k + 1) % len(pts)])
                for k in range(len(pts))]
        face_areas.append((len(pts) - 2) * np.pi - float(sum(angs)))
        marking.append(idx)
    return FuchsianDualOutput(metric=metric, marking=marking,
                              core_distance=core_distance, word_bound=used,
                              face_areas=face_areas)


def _trace_face_polygon(gammas, normal, apex):
    """Corner matrices of one full hull face, walked along its boundary.

    Hull edges at any orbit point are the translates of the apex edges, so
    from each corner exactly two generator steps stay on the face plane: the
    previous corner and the next one.
    """
    def on_plane(x):
        return abs(float(x @ J @ normal)) <= WALK_TOL * np.linalg.norm(x)

    starts = [g for g in gammas if on_plane(g @ apex)]
    if len(starts) != 2:
        raise InvalidPolyhedron(
            f"apex has {len(starts)} face-plane edges, expected 2")
    corners = [np.eye(4)]
    prev_pt = apex
    cur = starts[0]
    for _ in range(MAX_FACE_CORNERS):
        cur_pt = cur @ apex
        if np.max(np.abs(cur_pt - apex)) < WALK_TOL * np.linalg.norm(apex):
            return corners
        corners.append(cur)
        nxt = None
        for g in gammas:
            cand = cur @ g
            x = cand @ apex
            if on_plane(x) and (np.max(np.abs(x - prev_pt))
                                > NEW_CORNER_TOL * np.linalg.norm(prev_pt)):
                nxt = cand
        if nxt is None:
            raise InvalidPolyhedron("face boundary walk lost the plane")
        prev_pt = cur_pt
        cur = nxt
    raise InvalidPolyhedron("face boundary walk failed to close")

