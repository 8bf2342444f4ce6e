"""Genus-2 surface group from the regular octagon, acting on a plane in H^3,
and the dual cone-metric of the equivariant hull of one apex orbit.

The group is generated by the eight translations pairing opposite sides of
the regular octagon with vertex angle pi/4 centered at the origin of the
invariant plane x3 = 0. The hull of the orbit of a point at height h above
that plane is an equivariant polyhedral dome; its quotient carries a genus-2
polyhedral structure whose dual metric this module assembles explicitly,
every edge length the de Sitter distance of two apex face normals.

The apex star is read off the hull of the orbit points whose projections lie
within ORBIT_RADIUS of the octagon centre o, and it is proven exact: the part
of the height-h equidistant surface on the positive side of a face plane
projects to a disc, and when every such disc lies inside the ball no orbit
point outside it can reach a face plane. Each face's disc is the circumdisc
of the eight orbit points around a tile vertex, so it reaches 2R from o
(R = OCTAGON_CIRCUMRADIUS) at every height, and the ball of radius just over
2R holds its 49 orbit points. The hull's simplices, grouped into apex faces
and glued, give an edge table, and the walk that orders every cycle of a
polyhedron (`polyhedra.cycle_walk`) reads off it the faces around the apex
and each face's vertex cycle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPolyhedron
from .minkowski import DSPoint, Isometry, J, ds_distances
from .polyhedra import (
    _check_turns,
    cycle_walk,
    glued_edges,
    oriented_simplices,
    polygon_area,
    qhull,
)
from .surface import (
    SPHERICAL,
    CombSurface,
    ConeMetric,
    directed_mates,
    fan_triangulations,
    least_labels,
    rowdot,
)

OCTAGON_HALF_WIDTH = float(np.arccosh(1.0 / np.tan(np.pi / 8)))
OCTAGON_CIRCUMRADIUS = float(np.arccosh(1.0 / np.tan(np.pi / 8) ** 2))
TRANSLATION_LENGTH = 2.0 * OCTAGON_HALF_WIDTH
# the face discs reach exactly 2R, and the next orbit point past 2R lies at
# 2.22 R, so the margin need only cover roundoff
ORBIT_MARGIN = 1e-6             # relative slack of the ball over 2R
ORBIT_RADIUS = 2.0 * OCTAGON_CIRCUMRADIUS * (1.0 + ORBIT_MARGIN)
RELATION_TOL = 1e-8             # max |entry| of the relation product minus I
CENTRE_DIGITS = 2               # decimals of a tile centre's key (`_centre_keys`)
MEMBER_TOL = 1e-9               # relative |<x, n>| of an orbit point on a face
WORD_MATCH_TOL = 1e-8           # max |entry| difference of equal edge words
PAIRING_TOL = 1e-7              # max |entry| of a paired normal's mismatch


@dataclass
class FuchsianData:
    """Octagon surface group embedded as plane-preserving isometries of H^3."""

    generators: list                 # eight translations, [k+4] inverse to [k]
    invariant_plane: DSPoint
    relation: list                   # generator indices multiplying to identity

    def relation_residual(self) -> float:
        prod = np.eye(4)
        for k in self.relation:
            prod = prod @ self.generators[k].m
        return float(np.abs(prod - np.eye(4)).max())


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
        vnew = int(np.argmin([np.abs(img - w).max() for w in verts]))
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


def _orbit(data: FuchsianData, h: float):
    """Every orbit point of the apex at height h whose foot lies within
    ORBIT_RADIUS of o, with its matrix, deduplicated, identity first.

    Breadth first over side-adjacent tiles: each frontier is multiplied by
    every generator in one stacked product, frontier element major; a
    candidate is kept at its first occurrence when no earlier element has
    its tile centre (`_centre_keys`) and its tile centre lies within
    ORBIT_RADIUS + R of o (gamma[0, 0] is cosh d(o, gamma o)). A tile that
    meets the ball is joined to o's tile by side-adjacent tiles that meet it
    too, and each of those has its centre within ORBIT_RADIUS + R, so the
    search reaches every orbit point in the ball."""
    apex = np.array([np.cosh(h), 0.0, 0.0, np.sinh(h)])
    gens = np.array([g.m for g in data.generators])
    bound = np.cosh(ORBIT_RADIUS + OCTAGON_CIRCUMRADIUS)
    mats = frontier = np.eye(4)[None]
    while len(frontier):
        cand = (frontier[:, None] @ gens).reshape(-1, 4, 4)
        cand = cand[cand[:, 0, 0] <= bound]
        keys = _centre_keys(np.concatenate([mats, cand]))
        first = np.unique(keys, return_index=True)[1]
        frontier = cand[np.sort(first[first >= len(mats)]) - len(mats)]
        mats = np.concatenate([mats, frontier])
    mats = mats[mats[:, 0, 0] <= np.cosh(ORBIT_RADIUS)]
    return mats, mats @ apex


def _centre_keys(mats: np.ndarray) -> np.ndarray:
    """Each group element's tile centre gamma o = (x0, x1, x2, 0) as the key
    x1 + i x2 rounded to CENTRE_DIGITS decimals: distinct elements' (x1, x2)
    lie more than 4 apart (their centres at least 2 OCTAGON_HALF_WIDTH), and
    the products' roundoff is about 1e-10 in the farthest centres."""
    return np.round(mats[:, 1, 0] + 1j * mats[:, 2, 0], CENTRE_DIGITS)


def _face_reaches(normals: np.ndarray, h: float) -> np.ndarray:
    """Per outward face normal n (F, 4), the farthest distance from o of the
    disc {y in H^2 : cosh h <n, y> + sinh h n3 > 0}, the projection of the
    height-h equidistant surface on n's positive side; inf where that set
    is not a bounded disc.

    It is a disc when n0 > 0 and n3 > 1: with k = sqrt(n3^2 - 1) its centre
    is u = (n0, n1, n2) / k and its radius r has cosh r = n3 tanh h / k, so
    it reaches d(o, u) + r = arccosh(n0 / k) + r."""
    n0, n3 = normals[:, 0], normals[:, 3]
    disc = (n0 > 0) & (n3 > 1)
    k = np.sqrt(np.where(disc, n3 ** 2 - 1.0, 1.0))
    reach = (np.arccosh(np.where(disc, n0 / k, 1.0))
             + np.arccosh(np.where(disc, np.tanh(h) * n3 / k, 1.0)))
    return np.where(disc, reach, np.inf)


def _plane_through_points(rows: np.ndarray) -> np.ndarray:
    """Best-fit Minkowski plane normal through the given points (spacelike);
    stacked point sets (..., k, 4) give stacked normals (..., 4)."""
    scaled = rows / np.linalg.norm(rows, axis=-1)[..., None]
    n = np.linalg.svd(scaled @ J)[2][..., -1, :]
    q = rowdot(n @ J, n)
    if (q <= 0).any():
        raise InvalidPolyhedron("support plane through apex is not spacelike")
    return n / np.sqrt(q)[..., None]


def _members_on_planes(points: np.ndarray, normals: np.ndarray) -> list:
    """Per plane normal (F, 4): the indices of the points on it."""
    on = (np.abs(points @ J @ normals.T)
          <= MEMBER_TOL * np.linalg.norm(points, axis=1)[:, None])
    return [tuple(col.nonzero()[0].tolist()) for col in on.T]


@dataclass
class ApexStar:
    faces: list          # per face: dict(normal, members, cycle)
    order: list          # cyclic order of faces around the apex
    neighbors: list      # orbit index of the edge endpoint between consecutive faces


def _apex_star(points: np.ndarray) -> ApexStar:
    klein = points[:, 1:] / points[:, [0]]
    ConvexHull, _ = qhull()
    hull = ConvexHull(klein)
    if 0 not in set(int(v) for v in hull.vertices):
        raise InvalidPolyhedron("apex is not extreme in the sampled orbit")
    # fit each apex simplex's plane, collect the orbit points on it, and
    # refit each distinct such set once, the sets of one size in one stacked
    # fit; a face's last simplex sets its normal
    apex_simplices = hull.simplices[(hull.simplices == 0).any(axis=1)]
    firsts = _members_on_planes(points, _plane_through_points(points[apex_simplices]))
    by_size = {}
    for f in dict.fromkeys(firsts):
        by_size.setdefault(len(f), []).append(f)
    sets = [f for group in by_size.values() for f in group]
    fits = np.concatenate([_plane_through_points(points[group])
                           for group in by_size.values()])
    refit = dict(zip(sets, zip(_members_on_planes(points, fits), fits)))
    members, normals = zip(*sorted(dict(refit[f] for f in firsts).items()))
    incidence = np.zeros((len(members), len(points)), dtype=bool)
    for row, m in zip(incidence, members):
        row[list(m)] = True
    # orient outward: the rest of the orbit lies strictly on the negative side
    vals = np.array(normals) @ J @ points.T
    above = vals.max(axis=1, where=~incidence, initial=-np.inf) > 0
    if (above & (vals.min(axis=1, where=~incidence, initial=np.inf) < 0)).any():
        raise InvalidPolyhedron("apex face plane does not support the orbit")
    faces = [{"normal": -n if flip else n, "members": m}
             for n, m, flip in zip(normals, members, above)]

    # each hull simplex lies in the apex face whose members hold its
    # corners, or in a group of its own. An edge's head corner turns ccw
    # from its first group to its second (`glued_edges`), so with the
    # corners reversed the walk reads each face's cycle ccw seen from
    # outside, from the apex, and the faces around the apex cw, the order
    # the side pairing reads them in
    tri = oriented_simplices(hull)
    at = incidence[:, tri].all(axis=2)                  # face x simplex
    alone = ~at.any(axis=0)
    group = np.where(alone, len(faces) + np.cumsum(alone) - 1, np.argmax(at, axis=0))
    pairs, corners = glued_edges(tri, directed_mates(tri, len(points)), group)
    corners = corners[:, ::-1]
    order, via, count = cycle_walk(corners, pairs, len(points))
    order, via = order[:count[0]], via[:count[0]]
    cycles, _, sizes = cycle_walk(pairs, corners, len(faces) + int(alone.sum()))
    sizes = sizes[:len(faces)]
    cycles = cycles[:sizes.sum()]
    _check_turns(np.array([f["normal"][1:] for f in faces]), klein, cycles, sizes)
    for f, cycle in zip(faces, np.split(cycles, np.cumsum(sizes)[:-1])):
        f["cycle"] = cycle.tolist()
    # the far end of the edge between consecutive faces at the apex
    neighbors = corners[via].sum(axis=1)
    return ApexStar(faces=faces, order=order.tolist(), neighbors=neighbors.tolist())


def _corner_classes(sigma: np.ndarray) -> tuple:
    """The least corner of each vertex of the glued polygon, ascending, and
    each corner's vertex: gluing side i to side sigma(i), an involution,
    identifies corner j with corners sigma(j) + 1 and sigma(j - 1)."""
    m = len(sigma)
    label = least_labels(np.stack([(sigma + 1) % m, sigma[np.arange(m) - 1]], axis=1))
    classes = np.unique(label)
    return classes, np.searchsorted(classes, label)


@dataclass
class FuchsianDualOutput:
    metric: ConeMetric
    marking: list                  # dual vertex -> representative apex face index
    core_distance: float
    face_areas: list = field(repr=False, default_factory=list)


def fuchsian_dualize(data: FuchsianData, h: float) -> FuchsianDualOutput:
    """Dual spherical cone-metric of the equivariant hull of one apex orbit.

    The apex at height h above the invariant plane has a single vertex orbit;
    the polar dual of its link, glued to itself along the side pairing induced
    by the group, is the genus-2 dual metric. The link is read off the hull
    of the orbit points whose feet lie within ORBIT_RADIUS of o, and it is
    exact when, for every apex face, the part of the height-h equidistant
    surface on the face plane's positive side projects into that ball: then
    no orbit point outside the ball lies on or beyond a face plane, and every
    face's full vertex set is inside it. Otherwise InvalidPolyhedron names
    the face and its reach. Each face area is the angle defect of the face's
    own vertex cycle.
    """
    if h <= 0:
        raise InvalidPolyhedron("apex height must be positive")
    mats, points = _orbit(data, h)
    star = _apex_star(points)
    reach = _face_reaches(np.array([f["normal"] for f in star.faces]), h)
    outside = (~(reach < ORBIT_RADIUS)).nonzero()[0]
    if len(outside):
        f = outside[0]
        raise InvalidPolyhedron(
            f"apex face {f} reaches {reach[f]:.9f} from the octagon centre,"
            f" not inside the orbit radius {ORBIT_RADIUS:.9f}")

    m = len(star.order)
    # gamma_i carries the apex to the far endpoint of edge i; side i is glued
    # to side sigma(i), the one whose gamma is gamma_i^-1, found by centre
    gammas = mats[star.neighbors]
    inverses = np.linalg.inv(gammas)
    keys = _centre_keys(gammas)
    order = np.argsort(keys)
    sigma = order[np.minimum(np.searchsorted(keys[order], _centre_keys(inverses)),
                             m - 1)]
    if (np.abs(gammas[sigma] - inverses).max(axis=(1, 2))
            >= WORD_MATCH_TOL).any():
        raise InvalidPolyhedron("side pairing leaves the apex star")

    # corner identification: side i glued to side sigma(i) reversing direction
    normals = np.array([star.faces[idx]["normal"] for idx in star.order])
    mapped = (inverses @ normals[:, :, None])[..., 0]
    if (np.abs(mapped - normals[(sigma + 1) % m]).max(axis=1)
            > PAIRING_TOL).any():
        raise InvalidPolyhedron(
            "side pairing does not reverse the polygon orientation")
    classes, class_of = _corner_classes(sigma)

    _, corners, sides, diagonals, _ = fan_triangulations([m])
    sides = sides[0]
    mate = np.full(3 * len(corners), -1)
    pairs = np.vstack([diagonals, np.stack([sides, sides[sigma]], axis=1)])
    mate[pairs] = pairs[:, ::-1]
    surf = CombSurface(len(classes), class_of[corners], mate)

    # an edge's length is the de Sitter distance of the normals at its
    # polygon corners, as in `polyhedra.dualize`, read off its smaller
    # half-edge; a side's half-edge carries gamma_i
    first = surf.edge_halfedges[:, 0]
    ends = np.stack([corners, np.roll(corners, -1, axis=1)]).reshape(2, -1)[:, first]
    side_of = np.full(len(mate), -1)
    side_of[sides] = np.arange(m)
    words = {e: gammas[i] if i >= 0 else np.eye(4)
             for e, i in enumerate(side_of[first].tolist())}
    metric = ConeMetric(surf, SPHERICAL, ds_distances(*normals[ends]),
                        deck_words=words)

    core_distance = min(
        float(np.arccosh(abs(f["normal"][3])))
        for f in star.faces)

    marking = [star.order[c] for c in classes.tolist()]
    face_areas = [polygon_area(points[star.faces[idx]["cycle"]])
                  for idx in marking]
    return FuchsianDualOutput(metric=metric, marking=marking,
                              core_distance=core_distance,
                              face_areas=face_areas)
