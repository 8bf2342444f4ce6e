"""Compact convex polyhedra in H^3 given by outward face planes, their face
lattice, vertex links, and the induced dual spherical cone-metric.

The hull runs in the Klein chart y = (x1,x2,x3)/x0, where a face plane with
de Sitter normal n becomes the Euclidean half-space n_sp . y <= n0 and
hyperbolic convexity coincides with Euclidean convexity. Vertices of the
polyhedron are recovered as merged coplanar facets of the polar point hull,
with planes re-collected per point at relative tolerance rather than trusting
the raw facet equations (symmetric inputs make exactly-coplanar facets that
plain equation grouping splits arbitrarily).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import EmptyInterior, InvalidPolyhedron, UnboundedPolyhedron
from .minkowski import (
    DSPoint,
    HPoint,
    clamped,
    corner_angle,
    h_distance,
    minkowski_inner,
    minkowski_rows,
)
from .surface import SPHERICAL, CombSurface, ConeMetric, fan_triangulation, sphere_angle

BALL_MARGIN = 1e-12
MERGE_TOL = 1e-9                 # relative residual of a plane through a vertex
CERTIFY_MARGIN = 100 * MERGE_TOL
RANDOM_RADII = (0.25, 0.5)       # plane distances from the origin
RANDOM_TRIES = 200


@dataclass
class Face:
    plane: DSPoint
    vertex_cycle: list          # vertex indices, ccw seen from outside


@dataclass
class Edge:
    vertices: tuple              # (v1, v2)
    faces: tuple                 # (f1, f2)


class ConvexPolyhedronH3:
    """Bounded convex polyhedron with a computed face lattice.

    Faces keep the index order of the (non-redundant) input planes; edge k of
    `edges` joins `edges[k].faces` and its dual length is pi minus the
    dihedral angle there.
    """

    def __init__(self, planes, vertices, faces, edges, discarded=None):
        self.planes = planes
        self.vertices = vertices
        self.faces = faces
        self.edges = edges
        self.discarded = discarded or []
        self._vertex_faces = None
        # each edge under its vertex pair and its face pair, in both orders
        self._by_vertices = {p: k for k, e in enumerate(edges)
                             for p in (e.vertices, e.vertices[::-1])}
        self._by_faces = {p: k for k, e in enumerate(edges)
                          for p in (e.faces, e.faces[::-1])}

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def faces_at_vertex(self, v: int) -> list:
        if self._vertex_faces is None:
            vf = [[] for _ in range(self.n_vertices)]
            for f, face in enumerate(self.faces):
                for u in face.vertex_cycle:
                    vf[u].append(f)
            self._vertex_faces = vf
        return self._vertex_faces[v]

    def edge_at(self, u: int, w: int) -> Optional[int]:
        """Index of the edge joining vertices u and w, or None."""
        return self._by_vertices.get((u, w))

    def edge_between(self, f1: int, f2: int) -> Optional[int]:
        """Index of the edge where faces f1 and f2 meet, or None."""
        return self._by_faces.get((f1, f2))

    def edge_length(self, k: int) -> float:
        v1, v2 = self.edges[k].vertices
        return h_distance(self.vertices[v1], self.vertices[v2])


def _lift_klein(y: np.ndarray) -> HPoint:
    r2 = float(y @ y)
    if r2 >= 1.0 - BALL_MARGIN:
        raise UnboundedPolyhedron(
            f"lattice vertex at Klein radius {np.sqrt(r2):.12f} leaves H^3")
    x0 = 1.0 / np.sqrt(1.0 - r2)
    return HPoint(np.array([x0, *(x0 * y)]))


def _interior_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chebyshev-style strictly interior point of {y : a y <= b} near the ball."""
    n = a.shape[0]
    norms = np.linalg.norm(a, axis=1)
    A_ub = np.hstack([a, norms[:, None]])
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=b,
                  bounds=[(-2, 2), (-2, 2), (-2, 2), (0, 3)], method="highs")
    if not res.success or res.x[3] <= 1e-9:
        raise EmptyInterior("plane family admits no common interior")
    return res.x[:3]


def _reject_recession_direction(a: np.ndarray):
    """Unbounded whenever some direction recedes inside every half-space."""
    norms = np.linalg.norm(a, axis=1)
    A_ub = np.hstack([a, norms[:, None]])
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=np.zeros(len(a)),
                  bounds=[(-1, 1), (-1, 1), (-1, 1), (0, 2)], method="highs")
    if res.success and res.x[3] > 1e-9:
        raise UnboundedPolyhedron(
            f"plane family recedes in direction {np.round(res.x[:3], 6)}")


def hull_from_dual_points(duals) -> ConvexPolyhedronH3:
    """Polyhedron cut out by the planes dual to the given de Sitter points.

    Redundant planes are discarded and recorded. Raises EmptyInterior when
    the negative half-spaces have no common interior and UnboundedPolyhedron
    when a lattice vertex escapes H^3. A vertex collects every plane within
    MERGE_TOL (relative) of it, so a configuration sitting within that of a
    coplanarity wall gets one merged vertex; a lattice that still comes out
    inconsistent raises InvalidPolyhedron.
    """
    duals = [d if isinstance(d, DSPoint) else DSPoint.from_vector(d)
             for d in duals]
    if len(duals) < 4:
        raise InvalidPolyhedron("need at least four face planes")
    a = np.array([d.v[1:] for d in duals])
    b = np.array([d.v[0] for d in duals])
    y0 = _interior_point(a, b)
    _reject_recession_direction(a)

    gap = b - a @ y0
    if np.any(gap <= 0):
        raise EmptyInterior("interior point failed strict containment")
    polar = a / gap[:, None]
    try:
        hull = ConvexHull(polar)
    except QhullError as exc:
        raise EmptyInterior(f"degenerate dual configuration: {exc}") from exc
    essential = sorted(set(int(v) for v in hull.vertices))
    discarded = sorted(set(range(len(duals))) - set(essential))
    if len(essential) < 4:
        raise EmptyInterior("fewer than four essential planes")

    return _build_lattice(duals, a, b, hull, essential, discarded)


def _build_lattice(duals, a, b, hull, essential, discarded):
    # vertices of the polyhedron = merged coplanar facet groups of the polar
    # hull; collect per-vertex plane sets at relative tolerance, and refit a
    # vertex only where more planes than its facet's three pass through it
    groups = {}
    for simplex in hull.simplices:
        tri = tuple(sorted(int(i) for i in simplex))
        ys = _solve_vertex(a, b, tri)
        if ys is None:
            continue
        members = _planes_through(a, b, ys)
        if members != tri:
            ys = _solve_vertex(a, b, members)
            if ys is None:
                continue
            members = _planes_through(a, b, ys)
        groups[frozenset(members)] = ys
    # drop vertex candidates whose plane set is contained in a larger one
    # (a merge absorbs the split vertices of a near-coplanar cluster)
    keys = sorted(groups, key=len, reverse=True)
    kept = []
    for k in keys:
        if not any(k < other for other in kept):
            kept.append(k)
    kept.sort(key=sorted)
    vertices_klein = np.array([groups[members] for members in kept])
    vertices = [_lift_klein(y) for y in vertices_klein]
    incidence = np.zeros((len(duals), len(kept)), dtype=bool)
    for v, members in enumerate(kept):
        incidence[list(members), v] = True
    incidence = incidence[essential]        # face x vertex

    small = np.flatnonzero(incidence.sum(axis=1) < 3)
    if small.size:
        raise InvalidPolyhedron(
            f"face {essential[small[0]]} has fewer than three vertices")
    cycles = order_face_cycles(a[essential], vertices_klein, incidence)
    faces = [Face(plane=duals[orig], vertex_cycle=cycle)
             for orig, cycle in zip(essential, cycles)]

    edges = _edges_from_faces(faces)
    poly = ConvexPolyhedronH3(planes=[duals[i] for i in essential],
                              vertices=vertices, faces=faces, edges=edges,
                              discarded=discarded)
    _validate_lattice(poly, incidence, MERGE_TOL)
    return poly


def _solve_vertex(a, b, idxs):
    rows = a[list(idxs)]
    rhs = b[list(idxs)]
    y, res, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < 3:
        return None
    if np.max(np.abs(rows @ y - rhs)) > 1e-6:
        return None
    return y

def _planes_through(a, b, y):
    resid = np.abs(a @ y - b)
    scale = 1.0 + np.abs(b) + np.linalg.norm(a, axis=1) * np.linalg.norm(y)
    return tuple(int(i) for i in np.where(resid <= MERGE_TOL * scale)[0])


def chart_certifies(duals, triangles) -> bool:
    """True when the chart is proven to be the dual decomposition of the
    compact polyhedron P cut out by the planes dual to `duals`.

    `duals` holds one de Sitter point per row and `triangles` the chart's
    triangles as triples of their indices; the chart must triangulate the
    sphere with no two edges on the same endpoints, as `SolverState`
    requires. Each triangle's three planes are solved for their common
    point y_t (Klein chart, a y <= b, as in the hull), and the certificate
    holds when every y_t lies inside the ball, |y_t|^2 < 1 - CERTIFY_MARGIN,
    and strictly inside every other plane, a y_t - b < -CERTIFY_MARGIN *
    scale with the relative scale of `_planes_through`.

    Why this proves it: each y_t is then a point of P on exactly three
    planes with independent normals, a simple vertex. Along the line of a
    chart edge, the two triangles at that edge give two vertices, and the
    segment between them is an edge of P, since its interior is strictly
    inside every other plane and each end is cut off by its third plane.
    So every y_t has all three of its P-edges among the chart's edges: the
    chart's triangles and edges form a closed 3-regular subgraph of P's
    connected 1-skeleton, hence all of it. P therefore has no unbounded edge
    and no vertex outside the ball, so it is compact in H^3; every plane
    carries a vertex with a two-dimensional face, so none is redundant; and
    the chart is exactly P's dual decomposition.

    False decides nothing: states on a wall (four or more planes through a
    vertex) and states that left convex position both return it.
    """
    x = np.asarray(duals, dtype=float)
    a, b = x[:, 1:], x[:, 0]
    tri = np.asarray(triangles)
    try:
        y = np.linalg.solve(a[tri], b[tri][..., None])[..., 0]
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.einsum("ij,ij->i", y, y) < 1.0 - CERTIFY_MARGIN):
        return False
    resid = y @ a.T - b                               # triangle x plane
    scale = (1.0 + np.abs(b)
             + np.linalg.norm(y, axis=1)[:, None] * np.linalg.norm(a, axis=1))
    own = np.zeros(resid.shape, dtype=bool)
    np.put_along_axis(own, tri, True, axis=1)
    return bool(np.all(own | (resid < -CERTIFY_MARGIN * scale)))


def polyhedron_from_chart(duals, surface: CombSurface) -> ConvexPolyhedronH3:
    """The polyhedron cut out by the planes dual to `duals`, for dual points
    whose chart `surface` `chart_certifies` accepted; builds no hull.

    Why it is sound: the certificate proves that the chart is exactly the
    polyhedron's dual decomposition, with every plane essential and every
    vertex simple (see `chart_certifies`). So the face lattice is read off
    the chart instead of recovered by Qhull, an LP and a fit per vertex:
    the planes are all of `duals`, converted as `hull_from_dual_points`
    converts them; the vertices are the triangles' common points y_t,
    lifted and in the hull's vertex order (sorted plane triples); face f is
    chart vertex f, its cycle the triangles of f's star; edges follow from
    the cycles. The chart's rotation is ccw seen from outside either about
    every face or about none, and one corner decides which. The vertices
    agree with the hull's within solve roundoff, and each cycle is the
    hull's up to rotation.
    """
    planes = [d if isinstance(d, DSPoint) else DSPoint.from_vector(d)
              for d in duals]
    x = np.array([p.v for p in planes])
    a, b = x[:, 1:], x[:, 0]
    corners = np.sort(surface.triangle_array, axis=1)
    order = np.lexsort(corners.T[::-1])
    vertex_of = np.empty(len(order), dtype=int)
    vertex_of[order] = np.arange(len(order))
    tri = corners[order]
    y = np.linalg.solve(a[tri], b[tri][..., None])[..., 0]
    cycles = [vertex_of[star].tolist() for star in surface.vertex_stars()]
    p0, p1, p2 = y[cycles[0][:3]]
    if np.cross(p1 - p0, p2 - p1) @ a[0] < 0:
        cycles = [c[::-1] for c in cycles]
    faces = [Face(plane=p, vertex_cycle=c) for p, c in zip(planes, cycles)]
    return ConvexPolyhedronH3(planes=planes,
                              vertices=[_lift_klein(v) for v in y],
                              faces=faces, edges=_edges_from_faces(faces))


def order_face_cycles(normals, points, incidence) -> list:
    """Vertex cycles of faces, each convex and ccw about its outward normal.

    Face f holds the points that row f of the boolean `incidence` marks, at
    least three of them, and has the outward normal normals[f]. Its cycle
    lists their indices into `points` sorted by angle about their centroid,
    in a plane basis (e1, e2) that makes (e1, e2, normal) right-handed, from
    the smallest angle up; every corner must turn left about the normal.
    All faces run in one pass, padded to the longest, and each face gets
    the arithmetic it would get on its own (stacked matmul reproduces the
    single-face dot products bit for bit).
    """
    normals = np.asarray(normals, dtype=float)
    count = incidence.sum(axis=1)
    face, member = np.nonzero(incidence)        # each face's points ascending
    slot = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
    shape = (len(normals), int(count.max()))
    idx = np.zeros(shape, dtype=int)
    idx[face, slot] = member
    real = np.zeros(shape, dtype=bool)
    real[face, slot] = True
    pts = np.where(real[..., None], points[idx], 0.0)

    e1 = np.zeros(normals.shape)
    e1[np.arange(len(normals)), np.argmin(np.abs(normals), axis=1)] = 1.0
    e1 = _unit_rows(np.cross(normals, e1))
    # e1 is orthogonal to the normal, so (e1, normal x e1, normal) is
    # right-handed and angle order is ccw seen from outside
    e2 = _unit_rows(np.cross(normals, e1))
    rel = pts - (pts.sum(axis=1) / count[:, None])[:, None]
    ang = np.arctan2(_row_products(rel, e2), _row_products(rel, e1))
    order = np.argsort(np.where(real, ang, np.inf), axis=1)   # padding last

    k = np.arange(shape[1])
    after = np.where(k + 1 < count[:, None], k + 1, 0)[..., None]
    ordered = np.take_along_axis(pts, order[..., None], axis=1)
    sides = np.take_along_axis(ordered, after, axis=1) - ordered
    turns = np.cross(sides, np.take_along_axis(sides, after, axis=1))
    if np.any((k < count[:, None]) & (_row_products(turns, normals) <= 0)):
        raise InvalidPolyhedron("face cycle is not convex about its normal")
    cycles = np.take_along_axis(idx, order, axis=1).tolist()
    return [c[:m] for c, m in zip(cycles, count.tolist())]


def _row_products(u, w):
    """u[f] @ w[f] for stacks of points u (F, K, 3) and vectors w (F, 3)."""
    return (u @ w[..., None])[..., 0]


def _unit_rows(v):
    """Each row of v divided by its norm, as np.linalg.norm gives it."""
    return v / np.sqrt((v[:, None, :] @ v[..., None])[:, 0])


def _edges_from_faces(faces):
    seen = {}
    for f, face in enumerate(faces):
        cyc = face.vertex_cycle
        for k in range(len(cyc)):
            u, w = cyc[k], cyc[(k + 1) % len(cyc)]
            key = (min(u, w), max(u, w))
            seen.setdefault(key, []).append((f, u < w))
    edges = []
    for (u, w), inc in sorted(seen.items()):
        if len(inc) != 2 or inc[0][1] == inc[1][1]:
            raise InvalidPolyhedron(
                f"edge {(u, w)} is not shared by two consistently oriented faces")
        f_fwd = [f for f, fwd in inc if fwd][0]
        f_bwd = [f for f, fwd in inc if not fwd][0]
        edges.append(Edge(vertices=(u, w), faces=(f_fwd, f_bwd)))
    return edges


def _validate_lattice(poly, incidence, merge_tol):
    """Each vertex lies on the planes of its incident faces, within 10 *
    merge_tol, and strictly inside every other plane, by merge_tol / 10,
    both relative to its x0. The first failing vertex is reported, its own
    planes checked first."""
    if poly.n_vertices - poly.n_edges + poly.n_faces != 2:
        raise InvalidPolyhedron("face lattice is not a 2-sphere")
    n = np.array([p.v for p in poly.planes])[:, None, :]
    x = np.array([p.v for p in poly.vertices])[None, :, :]
    inner = minkowski_rows(n, x)                     # <n_f, x_v>
    scale = x[..., 0]
    off = incidence & (np.abs(inner) > 10 * merge_tol * scale)
    outside = ~incidence & (inner >= -merge_tol * scale / 10)
    bad = np.flatnonzero(off.any(axis=0) | outside.any(axis=0))
    if bad.size:
        v = bad[0]
        if off[:, v].any():
            raise InvalidPolyhedron(f"vertex {v} off its plane {np.argmax(off[:, v])}")
        raise InvalidPolyhedron(
            f"vertex {v} not strictly inside plane {np.argmax(outside[:, v])}")


# -- angles, links, duals -------------------------------------------------------


def dihedral_angle(P: ConvexPolyhedronH3, e: int) -> float:
    """Interior dihedral angle at edge e, in (0, pi)."""
    f1, f2 = P.edges[e].faces
    x = clamped(minkowski_inner(P.planes[f1], P.planes[f2]), -1.0, 1.0)
    return np.pi - float(np.arccos(x))


def face_corner_angle(P: ConvexPolyhedronH3, f: int, v: int) -> float:
    """Interior angle of face f at its vertex v."""
    cyc = P.faces[f].vertex_cycle
    i = cyc.index(v)
    return corner_angle(P.vertices[v].v, P.vertices[cyc[i - 1]].v,
                        P.vertices[cyc[(i + 1) % len(cyc)]].v)


def face_area(P: ConvexPolyhedronH3, f: int) -> float:
    """Area of the hyperbolic face polygon by angle defect."""
    cyc = P.faces[f].vertex_cycle
    angles = [face_corner_angle(P, f, v) for v in cyc]
    return (len(cyc) - 2) * np.pi - float(sum(angles))


@dataclass
class VertexLink:
    """Spherical polygon of directions at a polyhedron vertex.

    Side i is the face angle of faces[i]; the corner between sides i and i+1
    is the dihedral angle of primal edge edges[i], shared by both faces.
    """

    faces: list
    edges: list
    side_lengths: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        if np.any(self.side_lengths <= 0) or np.any(self.side_lengths >= np.pi):
            raise InvalidPolyhedron("link side outside (0, pi)")
        if np.any(self.angles <= 0) or np.any(self.angles >= np.pi):
            raise InvalidPolyhedron("link angle outside (0, pi)")


def vertex_link(P: ConvexPolyhedronH3, v: int) -> VertexLink:
    """Link polygon at vertex v: face angles as sides, dihedral angles at corners."""
    faces_at = P.faces_at_vertex(v)
    f = faces_at[0]
    order = []
    edges = []
    for _ in range(len(faces_at)):
        order.append(f)
        cyc = P.faces[f].vertex_cycle
        k = P.edge_at(v, cyc[(cyc.index(v) + 1) % len(cyc)])
        edges.append(k)
        f1, f2 = P.edges[k].faces
        f = f1 if f2 == f else f2
    if f != order[0]:
        raise InvalidPolyhedron(f"face fan at vertex {v} does not close")
    sides = np.array([face_corner_angle(P, fi, v) for fi in order])
    angs = np.array([dihedral_angle(P, k) for k in edges])
    return VertexLink(faces=order, edges=edges,
                      side_lengths=sides, angles=angs)


@dataclass
class SphericalPolygon:
    sides: np.ndarray
    angles: np.ndarray

    def develop(self):
        """Corner positions on the unit sphere, walking ccw with the interior
        on the left; returns (corners, closure_residual)."""
        m = len(self.sides)
        P = np.array([1.0, 0.0, 0.0])
        H = np.array([0.0, 1.0, 0.0])
        corners = [P]
        for i in range(m):
            L = self.sides[i]
            P, H = (np.cos(L) * P + np.sin(L) * H,
                    -np.sin(L) * P + np.cos(L) * H)
            tau = np.pi - self.angles[(i + 1) % m]
            H = np.cos(tau) * H + np.sin(tau) * np.cross(P, H)
            corners.append(P)
        residual = float(np.linalg.norm(corners[-1] - corners[0]))
        return corners[:-1], residual


def polar_dual_polygon(link) -> SphericalPolygon:
    """Spherical polar dual: sides and angles swap through pi-complements.

    Corner i of the dual corresponds to side i of the input (a face of the
    vertex), and side i of the dual to corner i (an edge of the vertex).
    """
    if isinstance(link, VertexLink):
        sides, angles = link.side_lengths, link.angles
    else:
        sides, angles = link.sides, link.angles
    return SphericalPolygon(sides=np.pi - np.asarray(angles, dtype=float),
                            angles=np.pi - np.asarray(sides, dtype=float))


@dataclass
class DualMetricOutput:
    metric: ConeMetric
    marking: list               # marking[dual vertex] = face index (identity)
    edge_provenance: list = field(repr=False)


def dualize(P: ConvexPolyhedronH3) -> DualMetricOutput:
    """Glue the polar duals of all vertex links into the dual cone-metric.

    One dual vertex per face; sides dual to primal edges get length pi minus
    the dihedral angle; each polygon is fan-triangulated from its
    lowest-index corner with intrinsically developed diagonal lengths.
    """
    triangles = []
    side_tag = {}        # primal edge index -> the half-edges of its dual sides
    gluing = {}
    lengths_by_he = {}
    provenance_by_he = {}

    for v in range(P.n_vertices):
        link = vertex_link(P, v)
        poly = polar_dual_polygon(link)
        corners, resid = poly.develop()
        if resid > 1e-9:
            raise InvalidPolyhedron(
                f"dual polygon at vertex {v} fails to close (residual {resid:.2e})")
        m = len(link.faces)
        anchor = int(np.argmin(link.faces))
        local = [(anchor + j) % m for j in range(m)]
        fan, sides, diagonals = fan_triangulation(m, base=len(triangles))
        triangles += [tuple(link.faces[local[c]] for c in tri) for tri in fan]
        # polygon boundary side i joins corners i, i+1 and is dual to the
        # primal edge link.edges[i]
        for i, e_primal in enumerate(link.edges):
            he = sides[(i - anchor) % m]
            side_tag.setdefault(e_primal, []).append(he)
            lengths_by_he[he] = np.pi - link.angles[i]
            provenance_by_he[he] = ("primal", P.edges[e_primal].faces)
        for j, (he_a, he_b) in enumerate(diagonals, start=2):
            gluing[he_a] = he_b
            gluing[he_b] = he_a
            lengths_by_he[he_a] = sphere_angle(corners[local[0]], corners[local[j]])
            provenance_by_he[he_a] = ("fan", v)

    for e_primal, hes in side_tag.items():
        if len(hes) != 2:
            raise InvalidPolyhedron(
                f"primal edge {e_primal} matched {len(hes)} dual sides")
        gluing[hes[0]] = hes[1]
        gluing[hes[1]] = hes[0]

    surf = CombSurface(P.n_faces, triangles, gluing)
    lengths = np.empty(surf.n_edges)
    provenance = [None] * surf.n_edges
    for e, (ha, hb) in enumerate(surf.edge_halfedges):
        src = ha if ha in lengths_by_he else hb
        lengths[e] = lengths_by_he[src]
        provenance[e] = provenance_by_he[src]
    metric = ConeMetric(surf, SPHERICAL, lengths)
    return DualMetricOutput(metric=metric, marking=list(range(P.n_faces)),
                            edge_provenance=provenance)


# -- canned constructions --------------------------------------------------------


TETRA_DIRECTIONS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                            dtype=float) / np.sqrt(3)

EUCLIDEAN_TETRA_ANGLE = float(np.arccos(1 / 3))


def regular_tetrahedron_data(theta: float) -> dict:
    """Closed-form data of the regular tetrahedron with dihedral angle theta."""
    if not np.pi / 3 < theta < EUCLIDEAN_TETRA_ANGLE:
        raise InvalidPolyhedron(
            "regular compact tetrahedra have dihedral angle in "
            "(pi/3, arccos(1/3))")
    alpha = float(np.arccos(np.cos(theta) / (1 - np.cos(theta))))
    cosh_edge = (np.cos(alpha) + np.cos(alpha) ** 2) / np.sin(alpha) ** 2
    sinh_r = np.sqrt(0.75 * (cosh_edge - 1.0))
    return {
        "face_angle": alpha,
        "edge_length": float(np.arccosh(cosh_edge)),
        "circumradius": float(np.arcsinh(sinh_r)),
        "face_area": float(np.pi - 3 * alpha),
        "dual_edge_length": float(np.pi - theta),
        "dual_cone_angle": float(2 * np.pi + (np.pi - 3 * alpha)),
    }


def regular_tetrahedron(theta: float) -> ConvexPolyhedronH3:
    """Regular hyperbolic tetrahedron with the given dihedral angle."""
    from .minkowski import plane_through

    r = regular_tetrahedron_data(theta)["circumradius"]
    verts = [HPoint(np.array([np.cosh(r), *(np.sinh(r) * u)]))
             for u in TETRA_DIRECTIONS]
    origin = HPoint(np.array([1.0, 0, 0, 0]))
    normals = []
    for i in range(4):
        others = [verts[j] for j in range(4) if j != i]
        n = plane_through(*others)
        if minkowski_inner(n, origin) > 0:
            n = DSPoint(-n.v)
        normals.append(n)
    return hull_from_dual_points(normals)


def hexahedron(t: float = 0.5) -> ConvexPolyhedronH3:
    """Hyperbolic cube bounded by the six coordinate planes at distance t."""
    if not 0 < t < np.arcsinh(1.0):
        raise InvalidPolyhedron("hexahedron needs 0 < t < arcsinh(1)")
    normals = []
    for k in range(3):
        for s in (+1.0, -1.0):
            u = np.zeros(3)
            u[k] = s
            normals.append(DSPoint(np.array([np.sinh(t), *(np.cosh(t) * u)])))
    return hull_from_dual_points(normals)


def triangular_bipyramid(r_apex: float = 0.7, r_eq: float = 0.6) -> ConvexPolyhedronH3:
    """Six-faced bipyramid whose equatorial vertices have four incident faces."""
    from .minkowski import plane_through

    origin = HPoint(np.array([1.0, 0, 0, 0]))
    apexes = [HPoint(np.array([np.cosh(r_apex), 0, 0, s * np.sinh(r_apex)]))
              for s in (+1, -1)]
    eq = [HPoint(np.array([np.cosh(r_eq),
                           np.sinh(r_eq) * np.cos(2 * np.pi * k / 3),
                           np.sinh(r_eq) * np.sin(2 * np.pi * k / 3), 0]))
          for k in range(3)]
    normals = []
    for apex in apexes:
        for k in range(3):
            n = plane_through(apex, eq[k], eq[(k + 1) % 3])
            if minkowski_inner(n, origin) > 0:
                n = DSPoint(-n.v)
            normals.append(n)
    return hull_from_dual_points(normals)


def _fibonacci_directions(n: int) -> np.ndarray:
    k = np.arange(n)
    z = 1.0 - (2 * k + 1.0) / n
    r = np.sqrt(1.0 - z ** 2)
    az = np.pi * (3.0 - np.sqrt(5.0)) * k
    return np.stack([r * np.cos(az), r * np.sin(az), z], axis=1)


def _base_directions(n: int) -> np.ndarray:
    """Well-covering direction patterns; Fibonacci spirals gap badly below 7."""
    if n == 4:
        return TETRA_DIRECTIONS.copy()
    if n == 5:
        eq = [[np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3), 0.0]
              for k in range(3)]
        return np.array([[0.0, 0, 1.0], [0.0, 0, -1.0], *eq])
    if n == 6:
        return np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                         [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
    return _fibonacci_directions(n)


def random_polyhedron(rng: np.random.RandomState, n_faces: int = 6,
                      max_dual_length: Optional[float] = None) -> ConvexPolyhedronH3:
    """Random bounded polyhedron from jittered well-spread plane directions.

    Purely uniform directions leave spherical gaps whose vertices escape
    H^3, so directions start from a randomly rotated covering pattern.
    """
    base = _base_directions(n_faces)
    for _ in range(RANDOM_TRIES):
        rot, _ = np.linalg.qr(rng.randn(3, 3))
        dirs = base @ rot.T + 0.1 * rng.randn(n_faces, 3)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = rng.uniform(*RANDOM_RADII, size=n_faces)
        duals = [DSPoint(np.array([np.sinh(t), *(np.cosh(t) * u)]))
                 for u, t in zip(dirs, radii)]
        try:
            poly = hull_from_dual_points(duals)
        except (InvalidPolyhedron, EmptyInterior, UnboundedPolyhedron):
            continue
        if poly.discarded:
            continue
        if max_dual_length is not None:
            try:
                worst = max(np.pi - dihedral_angle(poly, e)
                            for e in range(poly.n_edges))
            except Exception:
                continue
            if worst > max_dual_length:
                continue
        return poly
    raise InvalidPolyhedron("failed to sample a valid polyhedron")
