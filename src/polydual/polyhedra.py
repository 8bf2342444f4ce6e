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
)
from .surface import SPHERICAL, CombSurface, ConeMetric, fan_triangulation, sphere_angle

COPLANAR_TOL = 1e-10
BALL_MARGIN = 1e-12


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

    def __init__(self, planes, vertices, faces, edges, discarded=None,
                 interior_point=None):
        self.planes = planes
        self.vertices = vertices
        self.faces = faces
        self.edges = edges
        self.discarded = discarded or []
        self.interior_point = interior_point
        self._vertex_faces = None

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

    def edge_between(self, f1: int, f2: int) -> Optional[int]:
        for k, e in enumerate(self.edges):
            if set(e.faces) == {f1, f2}:
                return k
        return None

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
    when a lattice vertex escapes H^3. Configurations sitting within roundoff
    of a coplanarity wall are retried with coarser vertex merging, so nearly
    coincident lattice vertices collapse rather than producing an
    inconsistent face lattice.
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

    last_exc = None
    for merge_tol in (1e-9, 1e-7, 1e-5):
        try:
            return _build_lattice(duals, a, b, y0, hull, essential, discarded,
                                  merge_tol)
        except (UnboundedPolyhedron, EmptyInterior):
            raise
        except InvalidPolyhedron as exc:
            last_exc = exc
    raise last_exc


def _build_lattice(duals, a, b, y0, hull, essential, discarded, merge_tol):
    # vertices of the polyhedron = merged coplanar facet groups of the polar
    # hull; collect per-vertex plane sets at relative tolerance and refit
    groups = {}
    for simplex in hull.simplices:
        tri = [int(i) for i in simplex]
        ys = _solve_vertex(a, b, tri)
        if ys is None:
            continue
        members = _planes_through(a, b, ys, merge_tol)
        ys = _solve_vertex(a, b, members)
        if ys is None:
            continue
        members = _planes_through(a, b, ys, merge_tol)
        groups[frozenset(members)] = ys
    # drop vertex candidates whose plane set is contained in a larger one
    # (a coarse merge absorbs the split vertices of a near-coplanar cluster)
    keys = sorted(groups, key=len, reverse=True)
    kept = []
    for k in keys:
        if not any(k < other for other in kept):
            kept.append(k)
    vertices_klein = []
    vertex_planes = []
    for members in sorted(kept, key=sorted):
        vertices_klein.append(groups[members])
        vertex_planes.append(sorted(members))
    vertices = [_lift_klein(y) for y in vertices_klein]

    reindex = {orig: new for new, orig in enumerate(essential)}
    planes = [duals[i] for i in essential]
    faces = []
    for orig in essential:
        idxs = [v for v, members in enumerate(vertex_planes) if orig in members]
        if len(idxs) < 3:
            raise InvalidPolyhedron(f"face {orig} has fewer than three vertices")
        cycle = order_face_cycle(a[orig], np.array([vertices_klein[v] for v in idxs]),
                                  idxs)
        faces.append(Face(plane=duals[orig], vertex_cycle=cycle))

    edges = _edges_from_faces(faces)
    poly = ConvexPolyhedronH3(planes=planes, vertices=vertices,
                              faces=faces, edges=edges,
                              discarded=discarded, interior_point=y0)
    _validate_lattice(poly, vertex_planes, reindex, merge_tol)
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

def _planes_through(a, b, y, tol=COPLANAR_TOL * 10):
    resid = np.abs(a @ y - b)
    scale = 1.0 + np.abs(b) + np.linalg.norm(a, axis=1) * np.linalg.norm(y)
    return tuple(int(i) for i in np.where(resid <= tol * scale)[0])


def order_face_cycle(normal, pts, idxs):
    """Vertex cycle of a face, convex and ccw about the outward normal."""
    e1 = np.zeros(3)
    e1[np.argmin(np.abs(normal))] = 1.0
    e1 = np.cross(normal, e1)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    e2 /= np.linalg.norm(e2)
    # (e1, e2, normal) ordered right-handed: angle order is ccw from outside
    if np.linalg.det(np.stack([e1, e2, normal / np.linalg.norm(normal)])) < 0:
        e2 = -e2
    center = pts.mean(axis=0)
    ang = np.arctan2((pts - center) @ e2, (pts - center) @ e1)
    order = np.argsort(ang)
    cycle = [idxs[i] for i in order]
    rel = pts[order] - center
    for k in range(len(cycle)):
        u = rel[k]
        w = rel[(k + 1) % len(cycle)]
        if np.dot(np.cross(u, w), normal) <= 0:
            raise InvalidPolyhedron("face cycle is not convex about its normal")
    return cycle


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


def _validate_lattice(poly, vertex_planes, reindex, merge_tol=COPLANAR_TOL * 10):
    if poly.n_vertices - poly.n_edges + poly.n_faces != 2:
        raise InvalidPolyhedron("face lattice is not a 2-sphere")
    for v, (p, members) in enumerate(zip(poly.vertices, vertex_planes)):
        scale = p.v[0]
        for orig in members:
            f = reindex.get(orig)
            if f is None:
                continue
            if abs(minkowski_inner(poly.planes[f], p)) > 10 * merge_tol * scale:
                raise InvalidPolyhedron(f"vertex {v} off its plane {f}")
        for f, plane in enumerate(poly.planes):
            if f in [reindex.get(o) for o in members]:
                continue
            if minkowski_inner(plane, p) >= -merge_tol * scale / 10:
                raise InvalidPolyhedron(
                    f"vertex {v} not strictly inside plane {f}")


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
    is the dihedral angle of the edge toward edge_vertices[i].
    """

    faces: list
    edge_vertices: list
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
    others = []
    for _ in range(len(faces_at)):
        order.append(f)
        cyc = P.faces[f].vertex_cycle
        succ = cyc[(cyc.index(v) + 1) % len(cyc)]
        others.append(succ)
        nxt = None
        for e in P.edges:
            if set(e.vertices) == {v, succ}:
                nxt = e.faces[0] if e.faces[1] == f else e.faces[1]
                break
        if nxt is None:
            raise InvalidPolyhedron(f"edge ({v},{succ}) missing from lattice")
        f = nxt
    if f != order[0]:
        raise InvalidPolyhedron(f"face fan at vertex {v} does not close")
    sides = np.array([face_corner_angle(P, fi, v) for fi in order])
    angs = []
    for i in range(len(order)):
        e = _edge_index(P, v, others[i])
        angs.append(dihedral_angle(P, e))
    return VertexLink(faces=order, edge_vertices=others,
                      side_lengths=sides, angles=np.array(angs))


def _edge_index(P, u, w):
    for k, e in enumerate(P.edges):
        if set(e.vertices) == {u, w}:
            return k
    raise InvalidPolyhedron(f"no edge between vertices {u} and {w}")


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
        # primal edge toward link.edge_vertices[i]
        for i in range(m):
            he = sides[(i - anchor) % m]
            e_primal = _edge_index(P, v, link.edge_vertices[i])
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
                      radius_range=(0.25, 0.5), max_tries: int = 200,
                      max_dual_length: Optional[float] = None) -> ConvexPolyhedronH3:
    """Random bounded polyhedron from jittered well-spread plane directions.

    Purely uniform directions leave spherical gaps whose vertices escape
    H^3, so directions start from a randomly rotated covering pattern.
    """
    base = _base_directions(n_faces)
    for _ in range(max_tries):
        rot, _ = np.linalg.qr(rng.randn(3, 3))
        dirs = base @ rot.T + 0.1 * rng.randn(n_faces, 3)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = rng.uniform(*radius_range, size=n_faces)
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
