"""Compact convex polyhedra in H^3 given by outward face planes, their face
lattice, and the induced dual spherical cone-metric. Every dual edge length
and every dihedral angle is read off the dual points in closed form, as a
de Sitter distance (`minkowski.ds_distances`), in one stacked pass.

The hull runs in the Klein chart y = (x1,x2,x3)/x0, where a face plane with
de Sitter normal n becomes the Euclidean half-space n_sp . y <= n0 and
hyperbolic convexity coincides with Euclidean convexity. One Qhull call
builds the hull of the polar points about an interior point: the Klein
origin when every plane keeps it at ORIGIN_CLEARANCE, else a Chebyshev LP
point. That interior point rides along as one more polar point, and the
polyhedron is unbounded exactly when it comes out a hull vertex. Vertices of
the polyhedron are recovered as merged coplanar facets of the polar point
hull, all facets in one stacked solve, with planes re-collected per point at
relative tolerance rather than trusting the raw facet equations (symmetric
inputs make exactly-coplanar facets that plain equation grouping splits
arbitrarily).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .errors import (
    EmptyInterior,
    InvalidPolyhedron,
    NotSpacelikeSeparated,
    UnboundedPolyhedron,
)
from .minkowski import (
    DSPoint,
    HPoint,
    corner_angle,
    ds_distances,
    h_distance,
    h_distances,
    minkowski_inner,
    minkowski_rows,
)
from .surface import SPHERICAL, CombSurface, ConeMetric, fan_triangulation

BALL_MARGIN = 1e-12
ORIGIN_CLEARANCE = 0.1           # least plane distance that keeps the Klein origin
MERGE_TOL = 1e-9                 # relative residual of a plane through a vertex
SOLVE_RESIDUAL = 1e-6            # largest plane residual of a solved vertex
CERTIFY_MARGIN = 100 * MERGE_TOL
CERTIFY_ROUNDOFF = 1e-13         # relative roundoff allowance of a 3x3 solve
CERTIFIED, UNDECIDED, VIOLATED = "certified", "undecided", "violated"
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

    def edge_lengths(self) -> np.ndarray:
        """Length of every edge, in edge order, as `edge_length` gives it."""
        x = np.array([p.v for p in self.vertices])
        ends = np.array([e.vertices for e in self.edges])
        return h_distances(x[ends[:, 0]], x[ends[:, 1]])


def _lift_klein(y: np.ndarray) -> list:
    """The points of H^3 over the Klein points y (rows), lifted in one pass;
    raises UnboundedPolyhedron at the first one not inside the ball."""
    r2 = (y[:, None, :] @ y[..., None])[:, 0, 0]     # each row's own y @ y
    out = np.flatnonzero(r2 >= 1.0 - BALL_MARGIN)
    if out.size:
        raise UnboundedPolyhedron(
            f"lattice vertex at Klein radius {np.sqrt(r2[out[0]]):.12f} leaves H^3")
    x0 = 1.0 / np.sqrt(1.0 - r2)
    rows = np.column_stack([x0, x0[:, None] * y])
    try:
        return HPoint.from_rows(rows)
    except ValueError:
        pass
    # near the sphere at infinity the lift's roundoff can leave the hyperboloid
    for k, row in enumerate(rows):
        try:
            HPoint(row)
        except ValueError as exc:
            raise UnboundedPolyhedron(
                f"lattice vertex {k} at Klein radius {np.sqrt(r2[k]):.12f} "
                f"does not lift onto H^3: {exc}") from None
    raise AssertionError("the stacked lift check failed on no single row")


def _interior_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Strictly interior point of {y : a y <= b}: the Klein origin when every
    plane keeps it at a distance b_i / |a_i| of at least ORIGIN_CLEARANCE,
    and otherwise a Chebyshev-style LP point near the ball.

    A de Sitter point has b_i < |a_i|, so at the origin every polar point
    a_i / b_i has a norm in (1, 1 / ORIGIN_CLEARANCE]: the clearance bounds
    the polar points' spread.
    """
    norms = np.linalg.norm(a, axis=1)
    if np.all(b >= ORIGIN_CLEARANCE * norms):
        return np.zeros(3)
    # imported here: no benchmark input takes this branch, and importing
    # scipy.optimize costs about 0.2 s and 12 MB
    from scipy.optimize import linprog

    A_ub = np.hstack([a, norms[:, None]])
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=b,
                  bounds=[(-2, 2), (-2, 2), (-2, 2), (0, 3)], method="highs")
    if not res.success or res.x[3] <= 1e-9:
        raise EmptyInterior("plane family admits no common interior")
    return res.x[:3]


def qhull() -> tuple:
    """scipy.spatial's (ConvexHull, QhullError), imported at first use:
    scipy.spatial is most of the import time of `polydual.cli`, and commands
    such as `check` and `scale` build no hull. Every hull goes through this
    one lookup."""
    from scipy.spatial import ConvexHull, QhullError
    return ConvexHull, QhullError


def _as_planes(duals) -> list:
    """Each dual point as a DSPoint, a raw row normalized onto the quadric
    (all rows of an (n, 4) array in one pass); a row that does not land on
    it raises InvalidPolyhedron naming the row."""
    if isinstance(duals, np.ndarray) and duals.ndim == 2 and duals.shape[1] == 4:
        try:
            return DSPoint.from_vectors(duals)
        except ValueError:
            pass                 # the loop below names the first bad row
    planes = []
    for k, d in enumerate(duals):
        try:
            planes.append(d if isinstance(d, DSPoint) else DSPoint.from_vector(d))
        except ValueError as exc:
            raise InvalidPolyhedron(f"dual point {k}: {exc}") from exc
    return planes


def hull_from_dual_points(duals) -> ConvexPolyhedronH3:
    """Polyhedron cut out by the planes dual to the given de Sitter points.

    One Qhull call builds the hull of the polar points a_i / (b_i - a_i y0)
    about an interior point y0 (`_interior_point`), with y0 itself appended
    as the polar origin: the polyhedron is bounded exactly when y0 is not a
    vertex of that hull. Planes that are no hull vertex are redundant; they
    are discarded and recorded. The face lattice is then read off the hull's
    facets in one stacked pass (`_build_lattice`).

    Raises EmptyInterior when the negative half-spaces have no common
    interior, and UnboundedPolyhedron when they recede to infinity or a
    lattice vertex escapes H^3. A vertex collects every plane within
    MERGE_TOL (relative) of it, so a configuration sitting within that of a
    coplanarity wall gets one merged vertex; a lattice that still comes out
    inconsistent raises InvalidPolyhedron, as does a raw row that does not
    normalize onto the de Sitter quadric.
    """
    duals = _as_planes(duals)
    n = len(duals)
    if n < 4:
        raise InvalidPolyhedron("need at least four face planes")
    a = np.array([d.v[1:] for d in duals])
    b = np.array([d.v[0] for d in duals])
    y0 = _interior_point(a, b)

    gap = b - a @ y0
    if np.any(gap <= 0):
        raise EmptyInterior("interior point failed strict containment")
    ConvexHull, QhullError = qhull()
    try:
        hull = ConvexHull(np.vstack([a / gap[:, None], np.zeros(3)]))
    except QhullError as exc:
        raise EmptyInterior(f"degenerate dual configuration: {exc}") from exc
    if n in hull.vertices:
        raise UnboundedPolyhedron(
            "plane family recedes to infinity: its interior point is a "
            "vertex of the polar hull")
    essential = np.sort(hull.vertices)
    if len(essential) < 4:
        raise EmptyInterior("fewer than four essential planes")
    discarded = np.setdiff1d(np.arange(n), essential).tolist()
    return _build_lattice(duals, a, b, hull.simplices, essential, discarded)


def _build_lattice(duals, a, b, simplices, essential, discarded):
    # vertices of the polyhedron = merged coplanar facet groups of the polar
    # hull: solve every facet's three planes at once, collect each point's
    # planes at relative tolerance, and refit a point only where more planes
    # than its facet's three pass through it (a wall state)
    tri = np.sort(simplices, axis=1)
    y, ok = _solve_triples(a, b, tri)
    members = _planes_through(a, b, y)
    own = np.zeros(members.shape, dtype=bool)
    np.put_along_axis(own, tri, True, axis=1)
    for s in np.flatnonzero(ok & np.any(members != own, axis=1)):
        ys = _solve_vertex(a, b, np.flatnonzero(members[s]))
        if ys is None:
            ok[s] = False
            continue
        y[s] = ys
        members[s] = _planes_through(a, b, ys[None])[0]
    y, members = y[ok], members[ok]
    # drop vertex candidates whose plane set is contained in a larger one
    # (a merge absorbs the split vertices of a near-coplanar cluster)
    m = members.astype(float)
    count = m.sum(axis=1)
    inside = (m @ m.T == count[:, None]) & (count > count[:, None])
    maximal = ~inside.any(axis=1)
    y, members = y[maximal], members[maximal]
    # vertex order: plane sets as sorted index lists, ascending; a row with
    # the first plane where two sets differ comes first. Of equal sets the
    # last facet's point is kept.
    order = np.lexsort((~members).T[::-1])
    ranked = members[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = np.any(ranked[1:] != ranked[:-1], axis=1)
    vertices_klein = y[order[last]]
    vertices = _lift_klein(vertices_klein)
    incidence = ranked[last].T[essential]           # face x vertex

    small = np.flatnonzero(incidence.sum(axis=1) < 3)
    if small.size:
        raise InvalidPolyhedron(
            f"face {essential[small[0]]} has fewer than three vertices")
    cycles = order_face_cycles(a[essential], vertices_klein, incidence)
    faces = [Face(plane=duals[orig], vertex_cycle=cycle)
             for orig, cycle in zip(essential.tolist(), cycles)]

    edges = _edges_from_faces(faces)
    poly = ConvexPolyhedronH3(planes=[duals[i] for i in essential],
                              vertices=vertices, faces=faces, edges=edges,
                              discarded=discarded)
    _validate_lattice(poly, incidence, MERGE_TOL)
    return poly


def _solve_triples(a, b, tri):
    """The common point of the three planes of each row of `tri`, and
    whether it is one: lstsq's rank test (every singular value above
    3 eps times the largest) and a residual of at most SOLVE_RESIDUAL."""
    rows, rhs = a[tri], b[tri]
    sv = np.linalg.svd(rows, compute_uv=False)
    ok = sv[:, 2] > 3 * np.finfo(float).eps * sv[:, 0]
    y = np.zeros((len(tri), 3))
    y[ok] = np.linalg.solve(rows[ok], rhs[ok][..., None])[..., 0]
    resid = (rows @ y[..., None])[..., 0] - rhs
    return y, ok & (np.max(np.abs(resid), axis=1) <= SOLVE_RESIDUAL)


def _solve_vertex(a, b, idxs):
    """Least-squares common point of the planes idxs, or None when their
    normals have rank below 3 or the fit misses one by SOLVE_RESIDUAL."""
    rows = a[idxs]
    rhs = b[idxs]
    y, res, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < 3:
        return None
    if np.max(np.abs(rows @ y - rhs)) > SOLVE_RESIDUAL:
        return None
    return y


def _plane_offsets(a, b, y):
    """a y - b for every point (row of y) and plane, point x plane, with
    the relative scale 1 + |b| + |a| |y| that both the lattice's membership
    and `chart_verdict` measure it by."""
    resid = y @ a.T - b
    scale = 1.0 + np.abs(b) + _row_norms(y)[:, None] * _row_norms(a)
    return resid, scale


def _row_norms(v):
    """np.linalg.norm(v, axis=1) with its bits (the square root of each
    row's add.reduce of squares), without its per-call overhead."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _planes_through(a, b, y):
    """Point x plane: the planes through each point (row of y), within
    MERGE_TOL relative."""
    resid, scale = _plane_offsets(a, b, y)
    return np.abs(resid) <= MERGE_TOL * scale


@dataclass(frozen=True, eq=False)
class ChartCertificate:
    """What a CERTIFIED verdict on the dual points `positions` has to spare:
    enough to certify nearby points without `chart_verdict`.

    Over the chart's triangles t (their plane rows A_t and offsets b_t, and
    their common points y_t) and every plane p that is not a corner of t:
    `slack` is sigma = min of -CERTIFY_MARGIN * scale - (a_p y_t - b_p),
    `inverse_bound` is K >= max_t |A_t^-1|_2 (the largest Frobenius norm),
    `klein_radius` is Y = max_t |y_t|, `normal_bound` is alpha = max_p |a_p| and
    `roundoff` bounds by how much computed offsets can miss exact ones.
    """
    positions: np.ndarray
    slack: float
    inverse_bound: float
    klein_radius: float
    normal_bound: float
    roundoff: float

    def covers(self, positions) -> bool:
        """True when `chart_verdict` certifies `positions`, by a bound.

        Let every entry of the points differ from `positions` by at most
        delta. Per triangle A' = A + E and b' = b + e with |E|_2 <= |E|_F
        <= 3 delta and |e| <= sqrt(3) delta. When 3 K delta < 1, A' is
        invertible with |A'^-1| <= K / (1 - 3 K delta) (Higham, *Accuracy
        and Stability of Numerical Algorithms*, 2nd ed., 7.1), and
        y' - y = A'^-1 (e - E y), so |y' - y| <= eta = K delta (sqrt(3) +
        3 Y) / (1 - 3 K delta). The offset a'_p y' - b'_p then differs from
        a_p y - b_p by at most |a'_p - a_p| |y'| + |a_p| |y' - y| + |b'_p -
        b_p| <= rho = sqrt(3) delta (Y + eta) + alpha eta + delta, and the
        scale 1 + |b_p| + |a_p| |y| by at most the same rho. So every
        non-own offset stays below -CERTIFY_MARGIN * scale when
        (1 + CERTIFY_MARGIN) rho < sigma, and every y' inside the ball when
        (Y + eta)^2 < 1 - CERTIFY_MARGIN; that is `chart_verdict`'s
        certificate. Both verdicts are computed in floating point, so each
        inequality must hold with the roundoff of both states to spare: the
        certificate's and, K growing by at most 1 / (1 - 3 K delta), the new
        points'.
        """
        delta = float(np.max(np.abs(positions - self.positions)))
        grow = 3.0 * self.inverse_bound * delta
        if grow >= 1.0:
            return False
        y = self.klein_radius
        eta = self.inverse_bound * delta * (_SQRT3 + 3.0 * y) / (1.0 - grow)
        rho = _SQRT3 * delta * (y + eta) + self.normal_bound * eta + delta
        spare = self.roundoff * (1.0 + 1.0 / (1.0 - grow))
        return ((1.0 + CERTIFY_MARGIN) * rho + spare < self.slack
                and (y + eta) ** 2 + spare < 1.0 - CERTIFY_MARGIN)


_SQRT3 = float(np.sqrt(3.0))


def chart_verdict(duals, surface: CombSurface) -> tuple:
    """What the chart `surface` proves about the polyhedron P cut out by the
    planes dual to `duals`, as (verdict, certificate): CERTIFIED when the
    chart is P's dual decomposition and P is compact, VIOLATED when the
    chart refines the dual decomposition of no such P, and UNDECIDED
    otherwise. The certificate is the CERTIFIED verdict's ChartCertificate,
    None with any other verdict or when its own numbers certify nothing.

    `duals` holds one de Sitter point per row, indexed like the chart's
    vertices; the chart must triangulate the sphere with no two edges on
    the same endpoints, as `SolverState` requires. Each triangle's three
    planes A_t y = b_t (Klein chart, a y <= b, as in the hull) are inverted
    in one stacked pass, and their common point is y_t = A_t^-1 b_t. The
    chart is certified when every y_t lies inside the ball, |y_t|^2 < 1 -
    CERTIFY_MARGIN, and strictly inside every other plane, a y_t - b <
    -CERTIFY_MARGIN * scale with the relative scale of `_plane_offsets`. It
    is violated when some y_t lies outside another plane, a y_t - b >
    CERTIFY_MARGIN * scale.

    Why a certificate proves: each y_t is then a point of P on exactly three
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

    Why a violation refutes: if the chart refined the dual decomposition of
    P, each chart triangle would lie in the dual polygon of a vertex v of P,
    so its three planes would pass through v, and their common point y_t
    would be v up to roundoff. A vertex of P lies inside every plane, and
    the hull collects a vertex's planes at MERGE_TOL, a hundredth of the
    margin, so a y_t outside a plane by the margin is a vertex of no such
    P: the full check (the hull compared with the chart) must reject the
    state, and it is rejected without a hull.

    Why the roundoff stays below the margin: y_t is the computed inverse
    times b_t. That misses the exact point by about K alpha K |b_t| units of
    roundoff (Higham, 14.1: K |b_t| / |y_t| times a backward-stable solve's
    error), and an offset by alpha times that plus a few units of its scale,
    with K and alpha as in ChartCertificate. CERTIFY_MARGIN is some 10^9
    units, so both arguments hold unless a triangle's three normals are
    nearly dependent. The tests check the verdict against the hull on every
    violated state they meet, and against a batched `np.linalg.solve` on
    every state the solver decides in their corpora. The certificate keeps
    `roundoff` to spare: with CERTIFY_ROUNDOFF (some 450 units) for one
    unit, CERTIFY_ROUNDOFF ((1 + K alpha) (1 + Y) (1 + alpha) + the largest
    scale). That covers the error above, up to a small constant, while
    K |b_t| stays below 450 (below 230 on every certified state of the
    solver tests' corpora), and the certificate is withheld unless the slack
    exceeds it. Like the rest, these are floating-point estimates, not
    directed-rounding bounds.

    UNDECIDED decides nothing: states on a wall (four or more planes
    through a vertex), states within the margin of leaving convex position
    and states with a vertex outside the ball all return it.
    """
    x = np.asarray(duals, dtype=float)
    a, b = x[:, 1:], x[:, 0]
    tri = surface.triangle_array
    try:
        inverse = np.linalg.inv(a[tri])
    except np.linalg.LinAlgError:
        return UNDECIDED, None
    y = (inverse @ b[tri][..., None])[..., 0]
    resid, scale = _plane_offsets(a, b, y)            # triangle x plane
    limit = CERTIFY_MARGIN * scale
    own = surface.triangle_vertex_mask
    if np.any((resid > limit) & ~own):
        return VIOLATED, None
    squares = np.einsum("ij,ij->i", y, y)
    if not (np.all(squares < 1.0 - CERTIFY_MARGIN)
            and np.all(own | (resid < -limit))):
        return UNDECIDED, None
    slack = float(np.min(np.where(own, np.inf, -limit - resid)))
    inverse_bound = float(np.sqrt(np.max(np.einsum("tij,tij->t", inverse, inverse))))
    klein_radius = float(np.sqrt(np.max(squares)))
    normal_bound = float(np.max(_row_norms(a)))
    roundoff = CERTIFY_ROUNDOFF * (
        (1.0 + inverse_bound * normal_bound) * (1.0 + klein_radius)
        * (1.0 + normal_bound) + float(np.max(scale)))
    if slack <= roundoff or klein_radius ** 2 >= 1.0 - CERTIFY_MARGIN:
        return CERTIFIED, None
    return CERTIFIED, ChartCertificate(x, slack, inverse_bound, klein_radius,
                                       normal_bound, roundoff)


def polyhedron_from_chart(duals, surface: CombSurface) -> ConvexPolyhedronH3:
    """The polyhedron cut out by the planes dual to `duals`, for dual points
    whose chart `surface` `chart_verdict` certified; builds no hull.

    Why it is sound: the certificate proves that the chart is exactly the
    polyhedron's dual decomposition, with every plane essential and every
    vertex simple (see `chart_verdict`). So the face lattice is read off
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
    planes = _as_planes(duals)
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
                              vertices=_lift_klein(y),
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
    """The edges of a face lattice, sorted by vertex pair (u, w) with u < w,
    each with the face that runs u -> w first, in one stacked pass over all
    face corners. Raises InvalidPolyhedron at the first pair that two
    consistently oriented faces do not share."""
    cycles = [f.vertex_cycle for f in faces]
    sizes = np.fromiter(map(len, cycles), dtype=int, count=len(cycles))
    tail = np.fromiter(chain.from_iterable(cycles), dtype=int,
                       count=int(sizes.sum()))
    ends = np.cumsum(sizes)
    after = np.arange(1, len(tail) + 1)
    after[ends - 1] = ends - sizes                 # each cycle closes
    head = tail[after]
    fwd = tail < head
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    order = np.lexsort((~fwd, hi, lo))      # by pair, forward corner first
    lo, hi, fwd = lo[order], hi[order], fwd[order]
    face = np.repeat(np.arange(len(cycles)), sizes)[order]
    first = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    second = np.minimum(first + 1, len(lo) - 1)
    shared = ((np.diff(np.r_[first, len(lo)]) == 2)
              & fwd[first] & ~fwd[second])
    bad = np.flatnonzero(~shared)
    if bad.size:
        k = first[bad[0]]
        raise InvalidPolyhedron(
            f"edge {(int(lo[k]), int(hi[k]))} is not shared by two "
            "consistently oriented faces")
    return list(map(Edge, zip(lo[first].tolist(), hi[first].tolist()),
                    zip(face[first].tolist(), face[second].tolist())))


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


# -- angles and the dual metric ------------------------------------------------


def dihedral_angles(P: ConvexPolyhedronH3) -> np.ndarray:
    """Interior dihedral angle at every edge, in (0, pi): pi minus the de
    Sitter distance between the dual points of the edge's two faces."""
    x = np.array([p.v for p in P.planes])
    return np.pi - ds_distances(*x[np.array([e.faces for e in P.edges]).T])


def dihedral_angle(P: ConvexPolyhedronH3, e: int) -> float:
    """Interior dihedral angle at edge e, in (0, pi), as in `dihedral_angles`."""
    f1, f2 = P.edges[e].faces
    return float(np.pi - ds_distances(P.planes[f1].v[None], P.planes[f2].v[None])[0])


def polygon_area(x) -> float:
    """Area of a convex hyperbolic polygon by angle defect, its corners the
    H^3 points x in cyclic order."""
    angles = [corner_angle(x[k], x[k - 1], x[(k + 1) % len(x)])
              for k in range(len(x))]
    return (len(x) - 2) * np.pi - float(sum(angles))


def face_area(P: ConvexPolyhedronH3, f: int) -> float:
    """Area of the hyperbolic face polygon by angle defect."""
    return polygon_area([P.vertices[v].v for v in P.faces[f].vertex_cycle])


def _vertex_fan(P: ConvexPolyhedronH3, v: int) -> tuple:
    """The faces at vertex v in cyclic order, and the edges between them:
    edges[i] is the edge at v shared by faces[i] and faces[i + 1]."""
    faces_at = P.faces_at_vertex(v)
    f = faces_at[0]
    faces, edges = [], []
    for _ in range(len(faces_at)):
        faces.append(f)
        cyc = P.faces[f].vertex_cycle
        k = P.edge_at(v, cyc[(cyc.index(v) + 1) % len(cyc)])
        edges.append(k)
        f1, f2 = P.edges[k].faces
        f = f1 if f2 == f else f2
    if f != faces[0]:
        raise InvalidPolyhedron(f"face fan at vertex {v} does not close")
    return faces, edges


@dataclass
class DualMetricOutput:
    metric: ConeMetric
    marking: list               # marking[dual vertex] = face index (identity)
    edge_provenance: list = field(repr=False)


def dualize(P: ConvexPolyhedronH3) -> DualMetricOutput:
    """Glue the polar duals of all vertex links into the dual cone-metric.

    One dual vertex per face; the polar dual of the link at vertex v has a
    corner per face and a side per edge at v, and is fan-triangulated from
    its lowest-index face. Every length, side or diagonal, is the de Sitter
    distance of two faces' dual points, in one stacked pass, and exactly so:
    the dual points of v's faces are unit vectors in v's orthogonal
    complement, a Euclidean 3-space as v is timelike, and are the corners of
    the polar dual of v's link, so each side and diagonal is the angle
    between two of them. A side is thus pi minus its primal dihedral angle.
    """
    triangles = []
    side_tag = {}        # primal edge index -> the half-edges of its dual sides
    gluing = {}
    provenance_by_he = {}

    for v in range(P.n_vertices):
        faces, edges = _vertex_fan(P, v)
        m = len(faces)
        anchor = int(np.argmin(faces))
        local = [(anchor + j) % m for j in range(m)]
        fan, sides, diagonals = fan_triangulation(m, base=len(triangles))
        triangles += [tuple(faces[local[c]] for c in tri) for tri in fan]
        # polygon boundary side i joins corners i, i+1 and is dual to the
        # primal edge edges[i]
        for i, e_primal in enumerate(edges):
            he = sides[(i - anchor) % m]
            side_tag.setdefault(e_primal, []).append(he)
            provenance_by_he[he] = ("primal", P.edges[e_primal].faces)
        for he_a, he_b in diagonals:
            gluing[he_a] = he_b
            gluing[he_b] = he_a
            provenance_by_he[he_a] = ("fan", v)

    for e_primal, hes in side_tag.items():
        if len(hes) != 2:
            raise InvalidPolyhedron(
                f"primal edge {e_primal} matched {len(hes)} dual sides")
        gluing[hes[0]] = hes[1]
        gluing[hes[1]] = hes[0]

    surf = CombSurface(P.n_faces, triangles, gluing)
    provenance = [provenance_by_he[ha] if ha in provenance_by_he
                  else provenance_by_he[hb] for ha, hb in surf.edge_halfedges]
    x = np.array([p.v for p in P.planes])
    metric = ConeMetric(surf, SPHERICAL, ds_distances(*x[surf.edge_pairs.T]))
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
                worst = np.max(np.pi - dihedral_angles(poly))
            except NotSpacelikeSeparated:
                continue
            if worst > max_dual_length:
                continue
        return poly
    raise InvalidPolyhedron("failed to sample a valid polyhedron")
