"""Compact convex polyhedra in H^3 given by outward face planes, their face
lattice, and the induced dual spherical cone-metric. A polyhedron is held in
arrays: plane rows, vertex rows, edge pairs and face cycles. Every dual edge
length and every dihedral angle is read off the dual points in closed form,
as a de Sitter distance (`minkowski.ds_distances`), in one stacked pass.

The face lattice of a simple polyhedron is a triangulation of the sphere,
one triangle per vertex: the polar duals of the vertex links. Both
producers read the lattice off such a triangulation, gluing half-edges
into an edge table:
- `hull_from_dual_points` passes the vertex triangles of the planes
  (`klein_hull`), each ccw seen from outside, to `_face_lattice`, which
  solves each triangle's vertex, merges the vertices of a wall and checks
  the lattice;
- `polyhedron_from_chart` reads a certified chart's triangles, their
  points as `chart_verdict` solved them and the chart's gluing as they
  are, since the certificate proves every check.

Every cyclic order comes from that table by one walk (`cycle_walk`): read
face first it gives the face cycles, read vertex first the fans of faces
that `dualize` glues into the dual metric (the polar polygons of the vertex
links).

The hull runs in the Klein chart y = (x1,x2,x3)/x0, where a face plane with
de Sitter normal n becomes the Euclidean half-space a . y <= b, a = n_sp and
b = n0, and hyperbolic convexity coincides with Euclidean convexity. The
vertices are the plane triples whose common point no other plane cuts, and
`klein_hull` enumerates them in numpy, with no interior point:
- Candidates. Up to ALL_TRIPLES planes every triple (the index arrays
  cached per plane count), else the triangles of the graph joining each
  plane to its NEIGHBOURS nearest unit normals.
- Vertex test. A candidate (i, j, k) is a vertex when its normals pass
  `_solve_triples`' DET_CUTOFF rule and its point y = (b_i a_j x a_k +
  b_j a_k x a_i + b_k a_i x a_j) / det lies inside every plane up to
  HULL_TOL times `_plane_offsets`' relative scale. HULL_TOL is a hundredth
  of MERGE_TOL, at which `_face_lattice` collects a vertex's planes, so
  the lattice merges whatever the hull splits. It is ccw seen from outside
  when det > 0, else reversed.
- Walls. The planes within HULL_TOL of one point (the bipyramid's wall, a
  solver state on a wall) form one vertex: the rays of its normal cone,
  their unit normals, are ordered about the axis from the vertices'
  centroid through it (`_wall_corners`) and fanned from the least plane.
- Closure is the proof. Every half-edge must find its mate
  (`directed_mates`), and V - E + F = 2. When the neighbour candidates do
  not close, NEIGHBOURS doubles, up to every triple in blocks of at most
  HULL_BLOCK plane offsets.
- Failures, over every triple: no triple with independent normals (say,
  normals in one plane) raises EmptyInterior("degenerate dual
  configuration: ..."); no vertex raises EmptyInterior("plane family
  admits no common interior"); vertices that do not close raise
  UnboundedPolyhedron("plane family recedes to infinity: ..."), as does
  `_lift_klein` on a vertex outside the ball.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    EmptyInterior,
    InvalidPolyhedron,
    NotSpacelikeSeparated,
    UnboundedPolyhedron,
)
from .minkowski import (
    CLAMP_SLACK,
    NORM_TOL,
    DSPoint,
    HPoint,
    clamped,
    ds_distances,
    ds_normalized,
    h_distances,
    minkowski_inner,
    minkowski_rows,
)
from .surface import (
    SPHERICAL,
    CombSurface,
    ConeMetric,
    cross,
    directed_mates,
    fan_triangulations,
    rowdot,
)

BALL_MARGIN = 1e-12
# The Klein radius r within which a lift lands on the hyperboloid within
# NORM_TOL / 10: with d = 1 - r^2, the lift of `_lift_klein` is on it up
# to about 9 u / d (u = 2^-53; the roundoff of r^2, its root and the four
# products and three sums of <x, x>, each some u / d), 1.0e-13 here. Both
# `chart_verdict`'s ball test and `_lift_klein` read it.
LIFT_RADIUS = 0.995
MERGE_TOL = 1e-9                 # relative residual of a plane through a vertex
SOLVE_RESIDUAL = 1e-6            # largest plane residual of a solved vertex
RANK_CUTOFF = 3 * np.finfo(float).eps    # lstsq's relative singular value cutoff
DET_CUTOFF = 100 * np.finfo(float).eps   # |det| / |A|_F^3 that proves full rank
CERTIFY_MARGIN = 100 * MERGE_TOL
CERTIFY_ROUNDOFF = 1e-13         # relative roundoff allowance of a 3x3 solve
CERTIFIED, UNDECIDED, VIOLATED = "certified", "undecided", "violated"
RANDOM_RADII = (0.25, 0.5)       # plane distances from the origin
RANDOM_TRIES = 200
# The hull (see the module docstring)
HULL_TOL = 1e-11                 # relative residual of a vertex outside a plane
ALL_TRIPLES = 25                 # most planes whose every triple is a candidate
NEIGHBOURS = 12                  # nearest normals joined in the candidate graph
HULL_BLOCK = 1 << 18             # most candidate x plane offsets held at once


class Face(NamedTuple):
    plane: DSPoint
    vertex_cycle: list          # vertex indices, ccw seen from outside


class Edge(NamedTuple):
    vertices: tuple              # (u, w), u < w
    faces: tuple                 # (f1, f2), f1 the face whose cycle runs u -> w


class ConvexPolyhedronH3:
    """Bounded convex polyhedron with its face lattice, held in arrays.

    - `plane_rows` (F, 4): the faces' de Sitter rows, in the order of the
      essential input planes. Face f is input plane `essential[f]`;
      `discarded` lists the redundant input planes.
    - `vertex_rows` (V, 4): the vertices on the hyperboloid, ordered by
      their sorted plane sets.
    - `edge_vertices`, `edge_faces` (E, 2): edge k joins vertices u < w,
      sorted by that pair, and faces (f1, f2), f1 the face whose cycle
      runs u -> w. Its dual length is pi minus the dihedral angle there.
    - `triangles` (T, 3), `triangle_vertex` (T,): the oriented triangulation
      of the sphere (face indices) the lattice was read off, and the vertex
      each triangle lies at.
    - `cycle_vertices`, `cycle_offsets`: the face cycles, face f's being
      cycle_vertices[cycle_offsets[f]:cycle_offsets[f + 1]], its vertices
      ccw seen from outside from its least one (`cycle_walk`).

    `planes`, `vertices`, `faces` and `edges` are views of the arrays,
    built on first use.
    """

    def __init__(self, plane_rows, vertex_rows, edge_vertices, edge_faces,
                 triangles, triangle_vertex, cycle_vertices, cycle_offsets,
                 essential, discarded=()):
        self.plane_rows = plane_rows
        self.vertex_rows = vertex_rows
        self.edge_vertices = edge_vertices
        self.edge_faces = edge_faces
        self.triangles = triangles
        self.triangle_vertex = triangle_vertex
        self.cycle_vertices = cycle_vertices
        self.cycle_offsets = cycle_offsets
        self.essential = essential
        self.discarded = list(discarded)

    @property
    def n_faces(self):
        return len(self.plane_rows)

    @property
    def n_vertices(self):
        return len(self.vertex_rows)

    @property
    def n_edges(self):
        return len(self.edge_vertices)

    @cached_property
    def planes(self) -> list:
        return DSPoint.from_rows(self.plane_rows)

    @cached_property
    def vertices(self) -> list:
        return HPoint.from_rows(self.vertex_rows)

    @cached_property
    def faces(self) -> list:
        cycles = np.split(self.cycle_vertices, self.cycle_offsets[1:-1])
        return [Face(p, c.tolist()) for p, c in zip(self.planes, cycles)]

    @cached_property
    def edges(self) -> list:
        return list(map(Edge, map(tuple, self.edge_vertices.tolist()),
                        map(tuple, self.edge_faces.tolist())))

    def cycle(self, f: int) -> np.ndarray:
        """Face f's vertex cycle, ccw seen from outside."""
        return self.cycle_vertices[self.cycle_offsets[f]:self.cycle_offsets[f + 1]]

    @cached_property
    def incidence(self) -> np.ndarray:
        """(F, V) face x vertex incidence; read-only."""
        inc = np.zeros((self.n_faces, self.n_vertices), dtype=bool)
        inc[self.triangles.ravel(), np.repeat(self.triangle_vertex, 3)] = True
        inc.setflags(write=False)
        return inc

    def faces_at_vertex(self, v: int) -> list:
        """The faces at vertex v, ascending."""
        return self.incidence[:, v].nonzero()[0].tolist()

    @cached_property
    def _edge_maps(self) -> tuple:
        """Edge index by vertex pair and by face pair, both orders; -1 where
        no edge."""
        k = np.arange(self.n_edges)
        by_vertices = np.full((self.n_vertices,) * 2, -1)
        by_faces = np.full((self.n_faces,) * 2, -1)
        for table, (p, q) in ((by_vertices, self.edge_vertices.T),
                              (by_faces, self.edge_faces.T)):
            table[p, q] = k
            table[q, p] = k
        return by_vertices, by_faces

    def edge_at(self, u: int, w: int) -> Optional[int]:
        """Index of the edge joining vertices u and w, or None."""
        k = int(self._edge_maps[0][u, w])
        return None if k < 0 else k

    def edge_between(self, f1: int, f2: int) -> Optional[int]:
        """Index of the edge where faces f1 and f2 meet, or None."""
        k = int(self._edge_maps[1][f1, f2])
        return None if k < 0 else k

    def edge_length(self, k: int) -> float:
        return float(self._edge_lengths[k])

    def edge_lengths(self) -> np.ndarray:
        """Length of every edge, in edge order, in `h_distance`'s chord form
        and with its bits; read-only."""
        return self._edge_lengths

    @cached_property
    def _edge_lengths(self) -> np.ndarray:
        x, (u, w) = self.vertex_rows, self.edge_vertices.T
        lengths = h_distances(x[u], x[w])
        lengths.setflags(write=False)
        return lengths


def _lift_klein(y: np.ndarray) -> np.ndarray:
    """The points of H^3 over the Klein points y (rows), lifted in one pass
    as hyperboloid rows; raises UnboundedPolyhedron at the first one not
    inside the ball, or, of those beyond LIFT_RADIUS (within it the lift is
    known to land), the first that does not land on the hyperboloid."""
    r2 = (y[:, None, :] @ y[..., None])[:, 0, 0]     # each row's own y @ y
    out = (r2 >= 1.0 - BALL_MARGIN).nonzero()[0]
    if out.size:
        raise UnboundedPolyhedron(
            f"lattice vertex at Klein radius {np.sqrt(r2[out[0]]):.12f} leaves H^3")
    x0 = 1.0 / np.sqrt(1.0 - r2)
    rows = np.empty((len(y), 4))
    rows[:, 0] = x0
    rows[:, 1:] = x0[:, None] * y
    # the rows are finite and x0 > 0, so HPoint checks only the quadric
    far = (r2 >= LIFT_RADIUS ** 2).nonzero()[0]
    x = rows[far]
    bad = far[np.abs(minkowski_rows(x, x) + 1.0) > NORM_TOL]
    if bad.size:
        # near the sphere at infinity the lift's roundoff can leave the
        # hyperboloid
        k = bad[0]
        try:
            HPoint(rows[k])
        except ValueError as exc:
            raise UnboundedPolyhedron(
                f"lattice vertex {k} at Klein radius {np.sqrt(r2[k]):.12f} "
                f"does not lift onto H^3: {exc}") from None
        raise AssertionError("the stacked lift check failed on no single row")
    return rows


@cache
def _all_triples(n: int) -> np.ndarray:
    """Every triple i < j < k of range(n) as a (3, m) index array, cached
    per n; read-only."""
    t = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    t.setflags(write=False)
    return t


def _triple_blocks(n: int):
    """Every triple i < j < k of range(n), ascending, as (3, m) blocks of
    at most HULL_BLOCK // n triples (all at once up to ALL_TRIPLES planes),
    so that no block's candidate x plane offsets exceed HULL_BLOCK."""
    if n <= ALL_TRIPLES:
        yield _all_triples(n)
        return
    rows = max(1, HULL_BLOCK // n)
    held = np.empty((3, 0), dtype=np.intp)
    for i in range(n - 2):
        j, k = np.triu_indices(n - i - 1, 1)
        held = np.hstack([held, [np.full(len(j), i), j + i + 1, k + i + 1]])
        while held.shape[1] >= rows or (i == n - 3 and held.shape[1]):
            yield held[:, :rows]
            held = held[:, rows:]


def _neighbour_triples(directions: np.ndarray, k: int) -> np.ndarray:
    """The triangles of the graph that joins each plane to its k nearest
    directions (unit rows), each once, ascending: a (3, m) index array."""
    n = len(directions)
    near = directions @ directions.T
    np.fill_diagonal(near, -np.inf)
    adj = near >= np.partition(near, n - k, axis=1)[:, n - k, None]
    adj |= adj.T
    upper = _upper(n)
    pair = np.flatnonzero(adj & upper)
    i, j = pair // n, pair % n
    third = np.flatnonzero(adj[i] & adj[j] & upper[j])
    edge = third // n
    return np.stack([i[edge], j[edge], third % n])


@cache
def _upper(n: int) -> np.ndarray:
    """(n, n), True above the diagonal; cached per n, read-only."""
    u = np.triu(np.ones((n, n), dtype=bool), 1)
    u.setflags(write=False)
    return u


def _vertices(a, b, blocks) -> tuple:
    """The candidate triples of `blocks` ((3, m) each) that are vertices of
    the planes a y <= b, by the rule of the module docstring: (tri, y, on,
    independent), the vertex triples (f, 3), each ccw seen from outside,
    their points (f, 3), the planes within HULL_TOL of each (n, f), and
    whether any candidate's normals are independent.

    With det and N a candidate's determinant and numerator (y = N / det)
    and s the sign of det, its column x = (s N, |det|, |N|) gives each
    plane's `beyond` . x = |det| (a y - b - HULL_TOL scale) and `within` . x
    = |det| (a y - b + HULL_TOL scale), with the scale 1 + |b| + |a| |y| of
    `_plane_offsets`: one product gives every plane's offset at every
    candidate, and no candidate divides."""
    squares = np.add.reduce(a * a, axis=1)
    col = b[:, None]
    slack = HULL_TOL * (1.0 + np.abs(col))
    tol = HULL_TOL * np.sqrt(squares)[:, None]
    beyond = np.concatenate([a, -col - slack, -tol], axis=1)
    rolled = a.T.take(_ROLLED, axis=0)          # coordinates c + 1, c + 2
    found = []
    for t in blocks:
        tc, tp = t.take(_CYCLE, axis=0), t.take(_PREV, axis=0)
        u, w = rolled.take(tc, axis=1), rolled.take(tp, axis=1)
        # coordinate x corner x candidate: a_j x a_k, a_k x a_i, a_i x a_j
        crosses = u[:3] * w[3:] - u[3:] * w[:3]
        x = np.empty((5, t.shape[1]))
        np.einsum("crm,rm->cm", crosses, b.take(t), out=x[:3])
        np.einsum("cm,cm->m", a.T.take(t[0], axis=1), crosses[:, 0], out=x[3])
        sign = np.sign(x[3])
        x[:4] *= sign
        np.sqrt(np.einsum("cm,cm->m", x[:3], x[:3]), out=x[4])
        ok = x[3] > DET_CUTOFF * squares.take(t).sum(axis=0) ** 1.5
        keep = (ok & ((beyond @ x).max(axis=0) <= 0)).nonzero()[0]
        tri = t[:, keep]
        found.append((np.where(sign[keep] < 0, tri[::-1], tri), x[:, keep],
                      ok.any(keepdims=True)))
    tri, x, independent = (np.concatenate(f, axis=-1) for f in zip(*found))
    within = np.concatenate([a, slack - col, tol], axis=1)
    return tri.T, (x[:3] / x[3]).T, within @ x >= 0, bool(independent.any())


_ROLLED = np.array([1, 2, 0, 2, 0, 1])


def _fan_walls(a, tri, y, on) -> np.ndarray:
    """The hull triangles of the vertex triples `tri` (f, 3), ccw seen from
    outside, at the points `y` (f, 3), where `on` (n, f) marks more than
    three planes through some point. Each distinct plane set is one vertex,
    and a set inside a larger one is that one's. A vertex of more than
    three planes is fanned from its least corner (`_wall_corners`), the
    rays of its normal cone projected about the axis from the vertices'
    centroid through it; one whose normals do not all face along that axis
    has no pointed cone and gets no fan, so the triangles do not close."""
    sets, first = np.unique(on.T, axis=0, return_index=True)
    size = sets.sum(axis=1)
    shared = sets.astype(int) @ sets.T.astype(int)
    inside = ((shared == size[:, None]) & (size > size[:, None])).any(axis=1)
    wall = ~inside & (size > 3)
    fans = [tri[first[~inside & (size == 3)]]]
    centroid = y.mean(axis=0)
    for members, f in zip(sets[wall], first[wall]):
        idx = members.nonzero()[0]
        axis = y[f] - centroid
        rays = a[idx] / _row_norms(a[idx])[:, None]
        height = rays @ axis
        if not (height > 0).all():
            continue
        # on the plane at unit distance along the axis
        ring = _wall_corners(rays * (np.sqrt(axis @ axis) / height)[:, None],
                             idx, axis)
        fans.append(np.stack([np.full(len(ring) - 2, ring[0]), ring[1:-1],
                              ring[2:]], axis=1))
    return np.concatenate(fans)


def _wall_corners(p, idx, normal) -> np.ndarray:
    """The corners among the points p (rows, labelled idx) of one plane with
    normal `normal`, ccw seen from its tip, from the least label: Andrew's
    monotone chain in the plane, which drops every point that turns by no
    more than HULL_TOL."""
    e1 = cross(normal, np.eye(3)[np.argmin(np.abs(normal))])
    e1 /= np.sqrt(e1 @ e1)
    e2 = cross(normal / np.sqrt(normal @ normal), e1)
    xy = p @ np.stack([e1, e2], axis=1)
    order = np.lexsort(xy.T[::-1]).tolist()
    chains = []
    for run in (order, order[::-1]):            # lower chain, then upper
        chain = []
        for k in run:
            while len(chain) >= 2:
                (x0, y0), (x1, y1) = xy[chain[-2]], xy[chain[-1]]
                x2, y2 = xy[k]
                if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > HULL_TOL:
                    break
                chain.pop()
            chain.append(k)
        chains += chain[:-1]
    ring = idx[chains]
    return np.roll(ring, -int(np.argmin(ring)))


def _closure(tri: np.ndarray, n: int) -> Optional[np.ndarray]:
    """The mates of the half-edges of `tri` (`directed_mates`) when every
    one is found and V - E + F = 2, so that the triangles glue into a
    closed sphere; else None."""
    mate = directed_mates(tri, n)
    used = np.count_nonzero(np.bincount(tri.ravel(), minlength=n))
    return None if (mate < 0).any() or used - len(tri) // 2 != 2 else mate


def klein_hull(a: np.ndarray, b: np.ndarray) -> tuple:
    """The vertex triangles of the planes a y <= b (rows of a, entries of b)
    in the Klein chart, each ccw seen from outside, (T, 3), and the mates of
    their half-edges, (3T,), by the rules of the module docstring, which
    also names what it raises."""
    n = len(a)
    k = NEIGHBOURS
    while True:
        every = n <= ALL_TRIPLES or k >= n - 1
        blocks = (_triple_blocks(n) if every else
                  [_neighbour_triples(a / _row_norms(a)[:, None], k)])
        tri, y, on, independent = _vertices(a, b, blocks)
        if len(tri):
            if (on.sum(axis=0) > 3).any():
                tri = _fan_walls(a, tri, y, on)
            mate = _closure(tri, n)
            if mate is not None:
                return tri, mate
        if every:
            break
        k *= 2
    if not independent:
        raise EmptyInterior(
            "degenerate dual configuration: no three of the "
            f"{n} planes have independent normals")
    if not len(y):
        raise EmptyInterior("plane family admits no common interior")
    raise UnboundedPolyhedron(
        "plane family recedes to infinity: its vertex triangles do not "
        "close into a sphere")


def dual_rows(duals) -> np.ndarray:
    """The dual points as (n, 4) rows on the de Sitter quadric: DSPoints as
    they are, raw rows normalized onto the quadric (all rows of an (n, 4)
    array in one pass, with `DSPoint.from_vector`'s bits). A row that does
    not land on it raises InvalidPolyhedron naming the row."""
    if isinstance(duals, np.ndarray) and duals.ndim == 2 and duals.shape[1] == 4:
        rows, ok = ds_normalized(duals.astype(float))
        if ok.all():
            return rows
    elif all(isinstance(d, DSPoint) for d in duals):
        return np.array([d.v for d in duals])
    rows = []
    for k, d in enumerate(duals):
        try:
            rows.append(d.v if isinstance(d, DSPoint) else DSPoint.from_vector(d).v)
        except ValueError as exc:
            raise InvalidPolyhedron(f"dual point {k}: {exc}") from exc
    return np.array(rows)


def hull_from_dual_points(duals) -> ConvexPolyhedronH3:
    """Polyhedron cut out by the planes dual to the given de Sitter points
    (DSPoints, raw rows, or an (n, 4) array of rows; see `dual_rows`).

    `klein_hull` enumerates the vertices of the half-spaces a_i y <= b_i in
    the Klein chart, as plane triples. Planes that are at no vertex are
    redundant; they are discarded and recorded. The vertex triangles, ccw
    seen from outside, are the polyhedron's triangulated face lattice, which
    `_face_lattice` reads off.

    Raises EmptyInterior when the negative half-spaces have no common
    interior or independent normals, and UnboundedPolyhedron when they
    recede to infinity or a lattice vertex escapes H^3. A vertex collects
    every plane within MERGE_TOL (relative) of it, so a configuration
    sitting within that of a coplanarity wall gets one merged vertex; a
    lattice that still comes out inconsistent raises InvalidPolyhedron, as
    does a raw row that does not normalize onto the de Sitter quadric.
    """
    rows = dual_rows(duals)
    n = len(rows)
    if n < 4:
        raise InvalidPolyhedron("need at least four face planes")
    a, b = rows[:, 1:].copy(), rows[:, 0].copy()
    tri, mate = klein_hull(a, b)
    essential = np.bincount(tri.ravel(), minlength=n).nonzero()[0]
    redundant = np.ones(n, dtype=bool)
    redundant[essential] = False
    return _face_lattice(rows, a, b, essential,
                         redundant.nonzero()[0].tolist(), tri, mate)


def polyhedron_from_chart(duals, surface: CombSurface,
                          points: np.ndarray) -> ConvexPolyhedronH3:
    """The polyhedron cut out by the planes dual to `duals`, for dual points
    whose chart `surface` `chart_verdict` certified, read off the chart:
    `points` (T, 3) are the chart triangles' common points in the Klein
    chart, as `triangle_points` solves them for `duals`.

    Why it needs nothing more: the certificate proves that the chart is
    exactly the polyhedron's dual decomposition, with every plane essential
    and every vertex simple, strictly inside every other plane and inside
    LIFT_RADIUS (see `chart_verdict`). So each triangle's point is a vertex
    of its own three planes and no other, the chart's gluing gives the
    edges, and no membership, turn, Euler or vertex x plane check of the
    hull path can fail; the result equals that of the hull path's lattice
    builder (`_face_lattice`) array for array, its vertices up to the
    roundoff of the two solves. The planes are all of `duals`, converted as
    `hull_from_dual_points` converts them. The chart's triangles are all ccw
    seen from outside or all cw, and one decides which: three planes
    meeting at a vertex run ccw seen from outside exactly when their
    normals' determinant is positive. Reversing every triangle (c0, c1, c2)
    to (c2, c1, c0) reverses each half-edge and swaps half-edges 0 and 1,
    so glued pairs stay glued.
    """
    rows = dual_rows(duals)
    tri, mate = surface.triangles, surface.mate
    p, q, r = rows[tri[0], 1:]
    if p @ cross(q, r) < 0:
        tri = tri[:, ::-1]
        swap = np.arange(len(mate)).reshape(-1, 3)[:, [1, 0, 2]].ravel()
        mate = swap[mate[swap]]
    order, vertex_of = _simple_vertices(np.sort(tri, axis=1))
    edge_vertices, edge_faces = glued_edges(tri, mate, vertex_of)
    cycles, _, sizes = cycle_walk(edge_faces, edge_vertices, len(rows))
    return ConvexPolyhedronH3(
        plane_rows=rows, vertex_rows=_lift_klein(points[order]),
        edge_vertices=edge_vertices, edge_faces=edge_faces, triangles=tri,
        triangle_vertex=vertex_of, cycle_vertices=cycles,
        cycle_offsets=np.cumsum(np.append(0, sizes)),
        essential=np.arange(len(rows)))


_CYCLE = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _face_lattice(rows, a, b, essential, discarded, tri,
                  mate=None) -> ConvexPolyhedronH3:
    """The polyhedron of the planes `rows` (a y <= b in the Klein chart),
    read off `tri`, a triangulation of the sphere on the essential planes
    with every triangle ccw seen from outside, and `mate`, its half-edges'
    mates when the caller has found them all (`_closure`).

    Each triangle's three planes are solved for its vertex (`_solve_triples`).
    Vertices are ordered by sorted plane triple. Where more planes than a
    triangle's three pass through its point, within MERGE_TOL, the
    triangles of that point merge into one vertex (`_merged_vertices`).
    Edges come from glued half-edges (`glued_edges`): the two triangles at
    a half-edge and its mate are the edge's ends, unless they lie at one
    vertex. The face cycles are read off the edges, face first
    (`cycle_walk`), each from its least vertex.

    Every check of the lattice holds: its vertices inside the ball, every
    face with three vertices and a convex cycle, every edge between two
    vertices once, Euler's formula, and each vertex on its own planes and
    strictly inside every other one (`_validate_lattice`).
    """
    corners = np.sort(tri, axis=1)
    y, ok = _solve_triples(a, b, corners)
    members = _planes_through(a, b, y)
    own = np.zeros(members.shape, dtype=bool)
    own[np.arange(len(corners))[:, None], corners] = True
    if ok.all() and np.array_equal(members, own):
        order, vertex_of = _simple_vertices(corners)
        y = y[order]
    else:
        y, vertex_of = _merged_vertices(a, b, corners, y, ok, members, own)
    vertex_rows = _lift_klein(y)

    face_of = np.full(len(rows), -1)
    face_of[essential] = np.arange(len(essential))
    tri = face_of[tri]
    if mate is None:
        mate = _mates(tri, len(essential))
    edge_vertices, edge_faces = glued_edges(tri, mate, vertex_of)
    cycles, _, sizes = cycle_walk(edge_faces, edge_vertices, len(essential))
    small = (sizes < 3).nonzero()[0]
    if small.size:
        raise InvalidPolyhedron(
            f"face {essential[small[0]]} has fewer than three vertices")
    _check_turns(a[essential], y, cycles, sizes)

    poly = ConvexPolyhedronH3(
        plane_rows=rows[essential], vertex_rows=vertex_rows,
        edge_vertices=edge_vertices, edge_faces=edge_faces, triangles=tri,
        triangle_vertex=vertex_of, cycle_vertices=cycles,
        cycle_offsets=np.cumsum(np.append(0, sizes)), essential=essential,
        discarded=discarded)
    _validate_lattice(poly, poly.incidence, MERGE_TOL)
    return poly


def _simple_vertices(corners) -> tuple:
    """(order, vertex_of) of a triangulation whose vertices are all simple,
    one per triangle, given each triangle's sorted plane triple: the
    triangles in the order of their vertices, which is that of the triples,
    and each triangle's vertex."""
    order = np.lexsort(corners.T[::-1])
    vertex_of = np.empty(len(order), dtype=int)
    vertex_of[order] = np.arange(len(order))
    return order, vertex_of


def _merged_vertices(a, b, corners, y, ok, members, own) -> tuple:
    """The vertices of a triangulation whose points include walls, and the
    vertex each triangle lies at.

    A point is refit where more planes than its triangle's three pass
    through it (its plane set collected at relative tolerance); a point
    whose plane set lies in a larger one is absorbed by it (a merge absorbs
    the split vertices of a near-coplanar cluster). Vertices are ordered by
    their plane sets as sorted index lists, ascending, and of equal sets the
    last triangle's point is kept. A triangle lies at the first vertex whose
    plane set holds its three planes.
    """
    for s in (ok & (members != own).any(axis=1)).nonzero()[0]:
        ys = _solve_vertex(a, b, members[s].nonzero()[0])
        if ys is None:
            ok[s] = False
            continue
        y[s] = ys
        members[s] = _planes_through(a, b, ys[None])[0]
    kept = ok.nonzero()[0]
    m = members[kept].astype(float)
    count = m.sum(axis=1)
    inside = (m @ m.T == count[:, None]) & (count > count[:, None])
    kept = kept[~inside.any(axis=1)]
    # a row with the first plane where two sets differ comes first
    order = np.lexsort((~members[kept]).T[::-1])
    ranked = members[kept[order]]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (ranked[1:] != ranked[:-1]).any(axis=1)
    kept = kept[order[last]]
    at = members[kept][:, corners].all(axis=2)          # vertex x triangle
    lost = (~at.any(axis=0)).nonzero()[0]
    if lost.size:
        raise InvalidPolyhedron(
            f"the planes {corners[lost[0]].tolist()} of a triangle meet at "
            "no vertex")
    return y[kept], np.argmax(at, axis=0)


def _mates(tri, n_faces) -> np.ndarray:
    """The mate of every half-edge 3t + k (face tri[t, k] to face
    tri[t, k + 1]): the half-edge running back between the same two faces.
    Raises InvalidPolyhedron when the triangles do not glue into a closed
    oriented surface."""
    mate = directed_mates(tri, n_faces)
    bad = (mate < 0).nonzero()[0]
    if bad.size:
        h = bad[0]
        raise InvalidPolyhedron(
            f"faces {int(tri.flat[h])} and {int(tri[:, _CYCLE].flat[h])} do not "
            "meet in two consistently oriented triangles")
    return mate


def glued_edges(tri, mate, group) -> tuple:
    """The edges between the groups of a glued triangulation, sorted by
    group pair: half-edge 3t + k runs from corner tri[t, k] to corner
    tri[t, k + 1] of triangle t, which lies in group[t], and its mate runs
    back. Where the two lie in groups u < w, an edge joins u to w; of its
    two corners, the head's rotation of groups runs u -> w and the tail's
    w -> u. Returns (pairs, corners), both (E, 2): (u, w) and (head, tail).
    In a face lattice the groups are the vertices and the corners the
    faces, so an edge's first face runs u -> w. Raises InvalidPolyhedron
    when two edges join one pair of groups."""
    t_end = group[mate // 3]
    t_start = np.repeat(group, 3)
    keep = t_start < t_end
    tail = tri.ravel()[keep]
    head = tri[:, _CYCLE].ravel()[keep]
    u, w = t_start[keep], t_end[keep]
    order = np.lexsort((w, u))
    pairs = np.stack([u[order], w[order]], axis=1)
    twice = (pairs[1:] == pairs[:-1]).all(axis=1).nonzero()[0]
    if twice.size:
        raise InvalidPolyhedron(
            f"edge {tuple(pairs[twice[0]].tolist())} is not shared by "
            "two consistently oriented faces")
    return pairs, np.stack([head[order], tail[order]], axis=1)


def cycle_walk(ends, sides, n_ends) -> tuple:
    """Each end's sides in cyclic order, read off an edge table.

    Edge k joins the ends ends[k] = (u, w) and separates the sides
    sides[k] = (f1, f2): at u the rotation crosses k from f1 to f2, at w
    from f2 to f1. A polyhedron's table (`edge_vertices`, `edge_faces`)
    read face first, `cycle_walk(edge_faces, edge_vertices, F)`, gives each
    face's vertex cycle, ccw seen from outside; read vertex first, each
    vertex's faces, the corners of the polar polygon of its link, cw seen
    from outside.

    Returns (order, via, count), flat, one end after the other: end e's
    count[e] sides, from its lowest, and via[j] the edge from order[j] to
    the next side of the same end. It takes one sort and count.max() steps
    and holds arrays of the 2E half-edges and of the ends, no end x side
    table. Raises InvalidPolyhedron naming the first end whose sides do
    not close into one cycle.
    """
    # half-edge 2k + i lies at end ends[k, i] and runs from side
    # sides[k, i] to side sides[k, 1 - i]. The one that stops at a side of
    # an end is followed by the one that starts there: a permutation of
    # each end's half-edges, its rotation when each (end, side) pair starts
    # one half-edge and stops one and the permutation is one cycle
    at, start = ends.ravel(), sides.ravel()
    n = int(sides.max(initial=-1)) + 1
    key, back = at * n + start, at * n + sides[:, ::-1].ravel()
    by_start = np.argsort(key, kind="stable")
    by_stop = np.argsort(back, kind="stable")
    nxt = np.empty_like(by_start)
    nxt[by_stop] = by_start
    ranked = key[by_start]
    bad = np.empty(len(key), dtype=bool)
    bad[by_start] = ((ranked != back[by_stop])
                     | np.append(ranked[1:] == ranked[:-1], False))
    count = np.bincount(at, minlength=n_ends)
    # the ends with edges, longest walk first, so that the walkers still
    # going at step i are a prefix
    live = np.argsort(-count, kind="stable")[:np.count_nonzero(count)]
    first = (np.cumsum(count) - count)[live]
    going = len(live) - np.cumsum(np.bincount(count[live]))[:-1]
    half = np.empty(len(key), dtype=int)
    cur = by_start[first]                   # each end's lowest side
    for i, m in enumerate(going.tolist()):
        cur = cur[:m]
        half[first[:m] + i] = cur
        cur = nxt[cur]
    # one cycle: each end's walk meets each of its half-edges once
    bad |= np.bincount(half, minlength=len(key)) != 1
    if bad.any():
        raise InvalidPolyhedron(f"the edges at end {int(at[bad].min())} do not "
                                "close into one cycle")
    return start[half], half // 2, count


def _solve_triples(a, b, tri):
    """The common point of the three planes of each row of `tri`, and
    whether it is one: lstsq's rank test (every singular value above
    RANK_CUTOFF times the largest) and a residual of at most SOLVE_RESIDUAL.

    Only rows the determinant leaves in doubt take an SVD: with singular
    values s1 >= s2 >= s3, s3 / s1 >= |det| / s1^3 >= |det| / |A|_F^3, and
    the closed-form determinant misses by a few eps |A|_F^3, so a row with
    |det| > DET_CUTOFF |A|_F^3 passes the rank test, its SVD's roundoff
    included."""
    rows, rhs = a[tri], b[tri]
    det = rowdot(rows[:, 0], cross(rows[:, 1], rows[:, 2]))
    ok = np.abs(det) > DET_CUTOFF * np.einsum("tij,tij->t", rows, rows) ** 1.5
    if ok.all():
        y = np.linalg.solve(rows, rhs[..., None])[..., 0]
    else:
        doubt = (~ok).nonzero()[0]
        sv = np.linalg.svd(rows[doubt], compute_uv=False)
        ok[doubt] = sv[:, 2] > RANK_CUTOFF * sv[:, 0]
        y = np.zeros((len(tri), 3))
        y[ok] = np.linalg.solve(rows[ok], rhs[ok][..., None])[..., 0]
    resid = (rows @ y[..., None])[..., 0] - rhs
    return y, ok & (np.abs(resid).max(axis=1) <= SOLVE_RESIDUAL)


def _solve_vertex(a, b, idxs):
    """Least-squares common point of the planes idxs, or None when their
    normals have rank below 3 or the fit misses one by SOLVE_RESIDUAL."""
    rows = a[idxs]
    rhs = b[idxs]
    y, res, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < 3:
        return None
    if np.abs(rows @ y - rhs).max() > SOLVE_RESIDUAL:
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
    `klein_radius` is Y = max_t |y_t|, `normal_bound` is alpha = max_p |a_p|,
    `roundoff` bounds by how much computed offsets can miss exact ones, and
    `points` (T, 3) are the y_t themselves, from which `polyhedron_from_chart`
    reads the polyhedron of `positions`.
    """
    positions: np.ndarray
    slack: float
    inverse_bound: float
    klein_radius: float
    normal_bound: float
    roundoff: float
    points: np.ndarray

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
        (1 + CERTIFY_MARGIN) rho < sigma, and every y' inside LIFT_RADIUS
        when (Y + eta)^2 < LIFT_RADIUS^2; that is `chart_verdict`'s
        certificate. Both verdicts are computed in floating point, so each
        inequality must hold with the roundoff of both states to spare: the
        certificate's and, K growing by at most 1 / (1 - 3 K delta), the new
        points'.
        """
        delta = float(np.abs(positions - self.positions).max())
        grow = 3.0 * self.inverse_bound * delta
        if grow >= 1.0:
            return False
        y = self.klein_radius
        eta = self.inverse_bound * delta * (_SQRT3 + 3.0 * y) / (1.0 - grow)
        rho = _SQRT3 * delta * (y + eta) + self.normal_bound * eta + delta
        spare = self.roundoff * (1.0 + 1.0 / (1.0 - grow))
        return ((1.0 + CERTIFY_MARGIN) * rho + spare < self.slack
                and (y + eta) ** 2 + spare < LIFT_RADIUS ** 2)


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
    in one stacked pass, and their common point is y_t = A_t^-1 b_t
    (`triangle_points`). The chart is certified when every y_t lies inside
    LIFT_RADIUS, the Klein radius within which `_lift_klein` lifts every
    point onto H^3, |y_t| < LIFT_RADIUS, and strictly inside every other
    plane, a y_t - b <
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
    and no vertex outside LIFT_RADIUS, so it is compact in H^3 and its
    vertices lift onto the hyperboloid (`polyhedron_from_chart`); every plane
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
    and states with a vertex outside LIFT_RADIUS all return it.
    """
    x = np.asarray(duals, dtype=float)
    a, b = x[:, 1:], x[:, 0]
    try:
        inverse, y = triangle_points(x, surface)
    except np.linalg.LinAlgError:
        return UNDECIDED, None
    resid, scale = _plane_offsets(a, b, y)            # triangle x plane
    limit = CERTIFY_MARGIN * scale
    own = surface.triangle_vertex_mask
    if ((resid > limit) & ~own).any():
        return VIOLATED, None
    squares = np.einsum("ij,ij->i", y, y)
    if not ((squares < LIFT_RADIUS ** 2).all()
            and (own | (resid < -limit)).all()):
        return UNDECIDED, None
    slack = float(np.where(own, np.inf, -limit - resid).min())
    inverse_bound = float(np.sqrt(np.einsum("tij,tij->t", inverse, inverse).max()))
    klein_radius = float(np.sqrt(squares.max()))
    normal_bound = float(_row_norms(a).max())
    roundoff = CERTIFY_ROUNDOFF * (
        (1.0 + inverse_bound * normal_bound) * (1.0 + klein_radius)
        * (1.0 + normal_bound) + float(scale.max()))
    if slack <= roundoff or klein_radius ** 2 >= LIFT_RADIUS ** 2:
        return CERTIFIED, None
    return CERTIFIED, ChartCertificate(x, slack, inverse_bound, klein_radius,
                                       normal_bound, roundoff, y)


def wall_crossing(before, after, surface: CombSurface) -> float:
    """The fraction of the way from the dual points `before` to `after` at
    which the chart `surface` first meets a wall, by secant: over every
    (triangle, plane) pair, the plane not a corner of the triangle, whose
    relative offset (a y_t - b over the scale of `_plane_offsets`) is f0 < 0
    at `before`, inside the plane, and f1 > 0 at `after`, outside it, the
    least f0 / (f0 - f1). 0.0 when no pair crosses, or when a triangle's
    planes are dependent at either end."""
    offsets = []
    for duals in (before, after):
        try:
            _, y = triangle_points(duals, surface)
        except np.linalg.LinAlgError:
            return 0.0
        resid, scale = _plane_offsets(duals[:, 1:], duals[:, 0], y)
        offsets.append(resid / scale)
    f0, f1 = offsets
    crossed = (f0 < 0) & (f1 > 0) & ~surface.triangle_vertex_mask
    if not crossed.any():
        return 0.0
    f0, f1 = f0[crossed], f1[crossed]
    return float((f0 / (f0 - f1)).min())


def triangle_points(duals, surface: CombSurface) -> tuple:
    """(inverse, points) of the chart `surface`'s triangles for the dual
    points `duals` (rows): the stacked inverses of each triangle's three
    plane rows A_t in the Klein chart, and the triangle's common point
    y_t = A_t^-1 b_t. Raises LinAlgError when some A_t is singular."""
    a, b = duals[:, 1:], duals[:, 0]
    tri = surface.triangles
    inverse = np.linalg.inv(a[tri])
    return inverse, (inverse @ b[tri][..., None])[..., 0]


def _check_turns(normals, points, cycles, count):
    """Raise InvalidPolyhedron unless every corner of the flat cycles (face
    f's count[f] > 0 indices into `points`, one face after the other)
    turns left about its face's normal."""
    end = np.cumsum(count)
    after = np.arange(1, len(cycles) + 1)
    after[end - 1] = end - count                # each cycle closes
    p = points[cycles]
    sides = p[after] - p
    turns = cross(sides, sides[after])
    if (rowdot(turns, np.repeat(normals, count, axis=0)) <= 0).any():
        raise InvalidPolyhedron("face cycle is not convex about its normal")


def _validate_lattice(poly, incidence, merge_tol):
    """Euler's formula holds, and each vertex lies on the planes of its
    incident faces, within 10 * merge_tol, and strictly inside every other
    plane, by merge_tol / 10, both relative to its x0. The first failing
    vertex is reported, its own planes checked first."""
    if poly.n_vertices - poly.n_edges + poly.n_faces != 2:
        raise InvalidPolyhedron("face lattice is not a 2-sphere")
    x = poly.vertex_rows[None, :, :]
    inner = minkowski_rows(poly.plane_rows[:, None, :], x)     # <n_f, x_v>
    scale = x[..., 0]
    off = incidence & (np.abs(inner) > 10 * merge_tol * scale)
    outside = ~incidence & (inner >= -merge_tol * scale / 10)
    bad = (off.any(axis=0) | outside.any(axis=0)).nonzero()[0]
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
    return np.pi - ds_distances(*P.plane_rows[P.edge_faces.T])


def dihedral_angle(P: ConvexPolyhedronH3, e: int) -> float:
    """Interior dihedral angle at edge e, in (0, pi), as in `dihedral_angles`."""
    f1, f2 = P.edge_faces[e]
    return float(np.pi - ds_distances(P.plane_rows[f1][None],
                                      P.plane_rows[f2][None])[0])


def polygon_area(x) -> float:
    """Area of a convex hyperbolic polygon by angle defect, its corners the
    H^3 points x (rows) in cyclic order.

    Each corner's angle A comes from the half-angle law,
    sin^2(A/2) = sinh((a - b + c)/2) sinh((a + b - c)/2) / (sinh b sinh c),
    with b and c the sides that meet there and a the diagonal joining its
    neighbours, all in `h_distances`' chord form. It stays well conditioned
    where the corners lie far out, as on the genus-2 faces of large height,
    where their coordinates reach about cosh h and a cosine of unit tangents
    cancels. A sin^2(A/2) outside [0, 1] by more than CLAMP_SLACK raises
    DomainExceeded, the first in corner order."""
    x = np.asarray(x, dtype=float)
    after = np.roll(x, -1, axis=0)
    c = h_distances(x, after)                   # side k runs from corner k
    b = np.roll(c, 1)
    a = h_distances(np.roll(x, 1, axis=0), after)
    half = (np.sinh((a - b + c) / 2) * np.sinh((a + b - c) / 2)
            / (np.sinh(b) * np.sinh(c)))
    beyond = (half < -CLAMP_SLACK) | (half > 1.0 + CLAMP_SLACK)
    if beyond.any():
        clamped(float(half[np.argmax(beyond)]), 0.0, 1.0)
    angles = 2.0 * np.arcsin(np.sqrt(np.clip(half, 0.0, 1.0)))
    return (len(x) - 2) * np.pi - float(angles.sum())


def face_area(P: ConvexPolyhedronH3, f: int) -> float:
    """Area of the hyperbolic face polygon by angle defect."""
    return polygon_area(P.vertex_rows[P.cycle(f)])


@dataclass
class DualMetricOutput:
    metric: ConeMetric
    marking: list               # marking[dual vertex] = input index of its plane
    edge_provenance: list = field(repr=False)


def dualize(P: ConvexPolyhedronH3) -> DualMetricOutput:
    """Glue the polar duals of all vertex links into the dual cone-metric.

    One dual vertex per face; `marking[i]` is the index of face i's plane
    among the input planes of P (`essential`). The polar dual of the link
    at vertex v has a corner per face and a side per edge at v, and is
    fan-triangulated from its lowest-index face. The polygons are P's edge
    table read vertex first (`cycle_walk`), and all their fans are built in
    one stacked pass (`fan_triangulations`). Every length, side or
    diagonal, is the de Sitter distance of two faces' dual points, in one
    stacked pass, and exactly so: the dual points of v's faces are unit
    vectors in v's orthogonal complement, a Euclidean 3-space as v is
    timelike, and are the corners of the polar dual of v's link, so each
    side and diagonal is the angle between two of them. A side is thus pi
    minus its primal dihedral angle.
    """
    fans, primal, degree = cycle_walk(P.edge_vertices, P.edge_faces, P.n_vertices)
    owner, corners, sides, diagonals, diagonal_owner = fan_triangulations(degree)
    triangles = fans[(np.cumsum(degree) - degree)[owner, None] + corners]
    # side i of v's polygon joins corners i, i + 1 and is dual to the primal
    # edge between them; the walk meets each primal edge at its two ends,
    # and those two sides are glued
    side = sides[sides >= 0]
    glued = side[np.argsort(primal, kind="stable")].reshape(-1, 2)
    pairs = np.vstack([glued, diagonals])
    mate = np.full(3 * len(triangles), -1)
    mate[pairs] = pairs[:, ::-1]
    surf = CombSurface(P.n_faces, triangles, mate)

    # an edge's provenance is its smaller half-edge's: a side's primal edge,
    # or the vertex of a diagonal, whose first half-edge is the smaller
    n_he = 3 * len(triangles)
    edge_of = np.full(n_he, -1)
    edge_of[side] = primal
    vertex_of = np.full(n_he, -1)
    vertex_of[diagonals[:, 0]] = diagonal_owner
    first = surf.edge_halfedges[:, 0]
    faces = list(map(tuple, P.edge_faces.tolist()))
    provenance = [("primal", faces[k]) if k >= 0 else ("fan", v)
                  for k, v in zip(edge_of[first].tolist(),
                                  vertex_of[first].tolist())]
    metric = ConeMetric(surf, SPHERICAL, ds_distances(*P.plane_rows[surf.edge_pairs.T]))
    return DualMetricOutput(metric=metric, marking=P.essential.tolist(),
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
                worst = (np.pi - dihedral_angles(poly)).max()
            except NotSpacelikeSeparated:
                continue
            if worst > max_dual_length:
                continue
        return poly
    raise InvalidPolyhedron("failed to sample a valid polyhedron")
