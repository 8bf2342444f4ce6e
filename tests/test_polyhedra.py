import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from polydual.errors import EmptyInterior, InvalidPolyhedron, UnboundedPolyhedron
from polydual.geodesic import closed_geodesic_search
from polydual.minkowski import (
    DSPoint,
    HPoint,
    Isometry,
    clamped,
    corner_angle,
    minkowski_inner,
)
from polydual.polyhedra import (
    EUCLIDEAN_TETRA_ANGLE,
    MERGE_TOL,
    ORIGIN_CLEARANCE,
    ConvexPolyhedronH3,
    DualMetricOutput,
    Edge,
    Face,
    _edges_from_faces,
    _plane_offsets,
    dihedral_angle,
    dihedral_angles,
    dualize,
    face_area,
    hexahedron,
    _validate_lattice,
    hull_from_dual_points,
    order_face_cycles,
    random_polyhedron,
    regular_tetrahedron,
    regular_tetrahedron_data,
    triangular_bipyramid,
)
from polydual.surface import (
    SPHERICAL,
    CombSurface,
    ConeMetric,
    fan_triangulation,
    gauss_bonnet_residual,
    is_concave,
    sphere_angle,
)


def tetra_normals(t):
    from polydual.polyhedra import TETRA_DIRECTIONS

    return [DSPoint(np.array([np.sinh(t), *(np.cosh(t) * u)]))
            for u in TETRA_DIRECTIONS]


def random_isometry(rng):
    g = Isometry.rotation(1, 2, rng.uniform(0, 2 * np.pi))
    g = g @ Isometry.boost(1, rng.uniform(-0.8, 0.8))
    g = g @ Isometry.rotation(2, 3, rng.uniform(0, 2 * np.pi))
    return g


class TestHull:
    def test_tetra_counts(self):
        P = regular_tetrahedron(1.2)
        assert (P.n_faces, P.n_edges, P.n_vertices) == (4, 6, 4)

    def test_hexahedron_cube_combinatorics(self):
        P = hexahedron(0.5)
        assert (P.n_faces, P.n_edges, P.n_vertices) == (6, 12, 8)
        assert all(len(f.vertex_cycle) == 4 for f in P.faces)

    def test_off_quadric_row_is_named(self):
        rows = [p.v for p in tetra_normals(0.5)] + [np.array([2.0, 1.0, 0, 0])]
        with pytest.raises(InvalidPolyhedron,
                           match="^dual point 4: vector is not spacelike$"):
            hull_from_dual_points(rows)

    def test_row_on_the_light_cone_is_named(self):
        rows = [p.v for p in tetra_normals(0.5)] + [np.array([1, 1 + 1e-7, 0, 0])]
        with pytest.raises(InvalidPolyhedron,
                           match="^dual point 4: vector is too close to the "
                                 "light cone"):
            hull_from_dual_points(rows)

    def test_empty_interior(self):
        # inward-facing tetrahedral cage: negative sides cannot all hold
        from polydual.polyhedra import TETRA_DIRECTIONS

        t = 1.0
        duals = [DSPoint(np.array([-np.sinh(t), *(np.cosh(t) * u)]))
                 for u in TETRA_DIRECTIONS]
        with pytest.raises(EmptyInterior):
            hull_from_dual_points(duals)

    def test_unbounded(self):
        # all planes facing one hemisphere leave an end escaping to infinity
        dirs = np.array([[1, 0, 0.4], [-1, 0, 0.4], [0, 1, 0.4], [0, -1, 0.4]])
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        duals = [DSPoint(np.array([np.sinh(0.5), *(np.cosh(0.5) * u)]))
                 for u in dirs]
        with pytest.raises(UnboundedPolyhedron):
            hull_from_dual_points(duals)

    def test_redundant_plane_recorded(self):
        # compact regular tetrahedron needs inradius below arctanh(1/3)
        duals = tetra_normals(0.25)
        # a plane far out in an existing direction never touches the body
        far = DSPoint(np.array([np.sinh(2.0),
                                *(np.cosh(2.0) * np.array([1, 1, 1]) / np.sqrt(3))]))
        P = hull_from_dual_points(duals + [far])
        assert P.discarded == [4]
        assert P.n_faces == 4

    def test_vertices_on_their_planes(self):
        P = random_polyhedron(np.random.RandomState(2), 7)
        for f, face in enumerate(P.faces):
            for v in face.vertex_cycle:
                val = minkowski_inner(P.planes[f], P.vertices[v])
                assert abs(val) < 1e-10 * P.vertices[v].v[0]

    def test_full_hull_round_trip(self):
        rng = np.random.RandomState(3)
        for _ in range(5):
            P = random_polyhedron(rng, 6)
            Q = hull_from_dual_points(P.planes)
            assert Q.n_vertices == P.n_vertices
            got = sorted(tuple(np.round(v.v, 9)) for v in Q.vertices)
            want = sorted(tuple(np.round(v.v, 9)) for v in P.vertices)
            for a, b in zip(got, want):
                assert np.allclose(a, b, atol=1e-9)


LATTICES = {
    "hexahedron": lambda: hexahedron(0.5),
    "bipyramid": triangular_bipyramid,
    "random-7": lambda: random_polyhedron(np.random.RandomState(2), 7),
}


def incidence(P):
    """Face x vertex incidence read off the face cycles."""
    inc = np.zeros((P.n_faces, P.n_vertices), dtype=bool)
    for f, face in enumerate(P.faces):
        inc[f, face.vertex_cycle] = True
    return inc


class TestLattice:
    @pytest.mark.parametrize("name", LATTICES)
    def test_true_incidence_passes(self, name):
        P = LATTICES[name]()
        _validate_lattice(P, incidence(P), MERGE_TOL)

    @pytest.mark.parametrize("name", LATTICES)
    def test_foreign_plane_is_off(self, name):
        P = LATTICES[name]()
        inc = incidence(P)
        v = P.n_vertices - 1
        f = int(np.flatnonzero(~inc[:, v])[0])
        inc[f, v] = True
        with pytest.raises(InvalidPolyhedron,
                           match=f"^vertex {v} off its plane {f}$"):
            _validate_lattice(P, inc, MERGE_TOL)

    @pytest.mark.parametrize("name", LATTICES)
    def test_dropped_plane_is_not_inside(self, name):
        P = LATTICES[name]()
        inc = incidence(P)
        v = P.n_vertices - 1
        f = int(np.flatnonzero(inc[:, v])[-1])
        inc[f, v] = False
        with pytest.raises(InvalidPolyhedron,
                           match=f"^vertex {v} not strictly inside plane {f}$"):
            _validate_lattice(P, inc, MERGE_TOL)

    def test_reports_first_vertex_own_planes_first(self):
        P = hexahedron(0.5)
        inc = incidence(P)
        # vertex 2 loses a plane; vertex 1 loses its first plane and gains
        # its last foreign one
        inc[np.flatnonzero(inc[:, 2])[0], 2] = False
        dropped = int(np.flatnonzero(inc[:, 1])[0])
        foreign = int(np.flatnonzero(~inc[:, 1])[-1])
        assert dropped < foreign
        inc[dropped, 1] = False
        inc[foreign, 1] = True
        with pytest.raises(InvalidPolyhedron,
                           match=f"^vertex 1 off its plane {foreign}$"):
            _validate_lattice(P, inc, MERGE_TOL)

    @pytest.mark.parametrize("name", LATTICES)
    def test_edge_maps_agree_with_scan(self, name):
        P = LATTICES[name]()

        def scan(side, pair):
            return next((k for k, e in enumerate(P.edges)
                         if set(getattr(e, side)) == set(pair)), None)

        for u, w in itertools.product(range(P.n_vertices), repeat=2):
            assert P.edge_at(u, w) == scan("vertices", (u, w))
        for f, g in itertools.product(range(P.n_faces), repeat=2):
            assert P.edge_between(f, g) == scan("faces", (f, g))


def reference_hull(duals) -> ConvexPolyhedronH3:
    """The hull `hull_from_dual_points` replaced: a Chebyshev LP for the
    interior point, a second LP for a receding direction, and the lattice
    built facet by facet with a lstsq fit and a plane scan per facet. The
    oracle its lattices must equal."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, QhullError

    planes = [d if isinstance(d, DSPoint) else DSPoint.from_vector(d)
              for d in duals]
    a = np.array([d.v[1:] for d in planes])
    b = np.array([d.v[0] for d in planes])
    norms = np.linalg.norm(a, axis=1)
    A_ub = np.hstack([a, norms[:, None]])
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=b,
                  bounds=[(-2, 2), (-2, 2), (-2, 2), (0, 3)], method="highs")
    if not res.success or res.x[3] <= 1e-9:
        raise EmptyInterior("plane family admits no common interior")
    y0 = res.x[:3]
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=np.zeros(len(a)),
                  bounds=[(-1, 1), (-1, 1), (-1, 1), (0, 2)], method="highs")
    if res.success and res.x[3] > 1e-9:
        raise UnboundedPolyhedron("plane family recedes")
    try:
        hull = ConvexHull(a / (b - a @ y0)[:, None])
    except QhullError as exc:
        raise EmptyInterior("degenerate dual configuration") from exc
    essential = sorted(set(int(v) for v in hull.vertices))
    discarded = sorted(set(range(len(planes))) - set(essential))

    def solve(idxs):
        rows, rhs = a[list(idxs)], b[list(idxs)]
        y, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
        if rank < 3 or np.max(np.abs(rows @ y - rhs)) > 1e-6:
            return None
        return y

    def through(y):
        scale = 1.0 + np.abs(b) + norms * np.linalg.norm(y)
        return tuple(int(i) for i in
                     np.where(np.abs(a @ y - b) <= MERGE_TOL * scale)[0])

    groups = {}
    for simplex in hull.simplices:
        tri = tuple(sorted(int(i) for i in simplex))
        ys = solve(tri)
        if ys is None:
            continue
        members = through(ys)
        if members != tri:
            ys = solve(members)
            if ys is None:
                continue
            members = through(ys)
        groups[frozenset(members)] = ys
    kept = []
    for k in sorted(groups, key=len, reverse=True):
        if not any(k < other for other in kept):
            kept.append(k)
    kept.sort(key=sorted)
    klein = np.array([groups[members] for members in kept])
    vertices = []
    for y in klein:
        x0 = 1.0 / np.sqrt(1.0 - float(y @ y))
        vertices.append(HPoint(np.array([x0, *(x0 * y)])))
    inc = np.zeros((len(planes), len(kept)), dtype=bool)
    for v, members in enumerate(kept):
        inc[list(members), v] = True
    inc = inc[essential]
    cycles = order_face_cycles(a[essential], klein, inc)
    faces = [Face(plane=planes[orig], vertex_cycle=cycle)
             for orig, cycle in zip(essential, cycles)]
    poly = ConvexPolyhedronH3(planes=[planes[i] for i in essential],
                              vertices=vertices, faces=faces,
                              edges=edges_by_corner_walk(faces),
                              discarded=discarded)
    _validate_lattice(poly, inc, MERGE_TOL)
    return poly


def lattice(P, rotated=False):
    """Face cycles (each from its least vertex when rotated), edges and
    discarded planes of P."""
    cycles = [f.vertex_cycle for f in P.faces]
    if rotated:
        cycles = [c[c.index(min(c)):] + c[:c.index(min(c))] for c in cycles]
    return (cycles, [(e.vertices, e.faces) for e in P.edges], P.discarded)


def vertex_array(P):
    return np.array([v.v for v in P.vertices])


def hull_outcome(build):
    """The polyhedron build() returns, or the type of what it raised."""
    try:
        return build()
    except InvalidPolyhedron as exc:
        return type(exc)


def wall_states():
    """The bipyramid's dual points (two 4-plane vertices) moved in their
    tangent charts by steps from far inside MERGE_TOL to far beyond it."""
    base = np.array([p.v for p in triangular_bipyramid().planes])
    rng = np.random.RandomState(11)
    states = []
    for step in (1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4):
        for _ in range(3):
            moved = base + step * rng.randn(*base.shape)
            q = np.einsum("ij,jk,ik->i", moved, np.diag([-1.0, 1, 1, 1]), moved)
            states.append(moved / np.sqrt(q)[:, None])
    return states


class TestStackedHull:
    def test_plane_offset_scale_has_the_norms_bits(self):
        rng = np.random.RandomState(8)
        for size in (1e-3, 1.0, 1e3):
            a, y = size * rng.randn(30, 3), rng.randn(40, 3)
            b = rng.randn(30)
            _, scale = _plane_offsets(a, b, y)
            assert np.array_equal(scale, 1.0 + np.abs(b) + np.linalg.norm(
                y, axis=1)[:, None] * np.linalg.norm(a, axis=1))

    def test_lattice_matches_the_facet_loop(self):
        inputs = [P.planes for P in oracle_polyhedra()]
        inputs.append(tetra_normals(0.25) + [DSPoint(np.array(
            [np.sinh(2.0), *(np.cosh(2.0) * np.ones(3) / np.sqrt(3))]))])
        inputs += [random_polyhedron(np.random.RandomState(s), 8).planes
                   for s in range(5, 15)]
        inputs += wall_states()
        outcomes = set()
        for duals in inputs:
            got = hull_outcome(lambda: hull_from_dual_points(duals))
            want = hull_outcome(lambda: reference_hull(duals))
            if isinstance(want, type):
                assert got is want
                outcomes.add(want.__name__)
                continue
            assert lattice(got) == lattice(want)
            assert np.max(np.abs(vertex_array(got) - vertex_array(want))) < 1e-13
            outcomes.add((len(want.discarded), max(len(f.vertex_cycle) for f in
                                                   want.faces) > 3))
        # merged and split walls, a redundant plane, and generic solids
        assert {(0, True), (0, False), (1, False)} <= outcomes

    @pytest.mark.parametrize("t", [1.0, 0.25 - 1e-9])
    def test_interior_point_lp(self, t, monkeypatch):
        # a box of half-widths 0.25, 0.5, 0.5 boosted along x: by 1 the
        # Klein origin leaves it, by 0.25 - 1e-9 its -x face passes 1e-9
        # from the origin; either way the LP finds the interior point
        import scipy.optimize

        duals = [DSPoint(np.array([np.sinh(r), *(np.cosh(r) * s * u)]))
                 for u, r in zip(np.eye(3), (0.25, 0.5, 0.5)) for s in (1, -1)]
        P = hull_from_dual_points(duals)
        g = Isometry.boost(1, t)
        moved = [g.apply(p) for p in duals]
        a = np.array([p.v[1:] for p in moved])
        b = np.array([p.v[0] for p in moved])
        assert np.min(b / np.linalg.norm(a, axis=1)) < ORIGIN_CLEARANCE
        calls = []
        real = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        Q = hull_from_dual_points(moved)
        assert calls == [1]
        assert lattice(Q, rotated=True) == lattice(P, rotated=True)
        want = np.array([g.apply(v).v for v in P.vertices])
        assert np.max(np.abs(vertex_array(Q) - want)) < 1e-12

    def test_edge_lengths_match_each_edge(self):
        for P in oracle_polyhedra():
            want = [P.edge_length(k) for k in range(P.n_edges)]
            assert np.array_equal(P.edge_lengths(), want)


def pentagon(radii):
    """Pentagon in a tilted plane with the given corner radii, labels a-e ccw
    about the plane's normal."""
    n = np.array([1.0, 2.0, 3.0])
    u = np.cross(n, [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    w = np.cross(n, u) / np.linalg.norm(n)
    ang = 2 * np.pi * np.arange(5) / 5
    pts = 0.1 * n + np.array([r * (np.cos(a) * u + np.sin(a) * w)
                              for r, a in zip(radii, ang)])
    return n, pts


def order_face_cycle(normal, pts, idxs):
    """The single-face orderer `order_face_cycles` replaced: the oracle its
    cycles must equal, list for list."""
    e1 = np.zeros(3)
    e1[np.argmin(np.abs(normal))] = 1.0
    e1 = np.cross(normal, e1)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    e2 /= np.linalg.norm(e2)
    center = pts.mean(axis=0)
    ang = np.arctan2((pts - center) @ e2, (pts - center) @ e1)
    order = np.argsort(ang)
    sides = np.diff(pts[order], axis=0, append=pts[order[:1]])
    if np.any(np.cross(sides, np.roll(sides, -1, axis=0)) @ normal <= 0):
        raise InvalidPolyhedron("face cycle is not convex about its normal")
    return [idxs[i] for i in order]


def one_face(n, pts, labels):
    cycle, = order_face_cycles(n[None], pts, np.ones((1, len(pts)), dtype=bool))
    return [labels[i] for i in cycle]


def fibonacci_solids(face_counts):
    """The bench/solids.py solids with these face counts."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                    "bench"))
    try:
        from solids import fibonacci_solid
    finally:
        sys.path.pop(0)
    return [fibonacci_solid(np.random.RandomState([1, 0, n]), n, 0.02).poly
            for n in face_counts]


def oracle_polyhedra():
    polys = [regular_tetrahedron(1.15), hexahedron(0.5), triangular_bipyramid()]
    polys += [random_polyhedron(np.random.RandomState(s), n)
              for s, n in ((2, 7), (3, 9), (4, 12))]
    return polys + fibonacci_solids((30, 50))


def edges_by_corner_walk(faces):
    """The face-corner walk `_edges_from_faces` replaced: the oracle its
    edges and its error message must equal."""
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


def edge_list(edges):
    return [(e.vertices, e.faces) for e in edges]


class TestEdgesFromFaces:
    @pytest.fixture(scope="class")
    def polys(self):
        return oracle_polyhedra() + fibonacci_solids((8, 20, 40))

    def test_matches_the_corner_walk(self, polys):
        for P in polys:
            got = _edges_from_faces(P.faces)
            assert edge_list(got) == edge_list(edges_by_corner_walk(P.faces))
            assert edge_list(got) == edge_list(P.edges)
            assert all(type(k) is int for e in got for k in e.vertices + e.faces)

    def test_unshared_edges_raise_the_corner_walk_message(self, polys):
        for P in polys:
            for f in (0, P.n_faces // 2, P.n_faces - 1):
                reversed_face = Face(plane=P.faces[f].plane,
                                     vertex_cycle=P.faces[f].vertex_cycle[::-1])
                for faces in (P.faces[:f] + [reversed_face] + P.faces[f + 1:],
                              P.faces[:f] + P.faces[f + 1:]):
                    with pytest.raises(InvalidPolyhedron) as want:
                        edges_by_corner_walk(faces)
                    with pytest.raises(InvalidPolyhedron) as got:
                        _edges_from_faces(faces)
                    assert str(got.value) == str(want.value)


class TestFaceCycle:
    def test_every_input_order_gives_one_ccw_cycle(self):
        n, pts = pentagon([1.0, 0.8, 1.1, 0.9, 1.0])
        cycles = set()
        for perm in itertools.permutations(range(5)):
            cycles.add(tuple(one_face(n, pts[list(perm)],
                                      ["abcde"[i] for i in perm])))
        assert len(cycles) == 1
        cycle = "".join(cycles.pop())
        assert cycle in "abcdeabcde"

    def test_reflex_corner_raises(self):
        # corner c is pulled in past the chord bd
        n, pts = pentagon([1.0, 1.0, 0.2, 1.0, 1.0])
        with pytest.raises(InvalidPolyhedron, match="not convex"):
            one_face(n, pts, "abcde")

    def test_one_pass_matches_the_single_face_orderer(self):
        # faces of three to many corners in one batch, including the
        # axis-aligned hexahedron and bipyramid whose coordinates hit zeros
        for P in oracle_polyhedra():
            normals = np.array([p.v[1:] for p in P.planes])
            points = np.array([v.v[1:] / v.v[0] for v in P.vertices])
            inc = incidence(P)
            want = [order_face_cycle(normals[f], points[np.flatnonzero(row)],
                                     np.flatnonzero(row).tolist())
                    for f, row in enumerate(inc)]
            assert order_face_cycles(normals, points, inc) == want


class TestDihedral:
    def test_perpendicular_planes(self):
        n1 = DSPoint(np.array([0, 0, 1.0, 0]))
        n2 = DSPoint(np.array([0, 0, 0, 1.0]))
        # right angle corresponds to orthogonal normals
        assert np.pi - np.arccos(minkowski_inner(n1, n2)) == pytest.approx(np.pi / 2)

    def test_regular_family_matches_oracle(self):
        for theta in np.linspace(np.pi / 3 + 0.05, EUCLIDEAN_TETRA_ANGLE - 0.02, 6):
            P = regular_tetrahedron(theta)
            for e in range(P.n_edges):
                assert dihedral_angle(P, e) == pytest.approx(theta, abs=1e-9)

    def test_stacked_matches_arccos_and_each_edge(self):
        for P in oracle_polyhedra():
            angles = dihedral_angles(P)
            assert angles.shape == (P.n_edges,)
            for e in range(P.n_edges):
                assert angles[e] == dihedral_angle(P, e)
                assert angles[e] == pytest.approx(reference_dihedral(P, e),
                                                  rel=0, abs=1e-13)


# -- the link development: the dualize that the closed form replaced ------------


def reference_dihedral(P, e):
    f1, f2 = P.edges[e].faces
    x = clamped(minkowski_inner(P.planes[f1], P.planes[f2]), -1.0, 1.0)
    return np.pi - float(np.arccos(x))


def reference_face_angle(P, f, v):
    cyc = P.faces[f].vertex_cycle
    i = cyc.index(v)
    return corner_angle(P.vertices[v].v, P.vertices[cyc[i - 1]].v,
                        P.vertices[cyc[(i + 1) % len(cyc)]].v)


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


def vertex_link(P, v) -> VertexLink:
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
    assert f == order[0]
    sides = np.array([reference_face_angle(P, fi, v) for fi in order])
    angs = np.array([reference_dihedral(P, k) for k in edges])
    return VertexLink(faces=order, edges=edges, side_lengths=sides, angles=angs)


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


def reference_dualize(P) -> DualMetricOutput:
    """The dual metric from developed link polygons: sides are pi minus the
    dihedral angles, diagonals are read off each developed polar dual."""
    triangles = []
    side_tag = {}
    gluing = {}
    lengths_by_he = {}
    provenance_by_he = {}

    for v in range(P.n_vertices):
        link = vertex_link(P, v)
        corners, resid = polar_dual_polygon(link).develop()
        assert resid < 1e-9
        m = len(link.faces)
        anchor = int(np.argmin(link.faces))
        local = [(anchor + j) % m for j in range(m)]
        fan, sides, diagonals = fan_triangulation(m, base=len(triangles))
        triangles += [tuple(link.faces[local[c]] for c in tri) for tri in fan]
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

    for hes in side_tag.values():
        assert len(hes) == 2
        gluing[hes[0]] = hes[1]
        gluing[hes[1]] = hes[0]

    surf = CombSurface(P.n_faces, triangles, gluing)
    lengths = np.empty(surf.n_edges)
    provenance = [None] * surf.n_edges
    for e, (ha, hb) in enumerate(surf.edge_halfedges):
        src = ha if ha in lengths_by_he else hb
        lengths[e] = lengths_by_he[src]
        provenance[e] = provenance_by_he[src]
    return DualMetricOutput(metric=ConeMetric(surf, SPHERICAL, lengths),
                            marking=list(range(P.n_faces)),
                            edge_provenance=provenance)


class TestVertexLink:
    def test_regular_tetra_link(self):
        theta = 1.18
        data = regular_tetrahedron_data(theta)
        P = regular_tetrahedron(theta)
        link = vertex_link(P, 0)
        assert len(link.faces) == 3
        assert np.allclose(link.side_lengths, data["face_angle"], atol=1e-9)
        assert np.allclose(link.angles, theta, atol=1e-9)

    def test_link_sides_sum_below_two_pi(self):
        P = random_polyhedron(np.random.RandomState(8), 7)
        for v in range(P.n_vertices):
            link = vertex_link(P, v)
            assert link.side_lengths.sum() < 2 * np.pi

    def test_right_angled_corner_link(self):
        # hexahedron at small t approaches the Euclidean cube: the corner link
        # approaches the octant triangle with right angles
        P = hexahedron(0.05)
        link = vertex_link(P, 0)
        assert len(link.faces) == 3
        assert np.allclose(link.angles, np.pi / 2, atol=5e-3)
        assert np.allclose(link.side_lengths, np.pi / 2, atol=5e-3)


class TestPolarDual:
    def test_octant_self_dual(self):
        oct_tri = SphericalPolygon(sides=np.full(3, np.pi / 2),
                                   angles=np.full(3, np.pi / 2))
        dual = polar_dual_polygon(oct_tri)
        assert np.allclose(dual.sides, np.pi / 2)
        assert np.allclose(dual.angles, np.pi / 2)

    def test_involution(self):
        poly = SphericalPolygon(sides=np.array([1.0, 1.2, 0.9, 1.1]),
                                angles=np.array([2.0, 1.9, 2.1, 2.2]))
        twice = polar_dual_polygon(polar_dual_polygon(poly))
        assert np.allclose(twice.sides, poly.sides, atol=1e-12)
        assert np.allclose(twice.angles, poly.angles, atol=1e-12)

    def test_tetra_link_dual_develops_closed(self):
        P = regular_tetrahedron(1.1)
        dual = polar_dual_polygon(vertex_link(P, 2))
        corners, resid = dual.develop()
        assert resid < 1e-9
        assert len(corners) == 3


class TestDualize:
    def test_regular_tetra_oracle(self):
        theta = 1.2
        data = regular_tetrahedron_data(theta)
        out = dualize(regular_tetrahedron(theta))
        m = out.metric
        assert m.surface.n_vertices == 4
        assert m.surface.n_edges == 6
        assert np.allclose(m.lengths, data["dual_edge_length"], atol=1e-9)
        assert np.allclose(m.cone_angles(), data["dual_cone_angle"], atol=1e-9)

    def test_isometry_invariance(self):
        rng = np.random.RandomState(11)
        P = random_polyhedron(rng, 6)
        g = random_isometry(rng)
        moved = hull_from_dual_points([g.apply(n) for n in P.planes])
        out1, out2 = dualize(P), dualize(moved)
        assert np.allclose(sorted(out1.metric.lengths),
                           sorted(out2.metric.lengths), atol=1e-10)

    def test_matches_the_link_development(self):
        # the fixtures, random solids of 7 to 12 faces and the 30- and
        # 50-face bench solids
        for P in oracle_polyhedra():
            out, ref = dualize(P), reference_dualize(P)
            assert out.metric.surface.triangles == ref.metric.surface.triangles
            assert out.metric.surface.gluing == ref.metric.surface.gluing
            assert out.edge_provenance == ref.edge_provenance
            assert out.marking == ref.marking
            np.testing.assert_allclose(out.metric.lengths, ref.metric.lengths,
                                       rtol=0, atol=1e-13)

    def test_dual_is_concave_with_valid_gauss_bonnet(self):
        for P in [regular_tetrahedron(1.15), hexahedron(0.4),
                  triangular_bipyramid(),
                  random_polyhedron(np.random.RandomState(17), 8)]:
            out = dualize(P)
            rep = is_concave(out.metric)
            assert rep.concave and rep.min_margin > 0
            assert abs(gauss_bonnet_residual(out.metric)) < 1e-8

    def test_cone_angle_equals_face_area_plus_two_pi(self):
        rng = np.random.RandomState(19)
        for _ in range(4):
            P = random_polyhedron(rng, rng.randint(5, 8))
            out = dualize(P)
            ca = out.metric.cone_angles()
            for f in range(P.n_faces):
                assert ca[out.marking[f]] - 2 * np.pi == pytest.approx(
                    face_area(P, f), abs=1e-9)

    def test_face_area_formula(self):
        theta = 1.19
        data = regular_tetrahedron_data(theta)
        P = regular_tetrahedron(theta)
        for f in range(4):
            assert face_area(P, f) == pytest.approx(data["face_area"], abs=1e-9)

    def test_chart_dimension(self):
        for P in [regular_tetrahedron(1.1), hexahedron(0.5),
                  triangular_bipyramid()]:
            s = dualize(P).metric.surface
            assert s.n_edges == 3 * s.n_vertices - 6

    def test_fan_provenance_on_bipyramid(self):
        out = dualize(triangular_bipyramid())
        kinds = [p[0] for p in out.edge_provenance]
        assert kinds.count("primal") == 9
        assert kinds.count("fan") == 3


class TestDistortion:
    def test_nearby_tetrahedron_duals(self):
        m1 = dualize(regular_tetrahedron(1.15)).metric
        m2 = dualize(regular_tetrahedron(1.16)).metric
        # both duals share one canonical combinatorics, so the lengths of
        # edge e compare directly
        assert m2.surface.triangles == m1.surface.triangles
        assert m2.surface.gluing == m1.surface.gluing
        d = float(np.max(np.abs(np.log(m2.lengths / m1.lengths))))
        # |ln((pi - 1.16)/(pi - 1.15))| on every edge
        expect = abs(np.log((np.pi - 1.16) / (np.pi - 1.15)))
        assert d == pytest.approx(expect, abs=1e-12)
        assert 0 < d < 0.01


class TestLargeness:
    def test_dual_metrics_are_large(self):
        fixtures = [regular_tetrahedron(1.2), hexahedron(0.5)]
        for P in fixtures:
            rep = closed_geodesic_search(dualize(P).metric, depth=6)
            assert not rep.found_within_cap
            if rep.min_length is not None:
                assert rep.min_length > 2 * np.pi
