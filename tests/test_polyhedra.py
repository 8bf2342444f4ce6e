import itertools

import numpy as np
import pytest

from bench_solids import fibonacci_solids
from oracles import (
    SphericalPolygon,
    angle_sorted_hull,
    corner_angle,
    edges_by_corner_walk,
    edges_from_faces,
    order_face_cycle,
    polar_dual_polygon,
    reference_dihedral,
    reference_dualize,
    reference_hull,
    svd_solve_triples,
    vertex_link,
)
from polydual.errors import EmptyInterior, InvalidPolyhedron, UnboundedPolyhedron
from polydual.geodesic import closed_geodesic_search
from polydual.minkowski import (
    NORM_TOL,
    DSPoint,
    Isometry,
    h_distance,
    minkowski_inner,
    minkowski_rows,
)
from polydual.polyhedra import (
    EUCLIDEAN_TETRA_ANGLE,
    LIFT_RADIUS,
    MERGE_TOL,
    ORIGIN_CLEARANCE,
    Face,
    _check_turns,
    _lift_klein,
    _mates,
    _plane_offsets,
    _solve_triples,
    _validate_lattice,
    cycle_walk,
    dihedral_angle,
    dihedral_angles,
    dualize,
    face_area,
    hexahedron,
    hull_from_dual_points,
    random_polyhedron,
    regular_tetrahedron,
    regular_tetrahedron_data,
    triangular_bipyramid,
)
from polydual.surface import gauss_bonnet_residual, is_concave


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


@pytest.fixture(scope="module")
def lattice_inputs():
    """Dual points of the oracle solids, the 100-face bench solid (the 30-
    and 50-face ones are among the oracle solids), a tetrahedron with a
    redundant plane, random 8-face solids, and the bipyramid's wall
    states."""
    inputs = [P.planes for P in oracle_polyhedra() + fibonacci_solids((100,))]
    inputs.append(tetra_normals(0.25) + [DSPoint(np.array(
        [np.sinh(2.0), *(np.cosh(2.0) * np.ones(3) / np.sqrt(3))]))])
    inputs += [random_polyhedron(np.random.RandomState(s), 8).planes
               for s in range(5, 15)]
    return inputs + wall_states()


class TestStackedHull:
    def test_plane_offset_scale_has_the_norms_bits(self):
        rng = np.random.RandomState(8)
        for size in (1e-3, 1.0, 1e3):
            a, y = size * rng.randn(30, 3), rng.randn(40, 3)
            b = rng.randn(30)
            _, scale = _plane_offsets(a, b, y)
            assert np.array_equal(scale, 1.0 + np.abs(b) + np.linalg.norm(
                y, axis=1)[:, None] * np.linalg.norm(a, axis=1))

    def test_lattice_matches_the_facet_loop(self, lattice_inputs):
        outcomes = set()
        for duals in lattice_inputs:
            got = hull_outcome(lambda: hull_from_dual_points(duals))
            want = hull_outcome(lambda: reference_hull(duals))
            if isinstance(want, type):
                assert got is want
                outcomes.add(want.__name__)
                continue
            assert lattice(got) == lattice(want, rotated=True)
            assert np.max(np.abs(vertex_array(got) - vertex_array(want))) < 1e-13
            outcomes.add((len(want.discarded), max(len(f.vertex_cycle) for f in
                                                   want.faces) > 3))
        # merged and split walls, a redundant plane, and generic solids
        assert {(0, True), (0, False), (1, False)} <= outcomes

    def test_lattice_matches_the_angle_sorted_hull(self, lattice_inputs):
        # bit for bit: the half-edge lattice is the one the angle sort and
        # the corner walk gave, vertex rows included, each cycle from its
        # least vertex
        for duals in lattice_inputs:
            got = hull_outcome(lambda: hull_from_dual_points(duals))
            want = hull_outcome(lambda: angle_sorted_hull(duals))
            if isinstance(want, type):
                assert got is want
                continue
            assert lattice(got) == lattice(want, rotated=True)
            assert np.array_equal(got.vertex_rows, want.vertex_rows)
            assert np.array_equal(got.plane_rows, want.plane_rows)

    def test_views_give_the_angle_sorted_values(self, lattice_inputs):
        # what bench/solids.py and the acceptance suite read: edge order
        # and orientation, the faces at each vertex, edge lengths with
        # h_distance's bits, and the discarded planes
        for duals in lattice_inputs:
            P = hull_outcome(lambda: hull_from_dual_points(duals))
            if isinstance(P, type):
                continue
            want = angle_sorted_hull(duals)
            assert P.edges == want.edges
            assert all(type(k) is int for e in P.edges for k in e.vertices + e.faces)
            assert P.discarded == want.discarded
            for v in range(P.n_vertices):
                assert P.faces_at_vertex(v) == [
                    f for f, face in enumerate(want.faces) if v in face.vertex_cycle]
            for k, e in enumerate(want.edges):
                u, w = e.vertices
                assert P.edge_length(k) == h_distance(want.vertices[u],
                                                      want.vertices[w])
            assert np.array_equal(
                P.essential, np.setdiff1d(np.arange(len(duals)), want.discarded))

    def test_rank_test_matches_the_svd(self):
        rng = np.random.RandomState(4)
        a = rng.randn(40, 3)
        b = rng.randn(40)
        # rows of rank 2 and 1, and rank 3 rows from well to ill conditioned
        a[1] = a[0] + a[2]
        a[3] = 2.0 * a[4]
        for k, scale in enumerate(np.geomspace(1e-17, 1e-3, 12)):
            a[10 + k] = a[8] + a[9] + scale * a[7]
        tri = np.array(list(itertools.combinations(range(15), 3))
                       + [(8, 9, 10 + k) for k in range(12)])
        got, want = _solve_triples(a, b, tri), svd_solve_triples(a, b, tri)
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[0], want[0])
        assert 0 < got[1].sum() < len(tri)

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


def one_face(n, pts, labels):
    return [labels[i] for i in order_face_cycle(n, pts, list(range(len(pts))))]


def oracle_polyhedra():
    polys = [regular_tetrahedron(1.15), hexahedron(0.5), triangular_bipyramid()]
    polys += [random_polyhedron(np.random.RandomState(s), n)
              for s, n in ((2, 7), (3, 9), (4, 12))]
    return polys + fibonacci_solids((30, 50))


def edge_list(edges):
    return [(e.vertices, e.faces) for e in edges]


class TestEdgesFromFaces:
    @pytest.fixture(scope="class")
    def polys(self):
        return oracle_polyhedra() + fibonacci_solids((8, 20, 40))

    def test_matches_the_corner_walk(self, polys):
        # the edges glued from the triangulation's half-edges are the ones
        # the corner walk and its stacked pass read off the face cycles
        for P in polys:
            assert edge_list(P.edges) == edge_list(edges_by_corner_walk(P.faces))
            assert edge_list(edges_from_faces(P.faces)) == edge_list(P.edges)
            assert all(type(k) is int for e in P.edges for k in e.vertices + e.faces)

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
                        edges_from_faces(faces)
                    assert str(got.value) == str(want.value)

    def test_mates_reverse_each_half_edge(self, polys):
        for P in polys:
            tri = P.triangles
            mate = _mates(tri, P.n_faces)
            h = np.arange(3 * len(tri))
            assert np.array_equal(mate[mate], h) and np.all(mate != h)
            tail, head = tri.ravel(), tri[:, [1, 2, 0]].ravel()
            assert np.array_equal(tail[mate], head)
            assert np.array_equal(head[mate], tail)

    def test_unglued_triangles_raise(self, polys):
        for P in polys:
            for t in (0, len(P.triangles) // 2, len(P.triangles) - 1):
                flipped = P.triangles.copy()
                flipped[t] = flipped[t, ::-1]
                dropped = np.delete(P.triangles, t, axis=0)
                for tri in (flipped, dropped):
                    with pytest.raises(InvalidPolyhedron,
                                       match="do not meet in two consistently "
                                             "oriented triangles$"):
                        _mates(tri, P.n_faces)


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
        # corner c is pulled in past the chord bd; the convex pentagon and
        # the reflex one sit in one batch, in either order
        n, pts = pentagon([1.0, 1.0, 0.2, 1.0, 1.0])
        _, convex = pentagon([1.0, 0.8, 1.1, 0.9, 1.0])
        normals, cycle = np.stack([n, n]), np.arange(5)
        _check_turns(normals, convex, np.r_[cycle, cycle], np.array([5, 5]))
        for first, second in ((pts, convex), (convex, pts)):
            with pytest.raises(InvalidPolyhedron, match="not convex"):
                _check_turns(normals, np.vstack([first, second]),
                             np.r_[cycle, cycle + 5], np.array([5, 5]))


class TestCycleWalk:
    def test_row_order_and_row_direction_do_not_matter(self):
        # a row read from w to u, with its sides swapped, is the same edge
        rng = np.random.RandomState(6)
        for P in oracle_polyhedra():
            for ends, sides, n in ((P.edge_faces, P.edge_vertices, P.n_faces),
                                   (P.edge_vertices, P.edge_faces, P.n_vertices)):
                want = cycle_walk(ends, sides, n)
                perm = rng.permutation(P.n_edges)
                turn = rng.rand(P.n_edges) < 0.5
                ends2, sides2 = ends[perm], sides[perm]
                ends2[turn], sides2[turn] = ends2[turn, ::-1], sides2[turn, ::-1]
                got = cycle_walk(ends2, sides2, n)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(perm[got[1]], want[1])
                assert np.array_equal(got[2], want[2])

    def test_broken_tables_raise(self):
        P = hexahedron(0.5)
        twisted = P.edge_vertices.copy()
        twisted[3] = twisted[3, ::-1]
        for ends, sides in ((P.edge_faces[1:], P.edge_vertices[1:]),
                            (P.edge_faces, twisted)):
            with pytest.raises(InvalidPolyhedron,
                               match="^the edges at end 0 do not close into "
                                     "one cycle$"):
                cycle_walk(ends, sides, P.n_faces)


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
            assert np.array_equal(out.metric.surface.triangles,
                                  ref.metric.surface.triangles)
            assert np.array_equal(out.metric.surface.mate, ref.metric.surface.mate)
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
        assert np.array_equal(m2.surface.triangles, m1.surface.triangles)
        assert np.array_equal(m2.surface.mate, m1.surface.mate)
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


class TestLift:
    def test_lifts_within_the_radius_land_on_the_hyperboloid(self):
        # `_lift_klein` checks the quadric only beyond LIFT_RADIUS
        rng = np.random.RandomState(0)
        directions = rng.randn(20000, 3)
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        for r in (0.5, 0.9, 0.99, LIFT_RADIUS * (1 - 1e-15)):
            x = _lift_klein(r * directions)
            residual = np.abs(minkowski_rows(x, x) + 1.0)
            assert residual.max() <= NORM_TOL / 10

    def test_beyond_the_radius_a_lift_that_misses_raises(self):
        # at Klein radius 0.9999995 the lift's roundoff reaches NORM_TOL
        rng = np.random.RandomState(1)
        directions = rng.randn(2000, 3)
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        with pytest.raises(UnboundedPolyhedron, match="does not lift onto H"):
            _lift_klein(0.9999995 * directions)


class TestPolygonArea:
    def test_matches_the_tangent_corners_where_they_are_accurate(self):
        # the half-angle corners against the unit-tangent ones they replaced
        for P in (regular_tetrahedron(1.15), hexahedron(0.5),
                  triangular_bipyramid(),
                  random_polyhedron(np.random.RandomState(17), 8)):
            for f in range(P.n_faces):
                x = P.vertex_rows[P.cycle(f)]
                want = (len(x) - 2) * np.pi - sum(
                    corner_angle(x[k], x[k - 1], x[(k + 1) % len(x)])
                    for k in range(len(x)))
                assert face_area(P, f) == pytest.approx(want, abs=1e-12)
