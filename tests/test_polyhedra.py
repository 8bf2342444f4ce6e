import itertools

import numpy as np
import pytest

from polydual.errors import EmptyInterior, InvalidPolyhedron, UnboundedPolyhedron
from polydual.geodesic import closed_geodesic_search
from polydual.minkowski import DSPoint, Isometry, ds_distance, minkowski_inner
from polydual.polyhedra import (
    EUCLIDEAN_TETRA_ANGLE,
    MERGE_TOL,
    SphericalPolygon,
    dihedral_angle,
    dualize,
    face_area,
    hexahedron,
    _validate_lattice,
    hull_from_dual_points,
    order_face_cycles,
    polar_dual_polygon,
    random_polyhedron,
    regular_tetrahedron,
    regular_tetrahedron_data,
    triangular_bipyramid,
    vertex_link,
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


def oracle_polyhedra():
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                    "bench"))
    try:
        from solids import fibonacci_solid
    finally:
        sys.path.pop(0)
    polys = [regular_tetrahedron(1.15), hexahedron(0.5), triangular_bipyramid()]
    polys += [random_polyhedron(np.random.RandomState(s), n)
              for s, n in ((2, 7), (3, 9), (4, 12))]
    polys += [fibonacci_solid(np.random.RandomState([1, 0, n]), n, 0.02).poly
              for n in (30, 50)]
    return polys


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

    def test_duality_identity(self):
        P = random_polyhedron(np.random.RandomState(5), 6)
        for e, edge in enumerate(P.edges):
            f1, f2 = edge.faces
            s = ds_distance(P.planes[f1], P.planes[f2])
            assert s + dihedral_angle(P, e) == pytest.approx(np.pi, abs=1e-10)


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

    def test_extrinsic_lengths_agree(self):
        P = random_polyhedron(np.random.RandomState(13), 7)
        out = dualize(P)
        m = out.metric
        for e in range(m.surface.n_edges):
            u, w = m.surface.edge_endpoints(e)
            assert ds_distance(P.planes[u], P.planes[w]) == pytest.approx(
                m.lengths[e], abs=1e-9)

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
