import numpy as np
import pytest

from polydual.errors import EmptyInterior, UnboundedPolyhedron
from polydual.geodesic import closed_geodesic_search
from polydual.minkowski import DSPoint, Isometry, ds_distance, minkowski_inner
from polydual.polyhedra import (
    EUCLIDEAN_TETRA_ANGLE,
    SphericalPolygon,
    dihedral_angle,
    dualize,
    face_area,
    hexahedron,
    hull_from_dual_points,
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
