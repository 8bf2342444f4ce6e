import numpy as np
import pytest

from polydual.errors import (
    FlipBlocked,
    InvalidConeMetric,
    InvalidSurface,
    LengthOverflow,
)
from polydual.surface import (
    HYPERBOLIC,
    SPHERICAL,
    CombSurface,
    ConeMetric,
    double_triangle,
    flip_edge,
    gauss_bonnet_residual,
    is_concave,
    octahedron_sphere,
    scale,
    triangle_angles,
)


def spherical_equilateral_angle(a):
    # law of cosines specialized to three equal sides
    return np.arccos(np.cos(a) / (1 + np.cos(a)))


def hyperbolic_equilateral_angle(a):
    return np.arccos(np.cosh(a) / (1 + np.cosh(a)))


def k4_metric(length):
    surf = CombSurface(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
    return ConeMetric(surf, SPHERICAL, np.full(surf.n_edges, length))


def quad_double(side, diag):
    """Double of a rhombus: four triangles, two diagonal copies plus four sides."""
    tris = [(0, 1, 2), (1, 0, 3), (0, 2, 1), (1, 3, 0)]
    gluing = {0: 3, 3: 0,          # front diagonal
              1: 7, 7: 1, 2: 6, 6: 2,    # sides of triangle 0 to its mirror
              4: 10, 10: 4, 5: 9, 9: 5,  # sides of triangle 1 to its mirror
              8: 11, 11: 8}        # back diagonal
    surf = CombSurface(4, tris, gluing)
    lengths = np.empty(surf.n_edges)
    for e, (a, _) in enumerate(surf.edge_halfedges):
        u, w = surf.edge_endpoints(e)
        lengths[e] = diag if {u, w} == {0, 1} else side
    diag_edge = surf.halfedge_edge[0]
    return ConeMetric(surf, SPHERICAL, lengths), diag_edge


class TestCombSurface:
    def test_octahedron_counts(self):
        m = octahedron_sphere()
        s = m.surface
        assert (s.n_vertices, s.n_edges, s.n_triangles) == (6, 12, 8)
        assert s.euler_characteristic == 2
        assert s.genus == 0

    def test_gluing_is_involution_reversed(self):
        s = octahedron_sphere().surface
        for h, mate in s.gluing.items():
            assert s.gluing[mate] == h
            assert s.halfedge_endpoints(h) == s.halfedge_endpoints(mate)[::-1]

    def test_rejects_bad_orientation(self):
        # two triangles glued without reversing: both listed (0,1,2)
        with pytest.raises(InvalidSurface):
            CombSurface(3, [(0, 1, 2), (0, 1, 2)])

    def test_rejects_unused_vertex(self):
        with pytest.raises(InvalidSurface):
            CombSurface(4, [(0, 1, 2), (0, 2, 1)])


class TestConeAngle:
    def test_double_right_equilateral(self):
        # equilateral spherical triangle with side pi/2 has all angles pi/2,
        # so the double has cone angle pi at each vertex
        m = double_triangle(np.pi / 2, np.pi / 2, np.pi / 2, SPHERICAL)
        for v in range(3):
            assert m.cone_angle(v) == pytest.approx(np.pi, abs=1e-12)

    def test_double_generic_spherical(self):
        a, b, c = 0.9, 1.1, 1.3
        m = double_triangle(a, b, c, SPHERICAL)
        angles = triangle_angles(a, b, c, SPHERICAL)
        got = sorted(m.cone_angles())
        assert got == pytest.approx(sorted(2 * angles), abs=1e-12)

    def test_hyperbolic_double_convex(self):
        m = double_triangle(1.0, 1.0, 1.0, HYPERBOLIC)
        expect = 2 * hyperbolic_equilateral_angle(1.0)
        for v in range(3):
            assert m.cone_angle(v) == pytest.approx(expect, abs=1e-12)
            assert m.cone_angle(v) < 2 * np.pi

    def test_octahedron_flat(self):
        m = octahedron_sphere()
        assert np.allclose(m.cone_angles(), 2 * np.pi, atol=1e-12)


class TestConcavity:
    def test_convex_double_is_not_concave(self):
        m = double_triangle(0.3, 0.3, 0.3, SPHERICAL)
        rep = is_concave(m)
        assert not rep.concave
        assert rep.min_margin < 0

    def test_flat_vertex_margin_zero(self):
        rep = is_concave(octahedron_sphere())
        assert not rep.concave
        assert rep.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_concave_example(self):
        # boundary-of-tetrahedron combinatorics with long equal edges: every
        # vertex collects three angles above 2*pi/3
        m = k4_metric(2.0)
        rep = is_concave(m)
        assert rep.concave
        assert rep.min_margin == pytest.approx(
            3 * spherical_equilateral_angle(2.0) - 2 * np.pi, abs=1e-12)


class TestGaussBonnet:
    def test_round_sphere(self):
        assert abs(gauss_bonnet_residual(octahedron_sphere())) < 1e-12

    def test_spherical_doubles(self):
        for sides in [(0.4, 0.5, 0.6), (2.0, 2.2, 1.1), (np.pi / 2,) * 3]:
            m = double_triangle(*sides, SPHERICAL)
            assert abs(gauss_bonnet_residual(m)) < 1e-9

    def test_hyperbolic_double(self):
        m = double_triangle(1.5, 1.7, 2.0, HYPERBOLIC)
        assert abs(gauss_bonnet_residual(m)) < 1e-9


class TestScale:
    def test_identity(self):
        m = octahedron_sphere()
        m2 = scale(m, 0.0)
        assert np.array_equal(m2.lengths, m.lengths)

    def test_composition_exact(self):
        m = double_triangle(0.4, 0.5, 0.6, SPHERICAL)
        a, b = 0.21, -0.13
        m_ab = scale(scale(m, a), b)
        m_sum = scale(m, a + b)
        assert np.allclose(m_ab.lengths, m_sum.lengths, rtol=1e-15, atol=0)

    def test_concavity_preserved_and_margin_grows(self):
        m = k4_metric(2.0)
        m2 = scale(m, 0.01)
        rep, rep2 = is_concave(m), is_concave(m2)
        assert rep2.concave
        assert rep2.min_margin > rep.min_margin

    def test_overflow(self):
        m = octahedron_sphere()
        with pytest.raises(LengthOverflow):
            scale(m, 0.8)  # exp(0.8)*pi/2 > pi

    def test_distortion_of_scaling(self):
        m = double_triangle(0.4, 0.5, 0.6, SPHERICAL)
        distortion = np.max(np.abs(np.log(scale(m, 0.07).lengths / m.lengths)))
        assert distortion == pytest.approx(0.07, abs=1e-14)


class TestFlip:
    def test_symmetric_rhombus_closed_form(self):
        side, diag = 1.0, 0.8
        m, e = quad_double(side, diag)
        flipped, e_new = flip_edge(m, e)
        # spherical Pythagoras on the quarter triangles:
        # cos(side) = cos(d1/2) cos(d2/2)
        expect = 2 * np.arccos(np.cos(side) / np.cos(diag / 2))
        assert flipped.lengths[e_new] == pytest.approx(expect, abs=1e-12)

    def test_involution(self):
        m, e = quad_double(1.1, 0.9)
        flipped, e_new = flip_edge(m, e)
        back, e_back = flip_edge(flipped, e_new)
        assert set(back.surface.edge_endpoints(e_back)) == {0, 1}
        assert sorted(np.round(back.lengths, 10)) == pytest.approx(
            sorted(np.round(m.lengths, 10)), abs=1e-10)
        assert np.allclose(sorted(back.cone_angles()), sorted(m.cone_angles()),
                           atol=1e-10)

    def test_area_and_cone_angles_preserved(self):
        m, e = quad_double(1.3, 1.0)
        flipped, _ = flip_edge(m, e)
        assert flipped.total_area() == pytest.approx(m.total_area(), abs=1e-10)
        assert np.allclose(flipped.cone_angles(), m.cone_angles(), atol=1e-9)
        assert abs(gauss_bonnet_residual(flipped)) < 1e-9

    def test_blocked_on_degenerate_quad(self):
        # right equilateral triangles develop to a quad with straight angles
        # at the shared edge, so the opposite diagonal is not realizable
        m = octahedron_sphere()
        with pytest.raises(FlipBlocked):
            flip_edge(m, 0)

    def test_rejects_hyperbolic(self):
        m = double_triangle(1.0, 1.0, 1.0, HYPERBOLIC)
        with pytest.raises(InvalidConeMetric):
            flip_edge(m, 0)

    def test_flip_shrunken_octahedron_edge(self):
        m = scale(octahedron_sphere(), -0.1)
        flipped, e_new = flip_edge(m, 0)
        assert flipped.surface.n_edges == 12
        assert abs(gauss_bonnet_residual(flipped)) < 1e-9
        assert np.allclose(flipped.cone_angles(), m.cone_angles(), atol=1e-9)
        back, _ = flip_edge(flipped, e_new)
        assert sorted(np.round(back.lengths, 10)) == pytest.approx(
            sorted(np.round(m.lengths, 10)), abs=1e-10)


class TestValidation:
    def test_triangle_inequality_enforced(self):
        surf = CombSurface(3, [(0, 1, 2), (0, 2, 1)])
        with pytest.raises(InvalidConeMetric):
            ConeMetric(surf, SPHERICAL, [0.1, 0.1, 0.5])

    def test_spherical_perimeter_enforced(self):
        surf = CombSurface(3, [(0, 1, 2), (0, 2, 1)])
        with pytest.raises(InvalidConeMetric):
            ConeMetric(surf, SPHERICAL, [2.2, 2.2, 2.2])

    def test_length_cap(self):
        surf = CombSurface(3, [(0, 1, 2), (0, 2, 1)])
        with pytest.raises(InvalidConeMetric):
            ConeMetric(surf, SPHERICAL, [3.2, 1.0, 1.0])

    def test_chart_dimension_genus0(self):
        s = octahedron_sphere().surface
        assert s.n_edges == 3 * s.n_vertices - 6
