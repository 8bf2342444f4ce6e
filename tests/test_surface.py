import numpy as np
import pytest

from polydual.errors import (
    DomainExceeded,
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
)

from oracles import cone_angles_by_corner


def triangle_angles(a, b, c, geometry):
    """The per-triangle law of cosines that `corner_angles` stacks: the
    oracle its angles must equal bit for bit."""
    from polydual.minkowski import clamped

    if geometry == SPHERICAL:
        sa, sb, sc = np.sin([a, b, c])
        ca, cb, cc = np.cos([a, b, c])
        cos_a = clamped((ca - cb * cc) / (sb * sc), -1.0, 1.0, 1e-12)
        cos_b = clamped((cb - cc * ca) / (sc * sa), -1.0, 1.0, 1e-12)
        cos_c = clamped((cc - ca * cb) / (sa * sb), -1.0, 1.0, 1e-12)
    else:
        sa, sb, sc = np.sinh([a, b, c])
        ca, cb, cc = np.cosh([a, b, c])
        cos_a = clamped((cb * cc - ca) / (sb * sc), -1.0, 1.0, 1e-12)
        cos_b = clamped((cc * ca - cb) / (sc * sa), -1.0, 1.0, 1e-12)
        cos_c = clamped((ca * cb - cc) / (sa * sb), -1.0, 1.0, 1e-12)
    return np.arccos([cos_a, cos_b, cos_c])


def reference_corner_angles(surf, geometry, lengths):
    """The per-triangle validation and angle loop `ConeMetric` stacks:
    returns the corner angles, or raises what that loop raised first."""
    if geometry == SPHERICAL and np.any(lengths >= np.pi):
        raise InvalidConeMetric("spherical edge lengths must stay below pi")
    for t in range(surf.n_triangles):
        a, b, c = surf.triangle_edge_lengths(t, lengths)
        if a + b <= c or b + c <= a or c + a <= b:
            raise InvalidConeMetric(f"triangle {t} violates the triangle inequality")
        if geometry == SPHERICAL and a + b + c >= 2 * np.pi:
            raise InvalidConeMetric(f"triangle {t} has perimeter >= 2*pi")
    return np.array([triangle_angles(*surf.triangle_edge_lengths(t, lengths),
                                     geometry)
                     for t in range(surf.n_triangles)])


def outcome(build):
    """The result of build(), or the type and message of what it raised."""
    try:
        return build()
    except (InvalidConeMetric, DomainExceeded) as exc:
        return type(exc), str(exc)


def dual_surfaces():
    from polydual.polyhedra import (
        dualize,
        hexahedron,
        random_polyhedron,
        triangular_bipyramid,
    )

    polys = [hexahedron(0.5), triangular_bipyramid()]
    polys += [random_polyhedron(np.random.RandomState(s), n)
              for s, n in ((2, 7), (3, 12), (4, 20))]
    return [dualize(P).metric for P in polys]


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

    @pytest.mark.parametrize("surface", [octahedron_sphere().surface,
                                         k4_metric(1.0).surface],
                             ids=["octahedron", "k4"])
    def test_vertex_stars_rotate_through_shared_edges(self, surface):
        stars = surface.vertex_stars()
        for v, star in enumerate(stars):
            assert sorted(star) == [t for t, tri in enumerate(surface.triangles)
                                    if v in tri]
            for t, nxt in zip(star, star[1:] + star[:1]):
                # consecutive triangles share the edge leaving v in the first
                tri = surface.triangles[t]
                w = tri[(tri.index(v) + 1) % 3]
                assert {v, w} <= set(surface.triangles[nxt])

    def test_chart_arrays_are_read_only_and_flag_parallel_edges(self):
        s = octahedron_sphere().surface
        assert s.edge_pairs.tolist() == [list(s.edge_endpoints(e))
                                         for e in range(s.n_edges)]
        assert not s.edge_pairs.flags.writeable
        assert not s.triangle_array.flags.writeable
        assert not s.has_parallel_edges
        assert quad_double(1.0, 1.2)[0].surface.has_parallel_edges

    def test_triangle_vertex_mask_marks_corners(self):
        s = k4_metric(1.0).surface
        mask = s.triangle_vertex_mask
        assert mask.tolist() == [[v in tri for v in range(s.n_vertices)]
                                 for tri in s.triangles]
        assert not mask.flags.writeable
        assert s.triangle_vertex_mask is mask

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
            assert m.cone_angles()[v] == pytest.approx(np.pi, abs=1e-12)

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
            assert m.cone_angles()[v] == pytest.approx(expect, abs=1e-12)
            assert m.cone_angles()[v] < 2 * np.pi

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
        # a spherical triangle's area is its angle excess
        def area(metric):
            return float(np.sum(metric.corner_angles.sum(axis=1) - np.pi))

        assert area(flipped) == pytest.approx(area(m), abs=1e-10)
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


class TestStackedAngles:
    def test_spherical_angles_match_each_triangle(self):
        metrics = dual_surfaces() + [octahedron_sphere(), k4_metric(1.9),
                                     scale(octahedron_sphere(), -0.3)]
        for m in metrics:
            want = reference_corner_angles(m.surface, SPHERICAL, m.lengths)
            assert np.array_equal(m.corner_angles, want)

    def test_hyperbolic_angles_match_each_triangle(self):
        # sides within a factor two of each other always make triangles
        rng = np.random.RandomState(5)
        for m in dual_surfaces():
            for low in (0.05, 1.0, 4.0):
                lengths = rng.uniform(low, 1.9 * low, m.surface.n_edges)
                got = ConeMetric(m.surface, HYPERBOLIC, lengths).corner_angles
                want = reference_corner_angles(m.surface, HYPERBOLIC, lengths)
                assert np.array_equal(got, want)

    def test_cone_angles_match_the_corner_loop(self):
        rng = np.random.RandomState(8)
        metrics = dual_surfaces() + [octahedron_sphere(), k4_metric(1.9)]
        metrics += [ConeMetric(m.surface, HYPERBOLIC,
                               rng.uniform(1.0, 1.9, m.surface.n_edges))
                    for m in dual_surfaces()]
        for m in metrics:
            assert np.array_equal(m.cone_angles(), cone_angles_by_corner(m))

    @pytest.mark.parametrize("geometry", [SPHERICAL, HYPERBOLIC])
    def test_first_failing_triangle_is_named(self, geometry):
        # a dual metric with one or two edges stretched fails the triangle
        # inequality or (spherical) the perimeter bound somewhere
        rng = np.random.RandomState(6)
        named = set()
        for m in dual_surfaces():
            for _ in range(10):
                lengths = m.lengths.copy()
                lengths[rng.randint(m.surface.n_edges, size=2)] *= 1.6
                got = outcome(lambda: ConeMetric(m.surface, geometry, lengths))
                want = outcome(lambda: reference_corner_angles(
                    m.surface, geometry, lengths))
                if isinstance(want, tuple):
                    assert got == want
                    named.add(want[1].split()[1])
        assert len(named) > 5

    @pytest.mark.parametrize("geometry", [SPHERICAL, HYPERBOLIC])
    def test_first_cosine_beyond_one_is_named(self, geometry):
        # triangles on the edge of degenerate with short sides, whose
        # cosines miss [-1, 1] by roundoff far beyond the slack
        rng = np.random.RandomState(7)
        surf = dual_surfaces()[-1].surface
        raised = 0
        for _ in range(20):
            lengths = 1e-5 * rng.uniform(1.0, 2.0, surf.n_edges)
            a, b, c = surf.triangle_sides[rng.randint(surf.n_triangles)]
            lengths[c] = np.nextafter(lengths[a] + lengths[b], 0.0)
            want = outcome(lambda: reference_corner_angles(surf, geometry,
                                                           lengths))
            got = outcome(lambda: ConeMetric(surf, geometry,
                                             lengths).corner_angles)
            if isinstance(want, tuple):
                assert got == want
                raised += want[0] is DomainExceeded
            else:
                assert np.array_equal(got, want)
        assert raised > 0
