import warnings

import numpy as np
import pytest

from polydual.errors import (
    DomainExceeded,
    FlipBlocked,
    InvalidConeMetric,
    InvalidSurface,
    LengthOverflow,
)
from polydual.fuchsian import fuchsian_dualize, fuchsian_octagon_group
from polydual.polyhedra import cycle_walk, dualize
from polydual.serialize import decode_cone_metric, encode_cone_metric
from polydual.surface import (
    HYPERBOLIC,
    SPHERICAL,
    CombSurface,
    ConeMetric,
    fan_triangulations,
    flip_edge,
    gauss_bonnet_residual,
    is_concave,
    octahedron_sphere,
    scale,
)

from bench_solids import fibonacci_solids
from oracles import (
    DictCombSurface,
    cone_angles_by_corner,
    fan_triangulation,
    reference_corner_angles,
    triangle_angles,
    vertex_stars,
)


def double_triangle(a, b, c, geometry):
    """Double of a triangle across its boundary: two faces, three edges."""
    surf = CombSurface(3, [(0, 1, 2), (0, 2, 1)])
    lengths = np.empty(3)
    for e in range(3):
        u, w = surf.edge_pairs[e].tolist()
        lengths[e] = {frozenset((1, 2)): a, frozenset((0, 2)): b,
                      frozenset((0, 1)): c}[frozenset((u, w))]
    return ConeMetric(surf, geometry, lengths)


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
    for e, (u, w) in enumerate(surf.edge_pairs.tolist()):
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
        ends = np.stack([s.triangles.ravel(), s.triangles[:, [1, 2, 0]].ravel()], 1)
        assert np.array_equal(s.mate[s.mate], np.arange(3 * s.n_triangles))
        assert np.array_equal(ends[s.mate], ends[:, ::-1])

    @pytest.mark.parametrize(
        "surface", [octahedron_sphere().surface, k4_metric(1.0).surface]
        + [dualize(P).metric.surface for P in fibonacci_solids((8, 20))],
        ids=["octahedron", "k4", "dual-8", "dual-20"])
    def test_vertex_stars_rotate_through_shared_edges(self, surface):
        # each edge joins its smaller half-edge's ends and separates the
        # triangles of its two half-edges
        order, via, count = cycle_walk(surface.edge_pairs,
                                       surface.edge_halfedges // 3,
                                       surface.n_vertices)
        stars = np.split(order, np.cumsum(count)[:-1])
        assert [star.tolist() for star in stars] == vertex_stars(surface)
        # consecutive triangles meet across the edge the walk names
        after = np.concatenate([np.roll(star, -1) for star in stars])
        assert np.array_equal(np.sort(surface.edge_halfedges[via] // 3, axis=1),
                              np.sort(np.stack([order, after], axis=1), axis=1))

    def test_chart_arrays_are_read_only_and_flag_parallel_edges(self):
        s = octahedron_sphere().surface
        tail = s.triangles.ravel()[s.edge_halfedges[:, 0]]
        assert np.array_equal(s.edge_pairs[:, 0], tail)
        assert not s.edge_pairs.flags.writeable
        assert not s.triangles.flags.writeable
        assert not s.has_parallel_edges
        assert quad_double(1.0, 1.2)[0].surface.has_parallel_edges

    def test_per_triangle_arrays_are_c_ordered(self):
        # `check` prints a Gauss-Bonnet residual that is roundoff of sums
        # over these arrays, whose order follows their memory layout
        metrics = [dualize(P).metric for P in fibonacci_solids((8, 20))]
        metrics += [fuchsian_dualize(fuchsian_octagon_group(), h).metric
                    for h in (0.5, 2.0)]
        metrics += [decode_cone_metric(encode_cone_metric(m)) for m in metrics]
        flipped = []
        for m in metrics:
            for e in range(m.surface.n_edges):
                try:
                    flipped.append(flip_edge(m, e)[0])
                    break
                except FlipBlocked:
                    continue
        assert len(flipped) == len(metrics) == 8
        for m in metrics + flipped:
            for a in (m.surface.triangles, m.surface.triangle_sides, m.corner_angles):
                assert a.flags.c_contiguous

    def test_triangle_vertex_mask_marks_corners(self):
        s = k4_metric(1.0).surface
        mask = s.triangle_vertex_mask
        assert mask.tolist() == [[v in tri for v in range(s.n_vertices)]
                                 for tri in s.triangles.tolist()]
        assert not mask.flags.writeable
        assert s.triangle_vertex_mask is mask

    def test_rejects_bad_orientation(self):
        # two triangles glued without reversing: both listed (0,1,2)
        with pytest.raises(InvalidSurface):
            CombSurface(3, [(0, 1, 2), (0, 1, 2)])

    def test_rejects_unused_vertex(self):
        with pytest.raises(InvalidSurface):
            CombSurface(4, [(0, 1, 2), (0, 2, 1)])


def mesh_fixtures():
    """(name, n_vertices, triangles, mate) of every test surface: the
    canned ones, the fixtures' and the bench solids' duals at 8-100 faces,
    and the genus-2 dual."""
    from polydual.fuchsian import fuchsian_dualize, fuchsian_octagon_group
    from polydual.polyhedra import (
        dualize,
        hexahedron,
        regular_tetrahedron,
        triangular_bipyramid,
    )

    surfaces = {"octahedron": octahedron_sphere().surface,
                "k4": k4_metric(1.0).surface,
                "quad-double": quad_double(1.0, 1.2)[0].surface,
                "triangle-double": double_triangle(1, 1, 1, SPHERICAL).surface,
                "genus2": fuchsian_dualize(fuchsian_octagon_group(), 1.0).metric.surface}
    polys = {"tetrahedron": regular_tetrahedron(1.15), "hexahedron": hexahedron(0.5),
             "bipyramid": triangular_bipyramid()}
    sizes = (8, 10, 12, 14, 16, 18, 20, 30, 40, 50, 100)
    polys.update(zip((f"solid-{n}" for n in sizes), fibonacci_solids(sizes)))
    surfaces.update((k, dualize(P).metric.surface) for k, P in polys.items())
    return [(k, s.n_vertices, s.triangles.tolist(), s.mate.tolist())
            for k, s in surfaces.items()]


MESH_FIXTURES = mesh_fixtures()


def mesh_outcome(make):
    """The arrays of the mesh make() builds, in the oracle's terms, or the
    message of the InvalidSurface it raises."""
    try:
        s = make()
    except InvalidSurface as exc:
        return str(exc)
    if isinstance(s, DictCombSurface):
        return (s.triangles, [s.gluing[h] for h in range(3 * len(s.triangles))],
                s.edge_halfedges, [s.halfedge_edge[h] for h in sorted(s.halfedge_edge)],
                s.edge_pairs().tolist(), s.triangle_sides().tolist(),
                s.has_parallel_edges())
    return (list(map(tuple, s.triangles.tolist())), s.mate.tolist(),
            list(map(tuple, s.edge_halfedges.tolist())), s.halfedge_edge.tolist(),
            s.edge_pairs.tolist(), s.triangle_sides.tolist(), s.has_parallel_edges)


def corrupted_gluings(mate, rng):
    """Gluings, in dict form, that each break one rule: an unglued
    half-edge, a fixed point, a broken involution, and a gluing that keeps
    the orientation, once in index order and once in shuffled item order."""
    n_he = len(mate)
    h, g = rng.choice(n_he, 2, replace=False)
    base = dict(enumerate(mate))
    dropped = dict(base)
    del dropped[h]
    fixed = {**base, h: h}
    broken = {**base, h: g}
    # glue h to g, and their mates to each other: an involution, but one
    # that pairs half-edges running the same way wherever they do
    swapped = {**base, h: g, g: h, mate[h]: mate[g], mate[g]: mate[h]}
    shuffled = dict(sorted(swapped.items(), key=lambda item: rng.rand()))
    return [dropped, fixed, broken, swapped, shuffled]


@pytest.mark.parametrize("name, n, triangles, mate", MESH_FIXTURES,
                         ids=[f[0] for f in MESH_FIXTURES])
def test_mesh_matches_the_dict_mesh(name, n, triangles, mate):
    """Array for array, from the gluing given as a dict or as mates, and
    derived where the surface has no parallel edges; and on corrupted
    gluings and triangles, the same InvalidSurface message."""
    gluing = dict(enumerate(mate))
    want = mesh_outcome(lambda: DictCombSurface(n, triangles, gluing))
    assert isinstance(want, tuple)
    assert mesh_outcome(lambda: CombSurface(n, triangles, gluing)) == want
    assert mesh_outcome(lambda: CombSurface(n, np.array(triangles), mate)) == want
    derived = mesh_outcome(lambda: DictCombSurface(n, triangles))
    assert mesh_outcome(lambda: CombSurface(n, triangles)) == derived
    assert derived == want or derived.startswith("directed edge")
    rng = np.random.RandomState(len(triangles))
    bad_triangles = [triangles[:1] + triangles[1:-1], triangles + [triangles[0]],
                     [t[::-1] for t in triangles[:1]] + triangles[1:],
                     [(0, 1, n)] + triangles[1:], [(0, 1, 2, 3)] + triangles[1:],
                     triangles + [tuple(v + n for v in t) for t in triangles]]
    cases = [(n, triangles, g) for g in corrupted_gluings(mate, rng)]
    cases += [(n, t, None) for t in bad_triangles]
    cases += [(n + 1, triangles, gluing), (2 * n, bad_triangles[-1], None),
              (0, [], None)]
    rejected = set()
    for case in cases:
        want = mesh_outcome(lambda: DictCombSurface(*case))
        got = mesh_outcome(lambda: CombSurface(*case))
        assert got == want
        if isinstance(want, str):
            rejected.add(want.split()[0])
    assert len(rejected) >= 5


def test_mesh_rejects_a_mate_out_of_range():
    # the dict mesh raised KeyError reading the mate's own mate
    s = octahedron_sphere().surface
    for bad in (-1, 3 * s.n_triangles):
        gluing = {**dict(enumerate(s.mate.tolist())), 0: bad}
        with pytest.raises(InvalidSurface, match="fixed-point-free involution"):
            CombSurface(s.n_vertices, s.triangles, gluing)
    with pytest.raises(InvalidSurface, match="cover every half-edge"):
        CombSurface(s.n_vertices, s.triangles, np.full(3 * s.n_triangles, -1))


def test_fans_are_numbered_one_polygon_after_another():
    sizes = [3, 4, 7, 5, 12, 3]
    owner, corners, sides, diagonals, diagonal_owner = fan_triangulations(sizes)
    base = 0
    for p, m in enumerate(sizes):
        fan, want_sides, want_diagonals = fan_triangulation(m, base)
        assert list(map(tuple, corners[owner == p].tolist())) == fan
        assert sides[p, :m].tolist() == want_sides
        assert np.all(sides[p, m:] == -1)
        assert (list(map(tuple, diagonals[diagonal_owner == p].tolist()))
                == want_diagonals)
        base += m - 2


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
        assert set(back.surface.edge_pairs[e_back].tolist()) == {0, 1}
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

    @pytest.mark.parametrize("geometry", [SPHERICAL, HYPERBOLIC])
    def test_sides_too_short_for_their_angles_are_degenerate(self, geometry):
        # the sines' product underflows and the cosines round to 1, so the
        # law of cosines gives 0 / 0: no NaN angle is kept, and nothing warns
        surf = CombSurface(3, [(0, 1, 2), (0, 2, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConeMetric, match="degenerate triangle"):
                ConeMetric(surf, geometry, [1e-200, 1e-200, 1e-200])

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
