import numpy as np
import pytest

from polydual import fuchsian
from polydual.errors import InvalidPolyhedron, OrbitBoundTooSmall
from polydual.fuchsian import (
    TRANSLATION_LENGTH,
    fuchsian_dualize,
    fuchsian_octagon_group,
)
from polydual.geodesic import closed_geodesic_search
from polydual.minkowski import HPoint, J, clamped, corner_angle, h_distance
from polydual.surface import (
    fan_triangulation,
    gauss_bonnet_residual,
    is_concave,
    sphere_angle,
)

from test_polyhedra import SphericalPolygon


@pytest.fixture(scope="module")
def group():
    return fuchsian_octagon_group()


class TestGroup:
    def test_relation_residual(self, group):
        assert group.relation_residual() < 1e-8
        assert len(group.relation) == 8

    def test_generators_preserve_plane(self, group):
        plane = group.invariant_plane
        for g in group.generators:
            assert np.max(np.abs(g.m @ plane.v - plane.v)) < 1e-12

    def test_translation_lengths_equal(self, group):
        # a translation by L without rotation has trace 2 + 2 cosh L, and
        # moves the octagon centre, which lies on its axis, by exactly L
        center = HPoint(np.array([1.0, 0.0, 0.0, 0.0]))
        for g in group.generators:
            assert np.trace(g.m) == pytest.approx(
                2.0 + 2.0 * np.cosh(TRANSLATION_LENGTH), abs=1e-9)
            assert h_distance(center, g.apply(center)) == pytest.approx(
                TRANSLATION_LENGTH, abs=1e-9)

    def test_inverse_pairing(self, group):
        for k in range(4):
            prod = group.generators[k].m @ group.generators[k + 4].m
            assert np.max(np.abs(prod - np.eye(4))) < 1e-12


@pytest.fixture(scope="module")
def outputs(group):
    return {h: fuchsian_dualize(group, h) for h in (0.5, 1.0, 2.0)}


class TestFuchsianDual:
    def test_genus_two_chart_dimension(self, outputs):
        for out in outputs.values():
            s = out.metric.surface
            assert s.euler_characteristic == -2
            assert s.n_edges == 3 * (s.n_vertices + 2)

    def test_gauss_bonnet(self, outputs):
        for out in outputs.values():
            assert abs(gauss_bonnet_residual(out.metric)) < 1e-8

    def test_concave(self, outputs):
        for out in outputs.values():
            rep = is_concave(out.metric)
            assert rep.concave and rep.min_margin > 0

    def test_cone_angle_is_face_area_plus_two_pi(self, outputs):
        for out in outputs.values():
            ca = out.metric.cone_angles()
            for c, area in enumerate(out.face_areas):
                assert ca[c] == pytest.approx(2 * np.pi + area, abs=1e-9)

    def test_core_distance_positive_monotone(self, outputs):
        d = [outputs[h].core_distance for h in (0.5, 1.0, 2.0)]
        assert all(x > 0 for x in d)
        assert d[0] < d[1] < d[2]

    def test_link_regular_by_symmetry(self, outputs):
        # the side edges carry the deck words; the octagonal link gives four
        for out in outputs.values():
            m = out.metric
            sides = [e for e in range(m.surface.n_edges)
                     if np.max(np.abs(m.deck_words[e] - np.eye(4))) > 0.5]
            assert len(sides) == 4
            spread = np.ptp(m.lengths[sides])
            assert spread < 1e-6

    def test_stable_link_accepts_small_bound(self, group):
        # the symmetric apex orbit has an octagonal link already visible at
        # word bound 1, so the stabilization check passes there
        small = fuchsian_dualize(group, 1.0, word_bound=1)
        auto = fuchsian_dualize(group, 1.0)
        assert np.allclose(sorted(small.metric.lengths),
                           sorted(auto.metric.lengths), atol=1e-12)

    def test_word_bound_too_small(self, group, monkeypatch):
        import polydual.fuchsian as fu

        calls = {"n": 0}
        orig = fu._star_signature

        def flaky(star, points, mats):
            calls["n"] += 1
            return orig(star, points, mats) + [("changed", calls["n"])]

        monkeypatch.setattr(fu, "_star_signature", flaky)
        with pytest.raises(OrbitBoundTooSmall):
            fuchsian_dualize(group, 1.0, word_bound=2)

    def test_rejects_nonpositive_height(self, group):
        with pytest.raises(InvalidPolyhedron):
            fuchsian_dualize(group, 0.0)

    def test_largeness_filtered_by_contractibility(self, group):
        out = fuchsian_dualize(group, 1.0)
        rep = closed_geodesic_search(out.metric, depth=6)
        assert not rep.found_within_cap
        if rep.min_length is not None:
            assert rep.min_length > 2 * np.pi
        # without the class filter the surface has short geodesics, so the
        # filter is doing real work
        rep_all = closed_geodesic_search(out.metric, depth=6,
                                         contractible_only=False)
        assert rep_all.min_length is not None
        assert rep_all.min_length < 2 * np.pi


def reference_lengths(data, h, out):
    """Edge lengths of out's surface from the developed polar dual of the
    apex link, as fuchsian_dualize computed them before the closed form:
    sides pi minus the apex dihedral angles, diagonals read off the
    development."""
    _, points = fuchsian._orbit(data, h, out.word_bound)
    star = fuchsian._apex_star(data, points)
    normals = [star.faces[idx]["normal"] for idx in star.order]
    m = len(normals)
    face_angles, dihedrals = [], []
    for i, idx in enumerate(star.order):
        cyc = star.faces[idx]["cycle"]
        i0 = cyc.index(0)
        face_angles.append(corner_angle(points[0], points[cyc[i0 - 1]],
                                        points[cyc[(i0 + 1) % len(cyc)]]))
        x = clamped(float(normals[i] @ J @ normals[(i + 1) % m]), -1.0, 1.0, 1e-9)
        dihedrals.append(np.pi - float(np.arccos(x)))
    corners, resid = SphericalPolygon(sides=np.pi - np.array(dihedrals),
                                      angles=np.pi - np.array(face_angles)).develop()
    assert resid < 1e-8
    _, sides, diagonals = fan_triangulation(m)
    side_of = {he: j for j, he in enumerate(sides)}
    diagonal_to = {he_a: j for j, (he_a, _) in enumerate(diagonals, start=2)}
    return np.array([np.pi - dihedrals[side_of[ha]] if ha in side_of
                     else sphere_angle(corners[0], corners[diagonal_to[ha]])
                     for ha, _ in out.metric.surface.edge_halfedges])


# The development's own roundoff grows with the height: at h = 3 its longest
# diagonal (2.94) is 1.2e-13 off a 50-digit arccos of the same normals, which
# the closed form meets within 3e-15.
@pytest.mark.parametrize("h, tol", [(0.5, 1e-13), (1.0, 1e-13), (2.0, 1e-13),
                                    (3.0, 2e-13)])
def test_lengths_match_the_link_development(group, h, tol):
    out = fuchsian_dualize(group, h)
    np.testing.assert_allclose(out.metric.lengths,
                               reference_lengths(group, h, out),
                               rtol=0, atol=tol)
