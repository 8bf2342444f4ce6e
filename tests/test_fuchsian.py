import numpy as np
import pytest

from polydual.errors import InvalidPolyhedron, OrbitBoundTooSmall
from polydual.fuchsian import (
    TRANSLATION_LENGTH,
    fuchsian_dualize,
    fuchsian_octagon_group,
)
from polydual.geodesic import closed_geodesic_search
from polydual.minkowski import HPoint, h_distance
from polydual.surface import gauss_bonnet_residual, is_concave


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
        for out in outputs.values():
            spread = np.max(out.apex_side_lengths) - np.min(out.apex_side_lengths)
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
