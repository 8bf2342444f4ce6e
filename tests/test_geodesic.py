import numpy as np
import pytest

from polydual.errors import InvalidConeMetric
from polydual.geodesic import closed_geodesic_search
from polydual.surface import (
    HYPERBOLIC,
    SPHERICAL,
    CombSurface,
    ConeMetric,
    octahedron_sphere,
    scale,
)


def k4_metric(length):
    surf = CombSurface(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
    return ConeMetric(surf, SPHERICAL, np.full(surf.n_edges, length))


class TestSearch:
    def test_round_sphere_finds_two_pi(self):
        rep = closed_geodesic_search(octahedron_sphere(), depth=8)
        assert rep.min_length == pytest.approx(2 * np.pi, abs=1e-6)
        assert rep.found_within_cap

    def test_shrunken_sphere_short_geodesic(self):
        m = scale(octahedron_sphere(), -0.3)
        rep = closed_geodesic_search(m, depth=8)
        assert rep.min_length is not None
        assert rep.min_length < 2 * np.pi
        # closed form: six midlines of the equilateral triangles
        s = m.lengths[0]
        ang = np.arccos(np.cos(s) / (1 + np.cos(s)))
        mid = np.arccos(np.cos(s / 2) ** 2 + np.sin(s / 2) ** 2 * np.cos(ang))
        assert rep.min_length == pytest.approx(6 * mid, abs=1e-9)

    def test_concave_metric_nothing_short(self):
        rep = closed_geodesic_search(k4_metric(2.0), depth=8)
        assert not rep.found_within_cap
        if rep.min_length is not None:
            assert rep.min_length > 2 * np.pi

    def test_depth_exhaustion_reported(self):
        rep = closed_geodesic_search(k4_metric(2.0), depth=2)
        assert rep.min_length is None or rep.min_length > 2 * np.pi

    def test_rejects_hyperbolic(self):
        surf = CombSurface(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
        m = ConeMetric(surf, HYPERBOLIC, np.full(6, 1.2))
        with pytest.raises(InvalidConeMetric):
            closed_geodesic_search(m)

    def test_search_invariant_under_flip(self):
        from polydual.surface import flip_edge

        m = scale(octahedron_sphere(), -0.1)
        rep = closed_geodesic_search(m, depth=6)
        flipped, _ = flip_edge(m, 0)
        rep2 = closed_geodesic_search(flipped, depth=6)
        assert rep.min_length == pytest.approx(rep2.min_length, abs=1e-8)
