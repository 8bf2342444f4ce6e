import numpy as np
import pytest

from polydual.errors import InvalidConeMetric
from polydual.fuchsian import fuchsian_dualize, fuchsian_octagon_group
from polydual.geodesic import (
    _closed_walks,
    _crossings,
    _develop,
    _strip_holonomy,
    closed_geodesic_search,
)
from polydual.polyhedra import (
    dualize,
    hexahedron,
    regular_tetrahedron,
    triangular_bipyramid,
)
from polydual.surface import (
    HYPERBOLIC,
    SPHERICAL,
    CombSurface,
    ConeMetric,
    base_pair,
    develop_third_point,
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


def developed_strip(m, walk):
    """Test oracle: develop the strip triangle by triangle from its first one,
    each neighbour placed from the two corners it shares with the last;
    returns (holonomy, crossed developed edges, deck word product or None)."""
    surf = m.surface
    t0 = walk[0] // 3
    l01, l12, l20 = (m.lengths[surf.edge_of(t0, k)] for k in range(3))
    A, B = base_pair(l01)
    X = [A, B, develop_third_point(A, B, l20, l12, +1.0)]
    X0 = np.stack(X, axis=1)
    edges = []
    word = np.eye(4) if m.deck_words is not None else None
    for i in range(len(walk)):
        exit_he = surf.mate(walk[(i + 1) % len(walk)])
        ke = exit_he % 3
        t2, k2 = divmod(surf.mate(exit_he), 3)
        u, w = X[ke], X[(ke + 1) % 3]
        edges.append((u, w))
        if word is not None:
            word = word @ m.edge_word(exit_he)
        side = -np.sign(np.linalg.det(np.stack([u, w, X[(ke + 2) % 3]])))
        C = develop_third_point(u, w, m.lengths[surf.edge_of(t2, (k2 + 1) % 3)],
                                m.lengths[surf.edge_of(t2, (k2 + 2) % 3)], side)
        X = [None] * 3
        X[k2], X[(k2 + 1) % 3], X[(k2 + 2) % 3] = w, u, C
    return np.stack(X, axis=1) @ np.linalg.inv(X0), edges, word


ORACLE_METRICS = {
    "tetrahedron": lambda: dualize(regular_tetrahedron(1.15)).metric,
    "hexahedron": lambda: dualize(hexahedron(0.5)).metric,
    "bipyramid": lambda: dualize(triangular_bipyramid()).metric,
    "genus2-h1": lambda: fuchsian_dualize(fuchsian_octagon_group(), 1.0).metric,
}


@pytest.mark.parametrize("name", sorted(ORACLE_METRICS))
def test_composed_holonomy_matches_developed_strip(name):
    m = ORACLE_METRICS[name]()
    corners = [_develop(m, t) for t in range(m.surface.n_triangles)]
    crossings = _crossings(m, corners)
    walks = list(_closed_walks(m, 6))
    assert walks
    for walk in walks:
        H, edges, word = _strip_holonomy(m, walk, corners, crossings)
        H_ref, edges_ref, word_ref = developed_strip(m, walk)
        np.testing.assert_allclose(H, H_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.array(edges), np.array(edges_ref),
                                   rtol=0, atol=1e-12)
        if word_ref is None:
            assert word is None
        else:
            np.testing.assert_array_equal(word, word_ref)
