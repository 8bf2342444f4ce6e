import numpy as np
import pytest

from polydual.errors import InvalidConeMetric
from polydual.fuchsian import fuchsian_dualize, fuchsian_octagon_group
from polydual.geodesic import (
    CHORD_TOL,
    CROSSING_TOL,
    IDENTITY_TOL,
    LENGTH_CAP,
    MAX_STEP,
    ON_SEGMENT_TOL,
    ClosedGeodesic,
    SearchReport,
    _circle_lengths,
    _closed_geodesics,
    _closed_walks,
    _crossing_points,
    _crossings,
    _develop,
    _mates,
    _strip_holonomy,
    closed_geodesic_search,
)
from polydual.polyhedra import (
    dualize,
    hexahedron,
    random_polyhedron,
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
    he_index,
    octahedron_sphere,
    scale,
    sphere_angle,
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


# -- reference search: one walk at a time, depth-first -------------------------


def reference_walks(m, depth):
    """Closed walks in the strip graph, canonical up to rotation, found by a
    depth-first search from each root half-edge."""
    surf = m.surface
    for h0 in range(3 * surf.n_triangles):
        stack = [(h0, (h0,))]
        while stack:
            h, walk = stack.pop()
            t, k = divmod(h, 3)
            for off in (1, 2):
                nxt = surf.mate(he_index(t, (k + off) % 3))
                if nxt == h0:
                    yield walk
                    continue
                if len(walk) < depth and nxt >= h0:
                    stack.append((nxt, walk + (nxt,)))


def reference_holonomy(m, walk, corners, rotations, words):
    """Compose one strip once around in the chart of its first triangle."""
    surf = m.surface
    M = np.eye(3)
    edges = []
    word = np.eye(4) if words is not None else None
    for i in range(len(walk)):
        exit_he = surf.mate(walk[(i + 1) % len(walk)])
        assert exit_he // 3 == walk[i] // 3
        t, ke = divmod(exit_he, 3)
        X = M @ corners[t]
        edges.append((X[:, ke], X[:, (ke + 1) % 3]))
        M = M @ rotations[exit_he]
        if word is not None:
            word = word @ words[exit_he]
    u, _, vt = np.linalg.svd(M)
    return u @ vt, edges, word


def reference_strictly_inside(q, A, B) -> bool:
    da = sphere_angle(A, q)
    db = sphere_angle(q, B)
    return (abs(da + db - sphere_angle(A, B)) <= ON_SEGMENT_TOL
            and da >= CROSSING_TOL and db >= CROSSING_TOL)


def reference_circle_length(n, edges, H):
    pts = []
    for A, B in edges:
        fa, fb = float(A @ n), float(B @ n)
        if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
            return None
        q = A - (fa / (fa - fb)) * (A - B)
        nq = np.linalg.norm(q)
        if nq < CHORD_TOL:
            return None
        q = q / nq
        if not reference_strictly_inside(q, A, B):
            return None
        pts.append(q)
    pts.append(H @ pts[0])
    total = 0.0
    sign_ref = None
    for a, b in zip(pts, pts[1:]):
        sgn = float(np.dot(n, np.cross(a, b)))
        step = float(np.arctan2(abs(sgn), np.dot(a, b)))
        if step < CROSSING_TOL or step > MAX_STEP:
            return None
        if sign_ref is None:
            sign_ref = np.sign(sgn)
            if sign_ref == 0:
                return None
        elif np.sign(sgn) != sign_ref:
            return None
        total += step
    return total


ROTATION_MATCH_TOL = 1e-6        # reference_search: holonomy vs rotation by L


def reference_rotation_about(n, angle):
    n = n / np.linalg.norm(n)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def reference_search(m, depth, contractible_only=True):
    """The search one walk at a time: depth-first enumeration, then each strip
    developed and tested on single vectors, and every circle found checked
    against the rotation by its length, which the batched search proves
    instead of testing."""
    report = SearchReport()
    corners = _develop(m)
    rotations, words = _crossings(m, corners, _mates(m))
    for walk in reference_walks(m, depth):
        report.n_cycles_checked += 1
        H, edges, word = reference_holonomy(m, walk, corners, rotations, words)
        contractible = True
        if word is not None:
            contractible = np.max(np.abs(word - np.eye(4))) < IDENTITY_TOL
        if contractible_only and not contractible:
            continue
        if np.max(np.abs(H - np.eye(3))) < IDENTITY_TOL:
            mids = np.array([(A + B) / np.linalg.norm(A + B) for A, B in edges])
            normal = np.linalg.eigh(mids.T @ mids)[1][:, 0]
            length = reference_circle_length(normal, edges, np.eye(3))
        else:
            normal = np.linalg.svd(H - np.eye(3))[2][-1]
            length = reference_circle_length(normal, edges, H)
            if length is not None:
                ok = min(np.max(np.abs(reference_rotation_about(normal, length) - H)),
                         np.max(np.abs(reference_rotation_about(-normal, length) - H)))
                if ok > ROTATION_MATCH_TOL:
                    length = None
        if length is None:
            continue
        report.geodesics.append(ClosedGeodesic(length, walk, bool(contractible)))
        if report.min_length is None or length < report.min_length:
            report.min_length = length
    report.found_within_cap = (report.min_length is not None
                               and report.min_length <= LENGTH_CAP)
    return report


ORACLE_METRICS = {
    "tetrahedron": lambda: dualize(regular_tetrahedron(1.15)).metric,
    "hexahedron": lambda: dualize(hexahedron(0.5)).metric,
    "bipyramid": lambda: dualize(triangular_bipyramid()).metric,
    "genus2-h1": lambda: fuchsian_dualize(fuchsian_octagon_group(), 1.0).metric,
}
SEARCH_METRICS = {
    **ORACLE_METRICS,
    "random-7": lambda: dualize(random_polyhedron(np.random.RandomState(8), 7)).metric,
    "round-octahedron": octahedron_sphere,
}


@pytest.mark.parametrize("name", sorted(ORACLE_METRICS))
def test_composed_holonomy_matches_developed_strip(name):
    m = ORACLE_METRICS[name]()
    corners = _develop(m)
    mate = _mates(m)
    rotations, words = _crossings(m, corners, mate)
    groups = _closed_walks(mate, 6)
    assert groups
    for walks in groups:
        H, A, B, word = _strip_holonomy(walks, mate, corners, rotations, words)
        for i, walk in enumerate(walks.tolist()):
            H_ref, edges_ref, word_ref = developed_strip(m, walk)
            np.testing.assert_allclose(H[i], H_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.stack([A[i], B[i]], axis=1),
                                       np.array(edges_ref), rtol=0, atol=1e-12)
            if word_ref is None:
                assert word is None
            else:
                np.testing.assert_array_equal(word[i], word_ref)


@pytest.mark.parametrize("name", sorted(SEARCH_METRICS))
def test_level_walks_match_depth_first_walks(name):
    """Same walk set, each walk once, grouped by length in lexicographic order."""
    m = SEARCH_METRICS[name]()
    for depth in range(1, 9):
        groups = _closed_walks(_mates(m), depth)
        walks = [tuple(w.tolist()) for g in groups for w in g]
        assert len(set(walks)) == len(walks)
        assert set(walks) == set(reference_walks(m, depth))
        assert walks == sorted(walks, key=lambda w: (len(w), w))
        assert all(g.dtype == np.int32 and len(g) for g in groups)


@pytest.mark.parametrize("contractible_only", [True, False])
@pytest.mark.parametrize("depth", range(1, 9))
@pytest.mark.parametrize("name", sorted(SEARCH_METRICS))
def test_batched_search_matches_reference(name, depth, contractible_only):
    m = SEARCH_METRICS[name]()
    rep = closed_geodesic_search(m, depth, contractible_only)
    ref = reference_search(m, depth, contractible_only)
    assert rep.n_cycles_checked == ref.n_cycles_checked
    assert ({(g.cycle, g.contractible) for g in rep.geodesics}
            == {(g.cycle, g.contractible) for g in ref.geodesics})
    assert len(rep.geodesics) == len(ref.geodesics)
    assert rep.found_within_cap == ref.found_within_cap
    if ref.min_length is None:
        assert rep.min_length is None
    else:
        assert rep.min_length == pytest.approx(ref.min_length, rel=0, abs=1e-12)
    keys = [(len(g.cycle), g.cycle) for g in rep.geodesics]
    assert keys == sorted(keys)


# -- empty and degenerate length groups ----------------------------------------


@pytest.mark.filterwarnings("error")
def test_depth_one():
    """No triangle of these surfaces is glued to itself, so no walk closes at
    depth 1; a triangle pair glued along two edges closes at depth 2."""
    for m in (octahedron_sphere(), SEARCH_METRICS["genus2-h1"]()):
        rep = closed_geodesic_search(m, depth=1)
        assert rep == SearchReport()
        assert reference_search(m, 1).n_cycles_checked == 0


@pytest.mark.filterwarnings("error")
def test_depth_with_no_closed_walk():
    """Two triangles of a tetrahedron share one edge, so no walk closes at
    depth 2; the first cycles run around a vertex, either way, at depth 3."""
    m = k4_metric(2.0)
    assert _closed_walks(_mates(m), 2) == []
    rep = closed_geodesic_search(m, depth=2)
    assert rep == SearchReport()
    assert closed_geodesic_search(m, depth=3).n_cycles_checked == 8


@pytest.mark.filterwarnings("error")
def test_group_failing_every_crossing():
    """A strip around a vertex of a tetrahedron with edges shorter than pi/2
    has its rotation axis at the vertex, whose polar circle misses every
    crossed edge: every row of the length group fails the crossing test."""
    m = k4_metric(1.0)
    corners = _develop(m)
    mate = _mates(m)
    rotations, words = _crossings(m, corners, mate)
    (walks,) = _closed_walks(mate, 3)
    H, A, B, _ = _strip_holonomy(walks, mate, corners, rotations, words)
    axes = np.linalg.svd(H - np.eye(3))[2][:, -1]
    _, crossed = _crossing_points(axes, A, B)
    assert len(walks) == 8 and not crossed.any()
    rep = closed_geodesic_search(m, depth=3)
    assert rep.n_cycles_checked == 8
    assert rep.min_length is None and rep.geodesics == []
    assert not rep.found_within_cap


def test_crossing_points_strictly_inside():
    """A circle meeting edge AB within CROSSING_TOL of either end does not
    cross it strictly inside; one meeting it midway does."""
    A = np.array([1.0, 0.0, 0.0])
    B = np.array([np.cos(0.5), np.sin(0.5), 0.0])
    theta = np.array([1e-10, 0.25, 0.5 - 1e-10])
    normals = np.stack([-np.sin(theta), np.cos(theta), 0 * theta], axis=1)
    q, ok = _crossing_points(normals, np.tile(A, (3, 1, 1)), np.tile(B, (3, 1, 1)))
    np.testing.assert_allclose(
        q[:, 0], np.stack([np.cos(theta), np.sin(theta), 0 * theta], axis=1),
        rtol=0, atol=1e-12)
    assert ok[:, 0].tolist() == [False, True, False]


def test_circle_must_advance_monotonically():
    """Edges crossing the equator at longitudes 0, 1, 2 give a closed circle
    of length 3 under the rotation by 3 about the pole; crossing them in the
    order 0, 2, 1 turns back and is rejected."""
    pole = np.array([[0.0, 0.0, 1.0]])
    H = np.array([[[np.cos(3.0), -np.sin(3.0), 0.0],
                   [np.sin(3.0), np.cos(3.0), 0.0], [0.0, 0.0, 1.0]]])
    found, length = _circle_lengths(pole, *equator_edges([0.0, 1.0, 2.0]), H)
    assert found.tolist() == [True] and length[0] == pytest.approx(3.0, abs=1e-12)
    found, _ = _circle_lengths(pole, *equator_edges([0.0, 2.0, 1.0]), H)
    assert found.tolist() == [False]


def equator_edges(longitudes):
    """Short edges across the equator at the given longitudes, (1, L, 3) each."""
    phi = np.array(longitudes)[None, :, None]
    ring = np.concatenate([np.cos(phi), np.sin(phi)], axis=-1)
    return (np.concatenate([0.99 * ring, np.full_like(phi, -0.1)], axis=-1),
            np.concatenate([0.99 * ring, np.full_like(phi, 0.1)], axis=-1))


@pytest.mark.parametrize("eta", [1e-3, 1e-6, 1e-7])
def test_near_identity_holonomy_closes_with_its_length(eta):
    """A holonomy rotating by 2 pi - eta about a generic axis, off the flat
    branch for every eta here, is accepted with length 2 pi - eta from its
    own axis alone, and agrees with the rotation by that length."""
    total = 2 * np.pi - eta
    Q, _ = np.linalg.qr(np.random.RandomState(1).randn(3, 3))
    A, B = (X @ Q.T for X in equator_edges(total * np.arange(7) / 7))
    H = Q @ np.array([[[np.cos(total), -np.sin(total), 0.0],
                       [np.sin(total), np.cos(total), 0.0],
                       [0.0, 0.0, 1.0]]]) @ Q.T
    assert np.max(np.abs(H - np.eye(3))) > IDENTITY_TOL
    found, length = _closed_geodesics(H, A, B)
    assert found.tolist() == [True]
    assert length[0] == pytest.approx(total, rel=0, abs=1e-9)
    axis = np.linalg.svd(H - np.eye(3))[2][:, -1][0]
    assert min(np.max(np.abs(reference_rotation_about(s * axis, length[0]) - H[0]))
               for s in (1, -1)) < 1e-8
