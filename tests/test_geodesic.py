import functools

import numpy as np
import pytest

from polydual.errors import InvalidConeMetric
from polydual.fuchsian import fuchsian_dualize, fuchsian_octagon_group
from polydual.geodesic import (
    IDENTITY_TOL,
    SearchReport,
    _circle_lengths,
    _closed_geodesics,
    _closed_walks,
    _crossing_points,
    _crossings,
    _develop,
    _padded_walks,
    _rotation_axis,
    _step_distances,
    _strip_holonomy,
    _word_products,
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
    octahedron_sphere,
    rowdot,
    scale,
)

from bench_solids import fibonacci_solids
from oracles import (
    developed_strip,
    lexsort_closed_walks,
    padded_search,
    per_length_search,
    reference_rotation_about,
    reference_search,
    reference_walks,
    step_distances_int64,
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


def padded_pass(m, depth):
    """The closed walks of a metric padded into one array, and their strips
    composed: walks, lengths, holonomies, crossed edges and deck words."""
    corners = _develop(m)
    mate = m.surface.mate
    frames, rotations, words = _crossings(m, corners, mate)
    walks, lengths, exits = _padded_walks(_closed_walks(mate, depth), mate)
    H, A, B = _strip_holonomy(exits, frames, rotations)
    word = None if words is None else _word_products(exits, words)
    return walks, lengths, H, A, B, word


@pytest.mark.parametrize("name", sorted(ORACLE_METRICS))
def test_composed_holonomy_matches_developed_strip(name):
    m = ORACLE_METRICS[name]()
    walks, lengths, H, A, B, word = padded_pass(m, 6)
    assert len(set(lengths.tolist())) > 1
    for i, (walk, n) in enumerate(zip(walks.tolist(), lengths.tolist())):
        assert all(h == len(m.surface.mate) for h in walk[n:])
        H_ref, edges_ref, word_ref = developed_strip(m, walk[:n])
        np.testing.assert_allclose(H[i], H_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.stack([A[i, :n], B[i, :n]], axis=1),
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
        groups = _closed_walks(m.surface.mate, depth)
        walks = [tuple(w.tolist()) for g in groups for w in g]
        assert len(set(walks)) == len(walks)
        assert set(walks) == set(reference_walks(m, depth))
        assert walks == sorted(walks, key=lambda w: (len(w), w))
        assert all(g.dtype == np.int32 and len(g) for g in groups)


def successors(m):
    """The two half-edges a walk entering by half-edge h steps on to, as
    `_closed_walks` takes them."""
    mate = m.surface.mate
    h = np.arange(len(mate))
    k = h % 3
    return mate[np.stack([h - k + (k + 1) % 3, h - k + (k + 2) % 3], axis=1)]


@pytest.mark.parametrize("name", sorted(SEARCH_METRICS))
def test_step_distances_match_an_int64_table(name):
    succ = successors(SEARCH_METRICS[name]())
    for depth in range(1, 13):
        table = _step_distances(succ, depth)
        assert table.dtype == np.int8
        np.testing.assert_array_equal(table, step_distances_int64(succ, depth))


@pytest.mark.parametrize("depth, kind", [(126, np.int8), (127, np.int16)])
def test_step_distances_at_the_dtype_boundary(depth, kind):
    # int8 holds depth + 1 up to depth 126; two disjoint 3-cycles leave
    # pairs unreachable, whose entries stay at depth and get 1 added
    succ = np.repeat([1, 2, 0, 4, 5, 3], 2).reshape(6, 2)
    table = _step_distances(succ, depth)
    assert table.dtype == kind and table.max() == depth
    np.testing.assert_array_equal(table, step_distances_int64(succ, depth))


@pytest.mark.parametrize("name", ["hexahedron", "genus2-h1"])
def test_pruned_walks_match_depth_first_walks_at_depth_12(name):
    """Branches that cannot return to their root within the depth are not
    grown; the walks closing at the last levels are still all found."""
    m = SEARCH_METRICS[name]()
    walks = [tuple(w.tolist()) for g in _closed_walks(m.surface.mate, 12) for w in g]
    assert len(walks) == len(set(walks))
    assert set(walks) == set(reference_walks(m, 12))
    assert max(map(len, walks)) == 12


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


BENCH_SIZES = (8, 10, 12, 14, 16, 18, 20, 30, 40, 50)
GENUS2_HEIGHTS = (0.25, 0.5, 1.0, 2.0, 3.0)
PADDED_ORACLE_METRICS = (
    ["tetrahedron", "hexahedron", "bipyramid"]
    + [f"solid-{n}" for n in BENCH_SIZES]
    + [f"genus2-h{h}" for h in GENUS2_HEIGHTS])


@functools.lru_cache(maxsize=None)
def padded_oracle_metric(name):
    """The fixtures' duals, the duals of the bench/solids.py solids (seed 1,
    round 0) and the genus-2 metrics, by name."""
    kind, _, arg = name.partition("-")
    if kind == "solid":
        return dualize(fibonacci_solids((int(arg),))[0]).metric
    if kind == "genus2":
        return fuchsian_dualize(fuchsian_octagon_group(), float(arg[1:])).metric
    return ORACLE_METRICS[name]()


@pytest.mark.parametrize("contractible_only", [True, False])
@pytest.mark.parametrize("name", PADDED_ORACLE_METRICS)
def test_padded_search_matches_per_length_search(name, contractible_only):
    """Same cycles, cycle count and contractible flags at every depth up to
    12, lengths within 1e-13, with or without contractible_only."""
    m = padded_oracle_metric(name)
    for depth in range(1, 13):
        rep = closed_geodesic_search(m, depth, contractible_only)
        ref = per_length_search(m, depth, contractible_only)
        assert rep.n_cycles_checked == ref.n_cycles_checked
        assert ([(g.cycle, g.contractible) for g in rep.geodesics]
                == [(g.cycle, g.contractible) for g in ref.geodesics])
        np.testing.assert_allclose([g.length for g in rep.geodesics],
                                   [g.length for g in ref.geodesics],
                                   rtol=0, atol=1e-13)
        assert rep.found_within_cap == ref.found_within_cap
    assert rep.n_cycles_checked > 0


@pytest.mark.parametrize("name", PADDED_ORACLE_METRICS)
def test_walk_tree_and_search_match_the_lexsort_pass(name):
    """Bit for bit at every depth up to 12, with or without
    contractible_only: the closed walks of the lexicographic tree against
    the parent-pointer readback sorted by np.lexsort, and the search's
    reports against the padded pass before it."""
    m = padded_oracle_metric(name)
    mate = m.surface.mate
    for depth in range(1, 13):
        got, want = _closed_walks(mate, depth), lexsort_closed_walks(mate, depth)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int32
            np.testing.assert_array_equal(g, w)
        for contractible_only in (True, False):
            assert (closed_geodesic_search(m, depth, contractible_only)
                    == padded_search(m, depth, contractible_only))


def rotations_about(axes, angle):
    """Rodrigues: the rotations by angle about unit axes (N, 3)."""
    K = np.cross(axes[:, None, :], -np.eye(3))        # K v = axis x v
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


@pytest.mark.parametrize("angle", [2e-8, np.pi / 2, np.pi - 1e-9, np.pi])
def test_rotation_axis_matches_svd_axis(angle):
    """Up to sign, within about eps / |H - I|, on 200 random axes, from just
    above the flat threshold to a half turn."""
    axes = np.random.RandomState(3).randn(200, 3)
    axes /= np.sqrt(rowdot(axes, axes))[:, None]
    H = rotations_about(axes, angle)
    assert np.all(np.max(np.abs(H - np.eye(3)), axis=(1, 2)) >= IDENTITY_TOL)
    got = _rotation_axis(H)
    svd = np.linalg.svd(H - np.eye(3))[2][:, -1]
    tol = 1e-14 / (2 * np.sin(angle / 2))
    np.testing.assert_allclose(rowdot(got, got), 1.0, rtol=0, atol=1e-15)
    for ref in (svd, axes):
        np.testing.assert_allclose(got * np.sign(rowdot(got, ref))[:, None], ref,
                                   rtol=0, atol=tol)


def test_composed_holonomy_stays_orthogonal():
    """Without a projection back onto SO(3), every holonomy of the closed
    walks of up to 12 steps of the bench duals is orthogonal within 1e-13."""
    longest = 0
    for name in [f"solid-{n}" for n in BENCH_SIZES[:7]] + ["genus2-h1.0"]:
        _, lengths, H, _, _, _ = padded_pass(padded_oracle_metric(name), 12)
        HtH = np.swapaxes(H, 1, 2) @ H
        assert np.max(np.abs(HtH - np.eye(3))) <= 1e-13
        longest = max(longest, lengths.max())
    assert longest == 12


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
    assert _closed_walks(m.surface.mate, 2) == []
    rep = closed_geodesic_search(m, depth=2)
    assert rep == SearchReport()
    assert closed_geodesic_search(m, depth=3).n_cycles_checked == 8


@pytest.mark.filterwarnings("error")
def test_group_failing_every_crossing():
    """A strip around a vertex of a tetrahedron with edges shorter than pi/2
    has its rotation axis at the vertex, whose polar circle misses every
    crossed edge: every row of the length group fails the crossing test."""
    m = k4_metric(1.0)
    walks, lengths, H, A, B, _ = padded_pass(m, 3)
    _, crossed = _crossing_points(_rotation_axis(H), A, B)
    assert lengths.tolist() == [3] * 8 and not crossed.any()
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
    three = np.array([3])
    found, length = _circle_lengths(pole, *equator_edges([0.0, 1.0, 2.0]), H, three)
    assert found.tolist() == [True] and length[0] == pytest.approx(3.0, abs=1e-12)
    found, _ = _circle_lengths(pole, *equator_edges([0.0, 2.0, 1.0]), H, three)
    assert found.tolist() == [False]


def test_padded_circle_reads_only_its_steps():
    """The circle of a length-3 walk padded to 5 closes with the holonomy
    image of its first crossing after step 3, whatever the padding holds:
    here edges the circle misses, and one it would cross backwards."""
    pole = np.array([[0.0, 0.0, 1.0]] * 2)
    H = np.array([[[np.cos(3.0), -np.sin(3.0), 0.0],
                   [np.sin(3.0), np.cos(3.0), 0.0], [0.0, 0.0, 1.0]]] * 2)
    A, B = equator_edges([0.0, 1.0, 2.0, 0.5, 0.0])
    B[0, 3] = A[0, 3]
    A, B = np.concatenate([A, A]), np.concatenate([B, B])
    found, length = _circle_lengths(pole, A, B, H, np.array([3, 5]))
    assert found.tolist() == [True, False]
    assert length[0] == pytest.approx(3.0, abs=1e-12)


def test_flat_normal_fits_only_its_steps():
    """A flat strip of three steps once around a great circle, padded to
    five with edges near a pole of it: the normal is fitted to its own
    crossed edges, so it closes with length 2 pi."""
    Q, _ = np.linalg.qr(np.random.RandomState(2).randn(3, 3))
    A, B = equator_edges(2 * np.pi * np.arange(5) / 3)
    A[0, 3:], B[0, 3:] = [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]
    found, length = _closed_geodesics(np.eye(3)[None], A @ Q.T, B @ Q.T,
                                      np.array([3]))
    assert found.tolist() == [True]
    assert length[0] == pytest.approx(2 * np.pi, rel=0, abs=1e-12)


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
    found, length = _closed_geodesics(H, A, B, np.array([7]))
    assert found.tolist() == [True]
    assert length[0] == pytest.approx(total, rel=0, abs=1e-9)
    axis = _rotation_axis(H)[0]
    assert min(np.max(np.abs(reference_rotation_about(s * axis, length[0]) - H[0]))
               for s in (1, -1)) < 1e-8
