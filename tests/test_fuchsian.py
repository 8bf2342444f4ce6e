import numpy as np
import pytest

from polydual import fuchsian
from polydual.errors import InvalidPolyhedron
from polydual.fuchsian import (
    OCTAGON_CIRCUMRADIUS,
    TRANSLATION_LENGTH,
    fuchsian_dualize,
    fuchsian_octagon_group,
)
from polydual.geodesic import closed_geodesic_search
from polydual.minkowski import HPoint, h_distance
from polydual.surface import gauss_bonnet_residual, is_concave

from oracles import (
    ORBIT_DIGITS,
    matrix_key_orbit,
    reference_apex_faces,
    reference_apex_star,
    reference_lengths,
    reference_orbit,
    union_find_classes,
)


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
    return {h: fuchsian_dualize(group, h) for h in (0.5, 1.0, 2.0, 3.0)}


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

    def test_cone_angle_is_face_area_plus_two_pi(self, group, outputs):
        # the half-angle corners keep the area's read-back accurate where
        # the faces' corners lie far out, up to h = 10
        high = [fuchsian_dualize(group, h) for h in (4.0, 5.0, 6.0, 7.0, 8.0,
                                                      9.0, 10.0)]
        for out in [*outputs.values(), *high]:
            ca = out.metric.cone_angles()
            for c, area in enumerate(out.face_areas):
                assert ca[c] == pytest.approx(2 * np.pi + area, abs=1e-9)

    def test_dualizes_at_height_twelve(self, group):
        out = fuchsian_dualize(group, 12.0)
        assert len(out.face_areas) == out.metric.surface.n_vertices
        assert all(np.isfinite(out.face_areas))

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


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0, 3.0])
def test_stacked_orbit_and_apex_faces_match_one_at_a_time(group, h):
    """Same orbit matrices in the same order and the same apex face normals,
    bit for bit, on the ball fuchsian_dualize uses."""
    mats, points = fuchsian._orbit(group, h)
    ref_mats, ref_points = reference_orbit(group, h)
    assert len(mats) == 49
    np.testing.assert_array_equal(mats, ref_mats)
    np.testing.assert_array_equal(points, ref_points)
    faces = fuchsian._apex_star(points).faces
    ref = reference_apex_faces(points)
    assert [f["members"] for f in faces] == [m for _, m in ref]
    for f, (n, _) in zip(faces, ref):
        np.testing.assert_array_equal(f["normal"], n)


def assert_same_star(star, ref):
    """Equal order and neighbours, and each face's cycle the reference's
    rotated to start at the apex."""
    assert star.order == ref.order
    assert star.neighbors == ref.neighbors
    assert ([f["cycle"] for f in star.faces]
            == [g["cycle"][g["cycle"].index(0):] + g["cycle"][:g["cycle"].index(0)]
                for g in ref.faces])


@pytest.mark.parametrize("h", [0.05, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_apex_star_matches_the_angular_sort(group, h):
    _, points = fuchsian._orbit(group, h)
    assert_same_star(fuchsian._apex_star(points), reference_apex_star(points))


@pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
def test_word_bound_4_apex_star_matches_the_angular_sort(group, h):
    _, points = reference_orbit(group, h, word_bound=4)
    assert len(points) == 3193
    assert_same_star(fuchsian._apex_star(points), reference_apex_star(points))


@pytest.mark.parametrize("h", [0.05, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_orbit_keyed_by_tile_centre_matches_the_matrix_keys(group, h):
    mats, points = fuchsian._orbit(group, h)
    ref_mats, ref_points = matrix_key_orbit(group, h)
    np.testing.assert_array_equal(mats, ref_mats)
    np.testing.assert_array_equal(points, ref_points)


def test_corner_classes_match_the_union_find():
    """On the octagon's side pairing and on random side pairings (fixed-
    point-free involutions) of 4 to 20 sides."""
    rng = np.random.RandomState(4)
    pairings = [np.array([4, 5, 6, 7, 0, 1, 2, 3])]
    for m in range(4, 21, 2):
        for _ in range(5):
            order = rng.permutation(m)
            sigma = np.empty(m, dtype=int)
            sigma[order[0::2]], sigma[order[1::2]] = order[1::2], order[0::2]
            pairings.append(sigma)
    for sigma in pairings:
        classes, class_of = fuchsian._corner_classes(sigma)
        assert (classes.tolist(), class_of.tolist()) == union_find_classes(sigma)


def sampled_reach(n, h, n_rays=1 << 14):
    """The largest d(o, y) over points y of H^2 sampled in the cap
    {cosh h <n, y> + sinh h n3 >= 0}: o lies on the cap's edge, so along
    each ray from o the cap is an interval [0, t], found by bisection."""
    theta = np.linspace(0.0, 2 * np.pi, n_rays, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)

    def in_cap(t):
        inner = -n[0] * np.cosh(t) + np.sinh(t) * (n[1] * c + n[2] * s)
        return np.cosh(h) * inner + np.sinh(h) * n[3] >= 0

    lo, hi = np.zeros(n_rays), np.full(n_rays, 20.0)
    assert not np.any(in_cap(hi))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = in_cap(mid)
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return float(lo.max())


@pytest.mark.parametrize("h", [0.25, 1.0, 3.0, 5.0])
def test_face_reach_matches_the_sampled_cap(group, h):
    _, points = fuchsian._orbit(group, h)
    normals = np.array([f["normal"] for f in fuchsian._apex_star(points).faces])
    reach = fuchsian._face_reaches(normals, h)
    want = [sampled_reach(n, h) for n in normals]
    np.testing.assert_allclose(reach, want, rtol=0, atol=1e-7)
    np.testing.assert_allclose(reach, 2 * OCTAGON_CIRCUMRADIUS, rtol=0, atol=1e-12)
    assert np.all(reach < fuchsian.ORBIT_RADIUS)


def test_face_reach_unbounded_off_a_disc():
    # unless n0 > 0 and n3 > 1 the cap is no disc about a point of H^2
    tilted = np.array([[-0.5, 0.3, 0.0, 1.2], [0.5, 0.3, 0.0, -1.2]])
    flat = np.array([[0.0, 0.0, 1.0, 0.0]])
    assert np.all(np.isinf(fuchsian._face_reaches(np.vstack([tilted, flat]), 1.0)))


def test_certificate_fires_on_a_small_ball(group, monkeypatch):
    # identity and the eight generators: the faces are found, but their
    # caps reach 2R, past the ball
    monkeypatch.setattr(fuchsian, "ORBIT_RADIUS", 1.01 * TRANSLATION_LENGTH)
    assert len(fuchsian._orbit(group, 1.0)[0]) == 9
    with pytest.raises(InvalidPolyhedron, match="reaches 4.8969"):
        fuchsian_dualize(group, 1.0)


def orbit_keys(mats):
    return [tuple(np.round(m.ravel(), ORBIT_DIGITS)) for m in mats]


@pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
def test_ball_star_matches_the_word_bound_4_star(group, h):
    """Soundness: the ball's apex faces are those of the far larger orbit of
    all words up to length 4, normal for normal and member for member as
    group elements."""
    mats, points = fuchsian._orbit(group, h)
    ref_mats, ref_points = reference_orbit(group, h, word_bound=4)
    faces = fuchsian._apex_star(points).faces
    ref = fuchsian._apex_star(ref_points).faces
    assert len(faces) == len(ref) == 8
    keys, ref_keys = orbit_keys(mats), orbit_keys(ref_mats)
    for f in faces:
        match = [g for g in ref if np.max(np.abs(g["normal"] - f["normal"])) < 1e-13]
        assert len(match) == 1
        assert ({keys[i] for i in f["members"]}
                == {ref_keys[i] for i in match[0]["members"]})


@pytest.mark.parametrize("h", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_one_hull_per_call(group, h, monkeypatch):
    calls = []
    real, qhull_error = fuchsian.qhull()
    monkeypatch.setattr(fuchsian, "qhull", lambda: (
        lambda *args, **kw: calls.append(1) or real(*args, **kw), qhull_error))
    fuchsian_dualize(group, h)
    assert calls == [1]
