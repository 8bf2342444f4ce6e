import numpy as np
import pytest

from polydual.errors import NotSpacelikeSeparated
from polydual.minkowski import (
    DSPoint,
    HPoint,
    Isometry,
    ds_distances,
    h_distance,
    minkowski_inner,
    plane_basis_points,
    plane_through,
    side_of,
)

RNG = np.random.RandomState(0)


def random_dspoint(rng):
    while True:
        v = rng.randn(4)
        if minkowski_inner(v, v) > 0.1:
            return DSPoint.from_vector(v)


def ds_distance(p, q):
    """The de Sitter distance of one pair, through the stacked form."""
    return float(ds_distances(p.v[None], q.v[None])[0])


def random_hpoint(rng, scale=1.0):
    x = rng.randn(3) * scale
    return HPoint(np.array([np.sqrt(1.0 + x @ x), *x]))


def random_isometry(rng):
    g = Isometry.rotation(1, 2, rng.uniform(0, 2 * np.pi))
    g = g @ Isometry.boost(1, rng.uniform(-1, 1))
    g = g @ Isometry.rotation(2, 3, rng.uniform(0, 2 * np.pi))
    g = g @ Isometry.boost(3, rng.uniform(-1, 1))
    return g


class TestMinkowskiInner:
    def test_time_axis(self):
        assert minkowski_inner((1, 0, 0, 0), (1, 0, 0, 0)) == -1.0

    def test_spacelike_unit(self):
        assert minkowski_inner((0, 1, 0, 0), (0, 1, 0, 0)) == 1.0

    def test_boosted_against_origin(self):
        a = (np.cosh(1), np.sinh(1), 0, 0)
        assert minkowski_inner(a, (1, 0, 0, 0)) == pytest.approx(-np.cosh(1), abs=1e-15)
        assert minkowski_inner(a, (1, 0, 0, 0)) == pytest.approx(-1.5430806348152437)


class TestHDistance:
    def test_identity(self):
        p = HPoint(np.array([1.0, 0, 0, 0]))
        assert h_distance(p, p) == 0.0

    def test_arclength_param(self):
        p = HPoint(np.array([1.0, 0, 0, 0]))
        q = HPoint(np.array([np.cosh(1), np.sinh(1), 0, 0]))
        r = HPoint(np.array([np.cosh(2), 0, np.sinh(2), 0]))
        assert h_distance(p, q) == pytest.approx(1.0, abs=1e-14)
        assert h_distance(p, r) == pytest.approx(2.0, abs=1e-14)

    def test_triangle_inequality_random(self):
        rng = np.random.RandomState(7)
        for _ in range(200):
            a, b, c = (random_hpoint(rng) for _ in range(3))
            assert h_distance(a, c) <= h_distance(a, b) + h_distance(b, c) + 1e-10

    def test_symmetry(self):
        rng = np.random.RandomState(8)
        for _ in range(50):
            a, b = random_hpoint(rng), random_hpoint(rng)
            assert h_distance(a, b) == pytest.approx(h_distance(b, a), abs=1e-14)


class TestDsDistance:
    def test_orthogonal_spacelike(self):
        p = DSPoint(np.array([0, 1.0, 0, 0]))
        q = DSPoint(np.array([0, 0, 1.0, 0]))
        assert ds_distance(p, q) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_near_identity(self):
        p = DSPoint(np.array([0, 1.0, 0, 0]))
        q = DSPoint.from_vector(np.array([0, 1.0, 1e-9, 0]))
        assert ds_distance(p, q) == pytest.approx(1e-9, rel=1e-6)

    def test_not_spacelike_raises(self):
        p = DSPoint(np.array([0, 1.0, 0, 0]))
        with pytest.raises(NotSpacelikeSeparated):
            ds_distance(p, p)
        q = DSPoint(np.array([0, -1.0, 0, 0]))
        with pytest.raises(NotSpacelikeSeparated):
            ds_distance(p, q)
        # timelike-separated pair: <p,q> = cosh(t) > 1
        r = DSPoint(np.array([np.sinh(0.5), np.cosh(0.5), 0, 0]))
        with pytest.raises(NotSpacelikeSeparated):
            ds_distance(p, r)

    def test_rows_are_independent_and_first_bad_pair_named(self):
        rng = np.random.RandomState(3)
        u = np.array([random_dspoint(rng).v for _ in range(5)])
        w = np.array([random_dspoint(rng).v for _ in range(5)])
        ok = np.abs(np.einsum("ij,ij->i", u @ np.diag([-1.0, 1, 1, 1]), w)) < 1
        u, w = u[ok], w[ok]
        assert len(u) >= 2
        d = ds_distances(u, w)
        assert d.shape == (len(u),)
        for k in range(len(u)):
            assert d[k] == ds_distance(DSPoint(u[k]), DSPoint(w[k]))
            assert d[k] == pytest.approx(
                np.arccos(minkowski_inner(u[k], w[k])), abs=1e-12)
        w = w.copy()
        w[-1] = u[-1]
        with pytest.raises(NotSpacelikeSeparated, match=f"^pair {len(u) - 1}: "):
            ds_distances(u, w)

    def test_dihedral_complement(self):
        # planes through a common geodesic meeting at angle psi have duals
        # at de Sitter distance psi; dihedral angle theta = pi - psi
        for psi in [0.3, 1.0, 2.0]:
            n1 = DSPoint(np.array([0, 0, 1.0, 0]))
            n2 = DSPoint(np.array([0, 0, np.cos(psi), np.sin(psi)]))
            assert ds_distance(n1, n2) == pytest.approx(psi, abs=1e-12)


class TestPolarity:
    def test_on_plane(self):
        n = DSPoint(np.array([0, 0, 0, 1.0]))
        assert side_of(n, (1, 0, 0, 0)) == 0.0

    def test_positive_side(self):
        n = DSPoint(np.array([0, 0, 0, 1.0]))
        x = (np.cosh(1), 0, 0, np.sinh(1))
        assert side_of(n, x) > 0

    def test_round_trip_random(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            n = random_dspoint(rng)
            pts = plane_basis_points(n)
            for p in pts:
                assert abs(side_of(n, p)) < 1e-9
            hint = HPoint.from_vector(pts[0].v + 0.5 * n.v)
            n2 = plane_through(*pts, positive_side_hint=hint)
            assert np.max(np.abs(n2.v - n.v)) < 1e-9

    def test_isometry_commutes_with_duality(self):
        # moving a plane's sample points and re-fitting equals moving the normal
        rng = np.random.RandomState(4)
        for _ in range(25):
            n = random_dspoint(rng)
            g = random_isometry(rng)
            pts = plane_basis_points(n)
            moved = [g.apply(p) for p in pts]
            hint = g.apply(HPoint.from_vector(pts[0].v + 0.5 * n.v))
            n_moved = plane_through(*moved, positive_side_hint=hint)
            assert np.max(np.abs(n_moved.v - g.apply(n).v)) < 1e-10


class TestIsometry:
    def test_group_axioms_numerically(self):
        rng = np.random.RandomState(11)
        g = random_isometry(rng)
        gi = g.inverse()
        assert np.max(np.abs((g @ gi).m - np.eye(4))) < 1e-12

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            Isometry(np.diag([1.0, 2.0, 1.0, 1.0]))

    def test_rejects_sheet_swap(self):
        m = np.diag([-1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Isometry(m)

    def test_apply_renormalizes(self):
        rng = np.random.RandomState(12)
        p = random_hpoint(rng)
        g = random_isometry(rng)
        q = g.apply(p)
        assert abs(minkowski_inner(q, q) + 1.0) < 1e-12
