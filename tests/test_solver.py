import contextlib
import functools
import gc
import warnings
import weakref

import numpy as np
import pytest

from polydual.errors import (
    DomainExceeded,
    FeasibilityLost,
    GeometryError,
    HomotopyBlocked,
    InvalidConeMetric,
    SolverError,
    StepStalled,
)
from polydual.cli import main
from polydual.minkowski import (
    DSPoint,
    Isometry,
    J,
    ds_distances,
    minkowski_inner,
)
from polydual.polyhedra import (
    CERTIFIED,
    LIFT_RADIUS,
    TETRA_DIRECTIONS,
    UNDECIDED,
    VIOLATED,
    chart_verdict,
    dualize,
    hexahedron,
    hull_from_dual_points,
    random_polyhedron,
    regular_tetrahedron,
    triangular_bipyramid,
)
from polydual import cli, polyhedra, solver
from polydual.solver import (
    SolverState,
    check_feasible,
    continuation,
    jacobian,
    match_dihedral_angles,
    newton_solve,
    perturbed_polyhedron,
    recovered_polyhedron,
    rigidity_report,
    validate_target,
)
from polydual.surface import (
    SPHERICAL,
    ConeMetric,
    flip_edge,
    octahedron_sphere,
    scale,
)

import oracles
from bench_solids import fibonacci_solid
from oracles import (
    chord_newton,
    full_newton,
    masked_frames,
    masked_jacobian,
    moved_point_by_point,
    scalar_tangent_frame,
    svd_gauge,
)

def state_of(P, out=None):
    out = out or dualize(P)
    return SolverState(np.stack([p.v for p in P.planes]),
                       out.metric.surface, out.metric.lengths)


# -- the scalar code the stacked solver replaced, kept as oracles ----------------


def draw_point_by_point(P, rng, magnitude):
    """Make the draws of every try of perturbed_polyhedron, one point at a
    time, a try ending at the first point that leaves its chart; returns
    the number of tries that ended so."""
    magnitude = min(magnitude, solver.PERTURB_EDGE_SHARE
                    * min(P.edge_length(e) for e in range(P.n_edges)))
    base = np.stack([p.v for p in P.planes])
    left = 0
    for _ in range(solver.PERTURB_TRIES):
        for i in range(len(base)):
            frame, _ = scalar_tangent_frame(base, i)
            v = base[i] + frame @ (magnitude * rng.randn(3))
            if minkowski_inner(v, v) <= 0:
                left += 1
                break
    return left


def solid_state(n_faces):
    """The start of a bench/solids.py solid on its dual chart."""
    solid = fibonacci_solid(np.random.RandomState([1, 0, n_faces]), n_faces,
                            0.02)
    return state_of(solid.start, solid.dual)


@pytest.fixture(scope="module")
def tetra():
    P = regular_tetrahedron(1.15)
    return P, dualize(P)


@pytest.fixture(scope="module")
def hexa():
    P = hexahedron(0.5)
    return P, dualize(P)


class TestState:
    def test_residual_zero_at_truth(self, tetra):
        P, out = tetra
        st = state_of(P, out)
        assert np.max(np.abs(st.residual())) < 1e-10

    def test_scaled_target_first_order(self, tetra):
        P, out = tetra
        st = SolverState(np.stack([p.v for p in P.planes]),
                         out.metric.surface,
                         scale(out.metric, 1e-3).lengths)
        r = st.residual()
        # log-scaling by 1e-3 shifts each length by about 1e-3 * length
        expect = out.metric.lengths * (1 - np.exp(1e-3))
        assert np.allclose(r, expect, rtol=1e-6)

    def test_tangent_perturbation_first_order(self, tetra):
        P, out = tetra
        st = state_of(P, out)
        frames = st.frames()
        gauge = st.gauge()
        rng = np.random.RandomState(4)
        v = rng.randn(len(gauge.free))
        v /= np.linalg.norm(v)
        moved = st.moved(1e-4 * v, gauge, frames)
        assert np.linalg.norm(moved.residual()) == pytest.approx(0, abs=1e-3)
        assert np.linalg.norm(moved.residual()) > 1e-6

    def test_gauge_dimension(self, tetra, hexa):
        for P, out in (tetra, hexa):
            st = state_of(P, out)
            gauge = st.gauge()
            n = st.surface.n_vertices
            assert len(gauge.free) == 3 * n - 6
            assert st.surface.n_edges == 3 * n - 6

    def test_rejects_duplicate_edge_pairs(self):
        # the double of a rhombus has two edges with identical endpoints
        from polydual.surface import CombSurface

        tris = [(0, 1, 2), (1, 0, 3), (0, 2, 1), (1, 3, 0)]
        gluing = {0: 3, 3: 0, 1: 7, 7: 1, 2: 6, 6: 2,
                  4: 10, 10: 4, 5: 9, 9: 5, 8: 11, 11: 8}
        surf = CombSurface(4, tris, gluing)
        pts = np.array([[0, 1.0, 0, 0], [0, 0, 1.0, 0],
                        [0, 0, 0, 1.0], [0.2, np.sqrt(1.04), 0, 0]])
        pts /= np.sqrt(np.einsum("ij,jk,ik->i", pts, J, pts))[:, None]
        with pytest.raises(SolverError):
            SolverState(pts, surf, np.full(surf.n_edges, 1.0))


def count_hull_builds(monkeypatch):
    calls = []
    build = solver.hull_from_dual_points

    def counting(duals):
        calls.append(1)
        return build(duals)

    monkeypatch.setattr(solver, "hull_from_dual_points", counting)
    return calls


class TestRetarget:
    def test_keeps_positions_chart_frames_gauge(self, tetra):
        P, out = tetra
        st = state_of(P, out)
        frames, gauge = st.frames(), st.gauge()
        lengths = scale(out.metric, 1e-3).lengths
        moved = st.retarget(lengths)
        assert np.array_equal(moved.positions, st.positions)
        assert moved.surface is st.surface
        assert np.array_equal(moved.edge_pairs, st.edge_pairs)
        assert moved.frames() is frames and moved.gauge() is gauge
        assert np.array_equal(moved.target, lengths)
        assert np.array_equal(st.target, out.metric.lengths)

    def test_shares_the_feasibility_verdict(self, monkeypatch):
        # the bipyramid sits on a wall, so its own check rebuilds the hull
        B = triangular_bipyramid()
        out = dualize(B)
        st = state_of(B, out)
        check_feasible(st)
        calls = count_hull_builds(monkeypatch)
        check_feasible(st.retarget(scale(out.metric, 1e-3).lengths))
        assert calls == []

    def test_newton_on_fresh_generic_state_builds_no_hull(self, tetra,
                                                          monkeypatch):
        P, out = tetra
        Q = perturbed_polyhedron(P, np.random.RandomState(7), 1e-3)
        calls = count_hull_builds(monkeypatch)
        sol = newton_solve(state_of(Q, out))
        assert np.max(np.abs(sol.residual())) < 1e-10
        assert calls == []

    def test_continuation_builds_no_hull(self, tetra, monkeypatch):
        P, out = tetra
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        calls = count_hull_builds(monkeypatch)
        continuation(start, out.metric, steps=4)
        assert calls == []

    def test_recovered_polyhedron_builds_no_hull(self, tetra, monkeypatch):
        P, out = tetra
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        final, _ = continuation(start, out.metric, steps=4)
        calls = count_hull_builds(monkeypatch)
        Q = recovered_polyhedron(final)
        assert match_dihedral_angles(P, Q)
        assert recovered_polyhedron(final) is Q
        assert calls == []

    def test_jacobian_is_shared_with_retargets(self, tetra):
        P, out = tetra
        st = state_of(P, out)
        Jm = jacobian(st)
        assert jacobian(st.retarget(scale(out.metric, 1e-3).lengths)) is Jm

    def test_wall_state_check_builds_one_hull(self, monkeypatch):
        st = state_of(triangular_bipyramid())
        calls = count_hull_builds(monkeypatch)
        check_feasible(st)
        assert len(calls) == 1
        recovered_polyhedron(st)
        assert len(calls) == 1


def moved_planes(pts, rng, magnitude):
    """Each dual point moved by `magnitude` times a standard normal inside
    its tangent frame."""
    pts = pts.copy()
    for i in range(len(pts)):
        fr, _ = scalar_tangent_frame(pts, i)
        v = pts[i] + fr @ (magnitude * rng.randn(3))
        pts[i] = v / np.sqrt(minkowski_inner(v, v))
    return pts


def certified(st):
    return chart_verdict(st.positions, st.surface)[0] == CERTIFIED


def assert_same_polyhedron(chart_built, hull):
    """Equal arrays: bit-equal planes and vertices, equal edges and face
    cycles, the same essential planes and none discarded. Both are read
    off a triangulation by one builder, from the chart's triangles and from
    the polar hull's."""
    for name in ("plane_rows", "vertex_rows", "edge_vertices", "edge_faces",
                 "cycle_vertices", "cycle_offsets", "essential"):
        assert np.array_equal(getattr(chart_built, name), getattr(hull, name)), name
    assert chart_built.discarded == hull.discarded == []
    assert chart_built.edges == hull.edges
    assert ([f.vertex_cycle for f in chart_built.faces]
            == [f.vertex_cycle for f in hull.faces])


CERTIFY_SOLIDS = {
    "tetrahedron": lambda: regular_tetrahedron(1.15),
    "hexahedron": lambda: hexahedron(0.5),
    "bipyramid": triangular_bipyramid,
    "random-7": lambda: random_polyhedron(np.random.RandomState(2), 7),
}


class TestCertificate:
    @pytest.mark.parametrize("name", CERTIFY_SOLIDS)
    def test_accepts_only_what_the_hull_confirms(self, name):
        P = CERTIFY_SOLIDS[name]()
        chart = dualize(P).metric
        pts = np.stack([p.v for p in P.planes])
        rng = np.random.RandomState(11)
        accepted = feasible = 0
        for magnitude in np.geomspace(1e-6, 3e-2, 8):
            for _ in range(6):
                st = SolverState(moved_planes(pts, rng, magnitude),
                                 chart.surface, chart.lengths)
                try:
                    poly = solver._checked_hull(st)
                except FeasibilityLost:
                    assert not certified(st)
                    continue
                feasible += 1
                if certified(st):
                    accepted += 1
                    # the chart is exactly the hull's dual decomposition
                    assert ({frozenset(e.faces) for e in poly.edges}
                            == {frozenset(p) for p in st.edge_pairs})
        # not vacuous: the certificate decides most feasible states
        assert accepted >= 0.75 * feasible > 0

    @pytest.mark.parametrize("name", CERTIFY_SOLIDS)
    def test_chart_polyhedron_matches_the_hull(self, name):
        P = CERTIFY_SOLIDS[name]()
        chart = dualize(P).metric
        pts = np.stack([p.v for p in P.planes])
        rng = np.random.RandomState(13)
        checked = 0
        for magnitude in (1e-4, 1e-3, 1e-2):
            for _ in range(4):
                st = SolverState(moved_planes(pts, rng, magnitude),
                                 chart.surface, chart.lengths)
                if not certified(st):
                    continue
                checked += 1
                assert_same_polyhedron(
                    oracles.checked_chart_polyhedron(st.positions, st.surface),
                    hull_from_dual_points(st.positions))
        assert checked > 0

    @pytest.mark.parametrize("n_faces", [30, 50])
    def test_chart_polyhedron_matches_the_hull_on_solids(self, n_faces):
        st = solid_state(n_faces)
        assert certified(st)
        assert_same_polyhedron(
            oracles.checked_chart_polyhedron(st.positions, st.surface),
            hull_from_dual_points(st.positions))

    def test_hyperideal_vertices_are_not_certified(self):
        # planes 0.5 from the origin cut out a tetrahedron whose vertices lie
        # beyond the sphere at infinity; every sign test still holds
        pts = np.stack([DSPoint(np.array([np.sinh(0.5), *(np.cosh(0.5) * u)])).v
                        for u in TETRA_DIRECTIONS])
        chart = dualize(regular_tetrahedron(1.15)).metric
        st = SolverState(pts, chart.surface, chart.lengths)
        assert not certified(st)
        with pytest.raises(FeasibilityLost):
            check_feasible(st)

    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])
    def test_wall_states_fall_back_to_the_hull(self, offset, monkeypatch):
        # the bipyramid's three four-face vertices put it on a wall; move
        # toward (offset > 0) or away from a certified split of all three
        B = triangular_bipyramid()
        chart = dualize(B).metric
        wall = np.stack([p.v for p in B.planes])
        rng = np.random.RandomState(5)
        split = next(pts for pts in (moved_planes(wall, rng, 1e-3)
                                     for _ in range(100))
                     if certified(SolverState(pts, chart.surface,
                                              chart.lengths)))
        pts = wall + offset * (split - wall) / np.linalg.norm(split - wall)
        pts /= np.sqrt(np.einsum("ij,jk,ik->i", pts, J, pts))[:, None]
        st = SolverState(pts, chart.surface, chart.lengths)
        assert not certified(st)
        try:
            solver._checked_hull(SolverState(pts, chart.surface, chart.lengths))
            hull_verdict = None
        except FeasibilityLost as exc:
            hull_verdict = str(exc)
        calls = count_hull_builds(monkeypatch)
        try:
            check_feasible(st)
            verdict = None
        except FeasibilityLost as exc:
            verdict = str(exc)
        assert verdict == hull_verdict
        assert len(calls) == 1


def fd_jacobian(state, h=1e-6):
    """Central-difference oracle for jacobian(), one column at a time."""
    frames, gauge = state.frames(), state.gauge()
    cols = []
    for e_k in h * np.eye(len(gauge.free)):
        cols.append((state.moved(e_k, gauge, frames).current_lengths()
                     - state.moved(-e_k, gauge, frames).current_lengths())
                    / (2 * h))
    return np.stack(cols, axis=1)


def off_solution_state():
    # the target scaled by exp(1e-3) leaves a nonzero residual
    P = regular_tetrahedron(1.15)
    metric = dualize(P).metric
    return SolverState(np.stack([p.v for p in P.planes]), metric.surface,
                       scale(metric, 1e-3).lengths)


JACOBIAN_STATES = {
    "tetrahedron": lambda: state_of(regular_tetrahedron(1.15)),
    "hexahedron": lambda: state_of(hexahedron(0.5)),
    # equatorial vertices have four faces, so the chart has fan diagonals
    "bipyramid": lambda: state_of(triangular_bipyramid()),
    "off-solution": off_solution_state,
}


class TestJacobian:
    @pytest.mark.parametrize("name", JACOBIAN_STATES)
    def test_fd_consistency(self, name):
        st = JACOBIAN_STATES[name]()
        if name == "off-solution":
            assert np.max(np.abs(st.residual())) > 1e-4
        Jm, oracle = jacobian(st), fd_jacobian(st)
        assert Jm.shape == oracle.shape
        assert np.max(np.abs(Jm - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("name", JACOBIAN_STATES)
    def test_rows_touch_only_endpoint_columns(self, name):
        st = JACOBIAN_STATES[name]()
        Jm = jacobian(st)
        owner = st.gauge().free // 3
        for e, (i, j) in enumerate(st.edge_pairs):
            outside = (owner != i) & (owner != j)
            assert not np.any(Jm[e, outside])
            assert np.count_nonzero(Jm[e]) <= 6

    def test_square_after_gauge(self, tetra):
        P, out = tetra
        Jm = jacobian(state_of(P, out))
        assert Jm.shape == (6, 6)

    def test_rigidity_positive(self, tetra, hexa):
        for P, out in (tetra, hexa):
            rig = rigidity_report(state_of(P, out))
            assert rig.smallest_singular_value > 1e-8
            assert np.isfinite(rig.condition_number)

    def test_rigidity_with_fan_diagonals(self):
        # equatorial bipyramid vertices have four faces, so the dual chart
        # carries fan diagonals; rigidity must survive them
        P = triangular_bipyramid()
        rig = rigidity_report(state_of(P))
        assert rig.smallest_singular_value > 1e-8

    def test_gauge_invariance_under_isometry(self, hexa):
        P, out = hexa
        st = state_of(P, out)
        g = Isometry.boost(2, 0.7) @ Isometry.rotation(1, 3, 0.9)
        moved = np.array([g.m @ x for x in st.positions])
        moved /= np.sqrt(np.einsum("ij,jk,ik->i", moved, J, moved))[:, None]
        st2 = SolverState(moved, st.surface, st.target)
        assert np.max(np.abs(st2.residual() - st.residual())) < 1e-12
        r1, r2 = rigidity_report(st), rigidity_report(st2)
        assert abs(r1.smallest_singular_value
                   - r2.smallest_singular_value) < 1e-9


STACKED_STATES = {**JACOBIAN_STATES,
                  "solid-30": lambda: solid_state(30),
                  "solid-50": lambda: solid_state(50)}


def first_candidates_degenerate():
    """Four points in which every point's opposite is its first or third
    candidate, so its first candidates project to zero tangent remainders
    and its frame is completed from the ambient axes."""
    return np.array([[0, 1.0, 0, 0], [0, -1.0, 0, 0],
                     [0, 0, 1.0, 0], [0, 0, -1.0, 0]])


def one_antipodal_pair():
    """A 20-face start whose point 1 is replaced by -x0: point 0 skips its
    first candidate and completes its frame in the masked loop, while every
    other point keeps the frame of the first pass."""
    x = solid_state(20).positions.copy()
    x[1] = -x[0]
    return x


FRAME_CONFIGURATIONS = {
    **{name: (lambda make=make: make().positions)
       for name, make in STACKED_STATES.items()},
    "first-candidates-degenerate": first_candidates_degenerate,
    "one-antipodal-pair": one_antipodal_pair,
    "three-points": lambda: first_candidates_degenerate()[[0, 2, 3]],
}


class TestStackedSolver:
    """The stacked frames, Jacobian and chart move against the per-point
    code they replaced, bit for bit."""

    @pytest.mark.parametrize("name", STACKED_STATES)
    def test_frames_match_scalar_gram_schmidt(self, name):
        st = STACKED_STATES[name]()
        frames, signs = st.frames()
        assert frames.flags.c_contiguous
        for i in range(len(st.positions)):
            frame, sign = scalar_tangent_frame(st.positions, i)
            assert np.array_equal(frames[i], frame)
            assert np.array_equal(signs[i], sign)

    def test_frames_skip_degenerate_candidates(self):
        pts = first_candidates_degenerate()
        frames, signs = solver._tangent_frames(pts)
        for i in range(len(pts)):
            frame, sign = scalar_tangent_frame(pts, i)
            assert np.array_equal(frames[i], frame)
            assert np.array_equal(signs[i], sign)
        # point 0 skips point 1 and keeps the timelike axis e0
        assert np.array_equal(frames[0][:, 1], [1.0, 0, 0, 0])
        assert signs[0][1] == -1.0

    @pytest.mark.parametrize("name", FRAME_CONFIGURATIONS)
    def test_frames_match_the_masked_loop(self, name):
        x = FRAME_CONFIGURATIONS[name]()
        frames, signs = solver._tangent_frames(x)
        want_frames, want_signs = masked_frames(x)
        assert frames.flags.c_contiguous
        assert np.array_equal(frames, want_frames)
        assert np.array_equal(signs, want_signs)

    @pytest.mark.parametrize("name", STACKED_STATES)
    def test_jacobian_matches_masked_assembly(self, name):
        st = STACKED_STATES[name]()
        assert np.array_equal(jacobian(st), masked_jacobian(st))

    @pytest.mark.parametrize("name", STACKED_STATES)
    def test_moved_matches_point_by_point(self, name):
        st = STACKED_STATES[name]()
        gauge = st.gauge()
        rng = np.random.RandomState(9)
        for size in (1e-6, 1e-3):
            delta = size * rng.randn(len(gauge.free))
            got = st.moved(delta, gauge, st.frames()).positions
            assert np.array_equal(got, moved_point_by_point(st, delta))
            # the fully pinned point keeps its bits
            i0 = gauge.pinned[0]
            assert np.array_equal(got[i0], st.positions[i0])

    def test_moved_names_the_first_point_leaving_its_chart(self, hexa):
        P, out = hexa
        st = state_of(P, out)
        gauge = st.gauge()
        # two units along every timelike frame vector: <v, v> = 1 - 4
        _, signs = st.frames()
        delta = np.where(signs < 0, 2.0, 0.0).ravel()[gauge.free]
        with pytest.raises(FeasibilityLost) as exc:
            moved_point_by_point(st, delta)
        with pytest.raises(FeasibilityLost, match=f"^{exc.value}$"):
            st.moved(delta, gauge, st.frames())


def unit_rows(rows):
    rows = np.array(rows, dtype=float)
    return rows / np.sqrt(np.einsum("ij,jk,ik->i", rows, J, rows))[:, None]


def moved_hexahedron():
    g = Isometry.boost(2, 0.7) @ Isometry.rotation(1, 3, 0.9)
    return unit_rows(state_of(hexahedron(0.5)).positions @ g.m.T)


GAUGE_CONFIGURATIONS = {
    **{name: (lambda make=make: make().positions)
       for name, make in STACKED_STATES.items()},
    "hexahedron-moved": moved_hexahedron,
    # x2 = (x0 + x1) / sqrt(2): the triple (0, 1, 3) is pinned
    "dependent-x2": lambda: unit_rows([
        [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1],
        [0.3, 0.2, -0.5, 1.0]]),
    # x1 = -x0: every triple through points 0 and 1 is dependent
    "antipodal-x1": lambda: unit_rows([
        [0.2, 1, 0, 0], [-0.2, -1, 0, 0], [0, 0, 1, 0.3], [0.1, 0, 0, 1],
        [0.3, 0.2, -0.5, 1.0]]),
}


class TestGauge:
    """The closed-form gauge against the SVD construction it replaced."""

    @pytest.mark.parametrize("name", GAUGE_CONFIGURATIONS)
    def test_matches_the_svd_gauge(self, name):
        x = GAUGE_CONFIGURATIONS[name]()
        frames = solver._tangent_frames(x)
        gauge = solver.build_gauge(x, frames)
        pinned, free1, free2 = svd_gauge(x, frames)
        assert gauge.pinned == pinned
        if name == "dependent-x2":
            assert pinned == (0, 1, 3)
        if name == "antipodal-x1":
            assert pinned == (0, 2, 3)
        assert min(np.max(np.abs(gauge.free1 - free1)),
                   np.max(np.abs(gauge.free1 + free1))) < 1e-12
        assert np.max(np.abs(gauge.free2 @ gauge.free2.T
                             - free2 @ free2.T)) < 1e-12
        assert np.allclose(gauge.free2.T @ gauge.free2, np.eye(2),
                           rtol=0, atol=1e-14)

    def test_rejects_a_configuration_without_independent_triple(self):
        x = unit_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0],
                       [0, 1, -1, 0]])
        frames = solver._tangent_frames(x)
        with pytest.raises(SolverError, match="no independent point triple"):
            solver.build_gauge(x, frames)


def count_gauge_builds(monkeypatch):
    calls = []
    build = solver.build_gauge

    def counting(positions, frames):
        calls.append(1)
        return build(positions, frames)

    monkeypatch.setattr(solver, "build_gauge", counting)
    return calls


def scaled_solid_state():
    st = solid_state(30)
    return st.retarget(np.exp(2e-3) * st.target)


NEWTON_STARTS = {
    "tetrahedron": lambda: state_of(perturbed_polyhedron(
        regular_tetrahedron(1.15), np.random.RandomState(7), 1e-3),
        dualize(regular_tetrahedron(1.15))),
    "hexahedron": lambda: state_of(perturbed_polyhedron(
        hexahedron(0.5), np.random.RandomState(5), 5e-3), dualize(hexahedron(0.5))),
    "off-solution": off_solution_state,
    "solid-30-scaled": scaled_solid_state,
}


class TestChordNewton:
    @pytest.mark.parametrize("name", NEWTON_STARTS)
    def test_rebasing_every_step_is_full_newton(self, name, monkeypatch):
        want = full_newton(NEWTON_STARTS[name]())
        monkeypatch.setattr(solver, "CHORD_CONTRACTION", 0.0)
        got = newton_solve(NEWTON_STARTS[name]())
        assert np.array_equal(got.positions, want.positions)

    @pytest.mark.parametrize("name", NEWTON_STARTS)
    def test_chord_steps_converge_on_one_chart(self, name, monkeypatch):
        st = NEWTON_STARTS[name]()
        calls = count_gauge_builds(monkeypatch)
        sol = newton_solve(st)
        assert np.max(np.abs(sol.residual())) < solver.NEWTON_TOL
        assert len(calls) == 1

    @pytest.mark.parametrize("fixture", ["tetra", "hexa"])
    def test_continuation_builds_one_gauge_per_step(self, fixture, request,
                                                    monkeypatch):
        P, out = request.getfixturevalue(fixture)
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        calls = count_gauge_builds(monkeypatch)
        _, report = continuation(start, out.metric, steps=4)
        assert len(report.steps) == 4
        assert len(calls) <= 4 + 1

    def test_stale_base_failure_retries_from_a_fresh_base(self, monkeypatch):
        st = NEWTON_STARTS["tetrahedron"]()
        bases = []
        moved = SolverState.moved

        def failing_from_stale_start(self, delta, gauge, frames):
            bases.append(self)
            if self is st and len(bases) > 1:
                raise FeasibilityLost("left the chart")
            return moved(self, delta, gauge, frames)

        monkeypatch.setattr(SolverState, "moved", failing_from_stale_start)
        sol = newton_solve(st)
        assert np.max(np.abs(sol.residual())) < solver.NEWTON_TOL
        # the stale base failed at every damping level before the re-base:
        # the steps 1, 1/2, ... down to DAMPING_FLOOR
        ladder = 1 + int(-np.log2(solver.DAMPING_FLOOR))
        stale = [b is st for b in bases]
        assert stale[:2] == [True, True] and sum(stale) > ladder
        assert bases[-1] is not st

    def test_failure_from_a_fresh_base_is_raised(self, monkeypatch):
        st = NEWTON_STARTS["tetrahedron"]()
        bases = []
        moved = SolverState.moved

        def failing_after_first_step(self, delta, gauge, frames):
            bases.append(self)
            if len(bases) > 1:
                raise FeasibilityLost("left the chart")
            return moved(self, delta, gauge, frames)

        monkeypatch.setattr(SolverState, "moved", failing_after_first_step)
        with pytest.raises(FeasibilityLost,
                           match=r"^every damped step left the feasible set "
                                 r"\(left the chart\)$"):
            newton_solve(st)
        # first the stale start, then the fresh first iterate, fail alike
        assert bases[1] is st and bases[-1] is not st
        assert sum(b is not st for b in bases) == sum(b is st for b in bases) - 1


class TestPerturbation:
    def test_draws_like_point_by_point(self):
        # edges near 6.4 let the step reach 0.64 per unit normal: about a
        # tenth of the points leave their chart, and no try realizes it
        P = regular_tetrahedron(np.pi / 3 + 1e-3)
        chart = dualize(P).metric
        left = 0
        for seed in range(4):
            rng, oracle_rng = (np.random.RandomState(seed) for _ in range(2))
            with pytest.raises(SolverError, match="failed to perturb"):
                perturbed_polyhedron(P, rng, 1.0, chart=chart)
            left += draw_point_by_point(P, oracle_rng, 1.0)
            assert rng.randn() == oracle_rng.randn()
        assert left > 0


    @pytest.mark.parametrize("seed", [2, 3])
    def test_draw_that_misses_the_quadric_is_retried(self, seed):
        # these draws put a point where <v, v> is so near 0 that normalizing
        # it twice leaves the quadric by more than NORM_TOL; the hull rejects
        # it as an invalid polyhedron, and the search fails as a solver error
        P = regular_tetrahedron(np.pi / 3 + 1e-3)
        with pytest.raises(SolverError, match="failed to perturb"):
            perturbed_polyhedron(P, np.random.RandomState(seed), 1.0)


class TestNewton:
    def test_zero_iterations_at_truth(self, tetra):
        P, out = tetra
        st = state_of(P, out)
        sol = newton_solve(st)
        assert np.array_equal(sol.positions, st.positions)

    def test_converges_from_small_perturbations(self, tetra):
        P, out = tetra
        rng = np.random.RandomState(7)
        for _ in range(3):
            Q = perturbed_polyhedron(P, rng, 1e-3)
            st = SolverState(np.stack([p.v for p in Q.planes]),
                             out.metric.surface, out.metric.lengths)
            sol = newton_solve(st)
            assert np.max(np.abs(sol.residual())) < 1e-10

    def test_far_start_loses_feasibility(self, tetra):
        from polydual.errors import FeasibilityLost

        P, out = tetra
        # four dual points on one spacelike circle: the planes all pass
        # through a common axis, so the hull degenerates
        pts = np.array([[0, np.cos(a), np.sin(a), 0.0]
                        for a in (0.0, 1.3, 2.9, 4.4)])
        st = SolverState(pts, out.metric.surface, out.metric.lengths)
        with pytest.raises(FeasibilityLost):
            newton_solve(st)


class TestContinuation:
    def test_round_trip_identity(self, tetra):
        P, out = tetra
        rng = np.random.RandomState(3)
        start = perturbed_polyhedron(P, rng, 1e-2)
        final, rep = continuation(start, out.metric, steps=8)
        assert match_dihedral_angles(P, recovered_polyhedron(final))
        assert rigidity_report(final).smallest_singular_value > 1e-8

    def test_hexahedron_round_trip(self, hexa):
        P, out = hexa
        start = perturbed_polyhedron(P, np.random.RandomState(5), 5e-3)
        final, _ = continuation(start, out.metric, steps=8)
        assert match_dihedral_angles(P, recovered_polyhedron(final))

    def test_checked_start_state_is_used_as_it_is(self, hexa, monkeypatch):
        """A start state on the target's chart, as `roundtrip` passes it,
        gets no second chart verdict; its points give the same end."""
        P, out = hexa
        start = solver.perturbed_state(P, np.random.RandomState(1), 1e-2,
                                       out.metric)
        verdicts = []
        decide = solver.chart_verdict
        monkeypatch.setattr(solver, "chart_verdict",
                            lambda *args: verdicts.append(1) or decide(*args))
        final, rep = continuation(start, out.metric, steps=8)
        reused = len(verdicts)
        again, rep_again = continuation(start.positions, out.metric, steps=8)
        assert len(verdicts) - reused == reused + 1
        np.testing.assert_array_equal(final.positions, again.positions)
        assert rep == rep_again

    def test_scaled_target(self, tetra):
        P, out = tetra
        target = scale(out.metric, 0.05)
        final, _ = continuation(P, target, steps=10)
        assert np.max(np.abs(final.current_lengths() - target.lengths)) < 1e-9
        # the recovered polyhedron genuinely changed
        assert not match_dihedral_angles(P, recovered_polyhedron(final))

    def test_rejects_nonconcave_target(self, tetra):
        P, _ = tetra
        surf = dualize(P).metric.surface
        small = ConeMetric(surf, SPHERICAL, np.full(surf.n_edges, 0.4))
        with pytest.raises(InvalidConeMetric):
            continuation(P, small, steps=4)

    def test_rejects_triangle_violation_at_construction(self, tetra):
        P, out = tetra
        surf = out.metric.surface
        bad = out.metric.lengths.copy()
        # shrink two sides of triangle 0 far below the third
        bad[surf.halfedge_edge[0]] = 0.1
        bad[surf.halfedge_edge[1]] = 0.1
        with pytest.raises(InvalidConeMetric):
            ConeMetric(surf, SPHERICAL, bad)

    def test_blocked_on_wrong_chart(self, tetra, hexa):
        # a hexahedron target cannot be reached from a tetrahedron start
        P_t, _ = tetra
        _, out_h = hexa
        with pytest.raises((HomotopyBlocked, SolverError)):
            continuation(P_t, out_h.metric, steps=4)

    def test_flip_event_across_combinatorial_wall(self):
        # target: dual of a perturbed bipyramid whose equator vertex split the
        # opposite way from the start chart's diagonal; the solution path
        # crosses the wall and the chart must flip once
        from polydual.surface import flip_edge

        B = triangular_bipyramid()
        rng = np.random.RandomState(42)
        pts = np.stack([p.v for p in B.planes])
        for i in range(len(pts)):
            fr, _ = scalar_tangent_frame(pts, i)
            v = pts[i] + fr @ (0.03 * rng.randn(3))
            pts[i] = v / np.sqrt(minkowski_inner(v, v))
        B3 = hull_from_dual_points(pts)
        assert B3.n_vertices == 8  # all three quad vertices split
        m3 = dualize(B3).metric
        e_conflict = next(e for e in range(m3.surface.n_edges)
                          if set(m3.surface.edge_pairs[e].tolist()) == {2, 3})
        target, _ = flip_edge(m3, e_conflict)

        final, report = continuation(B, target, steps=10)
        assert len(report.flips) == 1 and report.flips[0].s == 0.0
        assert report.flips[0].flipped_edge_pair == (0, 5)
        assert report.flips[0].new_edge_pair == (2, 3)
        assert np.max(np.abs(final.residual())) < 1e-10
        assert match_dihedral_angles(B3, recovered_polyhedron(final))

    def test_largeness_precondition(self, tetra):
        P, out = tetra
        validate_target(out.metric, largeness_depth=4)
        from polydual.surface import octahedron_sphere

        # geodesics of length exactly 2*pi violate largeness; the failure is
        # named alongside the concavity one
        round_sphere = octahedron_sphere()
        with pytest.raises(InvalidConeMetric, match="largeness"):
            validate_target(round_sphere, largeness_depth=6)


def count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name while the test runs."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def without_refutation(monkeypatch):
    """Make every violated verdict undecided, so that every state the chart
    does not certify takes the full check: the solver before refutation."""
    decide = solver.chart_verdict

    def undecided(duals, surface):
        verdict = decide(duals, surface)
        return (UNDECIDED, None) if verdict[0] == VIOLATED else verdict

    monkeypatch.setattr(solver, "chart_verdict", undecided)


def perturbed_bipyramid(seed):
    """Every dual point of the bipyramid moved by 2e-2 times a standard
    normal in its tangent frame, drawn from RandomState(seed)."""
    base = state_of(triangular_bipyramid()).positions
    frames, _ = solver._tangent_frames(base)
    rng = np.random.RandomState(seed)
    v, q = solver._chart_moves(base, frames, 2e-2 * rng.randn(len(base), 3))
    return v / np.sqrt(q)[:, None]


def wall_crossing_newton_start():
    """Chart A of perturbed_bipyramid(1), retargeted halfway to the lengths
    of perturbed_bipyramid(3) with its edges outside chart A flipped: every
    damped Newton step from it crosses the wall at the chart pair (1, 3)."""
    chart = dualize(hull_from_dual_points(perturbed_bipyramid(1))).metric
    pairs = [frozenset(p) for p in chart.surface.edge_pairs.tolist()]
    far = dualize(hull_from_dual_points(perturbed_bipyramid(3))).metric
    while True:
        outside = [e for e, p in enumerate(far.surface.edge_pairs.tolist())
                   if frozenset(p) not in pairs]
        if not outside:
            break
        far, _ = flip_edge(far, outside[0])
    at = {frozenset(p): far.lengths[e]
          for e, p in enumerate(far.surface.edge_pairs.tolist())}
    target = np.array([at[p] for p in pairs])
    st = SolverState(perturbed_bipyramid(1), chart.surface, chart.lengths)
    return st.retarget(0.5 * chart.lengths + 0.5 * target)


def far_tetrahedron_start():
    """The regular tetrahedron retargeted to its lengths times exp(u), u
    uniform in (-0.3, 0.3) from the eleventh draw of RandomState(0): the last
    damped step that leaves the feasible set is one the chart refutes."""
    P = regular_tetrahedron(1.15)
    chart = dualize(P).metric
    rng = np.random.RandomState(0)
    for _ in range(11):
        scaled = chart.lengths * np.exp(rng.uniform(-0.3, 0.3, len(chart.lengths)))
    return state_of(P).retarget(scaled)


FAILING_NEWTON_STARTS = {
    "wall-crossing": (wall_crossing_newton_start,
                      "hull edges [(1, 3)] missing from the chart", [(1, 3)]),
    "far-tetrahedron": (far_tetrahedron_start,
                        "hull reconstruction failed: plane family admits no "
                        "common interior", None),
}


def refutation_corpus():
    """Fixtures and seeded 8-20-face solids, each on its dual chart."""
    polys = [make() for make in CERTIFY_SOLIDS.values()]
    polys += [fibonacci_solid(np.random.RandomState([7, 0, n]), n, 0.1).poly
              for n in (8, 12, 16, 20)]
    return [(np.stack([p.v for p in P.planes]), dualize(P).metric)
            for P in polys]


class TestRefutation:
    """A violated chart rejects a state without a hull, and only where the
    full check rejects it too; a verdict that leaves the solver is the full
    check's."""

    def test_violated_states_fail_the_full_check(self, monkeypatch):
        violated = []
        decide = solver.chart_verdict

        def recording(duals, surface):
            verdict = decide(duals, surface)
            if verdict[0] == VIOLATED:
                violated.append((np.array(duals), surface))
            return verdict

        monkeypatch.setattr(solver, "chart_verdict", recording)
        # every Newton trial of a solve that crosses a wall, and of the
        # fixtures' round trips
        with pytest.raises(FeasibilityLost):
            newton_solve(wall_crossing_newton_start())
        from_newton = len(violated)
        for P in (regular_tetrahedron(1.15), hexahedron(0.5)):
            start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
            continuation(start, dualize(P).metric, steps=4)
        # states drawn ever farther from the fixtures and the solids
        rng = np.random.RandomState(17)
        for pts, chart in refutation_corpus():
            for magnitude in np.geomspace(1e-3, 1e-1, 5):
                for _ in range(3):
                    st = SolverState(moved_planes(pts, rng, magnitude),
                                     chart.surface, chart.lengths)
                    try:
                        check_feasible(st)
                    except FeasibilityLost:
                        pass
        assert from_newton > 0 and len(violated) > from_newton + 20
        for pts, surface in violated:
            st = SolverState(pts, surface, np.ones(surface.n_edges))
            with pytest.raises(FeasibilityLost):
                solver._checked_hull(st)

    def test_violated_state_builds_no_hull_and_no_metric(self, monkeypatch):
        rng = np.random.RandomState(17)
        pts, chart = refutation_corpus()[-1]
        st = next(st for st in (
            SolverState(moved_planes(pts, rng, 0.1), chart.surface,
                        chart.lengths) for _ in range(20))
            if chart_verdict(st.positions, st.surface)[0] == VIOLATED)
        hulls = count_hull_builds(monkeypatch)
        metrics = count_calls(monkeypatch, solver, "ConeMetric")
        with pytest.raises(solver.ChartRefuted) as exc:
            check_feasible(st)
        assert exc.value.state is st
        assert hulls == [] and metrics == []
        # the full verdict on it is the full check's
        with pytest.raises(FeasibilityLost) as full:
            solver._checked_hull(st)
        got = solver.full_verdict(exc.value)
        assert type(got) is FeasibilityLost and str(got) == str(full.value)

    @pytest.mark.parametrize("name", FAILING_NEWTON_STARTS)
    def test_failed_newton_raises_the_full_verdict(self, name, monkeypatch):
        start, why, missing = FAILING_NEWTON_STARTS[name]
        hulls = count_hull_builds(monkeypatch)
        with pytest.raises(FeasibilityLost) as lean:
            newton_solve(start())
        lean_hulls = len(hulls)
        without_refutation(monkeypatch)
        with pytest.raises(FeasibilityLost) as full:
            newton_solve(start())
        assert str(lean.value) == str(full.value)
        assert str(lean.value) == (
            f"every damped step left the feasible set ({why})")
        assert lean.value.missing_sides == full.value.missing_sides == missing
        assert type(lean.value) is FeasibilityLost
        assert lean_hulls < len(hulls) - lean_hulls

    def test_refuted_start_reports_the_full_verdict(self, monkeypatch):
        # faces 1 and 4 swapped: the start does not realize the chart
        P = random_polyhedron(np.random.RandomState(2), 10)
        chart = dualize(P).metric
        planes = [P.planes[i] for i in (0, 4, 2, 3, 1, 5, 6, 7, 8, 9)]
        pts = np.stack([p.v for p in planes])
        assert chart_verdict(pts, chart.surface)[0] == VIOLATED
        with pytest.raises(HomotopyBlocked) as lean:
            continuation(planes, chart, steps=2)
        without_refutation(monkeypatch)
        with pytest.raises(HomotopyBlocked) as full:
            continuation(planes, chart, steps=2)
        assert str(lean.value) == str(full.value)
        assert "missing from the chart" in str(lean.value)

    def test_perturbation_skips_refuted_tries(self, monkeypatch):
        P = random_polyhedron(np.random.RandomState(2), 7)
        chart = dualize(P).metric
        hulls = count_hull_builds(monkeypatch)
        lean = perturbed_polyhedron(P, np.random.RandomState(5), 1.0,
                                    chart=chart)
        lean_hulls = len(hulls)
        without_refutation(monkeypatch)
        full = perturbed_polyhedron(P, np.random.RandomState(5), 1.0,
                                    chart=chart)
        assert_same_polyhedron(lean, full)
        assert lean_hulls < len(hulls) - lean_hulls


class TestLeanTrial:
    def test_trials_are_not_built_by_the_constructor(self, monkeypatch):
        st = NEWTON_STARTS["hexahedron"]()
        builds = count_calls(monkeypatch, SolverState, "__init__")
        trials = count_calls(monkeypatch, SolverState, "moved")
        sol = newton_solve(st)
        assert np.max(np.abs(sol.residual())) < solver.NEWTON_TOL
        assert len(trials) > 0 and builds == []

    def test_trial_shares_the_base_arrays(self, hexa):
        st = state_of(*hexa)
        check_feasible(st)
        trial = st.moved(np.full(len(st.gauge().free), 1e-4), st.gauge(),
                         st.frames())
        for name in ("surface", "edge_pairs", "target"):
            assert getattr(trial, name) is getattr(st, name)
        assert trial.cache == {} and "verdict" in st.cache
        assert not np.shares_memory(trial.positions, st.positions)

    def test_trial_rechecks_the_quadric(self, hexa, monkeypatch):
        # renormalizing by a square that is off by 1e-8 leaves the quadric
        st = state_of(*hexa)
        chart_moves = solver._chart_moves

        def off(x, frames, xi):
            v, q = chart_moves(x, frames, xi)
            return v, q * (1 + 1e-8)

        monkeypatch.setattr(solver, "_chart_moves", off)
        with pytest.raises(SolverError, match="de Sitter quadric"):
            st.moved(np.full(len(st.gauge().free), 1e-4), st.gauge(),
                     st.frames())

    def test_constructor_still_checks_everything(self, hexa):
        st = state_of(*hexa)
        with pytest.raises(SolverError, match="de Sitter quadric"):
            SolverState(st.positions * (1 + 1e-9), st.surface, st.target)
        with pytest.raises(SolverError, match="need 6 dual points"):
            SolverState(st.positions[:5], st.surface, st.target)
        with pytest.raises(SolverError, match="one target length"):
            SolverState(st.positions, st.surface, st.target[:-1])


class TestLengthsMemo:
    def test_retarget_shares_the_read_only_lengths(self, tetra, monkeypatch):
        P, out = tetra
        st = state_of(P, out)
        lengths = st.current_lengths()
        builds = count_calls(monkeypatch, SolverState, "__init__")
        again = st.retarget(scale(out.metric, 1e-3).lengths)
        assert builds == []
        assert again.current_lengths() is lengths
        assert not lengths.flags.writeable
        with pytest.raises(ValueError):
            lengths[0] = 1.0
        fresh = ds_distances(*st.positions[st.edge_pairs.T])
        assert lengths.tobytes() == fresh.tobytes()

    def test_trials_start_without_lengths(self, hexa):
        st = state_of(*hexa)
        st.current_lengths()
        trial = st.moved(np.full(len(st.gauge().free), 1e-4), st.gauge(),
                         st.frames())
        assert "lengths" not in trial.cache
        got = trial.current_lengths()
        assert trial.cache["lengths"] is got
        assert not np.array_equal(got, st.current_lengths())

    def test_roundtrip_measures_each_position_set_once(self, tmp_path,
                                                      monkeypatch):
        path = str(tmp_path / "tet.json")
        assert main(["gen", "tetrahedron", "--out", path]) == 0
        measured = []
        measure = solver.ds_distances

        def recording(u, w):
            measured.append((u.tobytes(), w.tobytes()))
            return measure(u, w)

        monkeypatch.setattr(solver, "ds_distances", recording)
        assert main(["roundtrip", path, "--seed", "1", "--steps", "8"]) == 0
        assert len(measured) == 12
        assert len(set(measured)) == len(measured)


def newton_corpus():
    """Newton starts on the solver fixtures and on seeded 8-50-face solids."""
    starts = dict(NEWTON_STARTS)
    starts.update({f"solid-{n}": functools.partial(solid_state, n)
                   for n in (8, 12, 20, 30, 50)})
    return starts


def certified_corpus():
    """Dual points and charts that `chart_verdict` certifies: the
    certifiable fixtures and seeded 8-50-face solids."""
    states = [state_of(make()) for make in CERTIFY_SOLIDS.values()]
    states += [solid_state(n) for n in (8, 20, 50)]
    return [(st.positions, st.surface) for st in states if certified(st)]


def certified_radius(cert, rng):
    """The largest entry size of a random move of the certificate's points
    that `covers` still accepts, by bisection, and that move's direction."""
    direction = rng.uniform(-1.0, 1.0, cert.positions.shape)
    direction /= np.max(np.abs(direction))
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cert.covers(cert.positions + mid * direction) else (lo, mid)
    return lo, direction


class TestInheritedCertificate:
    """A chord trial within the accepted iterate's certified radius is
    certified without `chart_verdict`."""

    def test_inherited_trials_are_certified(self, monkeypatch):
        inherited, checked = [], []
        check_trial = solver._check_trial

        def recording(trial, reference):
            _, cert = reference.cache["verdict"]
            covered = cert is not None and cert.covers(trial.positions)
            check_trial(trial, reference)
            (inherited if covered else checked).append(trial)

        monkeypatch.setattr(solver, "_check_trial", recording)
        for make in newton_corpus().values():
            newton_solve(make())
        for P in (regular_tetrahedron(1.15), hexahedron(0.5)):
            start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
            continuation(start, dualize(P).metric, steps=4)
        assert len(inherited) > len(checked) > 0
        for trial in inherited:
            assert trial.cache["verdict"][0] == CERTIFIED
            assert chart_verdict(trial.positions, trial.surface)[0] == CERTIFIED

    def test_moves_within_the_radius_stay_certified(self):
        rng = np.random.RandomState(11)
        corpus = certified_corpus()
        assert len(corpus) >= 5
        for pts, surface in corpus:
            _, cert = chart_verdict(pts, surface)
            radius, _ = certified_radius(cert, rng)
            assert radius > 1e-4
            for _ in range(20):
                move = rng.uniform(-radius, radius, pts.shape)
                move[rng.rand(*pts.shape) < 0.5] = radius   # corners of the box
                assert cert.covers(pts + move)
                assert chart_verdict(pts + move, surface)[0] == CERTIFIED
            # past the radius, the bound gives up
            assert not cert.covers(pts + 2 * radius * np.ones_like(pts))

    def test_no_certificate_without_a_certified_chart(self):
        st = state_of(triangular_bipyramid())       # on a wall: undecided
        assert chart_verdict(st.positions, st.surface) == (UNDECIDED, None)
        check_feasible(st)
        assert st.cache["verdict"] == (UNDECIDED, None)


def certificate_fields(cert):
    """A ChartCertificate's numbers and points, for a bitwise comparison."""
    return (None if cert is None else
            (cert.positions.tobytes(), cert.slack, cert.inverse_bound,
             cert.klein_radius, cert.normal_bound, cert.roundoff,
             cert.points.tobytes()))


def assert_oracle_verdict(pts, surface, verdict):
    """`verdict` is chart_verdict's on (pts, surface): the verdict of the
    solve-based oracle and, when certified, the oracle's certificate bit
    for bit."""
    assert verdict[0] == oracles.chart_certifies(pts, surface)
    want = (oracles.chart_certificate(pts, surface)
            if verdict[0] == CERTIFIED else None)
    assert certificate_fields(verdict[1]) == certificate_fields(want)


class TestOneVerdict:
    """One stacked inverse per state gives the verdict of the solve-based
    oracle and the certificate of the inverse-based one."""

    def test_agrees_with_the_oracles_on_every_solver_state(self, monkeypatch):
        decided = []
        decide = solver.chart_verdict

        def recording(duals, surface):
            verdict = decide(duals, surface)
            decided.append((np.array(duals), surface, verdict))
            return verdict

        monkeypatch.setattr(solver, "chart_verdict", recording)
        for make in newton_corpus().values():
            newton_solve(make())
        with pytest.raises(FeasibilityLost):
            newton_solve(wall_crossing_newton_start())
        rng = np.random.RandomState(17)
        for pts, chart in refutation_corpus():
            for magnitude in np.geomspace(1e-3, 1e-1, 5):
                for _ in range(3):
                    moved = moved_planes(pts, rng, magnitude)
                    decided.append((moved, chart.surface,
                                    decide(moved, chart.surface)))
        verdicts = {verdict[0] for _, _, verdict in decided}
        assert verdicts == {CERTIFIED, UNDECIDED, VIOLATED}
        for pts, surface, verdict in decided:
            assert_oracle_verdict(pts, surface, verdict)

    def test_certificates_equal_the_oracle_bit_for_bit(self):
        for pts, surface in certified_corpus():
            verdict = chart_verdict(pts, surface)
            assert verdict[0] == CERTIFIED and verdict[1] is not None
            assert_oracle_verdict(pts, surface, verdict)

    def test_a_state_keeps_one_verdict(self):
        st = NEWTON_STARTS["hexahedron"]()
        check_feasible(st)
        assert st.cache.keys() == {"verdict"}
        assert st.cache["verdict"][0] == CERTIFIED
        assert st.retarget(st.target).cache["verdict"] is st.cache["verdict"]


class TestOneFactorPerBase:
    def test_singular_jacobian_keeps_its_message_without_a_warning(
            self, monkeypatch):
        jac = solver.jacobian

        def singular(state):
            out = jac(state).copy()
            out[:, 0] = 0.0
            return out

        monkeypatch.setattr(solver, "jacobian", singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepStalled) as exc:
                newton_solve(NEWTON_STARTS["hexahedron"]())
        assert str(exc.value) == "singular Jacobian: Singular matrix"

    def test_one_factorization_per_base(self, monkeypatch):
        factors = []
        dgetrf, dgetrs = solver._lapack()
        monkeypatch.setattr(solver, "_lapack", lambda: (
            lambda *args: factors.append(1) or dgetrf(*args), dgetrs))
        gauges = count_gauge_builds(monkeypatch)
        sol = newton_solve(NEWTON_STARTS["solid-30-scaled"]())
        assert np.max(np.abs(sol.residual())) < solver.NEWTON_TOL
        assert len(factors) == len(gauges) >= 1

    @pytest.mark.parametrize("name", sorted(newton_corpus()))
    def test_agrees_with_the_linalg_solve_newton(self, name):
        got = newton_solve(newton_corpus()[name]())
        want = chord_newton(newton_corpus()[name]())
        assert np.max(np.abs(got.residual())) < solver.NEWTON_TOL
        np.testing.assert_allclose(got.positions, want.positions, rtol=0,
                                   atol=1e3 * solver.NEWTON_TOL)


class TestChartAcrossSteps:
    @pytest.mark.parametrize("fixture", ["tetra", "hexa"])
    def test_without_rigidity_no_report_and_fewer_bases_than_steps(
            self, fixture, request, monkeypatch):
        P, out = request.getfixturevalue(fixture)
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        reports = count_calls(monkeypatch, solver, "rigidity_report")
        bases = count_gauge_builds(monkeypatch)
        final, report = continuation(start, out.metric, steps=8)
        assert np.max(np.abs(final.residual())) < solver.NEWTON_TOL
        assert len(report.steps) == 8 and reports == []
        assert len(bases) < len(report.steps)
        assert match_dihedral_angles(P, recovered_polyhedron(final))

    def test_no_state_refers_to_itself(self, tetra, monkeypatch):
        P, out = tetra
        solutions = []
        solve = solver.newton_solve

        def recording(state, tol=solver.NEWTON_TOL, track=False):
            solutions.append(solve(state, tol, track))
            return solutions[-1]

        monkeypatch.setattr(solver, "newton_solve", recording)
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        final, report = continuation(start, out.metric, steps=4)
        assert any("chart" in st.cache for st in solutions)
        for st in solutions:
            if "chart" in st.cache:
                base, _ = st.cache["chart"]
                assert base is not st and base.cache is not st.cache
                assert "chart" not in base.cache          # bases keep none
        # the report holds numbers, not states, and without cycles the
        # solved states die with their last reference
        gc.disable()
        try:
            alive = [weakref.ref(st) for st in solutions]
            del solutions[:], final, st, base
            assert [ref() for ref in alive] == [None] * len(alive)
        finally:
            gc.enable()
        for step in report.steps:
            assert {type(v) for v in vars(step).values()} == {float}


@functools.lru_cache(maxsize=None)
def roundtrip_inputs():
    """(name, start points, target) as `roundtrip --steps 8` makes them on
    the solve-small inputs: the fixtures and seed-1-3 8-20-face
    bench/solids.py solids, each start perturbed by 1e-2 in its charts."""
    polys = {"tetrahedron": regular_tetrahedron(1.15),
             "hexahedron": hexahedron(0.5), "bipyramid": triangular_bipyramid()}
    polys.update({f"solid-{n}-seed{seed}": fibonacci_solid(
                      np.random.RandomState([seed, 0, n]), n, 0.1).poly
                  for seed in (1, 2, 3) for n in (8, 12, 16, 20)})
    inputs = []
    for name, P in polys.items():
        target = dualize(P).metric
        start = solver.perturbed_state(P, np.random.RandomState(1), 1e-2,
                                       target)
        inputs.append((name, start.positions, target))
    return inputs


def gram(state):
    return state.positions @ J @ state.positions.T


def never_certified(monkeypatch):
    """Make every certified verdict undecided: no state has a certificate,
    and each takes the full check."""
    decide = solver.chart_verdict

    def uncertified(duals, surface):
        verdict = decide(duals, surface)
        return (UNDECIDED, None) if verdict[0] == CERTIFIED else verdict

    monkeypatch.setattr(solver, "chart_verdict", uncertified)


def recording_solves(monkeypatch):
    """Record (starting residual, track, solved residual, certificate of
    the solution) of every solve a continuation makes, each residual as its
    max norm."""
    solves = []
    solve = solver.newton_solve

    def recording(state, tol=solver.NEWTON_TOL, track=False):
        r0 = np.max(np.abs(state.residual()))
        out = solve(state, tol, track)
        solves.append((r0, track, np.max(np.abs(out.residual())),
                       out.cache["verdict"][1]))
        return out

    monkeypatch.setattr(solver, "newton_solve", recording)
    return solves


class TestTrackedContinuation:
    """Intermediate continuation steps are tracked, only s = 1 is solved
    to tol, and the end agrees with the continuation that solves every step
    to tol."""

    def test_final_states_agree_with_the_tight_continuation(self):
        for name, start, target in roundtrip_inputs():
            got, report = continuation(start, target, steps=8)
            want, tight = oracles.tight_continuation(start, target, steps=8)
            assert [s.s for s in report.steps] == [s.s for s in tight.steps]
            assert report.steps[-1].residual < solver.NEWTON_TOL
            assert np.max(np.abs(gram(got) - gram(want))) <= (
                1e3 * solver.NEWTON_TOL), name

    def test_tracked_steps_stop_near_the_path(self, monkeypatch):
        solves = recording_solves(monkeypatch)
        ends = []
        for _, start, target in roundtrip_inputs():
            continuation(start, target, steps=8)
            ends.append(len(solves) - 1)
        for k, (r0, track, r, cert) in enumerate(solves):
            assert track == (k not in ends)
            if track and cert is not None:
                assert r <= solver.CHORD_CONTRACTION * r0 or r < solver.NEWTON_TOL
            else:
                assert r < solver.NEWTON_TOL
        # not vacuous: most tracked steps stop short of tol
        stopped = [r >= solver.NEWTON_TOL for _, track, r, _ in solves if track]
        assert sum(stopped) > len(stopped) / 2

    @pytest.mark.parametrize("name", NEWTON_STARTS)
    def test_an_iterate_without_a_certificate_runs_to_tol(self, name,
                                                          monkeypatch):
        never_certified(monkeypatch)
        got = newton_solve(NEWTON_STARTS[name](), track=True)
        want = newton_solve(NEWTON_STARTS[name]())
        assert got.cache["verdict"] == (UNDECIDED, None)
        assert np.max(np.abs(got.residual())) < solver.NEWTON_TOL
        assert np.array_equal(got.positions, want.positions)

    @pytest.mark.parametrize("fixture", ["tetra", "hexa"])
    def test_uncertified_steps_are_the_tight_continuation(self, fixture,
                                                          request, monkeypatch):
        P, out = request.getfixturevalue(fixture)
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        never_certified(monkeypatch)
        want, _ = oracles.tight_continuation(start, out.metric, steps=4)
        solves = recording_solves(monkeypatch)
        got, _ = continuation(start, out.metric, steps=4)
        assert [track for _, track, _, _ in solves] == [True] * 3 + [False]
        assert all(cert is None and r < solver.NEWTON_TOL
                   for _, _, r, cert in solves)
        assert np.array_equal(got.positions, want.positions)

    def test_trials_fall_on_the_solve_small_inputs(self, monkeypatch):
        trials = count_calls(monkeypatch, SolverState, "moved")
        for _, start, target in roundtrip_inputs():
            continuation(start, target, steps=8)
        tracked = len(trials)
        for _, start, target in roundtrip_inputs():
            oracles.tight_continuation(start, target, steps=8)
        assert tracked < len(trials) - tracked


@contextlib.contextmanager
def recording_certified(states):
    """Append to `states` every state a check certifies while the block
    runs: checked by `check_feasible`, or a trial inheriting a certificate."""
    check, check_trial = solver.check_feasible, solver._check_trial

    def checking(state):
        check(state)
        if state.cache["verdict"][0] == CERTIFIED:
            states.append(state)

    def checking_trial(trial, reference):
        check_trial(trial, reference)
        if trial.cache["verdict"][0] == CERTIFIED:
            states.append(trial)

    solver.check_feasible, solver._check_trial = checking, checking_trial
    try:
        yield states
    finally:
        solver.check_feasible, solver._check_trial = check, check_trial


@functools.lru_cache(maxsize=None)
def far_target_run():
    """(outcomes, certified) of Newton from the fixtures to their lengths
    times exp(u), u uniform in (-0.3, 0.3), 48 solves: each solve's error
    message or None, and every state a check certified on the way."""
    polys = [regular_tetrahedron(1.15), hexahedron(0.5),
             random_polyhedron(np.random.RandomState(3), 7)]
    states = [state_of(P) for P in polys]
    rng = np.random.RandomState(0)
    outcomes, certified = [], []
    with recording_certified(certified):
        for k in range(48):
            st = states[k % 3]
            st = st.retarget(st.target * np.exp(rng.uniform(-0.3, 0.3, len(st.target))))
            try:
                newton_solve(st)
                outcomes.append(None)
            except (SolverError, GeometryError) as exc:
                outcomes.append(str(exc))
    return outcomes, certified


class TestFarTargets:
    def test_far_newton_solves_fail_as_solver_errors(self):
        # fixture lengths times exp(u), u uniform in (-0.3, 0.3): some hulls
        # put a vertex so near the sphere at infinity that its lift leaves
        # the hyperboloid by more than NORM_TOL
        outcomes, _ = far_target_run()
        assert None in outcomes
        assert any("does not lift onto H^3" in str(o) for o in outcomes)

    def test_every_certified_state_is_recovered(self):
        # the far targets certified states with a vertex at Klein radius
        # 0.9999-0.99999995, which no lift could build; a certified state's
        # vertices now lie inside LIFT_RADIUS, and its polyhedron is read
        # off the chart
        certified = list(far_target_run()[1])
        with recording_certified(certified):
            for make in newton_corpus().values():
                newton_solve(make())
            for _, start, target in roundtrip_inputs():
                continuation(start, target, steps=8)
        assert len(certified) > 500
        for st in certified:
            poly = recovered_polyhedron(st)
            assert poly.n_faces == st.surface.n_vertices
            radius = np.sqrt(1.0 - poly.vertex_rows[:, 0] ** -2.0)
            assert radius.max() < LIFT_RADIUS


def admission_rows():
    """The octahedron sphere's chart and rows of its 12 edge lengths that
    fail each of ConeMetric's checks and concavity in turn, a row on which
    ConeMetric raises DomainExceeded after the failing ones, and rows that
    are concave metrics."""
    surface = octahedron_sphere().surface

    def row(fill, edge=0, value=None):
        lengths = np.full(surface.n_edges, fill)
        if value is not None:
            lengths[edge] = value
        return lengths

    rows = [row(1.6),                            # concave
            row(1.5),                            # cone angles below 2 pi
            row(1.6, 3, np.nan),
            row(1.6, 5, 0.0),
            row(1.6, 2, 3.2),                    # beyond pi
            row(1.0, 0, 2.5),                    # triangle inequality
            row(2.2),                            # perimeter beyond 2 pi
            row(1.6, 4, 1e-12),                  # area below 1e-12
            row(1e-5, 0, 2e-5 * (1 - 1e-9)),     # a cosine beyond -1
            row(1.7)]
    return surface, np.array(rows)


FAILURE_KINDS = {"positive and finite": "value", "below pi": "pi",
                 "triangle inequality": "inequality", "perimeter": "perimeter",
                 "degenerate": "degenerate", "concavity lost": "concavity"}


def admission_kind(verdict):
    ok, why = verdict
    if ok:
        return "admitted"
    return next(kind for text, kind in FAILURE_KINDS.items() if text in why)


class TestPathAdmission:
    """The continuation admits its planned path in one stacked pass, row by
    row what a ConeMetric and is_concave say, and a row it never reaches
    raises nothing."""

    def test_rows_agree_with_the_metric_and_concavity_oracle(self):
        surface, rows = admission_rows()
        verdicts, margins = solver.admitted_rows(surface, rows)
        kinds = set()
        for k, row in enumerate(rows):
            want, want_margins = oracles.step_valid(surface, row)
            alone, alone_margins = solver.admitted_rows(surface, rows[k:k + 1])
            for got in (verdicts[k], alone[0]):
                if isinstance(want, DomainExceeded):
                    assert type(got) is DomainExceeded and str(got) == str(want)
                else:
                    assert got == want
            if isinstance(want, DomainExceeded):
                kinds.add("domain")
                continue
            if want_margins is not None:
                assert margins[k].tobytes() == want_margins.tobytes()
                assert alone_margins[0].tobytes() == want_margins.tobytes()
            kinds.add(admission_kind(want))
        assert kinds == {*FAILURE_KINDS.values(), "admitted", "domain"}

    def test_continuation_admits_its_path_in_one_pass(self, tetra, monkeypatch):
        P, out = tetra
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        passes = count_calls(monkeypatch, solver, "admitted_rows")
        metrics = count_calls(monkeypatch, solver, "ConeMetric")
        _, report = continuation(start, out.metric, steps=8)
        assert len(report.steps) == 8
        assert len(passes) == 1 and metrics == []

    def test_steps_off_the_path_take_one_row_each(self, tetra, monkeypatch):
        # the first step fails once: the loop halves to s = 1/16 and steps
        # by 1/8 from there, off the planned path until s = 1
        P, out = tetra
        start = perturbed_polyhedron(P, np.random.RandomState(3), 1e-2)
        solve = solver.newton_solve
        failed = []

        def failing_once(state, tol=solver.NEWTON_TOL, track=False):
            if not failed:
                failed.append(1)
                raise StepStalled("stalled once")
            return solve(state, tol, track)

        sizes = []
        admit = solver.admitted_rows

        def recording(surface, lengths):
            sizes.append(len(lengths))
            return admit(surface, lengths)

        monkeypatch.setattr(solver, "newton_solve", failing_once)
        monkeypatch.setattr(solver, "admitted_rows", recording)
        _, report = continuation(start, out.metric, steps=8)
        assert [st.s for st in report.steps] == [
            *np.arange(1, 16, 2) / 16, 1.0]
        assert sizes == [8] + [1] * 8


def realize_inputs():
    """(start points, target) as `realize --start --steps 4` takes them on
    the first round of the seed-1 realize-large bench inputs: 30-, 40- and
    50-face bench/solids.py solids with no primal edge below 0.02."""
    solids = [fibonacci_solid(np.random.RandomState([1, 0, n]), n, 0.02)
              for n in (30, 40, 50)]
    return [(solid.start.plane_rows, solid.dual.metric) for solid in solids]


def certified_end_states():
    """The certified states a solve ends on in the solver tests' corpora:
    the round trips of the solve-small inputs, the realize solves of the
    first realize-large round, the Newton corpus, and the certified
    corpus's states as they are."""
    states = [continuation(start, target, steps=8)[0]
              for _, start, target in roundtrip_inputs()]
    states += [continuation(start, target, steps=4)[0]
               for start, target in realize_inputs()]
    states += [newton_solve(make()) for make in newton_corpus().values()]
    states += [SolverState(pts, surface, np.ones(surface.n_edges))
               for pts, surface in certified_corpus()]
    for st in states:
        check_feasible(st)
    return [st for st in states if st.cache["verdict"][0] == CERTIFIED]


class TestLeanPolyhedron:
    """A certified state's polyhedron is read off its chart and its
    verdict's triangle points."""

    def test_matches_the_checked_builder(self):
        states = certified_end_states()
        assert len(states) > 25
        for st in states:
            lean = recovered_polyhedron(st)
            full = oracles.checked_chart_polyhedron(st.positions, st.surface)
            for name in ("plane_rows", "edge_vertices", "edge_faces",
                         "triangles", "triangle_vertex", "cycle_vertices",
                         "cycle_offsets", "essential"):
                assert np.array_equal(getattr(lean, name), getattr(full, name)), name
            assert lean.discarded == full.discarded == []
            # the two solves' points differ by a few units of roundoff,
            # which the lift multiplies by up to x0^3: vertex rows differ
            # by up to 4.4e-15, not within the 1e-15 first asked for
            x0 = full.vertex_rows[:, :1]
            assert (np.abs(lean.vertex_rows - full.vertex_rows)
                    <= 16 * np.finfo(float).eps * x0 ** 3).all()

    def test_own_certificate_takes_no_second_solve(self, monkeypatch):
        st = solid_state(20)
        check_feasible(st)
        assert st.cache["verdict"][1] is not None
        solves = count_calls(monkeypatch, solver, "triangle_points")
        lattices = count_calls(monkeypatch, polyhedra, "_face_lattice")
        hulls = count_hull_builds(monkeypatch)
        poly = recovered_polyhedron(st)
        assert solves == [] and lattices == [] and hulls == []
        assert recovered_polyhedron(st) is poly


def roundtrip_counts(path, seed, monkeypatch):
    """(hulls, Jacobians) that the continuation of `roundtrip --steps 8`
    on the document `path` builds."""
    counted = {"hulls": [], "jacobians": []}
    counting = []
    for name, key in (("hull_from_dual_points", "hulls"),
                      ("jacobian", "jacobians")):
        build = getattr(solver, name)

        def count(*args, build=build, key=key):
            if counting:
                counted[key].append(1)
            return build(*args)

        monkeypatch.setattr(solver, name, count)
    follow = cli.continuation

    def following(*args, **kwargs):
        counting.append(1)
        try:
            return follow(*args, **kwargs)
        finally:
            counting.clear()

    monkeypatch.setattr(cli, "continuation", following)
    assert main(["roundtrip", path, "--seed", str(seed), "--steps", "8"]) == 0
    return len(counted["hulls"]), len(counted["jacobians"])


class TestWallLanding:
    """A full Newton step the chart refutes lands on the first wall it
    would cross, instead of halving into it."""

    def test_fraction_is_the_least_secant_crossing(self):
        st = wall_crossing_newton_start()
        base = st
        delta = solver._chord_step(base, st.residual())
        trial = base.moved(delta, base.gauge(), base.frames())
        assert chart_verdict(trial.positions, trial.surface)[0] == VIOLATED
        got = solver.wall_crossing(st.positions, trial.positions, st.surface)
        want = oracles.wall_crossing_by_pairs(st.positions, trial.positions,
                                              st.surface)
        assert 0.0 < got < 1.0
        assert got == pytest.approx(want, rel=1e-9)
        # no crossing back
        assert solver.wall_crossing(st.positions, st.positions, st.surface) == 0.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bipyramid_round_trip_lands_on_its_wall(self, seed, tmp_path,
                                                    monkeypatch):
        # the solution sits on a wall, and every full step of its s = 1
        # solve lands past it; it took 5 hulls and 7 (seed 1) or 8 (seed 2)
        # Jacobians halving into the wall
        path = str(tmp_path / "bip.json")
        assert main(["gen", "bipyramid", "--out", path]) == 0
        landings = count_calls(monkeypatch, solver, "wall_crossing")
        hulls, jacobians = roundtrip_counts(path, seed, monkeypatch)
        assert hulls <= 3 and jacobians <= 4
        assert len(landings) >= 1

    def test_one_landing_per_iteration(self, monkeypatch):
        # every damped step of this solve crosses the wall
        events = []
        for name in ("_chord_step", "wall_crossing"):
            original = getattr(solver, name)

            def recording(*args, name=name, original=original):
                events.append(name)
                return original(*args)

            monkeypatch.setattr(solver, name, recording)
        with pytest.raises(FeasibilityLost):
            newton_solve(wall_crossing_newton_start())
        assert "wall_crossing" in events
        assert "wall_crossing, wall_crossing" not in ", ".join(events)

    def test_a_landing_at_the_full_step_is_not_taken(self, monkeypatch):
        # a secant fraction that rounds to 1.0 would rebuild the refuted
        # full step; the solve halves instead and still ends
        calls = []

        def at_full_step(*args):
            calls.append(1)
            return 1.0

        monkeypatch.setattr(solver, "wall_crossing", at_full_step)
        with pytest.raises(FeasibilityLost):
            newton_solve(wall_crossing_newton_start())
        assert calls
