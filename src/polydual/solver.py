"""Newton continuation inverting the genus-0 realization map: find dual
vertex positions in dS^3 whose polyhedron induces a prescribed concave large
spherical cone-metric.

Unknowns are the positions of one point per marked dual vertex, moved inside
3-parameter tangent charts. Tangent frames are built from the configuration
itself (Minkowski Gram-Schmidt on directions toward the other points), which
makes every derived quantity exactly equivariant under global isometries;
the frames of all points come out of one stacked, masked Gram-Schmidt. The
gauge pins 3+2+1 chart coordinates of three independent points, chosen so
the pinned directions span the isometry orbit exactly; it is held as the
index of the 3n - 6 free chart coordinates plus the free directions of the
two partly pinned points. The Jacobian of the chart lengths in the free
coordinates is taken in closed form, and a chart move of all points is one
stacked update, so a Newton iteration does no Python work per point.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    FeasibilityLost,
    HomotopyBlocked,
    InvalidConeMetric,
    InvalidPolyhedron,
    NotSpacelikeSeparated,
    SolverError,
    StepStalled,
)
from .geodesic import closed_geodesic_search
from .minkowski import J, ds_distances, minkowski_rows
from .polyhedra import (
    ConvexPolyhedronH3,
    chart_certifies,
    dihedral_angles,
    hull_from_dual_points,
    polyhedron_from_chart,
)
from .surface import SPHERICAL, CombSurface, ConeMetric, is_concave

NEWTON_TOL = 1e-10
MATCH_TOL = 1e-8             # dihedral angle and edge length agreement
DAMPING_FLOOR = 1e-12
NEWTON_MAX_ITER = 50
PERTURB_TRIES = 60
PERTURB_EDGE_SHARE = 0.1     # largest perturbation, per unit of shortest edge
FRAME_TOL = 1e-10            # |<t, t>| below which a frame candidate is skipped
GAUGE_RANK_TOL = 1e-8        # singular values below this count as zero
GAUGE_PLANE_TOL = 1e-6       # relative third singular value of a pinned plane
TRIPLE_TOL = 1e-6            # smallest singular value of an independent triple


def _so31_basis():
    basis = []
    for i in range(1, 4):          # boosts
        m = np.zeros((4, 4))
        m[0, i] = m[i, 0] = 1.0
        basis.append(m)
    for i, j in ((1, 2), (1, 3), (2, 3)):   # rotations
        m = np.zeros((4, 4))
        m[i, j] = -1.0
        m[j, i] = 1.0
        basis.append(m)
    return basis


SO31_BASIS = _so31_basis()


def _tangent_frames(positions: np.ndarray) -> tuple:
    """Minkowski-orthonormal frames of the tangent spaces at all points.

    Point i orthonormalizes, in this order, the directions toward
    positions[(i + k) % n] for k = 1, ..., n - 1 and then the ambient axes,
    skipping every candidate whose remainder has |<t, t>| < FRAME_TOL, until
    it holds three vectors. All points run as one masked Gram-Schmidt in
    which each point keeps its own count and gets the arithmetic it would
    get alone. Returns frames (n, 4, 3), C-contiguous with column k the k-th
    vector, and signs (n, 3), the signs of the vectors' squares.
    """
    n = len(positions)
    vectors = np.zeros((n, 3, 4))
    signs = np.zeros((n, 3))
    count = np.zeros(n, dtype=int)
    for c in range(n + 3):
        rows = np.flatnonzero(count < 3)
        if not rows.size:
            break
        x = positions[rows]
        y = (positions[(rows + c + 1) % n] if c < n - 1
             else np.broadcast_to(np.eye(4)[c - n + 1], x.shape))
        t = y - minkowski_rows(x, y)[:, None] * x     # tangent projection
        for k in range(2):
            f = vectors[rows, k]
            s = signs[rows, k]
            t = np.where((count[rows] > k)[:, None],
                         t - (s * minkowski_rows(f, t))[:, None] * f, t)
        q = minkowski_rows(t, t)
        keep = np.abs(q) >= FRAME_TOL
        rows, t, q = rows[keep], t[keep], q[keep]
        vectors[rows, count[rows]] = t / np.sqrt(np.abs(q))[:, None]
        signs[rows, count[rows]] = np.where(q > 0, 1.0, -1.0)
        count[rows] += 1
    if np.any(count < 3):
        raise SolverError("tangent frame construction degenerated")
    return np.ascontiguousarray(vectors.transpose(0, 2, 1)), signs


def _coords_in_frame(frame, signs, v) -> np.ndarray:
    """Chart coordinates of a tangent vector v in a signed orthonormal frame."""
    return signs * (frame.T @ J @ v)


@dataclass
class Gauge:
    """The chart coordinates left free by pinning 3+2+1 of them.

    Every point has three chart coordinates, 3n in all, and `free` indexes
    the 3n - 6 free ones in point order. Point pinned[0] does not move;
    pinned[1] moves along the one column of free1 and pinned[2] along the
    two of free2, their first one and two chart coordinates holding the
    weights; every other point moves freely.
    """
    pinned: tuple                # (i0, i1, i2)
    free1: np.ndarray            # 3 x 1
    free2: np.ndarray            # 3 x 2
    free: np.ndarray             # indices of the free coordinates among 3n

    def n_free(self):
        return len(self.free)

    def chart_steps(self, delta: np.ndarray) -> np.ndarray:
        """(n, 3) chart steps of all points for free coordinates delta."""
        _, i1, i2 = self.pinned
        xi = np.zeros(len(self.free) + 6)
        xi[self.free] = delta
        xi = xi.reshape(-1, 3)
        xi[i1] = self.free1 @ xi[i1, :1]
        xi[i2] = self.free2 @ xi[i2, :2]
        return xi


def build_gauge(positions: np.ndarray, frames) -> Gauge:
    """Pin 3+2+1 chart coordinates of three independent points.

    The second point's pinned plane is the orbit of the first point's
    stabilizer; the third point's pinned line is the orbit of the residual
    one-parameter stabilizer. This removes exactly the six isometry degrees
    of freedom at generic configurations. `frames` is the pair that
    `_tangent_frames` returns.
    """
    vectors, signs = frames
    for i0, i1, i2 in _independent_triples(positions):
        acts0 = np.stack([A @ positions[i0] for A in SO31_BASIS], axis=1)
        _, sv, vt = np.linalg.svd(acts0)
        rank = int(np.sum(sv >= GAUGE_RANK_TOL * sv[0]))
        if 6 - rank != 3:
            continue
        stab0 = [sum(c[k] * SO31_BASIS[k] for k in range(6)) for c in vt[3:]]
        p1 = np.stack([_coords_in_frame(vectors[i1], signs[i1],
                                        A @ positions[i1]) for A in stab0],
                      axis=1)
        u1, sv1, vt1 = np.linalg.svd(p1)
        if sv1[1] < GAUGE_RANK_TOL or (len(sv1) > 2
                                       and sv1[2] > GAUGE_PLANE_TOL * sv1[0]):
            continue
        free1 = u1[:, 2:]
        c2 = vt1[2]
        stab1 = sum(c2[k] * np.asarray(stab0[k]) for k in range(3))
        v2 = _coords_in_frame(vectors[i2], signs[i2], stab1 @ positions[i2])
        if np.linalg.norm(v2) < GAUGE_RANK_TOL:
            continue
        u2, _, _ = np.linalg.svd(v2[:, None], full_matrices=True)
        free2 = u2[:, 1:]
        free = np.ones((len(positions), 3), dtype=bool)
        free[i0] = False
        free[i1, 1:] = False
        free[i2, 2:] = False
        return Gauge(pinned=(i0, i1, i2), free1=free1, free2=free2,
                     free=np.flatnonzero(free))
    raise SolverError("no independent point triple found for the gauge")


def _independent_triples(positions):
    n = len(positions)
    for i0 in range(n):
        for i1 in range(i0 + 1, n):
            for i2 in range(i1 + 1, n):
                m = np.stack([positions[i0], positions[i1], positions[i2]])
                if np.linalg.svd(m, compute_uv=False)[2] > TRIPLE_TOL:
                    yield (i0, i1, i2)


class SolverState:
    """Positions of the dual vertices plus the chart and target lengths."""

    def __init__(self, positions, surface: CombSurface, target_lengths):
        self.positions = np.asarray(positions, dtype=float).copy()
        self.surface = surface
        self.target = np.asarray(target_lengths, dtype=float).copy()
        n = surface.n_vertices
        if self.positions.shape != (n, 4):
            raise SolverError(f"need {n} dual points, got {self.positions.shape}")
        if self.target.shape != (surface.n_edges,):
            raise SolverError("one target length per chart edge required")
        norms = np.einsum("ij,jk,ik->i", self.positions, J, self.positions)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise SolverError("dual points must lie on the de Sitter quadric")
        if surface.has_parallel_edges:
            raise SolverError(
                "chart has two edges with the same endpoints; the extrinsic "
                "parametrization cannot separate them")
        self.edge_pairs = surface.edge_pairs
        self.triangles = surface.triangle_array
        if surface.n_edges != 3 * n - 6:
            raise SolverError("chart dimension is not 3n - 6; genus-0 required")
        # frames, gauge, Jacobian, the feasibility verdict and the polyhedron
        # depend only on positions and chart: built once, shared with every
        # retarget
        self.cache = {}

    # -- geometry ----------------------------------------------------------------

    def current_lengths(self) -> np.ndarray:
        try:
            return ds_distances(*self.positions[self.edge_pairs.T])
        except NotSpacelikeSeparated:
            raise NotSpacelikeSeparated(
                "a chart edge is no longer spacelike") from None

    def residual(self) -> np.ndarray:
        return self.current_lengths() - self.target

    def frames(self):
        """(frames, signs) of all points, as `_tangent_frames` returns them."""
        if "frames" not in self.cache:
            self.cache["frames"] = _tangent_frames(self.positions)
        return self.cache["frames"]

    def gauge(self) -> Gauge:
        if "gauge" not in self.cache:
            self.cache["gauge"] = build_gauge(self.positions, self.frames())
        return self.cache["gauge"]

    def retarget(self, target_lengths) -> "SolverState":
        """The same positions and chart with new target lengths, sharing this
        state's frames, gauge, Jacobian and feasibility verdict."""
        out = copy.copy(self)
        out.target = np.asarray(target_lengths, dtype=float).copy()
        return out

    def moved(self, delta: np.ndarray, gauge: Gauge, frames) -> "SolverState":
        """New state with free chart coordinates shifted by delta."""
        x = self.positions
        v, q = _chart_moves(x, frames[0], gauge.chart_steps(delta))
        left = np.flatnonzero(q <= 0)
        if left.size:
            raise FeasibilityLost(f"point {left[0]} left the quadric chart")
        out = v / np.sqrt(q)[:, None]
        # the fully pinned point stays put, not even renormalized
        out[gauge.pinned[0]] = x[gauge.pinned[0]]
        return SolverState(out, self.surface, self.target)


def _chart_moves(x: np.ndarray, frames: np.ndarray, xi: np.ndarray) -> tuple:
    """Every point x[i] moved by frames[i] @ xi[i], before renormalizing:
    the moved points and their Minkowski squares. The stacked matmul gives
    each point the bits of its own matrix-vector product."""
    v = x + (frames @ xi[..., None])[..., 0]
    return v, minkowski_rows(v, v)


def check_feasible(state: SolverState):
    """Convex position check: the dual points must cut out a compact
    polyhedron that keeps every plane and whose dual decomposition the chart
    refines. Violations raise FeasibilityLost.

    A generic state is decided by `chart_certifies`, which builds no hull:
    it proves the chart to be the polyhedron's dual decomposition, so the
    chart lengths are its dual metric and need no validity check either.
    Any state it does not certify (on a wall, or infeasible) takes the full
    check: the chart lengths must form a valid metric, then the hull is
    rebuilt and compared with the chart, and that hull is kept for
    `recovered_polyhedron`. A state that passed keeps its verdict, so
    checking it or a retarget of it again does nothing.
    """
    if "feasible" in state.cache:
        return
    if not chart_certifies(state.positions, state.triangles):
        state.cache["polyhedron"] = _checked_hull(state)
    state.cache["feasible"] = True


def _checked_hull(state: SolverState) -> ConvexPolyhedronH3:
    """The full feasibility check; returns the hull it rebuilt."""
    try:
        lengths = state.current_lengths()
        ConeMetric(state.surface, SPHERICAL, lengths)   # chart validity
    except (NotSpacelikeSeparated, InvalidConeMetric) as exc:
        raise FeasibilityLost(f"chart validity lost: {exc}") from exc
    try:
        poly = hull_from_dual_points(state.positions)
    except InvalidPolyhedron as exc:
        raise FeasibilityLost(f"hull reconstruction failed: {exc}") from exc
    if poly.discarded:
        raise FeasibilityLost(f"dual points {poly.discarded} became redundant")
    _check_refinement(poly, state)
    return poly


def _check_refinement(poly: ConvexPolyhedronH3, state: SolverState):
    sides = {frozenset(e.faces) for e in poly.edges}
    chart = [frozenset(p) for p in state.edge_pairs]
    chart_set = set(chart)
    missing = sides - chart_set
    if missing:
        raise FeasibilityLost(
            f"hull edges {sorted(tuple(s) for s in missing)} missing from the chart",
            missing_sides=[tuple(sorted(s)) for s in missing])
    links = [set(poly.faces_at_vertex(v)) for v in range(poly.n_vertices)]
    for pair in chart:
        if pair in sides:
            continue
        if not any(pair <= link for link in links):
            raise FeasibilityLost(
                f"chart edge {sorted(pair)} is not a chord of any dual polygon")


def jacobian(state: SolverState) -> np.ndarray:
    """Jacobian of the residual in the gauged chart coordinates, in closed form.

    cos l_e = <x_i, x_j>, and a chart move of x_i runs along the columns of
    its frame (for a pinned point, the frame times its free directions),
    which are tangent at x_i. Hence dl_e/dxi_i = -<x_j, move of x_i> /
    sin l_e, and row e is nonzero only in the free columns of its two
    endpoints. The result depends on positions and chart alone, so it is
    built once per state and shared with its retargets; do not modify it.
    """
    if "jacobian" in state.cache:
        return state.cache["jacobian"]
    vectors, _ = state.frames()
    gauge = state.gauge()
    x = state.positions
    n = len(x)
    _, i1, i2 = gauge.pinned
    moves = vectors.transpose(1, 0, 2).reshape(4, 3 * n)   # column 3i + k
    moves[:, 3 * i1:3 * i1 + 1] = vectors[i1] @ gauge.free1
    moves[:, 3 * i2:3 * i2 + 2] = vectors[i2] @ gauge.free2
    inner = np.zeros((n, 3 * n))                  # <x_j, move column>
    inner[:, gauge.free] = x @ J @ moves[:, gauge.free]
    i, j = state.edge_pairs.T
    rows = np.arange(len(i))[:, None]
    own_i = 3 * i[:, None] + np.arange(3)
    own_j = 3 * j[:, None] + np.arange(3)
    d_cos = np.zeros((len(i), 3 * n))
    d_cos[rows, own_i] += inner[j[:, None], own_i]
    d_cos[rows, own_j] += inner[i[:, None], own_j]
    jac = -d_cos[:, gauge.free] / np.sin(state.current_lengths())[:, None]
    state.cache["jacobian"] = jac
    return jac


@dataclass
class RigidityReport:
    smallest_singular_value: float
    condition_number: float


def rigidity_report(state: SolverState) -> RigidityReport:
    sv = np.linalg.svd(jacobian(state), compute_uv=False)
    return RigidityReport(smallest_singular_value=float(sv[-1]),
                          condition_number=float(sv[0] / sv[-1]))


def newton_solve(state: SolverState, tol: float = NEWTON_TOL) -> SolverState:
    """Damped Newton iteration on the gauged residual.

    The step is halved until the residual norm decreases and the trial state
    stays feasible; StepStalled fires at the damping floor, FeasibilityLost
    when every retry leaves convex position.
    """
    check_feasible(state)
    cur = state
    r = cur.residual()
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(r)) < tol:
            return cur
        Jm = jacobian(cur)
        try:
            delta = np.linalg.solve(Jm, -r)
        except np.linalg.LinAlgError as exc:
            raise StepStalled(f"singular Jacobian: {exc}") from exc
        step = 1.0
        last_feas_exc = None
        while step >= DAMPING_FLOOR:
            try:
                trial = cur.moved(step * delta, cur.gauge(), cur.frames())
                check_feasible(trial)
                r_trial = trial.residual()
            except SolverError as exc:
                last_feas_exc = exc
                step /= 2
                continue
            if np.linalg.norm(r_trial) < np.linalg.norm(r):
                cur, r = trial, r_trial
                break
            step /= 2
        else:
            if last_feas_exc is not None:
                missing = (last_feas_exc.missing_sides
                           if isinstance(last_feas_exc, FeasibilityLost) else None)
                raise FeasibilityLost(
                    f"every damped step left the feasible set ({last_feas_exc})",
                    missing_sides=missing) from last_feas_exc
            raise StepStalled(
                f"damping floor reached at residual {np.max(np.abs(r)):.3e}")
    if np.max(np.abs(r)) < tol:
        return cur
    raise StepStalled(
        f"no convergence after {NEWTON_MAX_ITER} iterations "
        f"(residual {np.max(np.abs(r)):.3e})")


@dataclass
class ContinuationStep:
    s: float
    residual: float
    smallest_singular_value: float


@dataclass
class FlipEvent:
    s: float
    flipped_edge_pair: tuple
    new_edge_pair: tuple


@dataclass
class ContinuationReport:
    steps: list = field(default_factory=list)
    flips: list = field(default_factory=list)
    bump: float = 0.0
    final_rigidity: Optional[RigidityReport] = None


def validate_target(target: ConeMetric, largeness_depth: Optional[int] = None):
    """Target admission: spherical chart metric, concave, optionally large.

    Every violated precondition is named in the raised message.
    """
    if target.geometry != SPHERICAL:
        raise InvalidConeMetric("target must be a spherical cone-metric")
    if target.surface.euler_characteristic != 2:
        raise InvalidConeMetric("continuation covers the genus-0 case")
    failures = []
    rep = is_concave(target)
    if not rep.concave:
        failures.append(
            f"concavity: worst margin {rep.min_margin:.3e}")
    if largeness_depth is not None:
        search = closed_geodesic_search(target, depth=largeness_depth)
        if search.found_within_cap:
            failures.append(
                f"largeness: contractible closed geodesic of length "
                f"{search.min_length:.6f} <= 2*pi")
    if failures:
        raise InvalidConeMetric("; ".join(failures))


def _edge_with_opposite_corners(surface: CombSurface, pair) -> Optional[int]:
    """Chart edge whose two adjacent triangles have the given opposite corners."""
    want = frozenset(pair)
    for e, (h1, h2) in enumerate(surface.edge_halfedges):
        t1, k1 = divmod(h1, 3)
        t2, k2 = divmod(h2, 3)
        c1 = surface.triangles[t1][(k1 + 2) % 3]
        c2 = surface.triangles[t2][(k2 + 2) % 3]
        if frozenset((c1, c2)) == want:
            return e
    return None


def _flip_chart(state: SolverState, l1: np.ndarray, exc, s: float):
    """Re-chart after the hull developed an edge the chart is missing.

    The chart edge whose quadrilateral has the missing side as its opposite
    diagonal is flipped in both the chart and the target lengths.
    """
    from .errors import FlipBlocked
    from .surface import flip_edge

    for pair in exc.missing_sides or ():
        e = _edge_with_opposite_corners(state.surface, pair)
        if e is None:
            continue
        try:
            flipped_target, e_new = flip_edge(
                ConeMetric(state.surface, SPHERICAL, l1), e)
        except (FlipBlocked, InvalidConeMetric):
            continue
        new_surface = flipped_target.surface
        try:
            new_state = SolverState(state.positions, new_surface,
                                    flipped_target.lengths)
            check_feasible(new_state)
        except (SolverError, FeasibilityLost):
            continue
        ev = FlipEvent(
            s=s,
            flipped_edge_pair=tuple(sorted(state.surface.edge_endpoints(e))),
            new_edge_pair=tuple(sorted(new_surface.edge_endpoints(e_new))))
        return new_state, flipped_target.lengths, ev
    return None


def continuation(start, target: ConeMetric,
                 steps: int = 10, tol: float = NEWTON_TOL) -> tuple:
    """Follow the straight edge-length homotopy from the start polyhedron's
    dual metric to the target, Newton-correcting at each step.

    `start` is a ConvexPolyhedronH3 or its dual points, a sequence of
    DSPoints. Returns (state, report). The start polyhedron must realize the
    target's chart: every chart edge a chord of its dual decomposition. A
    concavity dip along the way retries with a uniform upscaling bump; a
    hull edge missing from the chart triggers an edge flip of the chart and
    target, re-anchoring the homotopy at the current parameter.
    """
    validate_target(target)
    planes = start.planes if isinstance(start, ConvexPolyhedronH3) else start
    try:
        state = _realizing_state(np.array([p.v for p in planes]), target)
    except (FeasibilityLost, InvalidConeMetric) as exc:
        raise HomotopyBlocked(
            f"start polyhedron does not realize the target chart: {exc}",
            s=0.0) from exc
    l0 = state.current_lengths()
    l1 = target.lengths.copy()
    report = ContinuationReport()

    def schedule(surface, s, bump):
        lam = bump * 4.0 * s * (1.0 - s)
        return np.exp(lam) * ((1.0 - s) * l0 + s * l1)

    def step_valid(surface, lengths):
        try:
            m = ConeMetric(surface, SPHERICAL, lengths)
        except InvalidConeMetric as exc:
            return False, str(exc)
        rep = is_concave(m)
        if not rep.concave:
            return False, f"concavity lost (margin {rep.min_margin:.3e})"
        return True, ""

    bump = 0.0
    s = 0.0
    ds = 1.0 / steps
    min_ds = ds / 64.0
    while s < 1.0 - 1e-14:
        surface = state.surface
        s_next = min(1.0, s + ds)
        l_next = schedule(surface, s_next, bump)
        ok, why = step_valid(surface, l_next)
        if not ok:
            fixed = False
            for cand in (0.005, 0.01, 0.02, 0.05):
                if np.max(schedule(surface, s_next, cand)) < np.pi:
                    ok2, _ = step_valid(surface, schedule(surface, s_next, cand))
                    if ok2:
                        bump, fixed = cand, True
                        break
            if not fixed:
                edge = int(np.argmax(l_next)) if np.max(l_next) >= np.pi else None
                raise HomotopyBlocked(
                    f"interpolated metric leaves the chart at s={s_next:.4f}: {why}",
                    s=s_next, edge=edge)
            l_next = schedule(surface, s_next, bump)
        try:
            solved = newton_solve(state.retarget(l_next), tol=tol)
        except (StepStalled, FeasibilityLost) as exc:
            recovered = None
            if isinstance(exc, FeasibilityLost):
                recovered = _flip_chart(state, l1, exc, s)
            if recovered is not None:
                state, l1, ev = recovered
                l_cur = state.current_lengths()
                l0 = ((l_cur - s * l1) / (1.0 - s)
                      if s < 1.0 - 1e-12 else l_cur)
                report.flips.append(ev)
                continue
            if ds / 2 < min_ds:
                raise HomotopyBlocked(
                    f"Newton correction failed at s={s_next:.4f} with minimal "
                    f"step: {exc}", s=s_next) from exc
            ds /= 2
            continue
        state = solved
        s = s_next
        ds = min(2 * ds, 1.0 / steps)
        rig = report.final_rigidity = rigidity_report(state)
        report.steps.append(ContinuationStep(
            s=s, residual=float(np.max(np.abs(state.residual()))),
            smallest_singular_value=rig.smallest_singular_value))
    report.bump = bump
    return state, report


# -- helpers for round trips and start construction -----------------------------


def perturbed_polyhedron(P: ConvexPolyhedronH3, rng: np.random.RandomState,
                         magnitude: float = 1e-2,
                         chart: Optional[ConeMetric] = None) -> ConvexPolyhedronH3:
    """Perturb all dual points inside their tangent charts.

    The step is `magnitude` times a standard normal in each chart, with
    `magnitude` capped at PERTURB_EDGE_SHARE times P's shortest edge, so
    that short edges survive it. Without a chart, the face lattice
    combinatorics must survive the perturbation. With one, the perturbed
    polyhedron only has to realize the chart (polyhedra sitting on
    combinatorial walls, like bipyramids with four faces at a vertex, split
    under every generic perturbation)."""
    magnitude = min(magnitude, PERTURB_EDGE_SHARE
                    * min(P.edge_length(e) for e in range(P.n_edges)))
    base = np.stack([p.v for p in P.planes])
    frames, _ = _tangent_frames(base)
    want = {frozenset(e.faces) for e in P.edges}
    for _ in range(PERTURB_TRIES):
        drawn = rng.get_state()
        v, q = _chart_moves(base, frames, magnitude * rng.randn(len(base), 3))
        left = np.flatnonzero(q <= 0)
        if left.size:
            # keep the draws of a point-by-point try, which stops at the
            # first point that leaves its chart
            rng.set_state(drawn)
            rng.randn(left[0] + 1, 3)
            continue
        pts = v / np.sqrt(q)[:, None]
        if chart is not None:
            try:
                state = _realizing_state(pts, chart)
            except SolverError:
                continue
            return recovered_polyhedron(state)
        try:
            poly = hull_from_dual_points(pts)
        except InvalidPolyhedron:
            continue
        if poly.discarded:
            continue
        if {frozenset(e.faces) for e in poly.edges} != want:
            continue
        return poly
    raise SolverError("failed to perturb into a usable start")


def _realizing_state(points: np.ndarray, chart: ConeMetric) -> SolverState:
    """The state of dual points on a chart, checked by `check_feasible` to
    realize it: the start of a solve."""
    state = SolverState(points, chart.surface, chart.lengths)
    check_feasible(state)
    return state


def recovered_polyhedron(state: SolverState) -> ConvexPolyhedronH3:
    """The polyhedron cut out by a feasible state's dual points, built once
    per state: read off the chart when `chart_certifies` accepted the state,
    and otherwise the hull that `check_feasible` rebuilt and kept."""
    check_feasible(state)
    if "polyhedron" not in state.cache:
        state.cache["polyhedron"] = polyhedron_from_chart(state.positions,
                                                          state.surface)
    return state.cache["polyhedron"]


def _relabelings(poly: ConvexPolyhedronH3, surface: CombSurface):
    """Face relabelings sending the hull's dual decomposition into the chart.

    Yields permutations sigma with sigma[face] = chart vertex such that every
    pair of edge-adjacent faces maps to a chart edge pair.
    """
    n = poly.n_faces
    if n != surface.n_vertices:
        return
    pairs = {frozenset(surface.edge_endpoints(e))
             for e in range(surface.n_edges)}
    adj = [set() for _ in range(n)]
    for e in poly.edges:
        f1, f2 = e.faces
        adj[f1].add(f2)
        adj[f2].add(f1)

    sigma = [None] * n
    used = [False] * n

    def assign(f):
        if f == n:
            yield list(sigma)
            return
        for cand in range(n):
            if used[cand]:
                continue
            if any(sigma[g] is not None
                   and frozenset((cand, sigma[g])) not in pairs
                   for g in adj[f]):
                continue
            sigma[f] = cand
            used[cand] = True
            yield from assign(f + 1)
            sigma[f] = None
            used[cand] = False

    yield from assign(0)


def auto_start(target: ConeMetric) -> ConvexPolyhedronH3:
    """Symmetric polyhedron realizing the target's chart, faces relabeled so
    dual vertex indices line up with the chart's."""
    from .polyhedra import (
        hexahedron,
        random_polyhedron,
        regular_tetrahedron,
        triangular_bipyramid,
    )

    n = target.surface.n_vertices
    candidates = []
    if n == 4:
        candidates.append(regular_tetrahedron(1.15))
    if n == 6:
        candidates.extend([hexahedron(0.5), triangular_bipyramid()])
    rng = np.random.RandomState(0)
    for _ in range(6):
        try:
            candidates.append(random_polyhedron(rng, n))
        except InvalidPolyhedron:
            break
    for poly in candidates:
        for sigma in _relabelings(poly, target.surface):
            inverse = np.argsort(sigma)
            relabeled = hull_from_dual_points(
                [poly.planes[inverse[j]] for j in range(n)])
            state = SolverState(np.stack([p.v for p in relabeled.planes]),
                                target.surface,
                                target.lengths)
            try:
                check_feasible(state)
            except (FeasibilityLost, InvalidConeMetric, SolverError,
                    NotSpacelikeSeparated):
                continue
            return relabeled
    raise HomotopyBlocked(
        "no start polyhedron with matching combinatorics found", s=0.0)


def match_dihedral_angles(P: ConvexPolyhedronH3, Q: ConvexPolyhedronH3,
                          tol: float = MATCH_TOL) -> bool:
    """Congruence check through sorted dihedral-angle and edge-length multisets."""
    if P.n_edges != Q.n_edges:
        return False
    ang_p = sorted(dihedral_angles(P))
    ang_q = sorted(dihedral_angles(Q))
    len_p = sorted(P.edge_length(e) for e in range(P.n_edges))
    len_q = sorted(Q.edge_length(e) for e in range(Q.n_edges))
    return (max(abs(a - b) for a, b in zip(ang_p, ang_q)) < tol
            and max(abs(a - b) for a, b in zip(len_p, len_q)) < tol)
