"""Newton continuation inverting the genus-0 realization map: find dual
vertex positions in dS^3 whose polyhedron induces a prescribed concave large
spherical cone-metric.

Unknowns are the positions of one point per marked dual vertex, moved inside
3-parameter tangent charts. Tangent frames are built from the configuration
itself (Minkowski Gram-Schmidt on directions toward the other points), which
makes every derived quantity exactly equivariant under global isometries;
the frames of all points come out of one stacked Gram-Schmidt. The
gauge pins 3+2+1 chart coordinates of three independent points, chosen so
the pinned directions span the isometry orbit exactly, and reads the free
directions of the two partly pinned points off closed forms; it is held as
the index of the 3n - 6 free chart coordinates plus those directions. The
Jacobian of the chart lengths in the free coordinates is taken in closed
form, and a chart move of all points is one stacked update, so a Newton
iteration does no Python work per point.

Newton takes chord steps in the chart of a base state, re-basing only when a
step was damped or contracted the residual too little. A base's Jacobian is
factored once (LAPACK dgetrf), and a solution keeps its base, so the next
solve on the same chart continues in it: a continuation builds a base only
when the contraction or a rigidity report needs one. A chord trial costs a
back-substitution, a chart move and a residual: `SolverState.moved` keeps
its base's checked invariants and re-checks the moved rows' norms, and a
trial within the certified radius of the accepted iterate inherits its chart
certificate (`ChartCertificate.covers`). Any other trial takes
`check_feasible`, which decides it from the chart and rejects one the chart
refutes without a hull: one stacked inverse of the chart's triangle systems
(`chart_verdict`) gives the verdict and, on a certified state, the
certificate that later trials may inherit, kept together as the state's one
verdict. Only a verdict that leaves the solver is rebuilt by the full hull
check.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

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
    CERTIFIED,
    UNDECIDED,
    VIOLATED,
    ConvexPolyhedronH3,
    chart_verdict,
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
GAUGE_TOL = 1e-6             # relative size below which a gauge triple is dependent
CHORD_CONTRACTION = 0.05     # residual-norm ratio above which a chord step re-bases


def _tangent_frames(positions: np.ndarray) -> tuple:
    """Minkowski-orthonormal frames of the tangent spaces at all points.

    Point i orthonormalizes, in this order, the directions toward
    positions[(i + k) % n] for k = 1, ..., n - 1 and then the ambient axes,
    skipping every candidate whose remainder has |<t, t>| < FRAME_TOL, until
    it holds three vectors. All points first take the candidates k = 1, 2, 3
    together, unmasked; the points that skip one of them then run one masked
    Gram-Schmidt in which each point keeps its own count. Either way each
    point gets the arithmetic it would get alone. Returns frames (n, 4, 3),
    C-contiguous with column k the k-th vector, and signs (n, 3), the signs
    of the vectors' squares.
    """
    n = len(positions)
    vectors = np.zeros((n, 3, 4))
    signs = np.zeros((n, 3))
    every = np.arange(n)
    done = np.full(n, n > 3)
    for c in range(min(3, n - 1)):
        t = positions[(every + c + 1) % n]
        t = t - minkowski_rows(positions, t)[:, None] * positions
        for k in range(c):
            f = vectors[:, k]
            t = t - (signs[:, k] * minkowski_rows(f, t))[:, None] * f
        q = minkowski_rows(t, t)
        keep = np.abs(q) >= FRAME_TOL
        done &= keep
        vectors[:, c] = t / np.sqrt(np.where(keep, np.abs(q), 1.0))[:, None]
        signs[:, c] = np.where(q > 0, 1.0, -1.0)
    # the masked loop redoes the rest from scratch, overwriting every slot
    count = np.where(done, 3, 0)
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
    """Pin 3+2+1 chart coordinates of three independent points, in closed form.

    Every generator A of so(3,1) is Minkowski-skew, so A x0 = 0 implies
    <A x1, x0> = -<x1, A x0> = 0: the orbit of x1 under the stabilizer of
    x0 is the tangent plane at x1 Minkowski-orthogonal to x0. In the chart
    of x1 that plane has the normal g = F1^T J x0, and free1 = g / |g|.
    Likewise the residual orbit at x2 is orthogonal to x0 and x1, with chart
    direction h0 x h1 for h_a = F2^T J x_a, and free2 is an orthonormal basis
    of span(h0, h1). This removes exactly the six isometry degrees of
    freedom. Triples are tried in lexicographic order, and the first whose
    |g| and |h0 x h1| both exceed GAUGE_TOL times their bounds
    |F1| |x0| and |F2|^2 |x0| |x1| is pinned: g vanishes exactly when x0 and
    x1 are dependent, h0 x h1 exactly when x2 is in their span. `frames` is
    the pair that `_tangent_frames` returns.
    """
    vectors, _ = frames
    x = positions
    size = np.linalg.norm(x, axis=1)
    n = len(x)
    for i0 in range(n):
        for i1 in range(i0 + 1, n):
            g = vectors[i1].T @ J @ x[i0]
            g_norm = _norm(g)
            if g_norm <= GAUGE_TOL * _norm(vectors[i1]) * size[i0]:
                continue
            for i2 in range(i1 + 1, n):
                h0, h1 = x[[i0, i1]] @ J @ vectors[i2]
                c = _cross(h0, h1)
                c_norm = _norm(c)
                if c_norm <= (GAUGE_TOL * _norm(vectors[i2]) ** 2
                              * size[i0] * size[i1]):
                    continue
                e0 = h0 / _norm(h0)
                free = np.ones((n, 3), dtype=bool)
                free[i0] = False
                free[i1, 1:] = False
                free[i2, 2:] = False
                return Gauge(pinned=(i0, i1, i2), free1=(g / g_norm)[:, None],
                             free2=np.stack([e0, _cross(c / c_norm, e0)],
                                            axis=1),
                             free=np.flatnonzero(free))
    raise SolverError("no independent point triple found for the gauge")


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a vector or a matrix (Frobenius), with its bits:
    the square root of the flattened v's dot product with itself."""
    v = v.ravel()
    return math.sqrt(v @ v)


def _cross(u, w) -> np.ndarray:
    """u x w for two 3-vectors, with np.cross's arithmetic."""
    return np.array([u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                     u[0] * w[1] - u[1] * w[0]])


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
        _check_quadric(self.positions)
        if surface.has_parallel_edges:
            raise SolverError(
                "chart has two edges with the same endpoints; the extrinsic "
                "parametrization cannot separate them")
        self.edge_pairs = surface.edge_pairs
        if surface.n_edges != 3 * n - 6:
            raise SolverError("chart dimension is not 3n - 6; genus-0 required")
        # frames, gauge, Jacobian and its LU factors, the chart verdict with
        # its certificate, and the polyhedron depend only on positions and
        # chart: built once, shared with every retarget; so is the base a
        # solution was solved in (`newton_solve`)
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
        """New state with free chart coordinates shifted by delta: a lean
        trial, not built by `SolverState(...)`.

        A chart move changes the positions alone, so the trial inherits the
        invariants its base was checked for (the array shapes, no parallel
        edges, the chart dimension 3n - 6) and shares the base's surface,
        edge pairs and target arrays. It re-checks only that the moved rows
        lie on the de Sitter quadric, which roundoff near the light cone can
        break, and starts with an empty cache.
        """
        x = self.positions
        v, q = _chart_moves(x, frames[0], gauge.chart_steps(delta))
        left = np.flatnonzero(q <= 0)
        if left.size:
            raise FeasibilityLost(f"point {left[0]} left the quadric chart")
        out = v / np.sqrt(q)[:, None]
        # the fully pinned point stays put, not even renormalized
        out[gauge.pinned[0]] = x[gauge.pinned[0]]
        _check_quadric(out)
        trial = copy.copy(self)
        trial.positions, trial.cache = out, {}
        return trial


def _check_quadric(positions: np.ndarray):
    norms = minkowski_rows(positions, positions)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        raise SolverError("dual points must lie on the de Sitter quadric")


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

    Most states are decided by `chart_verdict`, which builds no hull, and
    the state keeps its (verdict, certificate) pair under one cache key. A
    certified state is proven feasible: the chart is the polyhedron's dual
    decomposition, so the chart lengths are its dual metric and need no
    validity check either. A violated state is proven infeasible, since a
    chart vertex lies outside a plane, and raises ChartRefuted; the full
    check would fail on it too, and `full_verdict` gives the exception it
    raises. Any other state (on a wall, or near one) takes the full check:
    the chart lengths must form a valid metric, then the hull is rebuilt and
    compared with the chart, and that hull is kept for
    `recovered_polyhedron`. A state that passed keeps its verdict (CERTIFIED
    or UNDECIDED), so checking it or a retarget of it again does nothing.
    A Newton trial within the certified radius of the accepted iterate does
    not come here at all: it inherits that iterate's certificate
    (`_check_trial`).
    """
    if "verdict" in state.cache:
        return
    verdict = chart_verdict(state.positions, state.surface)
    if verdict[0] == VIOLATED:
        raise ChartRefuted(state)
    if verdict[0] == UNDECIDED:
        state.cache["polyhedron"] = _checked_hull(state)
    state.cache["verdict"] = verdict


def _check_trial(trial: SolverState, reference: SolverState):
    """check_feasible(trial), unless the chart certificate in the checked
    reference's verdict covers the trial (`ChartCertificate.covers`): then
    the trial is certified, with that certificate as its own."""
    _, cert = reference.cache["verdict"]
    if cert is not None and cert.covers(trial.positions):
        trial.cache["verdict"] = CERTIFIED, cert
    else:
        check_feasible(trial)


class ChartRefuted(FeasibilityLost):
    """A state that `chart_verdict` found violated, rejected by
    `check_feasible` without a hull; `state` is that state. No solve or
    continuation reports its message: `full_verdict` replaces it with the
    full check's."""

    def __init__(self, state: SolverState):
        super().__init__("a chart vertex lies outside a plane")
        self.state = state


def full_verdict(exc: SolverError) -> SolverError:
    """The exception the full check raises on the state a ChartRefuted
    rejected; any other exception as it is. Every feasibility verdict that
    leaves the solver goes through it, so its message and missing_sides are
    those of the hull compared with the chart."""
    if isinstance(exc, ChartRefuted):
        try:
            _checked_hull(exc.state)
        except FeasibilityLost as full:
            return full
    return exc


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


def _chord_step(base: SolverState, r: np.ndarray) -> np.ndarray:
    """The chord step -J^-1 r for the base's Jacobian J, by back-substitution
    in its LU factors, which are taken once per base (LAPACK dgetrf, kept in
    its cache beside the Jacobian). An exactly singular J raises
    StepStalled."""
    if "lu" not in base.cache:
        lu, piv, info = dgetrf(jacobian(base))
        if info > 0:
            raise StepStalled("singular Jacobian: Singular matrix")
        base.cache["lu"] = lu, piv
    delta, _ = dgetrs(*base.cache["lu"], -r)
    return delta


@dataclass
class RigidityReport:
    smallest_singular_value: float
    condition_number: float


def rigidity_report(state: SolverState) -> RigidityReport:
    sv = np.linalg.svd(jacobian(state), compute_uv=False)
    return RigidityReport(smallest_singular_value=float(sv[-1]),
                          condition_number=float(sv[0] / sv[-1]))


def newton_solve(state: SolverState, tol: float = NEWTON_TOL) -> SolverState:
    """Damped chord Newton iteration on the gauged residual.

    The iterate is base.moved(xi) in the chart of a base state, and every
    step back-substitutes the current residual in the LU factors of the
    base's Jacobian, so the frames, gauge, Jacobian and its factors are
    built once per base. The base is the given state when it has a Jacobian
    of its own (a continuation step's rigidity report builds one), and
    otherwise the base in whose chart the given state was solved, which the
    solution keeps in its cache for the next solve on the same chart. The
    iteration re-bases on the current iterate when an accepted step was
    damped or cut the residual norm by less than CHORD_CONTRACTION, and
    when every damped step from a stale base failed; that retries from the
    fresh base before raising, so every failure is one a fresh Jacobian hit
    too.

    The step is halved until the residual norm decreases and the trial state
    stays feasible; StepStalled fires at the damping floor, FeasibilityLost
    when every retry leaves convex position. Trials are lean (see
    `SolverState.moved`). A trial inherits the chart certificate of the
    accepted iterate when it lies within that certificate's radius
    (`ChartCertificate.covers`) and takes `check_feasible` otherwise, which
    rejects a trial the chart refutes without a hull; the FeasibilityLost
    raised carries the full check's verdict on the last trial
    (`full_verdict`).
    """
    try:
        check_feasible(state)
    except ChartRefuted as exc:
        raise full_verdict(exc)
    cur = state
    base, xi = _chart_base(state)
    r = cur.residual()
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(r)) < tol:
            break
        delta = _chord_step(base, r)
        r_norm = np.linalg.norm(r)
        step = 1.0
        last_feas_exc = None
        while step >= DAMPING_FLOOR:
            move = xi + step * delta
            try:
                trial = base.moved(move, base.gauge(), base.frames())
                _check_trial(trial, cur)
                r_trial = trial.residual()
            except SolverError as exc:
                last_feas_exc = exc
                step /= 2
                continue
            trial_norm = np.linalg.norm(r_trial)
            if trial_norm < r_norm:
                break
            step /= 2
        else:
            if base is not cur:
                base, xi = cur, 0.0
                cur.cache.pop("chart", None)     # a base keeps no chart
                continue
            if last_feas_exc is not None:
                last_feas_exc = full_verdict(last_feas_exc)
                missing = (last_feas_exc.missing_sides
                           if isinstance(last_feas_exc, FeasibilityLost) else None)
                raise FeasibilityLost(
                    f"every damped step left the feasible set ({last_feas_exc})",
                    missing_sides=missing) from last_feas_exc
            raise StepStalled(
                f"damping floor reached at residual {np.max(np.abs(r)):.3e}")
        rebase = step < 1.0 or trial_norm > CHORD_CONTRACTION * r_norm
        cur, r = trial, r_trial
        if rebase:
            base, xi = cur, 0.0
        else:
            xi = move
    else:
        if np.max(np.abs(r)) >= tol:
            raise StepStalled(
                f"no convergence after {NEWTON_MAX_ITER} iterations "
                f"(residual {np.max(np.abs(r)):.3e})")
    if base is not cur:           # a state never refers to itself
        cur.cache["chart"] = base, xi
    return cur


def _chart_base(state: SolverState) -> tuple:
    """(base, xi): the chart a solve from `state` starts in. That is the
    state's own (xi = 0) when it has a Jacobian or was not solved in another
    state's chart; otherwise that base, retargeted to the state's target,
    and the state's coordinates xi in its chart. A cache is shared only by
    retargets, so the base is on the state's surface."""
    chart = state.cache.get("chart")
    if "jacobian" in state.cache or chart is None:
        state.cache.pop("chart", None)           # a base keeps no chart
        return state, 0.0
    base, xi = chart
    return base.retarget(state.target), xi


@dataclass
class ContinuationStep:
    s: float
    residual: float
    smallest_singular_value: Optional[float]     # None without rigidity


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


def continuation(start, target: ConeMetric, steps: int = 10,
                 tol: float = NEWTON_TOL, rigidity: bool = True) -> tuple:
    """Follow the straight edge-length homotopy from the start polyhedron's
    dual metric to the target, Newton-correcting at each step.

    `start` is a ConvexPolyhedronH3 or its dual points, a sequence of
    DSPoints or an (n, 4) array of their rows. Returns (state, report). The
    start polyhedron must realize the target's chart: every chart edge a
    chord of its dual decomposition. A concavity dip along the way retries
    with a uniform upscaling bump; a hull edge missing from the chart
    triggers an edge flip of the chart and target, re-anchoring the homotopy
    at the current parameter.

    With `rigidity`, every step reports the smallest singular value of the
    solution's Jacobian and the report keeps the last step's
    `rigidity_report`; that Jacobian is then the next step's Newton base.
    Without it, no step builds a report, each solve continues in the chart
    of the last one (`newton_solve`), and the steps' singular values and
    `final_rigidity` are None.
    """
    validate_target(target)
    points = start.planes if isinstance(start, ConvexPolyhedronH3) else start
    if not isinstance(points, np.ndarray):
        points = np.array([p.v for p in points])
    try:
        state = _realizing_state(points, target)
    except (FeasibilityLost, InvalidConeMetric) as exc:
        raise HomotopyBlocked(
            "start polyhedron does not realize the target chart: "
            f"{full_verdict(exc)}", s=0.0) from exc
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
        sv_min = None
        if rigidity:
            report.final_rigidity = rigidity_report(state)
            sv_min = report.final_rigidity.smallest_singular_value
        report.steps.append(ContinuationStep(
            s=s, residual=float(np.max(np.abs(state.residual()))),
            smallest_singular_value=sv_min))
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
    under every generic perturbation); it is the polyhedron of
    `perturbed_state`."""
    if chart is not None:
        return recovered_polyhedron(perturbed_state(P, rng, magnitude, chart))
    want = {frozenset(e.faces) for e in P.edges}
    for pts in _perturbations(P, rng, magnitude):
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


def perturbed_state(P: ConvexPolyhedronH3, rng: np.random.RandomState,
                    magnitude: float, chart: ConeMetric) -> SolverState:
    """The first perturbation of P's dual points (see `perturbed_polyhedron`)
    that realizes the chart, as the checked state on it: a continuation's
    start, with no polyhedron built."""
    for pts in _perturbations(P, rng, magnitude):
        try:
            return _realizing_state(pts, chart)
        except SolverError:
            continue
    raise SolverError("failed to perturb into a usable start")


def _perturbations(P: ConvexPolyhedronH3, rng: np.random.RandomState,
                   magnitude: float):
    """Up to PERTURB_TRIES perturbed copies of P's dual points, (n, 4) rows;
    a try in which a point leaves its chart yields nothing."""
    magnitude = min(magnitude, PERTURB_EDGE_SHARE * float(P.edge_lengths().min()))
    base = np.stack([p.v for p in P.planes])
    frames, _ = _tangent_frames(base)
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
        yield v / np.sqrt(q)[:, None]


def _realizing_state(points: np.ndarray, chart: ConeMetric) -> SolverState:
    """The state of dual points on a chart, checked by `check_feasible` to
    realize it: the start of a solve."""
    state = SolverState(points, chart.surface, chart.lengths)
    check_feasible(state)
    return state


def recovered_polyhedron(state: SolverState) -> ConvexPolyhedronH3:
    """The polyhedron cut out by a feasible state's dual points, built once
    per state: read off the chart when `chart_verdict` certified the state,
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

    def spread(p, q):
        return np.max(np.abs(np.sort(p) - np.sort(q)))

    return bool(spread(dihedral_angles(P), dihedral_angles(Q)) < tol
                and spread(P.edge_lengths(), Q.edge_lengths()) < tol)
