"""Reference implementations that stacked or leaner code replaced, kept as
the oracles it must match bit for bit. Each names the function it checks."""
import itertools
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from polydual import geodesic, solver
from polydual.errors import (
    DomainExceeded,
    EmptyInterior,
    FeasibilityLost,
    InvalidConeMetric,
    InvalidPolyhedron,
    InvalidSurface,
    NotSpacelikeSeparated,
    SolverError,
    StepStalled,
    UnboundedPolyhedron,
)
from polydual.fuchsian import OCTAGON_CIRCUMRADIUS, FuchsianDualOutput
from polydual.geodesic import (
    CHORD_TOL,
    CROSSING_TOL,
    IDENTITY_TOL,
    LENGTH_CAP,
    MAX_STEP,
    ON_SEGMENT_TOL,
    ClosedGeodesic,
    SearchReport,
    _closed_walks,
    _crossing_points,
    _crossings,
    _develop,
)
from polydual.minkowski import (
    DSPoint,
    HPoint,
    J,
    clamped,
    ds_distances,
    minkowski_inner,
    minkowski_rows,
)
from polydual.polyhedra import (
    CERTIFIED,
    CERTIFY_MARGIN,
    CERTIFY_ROUNDOFF,
    LIFT_RADIUS,
    MERGE_TOL,
    SOLVE_RESIDUAL,
    UNDECIDED,
    VIOLATED,
    ChartCertificate,
    ConvexPolyhedronH3,
    DualMetricOutput,
    Edge,
    Face,
    _check_turns,
    _face_lattice,
    _lift_klein,
    _plane_offsets,
    _planes_through,
    _row_norms,
    _solve_vertex,
    _validate_lattice,
    cycle_walk,
    dual_rows,
    glued_edges,
    hull_from_dual_points,
    polygon_area,
)
from polydual.solver import FRAME_TOL
from polydual.surface import (
    SPHERICAL,
    CombSurface,
    ConeMetric,
    base_pair,
    cross,
    develop_third_point,
    directed_mates,
    fan_triangulations,
    is_concave,
    least_labels,
    rowdot,
    sphere_angle,
)


def masked_frames(positions):
    """Checks `solver._tangent_frames`: one masked Gram-Schmidt over all
    points and all candidates, without the unmasked first pass."""
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
        t = y - minkowski_rows(x, y)[:, None] * x
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


def scalar_tangent_frame(positions, i):
    """Checks `solver._tangent_frames`: the frame and signs of point i
    alone, by the scalar Gram-Schmidt."""
    x = positions[i]
    n = len(positions)
    cands = [positions[(i + k) % n] for k in range(1, n)]
    cands += [np.eye(4)[k] for k in range(4)]
    frame = []
    signs = []
    for y in cands:
        t = y - minkowski_inner(x, y) * x
        for f, s in zip(frame, signs):
            t = t - s * minkowski_inner(f, t) * f
        q = minkowski_inner(t, t)
        if abs(q) < 1e-10:
            continue
        frame.append(t / np.sqrt(abs(q)))
        signs.append(1.0 if q > 0 else -1.0)
        if len(frame) == 3:
            return np.stack(frame, axis=1), np.array(signs)
    raise SolverError("tangent frame construction degenerated")


def point_directions(gauge, n):
    """Checks `solver.Gauge.chart_steps`: per point, the 3 x k matrix of its
    free chart directions."""
    i0, i1, i2 = gauge.pinned
    directions = {i: np.eye(3) for i in range(n)}
    directions.update({i0: np.zeros((3, 0)), i1: gauge.free1, i2: gauge.free2})
    return directions


def masked_jacobian(state):
    """Checks `solver.jacobian`: the Jacobian assembled from per-point moves
    and E x F owner masks."""
    n = len(state.positions)
    frames = [scalar_tangent_frame(state.positions, i) for i in range(n)]
    directions = point_directions(state.gauge(), n)
    moves = [frames[i][0] @ directions[i] for i in range(n)]
    owner = np.repeat(np.arange(n), [m.shape[1] for m in moves])
    inner = state.positions @ J @ np.hstack(moves)
    i, j = state.edge_pairs.T
    d_cos = (np.where(owner == i[:, None], inner[j], 0.0)
             + np.where(owner == j[:, None], inner[i], 0.0))
    return -d_cos / np.sin(state.current_lengths())[:, None]


def moved_point_by_point(state, delta):
    """Checks `solver.SolverState.moved`: the positions after a chart move,
    one point at a time."""
    n = len(state.positions)
    frames = [scalar_tangent_frame(state.positions, i) for i in range(n)]
    directions = point_directions(state.gauge(), n)
    out = state.positions.copy()
    ofs = 0
    for i in range(n):
        d = directions[i]
        k = d.shape[1]
        if k:
            v = out[i] + frames[i][0] @ (d @ delta[ofs:ofs + k])
            q = minkowski_inner(v, v)
            if q <= 0:
                raise FeasibilityLost(f"point {i} left the quadric chart")
            out[i] = v / np.sqrt(q)
        ofs += k
    return out


def cone_angles_by_corner(metric):
    """Checks `ConeMetric.cone_angles`: every corner angle added to its
    vertex, one corner at a time."""
    out = np.zeros(metric.surface.n_vertices)
    for t, tri in enumerate(metric.surface.triangles):
        for k in range(3):
            out[tri[k]] += metric.corner_angles[t, k]
    return out


def points_one_by_one(make, rows):
    """Checks `DSPoint.from_rows`, `DSPoint.from_vectors` and
    `HPoint.from_rows`: the per-point constructor `make` on every row."""
    return [make(r) for r in rows]


def einsum_ds_distances(u, w):
    """Checks `minkowski.ds_distances`: its Minkowski forms as 3-operand
    einsums with J."""
    diff = u - w
    csum = u + w
    c2m = np.einsum("ij,jk,ik->i", diff, J, diff)
    c2p = np.einsum("ij,jk,ik->i", csum, J, csum)
    bad = (c2m <= 0) | (c2p <= 0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotSpacelikeSeparated(
            f"pair {k}: <p,q> = {minkowski_rows(u[k], w[k])} outside (-1, 1)")
    return 2.0 * np.arcsin(np.minimum(np.sqrt(c2m) / 2.0, 1.0))


def chord_newton(state, tol=solver.NEWTON_TOL):
    """Checks `solver.newton_solve`: chord Newton in one base chart per
    solve, its steps from `np.linalg.solve` on the base's Jacobian, every
    trial checked by `check_feasible`, re-basing below a contraction of
    0.25."""
    solver.check_feasible(state)
    cur = base = state
    xi = 0.0
    r = cur.residual()
    for _ in range(solver.NEWTON_MAX_ITER):
        if np.max(np.abs(r)) < tol:
            return cur
        delta = np.linalg.solve(solver.jacobian(base), -r)
        r_norm = np.linalg.norm(r)
        step = 1.0
        last_feas_exc = None
        while step >= solver.DAMPING_FLOOR:
            move = xi + step * delta
            try:
                trial = base.moved(move, base.gauge(), base.frames())
                solver.check_feasible(trial)
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
                continue
            if last_feas_exc is not None:
                raise FeasibilityLost(
                    f"every damped step left the feasible set ({last_feas_exc})")
            raise StepStalled(
                f"damping floor reached at residual {np.max(np.abs(r)):.3e}")
        rebase = step < 1.0 or trial_norm > 0.25 * r_norm
        cur, r = trial, r_trial
        if rebase:
            base, xi = cur, 0.0
        else:
            xi = move
    if np.max(np.abs(r)) < tol:
        return cur
    raise StepStalled(f"no convergence after {solver.NEWTON_MAX_ITER} "
                      f"iterations (residual {np.max(np.abs(r)):.3e})")


def tight_continuation(start, target, **kwargs):
    """Checks `solver.continuation`: the continuation with every step solved
    to its tol, the tracked intermediate steps included; `kwargs` are
    continuation's."""
    solve = solver.newton_solve

    def tight(state, tol=solver.NEWTON_TOL, track=False):
        return solve(state, tol)

    solver.newton_solve = tight
    try:
        return solver.continuation(start, target, **kwargs)
    finally:
        solver.newton_solve = solve


def step_valid(surface, lengths):
    """Checks `solver.admitted_rows`, one row: continuation's former check
    of an interpolated metric, a ConeMetric and its is_concave report.
    Returns ((ok, why), margins), margins None where no metric was built; a
    DomainExceeded is returned in place of (ok, why)."""
    try:
        m = ConeMetric(surface, SPHERICAL, lengths)
    except InvalidConeMetric as exc:
        return (False, str(exc)), None
    except DomainExceeded as exc:
        return exc, None
    rep = is_concave(m)
    if not rep.concave:
        return (False, f"concavity lost (margin {rep.min_margin:.3e})"), rep.margins
    return (True, ""), rep.margins


def wall_crossing_by_pairs(before, after, surface):
    """Checks `polyhedra.wall_crossing`: every (triangle, plane) pair in
    turn, the triangle's point by `np.linalg.solve`, the least secant
    fraction f0 / (f0 - f1) of the relative offsets that go from inside
    the plane to outside it; 0.0 when none does."""
    best = 0.0
    for t, corners in enumerate(surface.triangles.tolist()):
        offsets = []
        for x in (before, after):
            a, b = x[:, 1:], x[:, 0]
            y = np.linalg.solve(a[corners], b[corners])
            offsets.append([(a[p] @ y - b[p])
                            / (1.0 + abs(b[p]) + np.linalg.norm(y) * np.linalg.norm(a[p]))
                            for p in range(len(x))])
        for p in range(len(before)):
            f0, f1 = offsets[0][p], offsets[1][p]
            if p not in corners and f0 < 0 < f1:
                f = f0 / (f0 - f1)
                best = f if best == 0.0 else min(best, f)
    return best


def so31_basis():
    """A basis of so(3,1), three boosts and three rotations, for `svd_gauge`."""
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


def svd_gauge(positions, frames):
    """Checks `solver.build_gauge`: the gauge it replaced, stabilizers of
    the pinned points as null spaces of so(3,1) actions, their orbits in
    chart coordinates, and four kinds of SVD. Returns (pinned, free1,
    free2)."""
    basis = so31_basis()
    vectors, signs = frames

    def coords(i, v):
        return signs[i] * (vectors[i].T @ J @ v)

    n = len(positions)
    for i0, i1, i2 in itertools.combinations(range(n), 3):
        m = positions[[i0, i1, i2]]
        if np.linalg.svd(m, compute_uv=False)[2] <= 1e-6:
            continue
        acts0 = np.stack([A @ positions[i0] for A in basis], axis=1)
        _, sv, vt = np.linalg.svd(acts0)
        if 6 - int(np.sum(sv >= 1e-8 * sv[0])) != 3:
            continue
        stab0 = [sum(c[k] * basis[k] for k in range(6)) for c in vt[3:]]
        p1 = np.stack([coords(i1, A @ positions[i1]) for A in stab0], axis=1)
        u1, sv1, vt1 = np.linalg.svd(p1)
        if sv1[1] < 1e-8 or sv1[2] > 1e-6 * sv1[0]:
            continue
        stab1 = sum(vt1[2][k] * stab0[k] for k in range(3))
        v2 = coords(i2, stab1 @ positions[i2])
        if np.linalg.norm(v2) < 1e-8:
            continue
        u2, _, _ = np.linalg.svd(v2[:, None], full_matrices=True)
        return (i0, i1, i2), u1[:, 2:], u2[:, 1:]
    raise SolverError("no independent point triple found for the gauge")


def full_newton(state, tol=solver.NEWTON_TOL):
    """Checks `solver.newton_solve` with re-basing at every step: damped
    Newton with a fresh chart and Jacobian at every iterate, the iteration
    the chord steps replaced."""
    solver.check_feasible(state)
    cur = state
    r = cur.residual()
    for _ in range(solver.NEWTON_MAX_ITER):
        if np.max(np.abs(r)) < tol:
            return cur
        delta = np.linalg.solve(solver.jacobian(cur), -r)
        step = 1.0
        last_feas_exc = None
        while step >= solver.DAMPING_FLOOR:
            try:
                trial = cur.moved(step * delta, cur.gauge(), cur.frames())
                solver.check_feasible(trial)
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
                raise FeasibilityLost(
                    f"every damped step left the feasible set ({last_feas_exc})")
            raise StepStalled(
                f"damping floor reached at residual {np.max(np.abs(r)):.3e}")
    if np.max(np.abs(r)) < tol:
        return cur
    raise StepStalled(f"no convergence after {solver.NEWTON_MAX_ITER} "
                      f"iterations (residual {np.max(np.abs(r)):.3e})")


def chart_certifies(duals, surface: CombSurface) -> str:
    """Checks the verdict of `polyhedra.chart_verdict`: the same test with
    every triangle's common point from one batched `np.linalg.solve`
    instead of the stacked inverse."""
    x = np.asarray(duals, dtype=float)
    a, b = x[:, 1:], x[:, 0]
    tri = surface.triangles
    try:
        y = np.linalg.solve(a[tri], b[tri][..., None])[..., 0]
    except np.linalg.LinAlgError:
        return UNDECIDED
    resid, scale = _plane_offsets(a, b, y)            # triangle x plane
    limit = CERTIFY_MARGIN * scale
    own = surface.triangle_vertex_mask
    if np.any((resid > limit) & ~own):
        return VIOLATED
    if (np.all(np.einsum("ij,ij->i", y, y) < LIFT_RADIUS ** 2)
            and np.all(own | (resid < -limit))):
        return CERTIFIED
    return UNDECIDED


def chart_certificate(duals, surface: CombSurface) -> Optional[ChartCertificate]:
    """Checks the certificate of `polyhedra.chart_verdict`: the
    ChartCertificate of dual points that `chart_certifies` certified, from
    a second stacked inverse; None when its own numbers certify nothing."""
    x = np.asarray(duals, dtype=float)
    a, b = x[:, 1:], x[:, 0]
    tri = surface.triangles
    try:
        inverse = np.linalg.inv(a[tri])
    except np.linalg.LinAlgError:
        return None
    y = (inverse @ b[tri][..., None])[..., 0]
    resid, scale = _plane_offsets(a, b, y)
    own = surface.triangle_vertex_mask
    slack = float(np.min(np.where(own, np.inf, -CERTIFY_MARGIN * scale - resid)))
    inverse_bound = float(np.sqrt(np.max(np.einsum("tij,tij->t", inverse, inverse))))
    klein_radius = float(np.sqrt(np.max(np.einsum("ij,ij->i", y, y))))
    normal_bound = float(np.max(_row_norms(a)))
    roundoff = CERTIFY_ROUNDOFF * (
        (1.0 + inverse_bound * normal_bound) * (1.0 + klein_radius)
        * (1.0 + normal_bound) + float(np.max(scale)))
    if slack <= roundoff or klein_radius ** 2 >= LIFT_RADIUS ** 2:
        return None
    return ChartCertificate(x, slack, inverse_bound, klein_radius, normal_bound,
                            roundoff, y)


def checked_chart_polyhedron(duals, surface: CombSurface):
    """Checks `polyhedra.polyhedron_from_chart`: the polyhedron of a
    certified chart from the hull path's lattice builder, which solves the
    chart's triangles a second time and runs every check of the hull path
    (membership, turns, Euler, vertex x plane validation). The chart's
    triangles are all ccw seen from outside or all cw, and one decides
    which, by the sign of their normals' determinant."""
    rows = dual_rows(duals)
    a, b = rows[:, 1:].copy(), rows[:, 0].copy()
    tri = surface.triangles
    p, q, r = a[tri[0]]
    if p @ cross(q, r) < 0:
        tri = tri[:, ::-1]
    return _face_lattice(rows, a, b, np.arange(len(rows)), [], tri)


def step_distances_int64(succ, depth):
    """Checks `geodesic._step_distances`: the same recurrence in int64."""
    dist = np.where(np.eye(len(succ), dtype=bool), 0, depth).astype(np.int64)
    for _ in range(depth - 1):
        dist = np.minimum(dist, 1 + np.minimum(dist[succ[:, 0]], dist[succ[:, 1]]))
    return dist


# -- the face lattice and the dual metric ----------------------------------------


@dataclass
class ReferenceLattice:
    """What an oracle hull returns: the planes, vertices, faces, edges and
    discarded planes of a polyhedron, in the views' types."""
    planes: list
    vertices: list
    faces: list
    edges: list
    discarded: list

    @property
    def plane_rows(self):
        return np.array([p.v for p in self.planes])

    @property
    def vertex_rows(self):
        return np.array([v.v for v in self.vertices])

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)


def svd_solve_triples(a, b, tri):
    """Checks `polyhedra._solve_triples`: every row's rank by SVD."""
    rows, rhs = a[tri], b[tri]
    sv = np.linalg.svd(rows, compute_uv=False)
    ok = sv[:, 2] > 3 * np.finfo(float).eps * sv[:, 0]
    y = np.zeros((len(tri), 3))
    y[ok] = np.linalg.solve(rows[ok], rhs[ok][..., None])[..., 0]
    resid = (rows @ y[..., None])[..., 0] - rhs
    return y, ok & (np.max(np.abs(resid), axis=1) <= SOLVE_RESIDUAL)


ORIGIN_CLEARANCE = 0.1


def interior_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Strictly interior point of {y : a y <= b}, the polar hulls' centre
    (`qhull_lattice`, `angle_sorted_hull`): the Klein origin when every
    plane keeps it at a distance b_i / |a_i| of at least ORIGIN_CLEARANCE,
    and otherwise a Chebyshev-style LP point near the ball."""
    norms = np.linalg.norm(a, axis=1)
    if (b >= ORIGIN_CLEARANCE * norms).all():
        return np.zeros(3)
    from scipy.optimize import linprog

    A_ub = np.hstack([a, norms[:, None]])
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=b,
                  bounds=[(-2, 2), (-2, 2), (-2, 2), (0, 3)], method="highs")
    if not res.success or res.x[3] <= 1e-9:
        raise EmptyInterior("plane family admits no common interior")
    return res.x[:3]


def qhull() -> tuple:
    """scipy.spatial's (ConvexHull, QhullError): the reference hull, the one
    lookup of every Qhull call here."""
    return ConvexHull, QhullError


def oriented_simplices(hull) -> np.ndarray:
    """The simplices of a Qhull hull, each ccw seen from outside: reversed
    where its corners turn against its facet normal."""
    tri = hull.simplices
    p = hull.points[tri]
    turn = rowdot(cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                  hull.equations[:, :3])
    return np.where((turn < 0)[:, None], tri[:, ::-1], tri)


def qhull_lattice(duals) -> ConvexPolyhedronH3:
    """Checks `polyhedra.hull_from_dual_points` (the same lattice, vertices
    within 1e-12, or the same exception class): the hull it replaced, one
    Qhull call on the polar points and the polar origin, its simplices
    oriented by their facet normals, and the same `_face_lattice`."""
    rows = dual_rows(duals)
    n = len(rows)
    if n < 4:
        raise InvalidPolyhedron("need at least four face planes")
    a, b = rows[:, 1:].copy(), rows[:, 0].copy()
    y0 = interior_point(a, b)
    gap = b - a @ y0
    if (gap <= 0).any():
        raise EmptyInterior("interior point failed strict containment")
    ConvexHull, QhullError = qhull()
    polar = np.vstack([a / gap[:, None], np.zeros(3)])
    try:
        hull = ConvexHull(polar)
    except QhullError as exc:
        raise EmptyInterior(f"degenerate dual configuration: {exc}") from exc
    if n in hull.vertices:
        raise UnboundedPolyhedron(
            "plane family recedes to infinity: its interior point is a "
            "vertex of the polar hull")
    essential = np.sort(hull.vertices)
    if len(essential) < 4:
        raise EmptyInterior("fewer than four essential planes")
    redundant = np.ones(n, dtype=bool)
    redundant[essential] = False
    return _face_lattice(rows, a, b, essential,
                         redundant.nonzero()[0].tolist(),
                         oriented_simplices(hull))


def same_hull_outcome(duals) -> str:
    """Asserts that `polyhedra.hull_from_dual_points` and `qhull_lattice`
    give the same lattice of `duals` (plane and vertex rows within 1e-12;
    equal edge, cycle, essential and discarded arrays) or raise the same
    exception class; returns "lattice" or that class's name."""
    outcomes = []
    for build in (hull_from_dual_points, qhull_lattice):
        try:
            outcomes.append(build(duals))
        except (InvalidPolyhedron, UnboundedPolyhedron, EmptyInterior) as exc:
            outcomes.append(type(exc))
    got, want = outcomes
    if isinstance(want, type):
        assert got is want, (got, want)
        return want.__name__
    assert isinstance(got, ConvexPolyhedronH3), got
    for name in ("plane_rows", "vertex_rows"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and np.abs(g - w).max() <= 1e-12, name
    for name in ("edge_vertices", "edge_faces", "cycle_vertices",
                 "cycle_offsets", "essential", "discarded"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    return "lattice"


def angle_sorted_hull(duals) -> ReferenceLattice:
    """Checks `polyhedra.hull_from_dual_points` bit for bit: the hull it
    replaced, which merged the polar hull's facets into vertices, ordered
    each face's vertices by angle (`order_face_cycle`) and walked the face
    corners into edges (`edges_from_faces`). Its cycles start where the
    angular sort starts them."""
    rows = dual_rows(duals)
    planes = DSPoint.from_rows(rows)
    n = len(rows)
    if n < 4:
        raise InvalidPolyhedron("need at least four face planes")
    a, b = rows[:, 1:].copy(), rows[:, 0].copy()
    y0 = interior_point(a, b)
    gap = b - a @ y0
    if np.any(gap <= 0):
        raise EmptyInterior("interior point failed strict containment")
    ConvexHull, QhullError = qhull()
    try:
        hull = ConvexHull(np.vstack([a / gap[:, None], np.zeros(3)]))
    except QhullError as exc:
        raise EmptyInterior(f"degenerate dual configuration: {exc}") from exc
    if n in hull.vertices:
        raise UnboundedPolyhedron("plane family recedes to infinity")
    essential = np.sort(hull.vertices)
    if len(essential) < 4:
        raise EmptyInterior("fewer than four essential planes")
    discarded = np.setdiff1d(np.arange(n), essential).tolist()

    tri = np.sort(hull.simplices, axis=1)
    y, ok = svd_solve_triples(a, b, tri)
    members = _planes_through(a, b, y)
    own = np.zeros(members.shape, dtype=bool)
    np.put_along_axis(own, tri, True, axis=1)
    for s in np.flatnonzero(ok & np.any(members != own, axis=1)):
        ys = _solve_vertex(a, b, np.flatnonzero(members[s]))
        if ys is None:
            ok[s] = False
            continue
        y[s] = ys
        members[s] = _planes_through(a, b, ys[None])[0]
    y, members = y[ok], members[ok]
    m = members.astype(float)
    count = m.sum(axis=1)
    inside = (m @ m.T == count[:, None]) & (count > count[:, None])
    maximal = ~inside.any(axis=1)
    y, members = y[maximal], members[maximal]
    order = np.lexsort((~members).T[::-1])
    ranked = members[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = np.any(ranked[1:] != ranked[:-1], axis=1)
    klein = y[order[last]]
    vertices = HPoint.from_rows(_lift_klein(klein))
    incidence = ranked[last].T[essential]
    small = np.flatnonzero(incidence.sum(axis=1) < 3)
    if small.size:
        raise InvalidPolyhedron(
            f"face {essential[small[0]]} has fewer than three vertices")
    faces = [Face(plane=planes[i], vertex_cycle=order_face_cycle(
                 a[i], klein[row], np.flatnonzero(row).tolist()))
             for i, row in zip(essential.tolist(), incidence)]
    poly = ReferenceLattice([planes[i] for i in essential], vertices, faces,
                            edges_from_faces(faces), discarded)
    _validate_lattice(poly, incidence, MERGE_TOL)
    return poly


def edges_from_faces(faces):
    """Checks the edges `polyhedra._face_lattice` glues from half-edges:
    the stacked pass over all face corners it replaced, sorted by vertex
    pair with the face that runs u -> w first. Raises InvalidPolyhedron at
    the first pair that two consistently oriented faces do not share."""
    cycles = [f.vertex_cycle for f in faces]
    sizes = np.fromiter(map(len, cycles), dtype=int, count=len(cycles))
    tail = np.fromiter(chain.from_iterable(cycles), dtype=int,
                       count=int(sizes.sum()))
    ends = np.cumsum(sizes)
    after = np.arange(1, len(tail) + 1)
    after[ends - 1] = ends - sizes                 # each cycle closes
    head = tail[after]
    fwd = tail < head
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    order = np.lexsort((~fwd, hi, lo))      # by pair, forward corner first
    lo, hi, fwd = lo[order], hi[order], fwd[order]
    face = np.repeat(np.arange(len(cycles)), sizes)[order]
    first = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    second = np.minimum(first + 1, len(lo) - 1)
    shared = ((np.diff(np.r_[first, len(lo)]) == 2)
              & fwd[first] & ~fwd[second])
    bad = np.flatnonzero(~shared)
    if bad.size:
        k = first[bad[0]]
        raise InvalidPolyhedron(
            f"edge {(int(lo[k]), int(hi[k]))} is not shared by two "
            "consistently oriented faces")
    return list(map(Edge, zip(lo[first].tolist(), hi[first].tolist()),
                    zip(face[first].tolist(), face[second].tolist())))


def edges_by_corner_walk(faces):
    """Checks `edges_from_faces`: the face-corner walk it replaced, with
    its error message."""
    seen = {}
    for f, face in enumerate(faces):
        cyc = face.vertex_cycle
        for k in range(len(cyc)):
            u, w = cyc[k], cyc[(k + 1) % len(cyc)]
            key = (min(u, w), max(u, w))
            seen.setdefault(key, []).append((f, u < w))
    edges = []
    for (u, w), inc in sorted(seen.items()):
        if len(inc) != 2 or inc[0][1] == inc[1][1]:
            raise InvalidPolyhedron(
                f"edge {(u, w)} is not shared by two consistently oriented faces")
        f_fwd = [f for f, fwd in inc if fwd][0]
        f_bwd = [f for f, fwd in inc if not fwd][0]
        edges.append(Edge(vertices=(u, w), faces=(f_fwd, f_bwd)))
    return edges


def reference_hull(duals) -> ReferenceLattice:
    """Checks `polyhedra.hull_from_dual_points`' lattices and vertices
    (within 1e-13): the hull before the stacked one, with a Chebyshev LP for
    the interior point, a second LP for a receding direction, and the
    lattice built facet by facet with a lstsq fit and a plane scan per
    facet."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, QhullError

    planes = [d if isinstance(d, DSPoint) else DSPoint.from_vector(d)
              for d in duals]
    a = np.array([d.v[1:] for d in planes])
    b = np.array([d.v[0] for d in planes])
    norms = np.linalg.norm(a, axis=1)
    A_ub = np.hstack([a, norms[:, None]])
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=b,
                  bounds=[(-2, 2), (-2, 2), (-2, 2), (0, 3)], method="highs")
    if not res.success or res.x[3] <= 1e-9:
        raise EmptyInterior("plane family admits no common interior")
    y0 = res.x[:3]
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=A_ub, b_ub=np.zeros(len(a)),
                  bounds=[(-1, 1), (-1, 1), (-1, 1), (0, 2)], method="highs")
    if res.success and res.x[3] > 1e-9:
        raise UnboundedPolyhedron("plane family recedes")
    try:
        hull = ConvexHull(a / (b - a @ y0)[:, None])
    except QhullError as exc:
        raise EmptyInterior("degenerate dual configuration") from exc
    essential = sorted(set(int(v) for v in hull.vertices))
    discarded = sorted(set(range(len(planes))) - set(essential))

    def solve(idxs):
        rows, rhs = a[list(idxs)], b[list(idxs)]
        y, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
        if rank < 3 or np.max(np.abs(rows @ y - rhs)) > 1e-6:
            return None
        return y

    def through(y):
        scale = 1.0 + np.abs(b) + norms * np.linalg.norm(y)
        return tuple(int(i) for i in
                     np.where(np.abs(a @ y - b) <= MERGE_TOL * scale)[0])

    groups = {}
    for simplex in hull.simplices:
        tri = tuple(sorted(int(i) for i in simplex))
        ys = solve(tri)
        if ys is None:
            continue
        members = through(ys)
        if members != tri:
            ys = solve(members)
            if ys is None:
                continue
            members = through(ys)
        groups[frozenset(members)] = ys
    kept = []
    for k in sorted(groups, key=len, reverse=True):
        if not any(k < other for other in kept):
            kept.append(k)
    kept.sort(key=sorted)
    klein = np.array([groups[members] for members in kept])
    vertices = []
    for y in klein:
        x0 = 1.0 / np.sqrt(1.0 - float(y @ y))
        vertices.append(HPoint(np.array([x0, *(x0 * y)])))
    inc = np.zeros((len(planes), len(kept)), dtype=bool)
    for v, members in enumerate(kept):
        inc[list(members), v] = True
    inc = inc[essential]
    faces = [Face(plane=planes[orig], vertex_cycle=order_face_cycle(
                 a[orig], klein[row], np.flatnonzero(row).tolist()))
             for orig, row in zip(essential, inc)]
    poly = ReferenceLattice([planes[i] for i in essential], vertices, faces,
                            edges_by_corner_walk(faces), discarded)
    _validate_lattice(poly, inc, MERGE_TOL)
    return poly


def order_face_cycle(normal, pts, idxs):
    """The angular sort the face cycles were ordered by before they were
    read off the edge table (`polyhedra.cycle_walk`): the labels idxs of
    the points pts of one face with outward normal `normal`, sorted by
    angle about their centroid in a plane basis (e1, e2) that makes
    (e1, e2, normal) right-handed, from the smallest angle up. Raises
    InvalidPolyhedron unless every corner turns left about the normal."""
    e1 = np.zeros(3)
    e1[np.argmin(np.abs(normal))] = 1.0
    e1 = np.cross(normal, e1)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    e2 /= np.linalg.norm(e2)
    center = pts.mean(axis=0)
    ang = np.arctan2((pts - center) @ e2, (pts - center) @ e1)
    order = np.argsort(ang)
    sides = np.diff(pts[order], axis=0, append=pts[order[:1]])
    if np.any(np.cross(sides, np.roll(sides, -1, axis=0)) @ normal <= 0):
        raise InvalidPolyhedron("face cycle is not convex about its normal")
    return [idxs[i] for i in order]


def corner_angle(at, pred, succ) -> float:
    """Checks `polyhedra.polygon_area`'s corners: the angle at the H^3 point
    `at` between the geodesics toward pred and succ (raw 4-vectors on the
    hyperboloid), the arccos of their unit tangents' inner product, which
    cancels on corners far out."""
    def tangent(q):
        t = q + minkowski_inner(at, q) * at
        return t / np.sqrt(minkowski_inner(t, t))

    t1, t2 = tangent(pred), tangent(succ)
    return float(np.arccos(clamped(float(t1 @ J @ t2), -1.0, 1.0)))


def reference_dihedral(P, e):
    """Checks `polyhedra.dihedral_angles` (within 1e-13): the clamped
    arccos of one edge."""
    f1, f2 = P.edges[e].faces
    x = clamped(minkowski_inner(P.planes[f1], P.planes[f2]), -1.0, 1.0)
    return np.pi - float(np.arccos(x))


def reference_face_angle(P, f, v):
    cyc = P.faces[f].vertex_cycle
    i = cyc.index(v)
    return corner_angle(P.vertices[v].v, P.vertices[cyc[i - 1]].v,
                        P.vertices[cyc[(i + 1) % len(cyc)]].v)


@dataclass
class VertexLink:
    """Spherical polygon of directions at a polyhedron vertex.

    Side i is the face angle of faces[i]; the corner between sides i and i+1
    is the dihedral angle of primal edge edges[i], shared by both faces.
    """

    faces: list
    edges: list
    side_lengths: np.ndarray
    angles: np.ndarray


def vertex_link(P, v) -> VertexLink:
    """Link polygon at vertex v: face angles as sides, dihedral angles at
    corners; its face walk checks the fans `polyhedra.cycle_walk` reads
    vertex first."""
    faces_at = P.faces_at_vertex(v)
    f = faces_at[0]
    order = []
    edges = []
    for _ in range(len(faces_at)):
        order.append(f)
        cyc = P.faces[f].vertex_cycle
        k = P.edge_at(v, cyc[(cyc.index(v) + 1) % len(cyc)])
        edges.append(k)
        f1, f2 = P.edges[k].faces
        f = f1 if f2 == f else f2
    assert f == order[0]
    sides = np.array([reference_face_angle(P, fi, v) for fi in order])
    angs = np.array([reference_dihedral(P, k) for k in edges])
    return VertexLink(faces=order, edges=edges, side_lengths=sides, angles=angs)


@dataclass
class SphericalPolygon:
    sides: np.ndarray
    angles: np.ndarray

    def develop(self):
        """Corner positions on the unit sphere, walking ccw with the interior
        on the left; returns (corners, closure_residual)."""
        m = len(self.sides)
        P = np.array([1.0, 0.0, 0.0])
        H = np.array([0.0, 1.0, 0.0])
        corners = [P]
        for i in range(m):
            L = self.sides[i]
            P, H = (np.cos(L) * P + np.sin(L) * H,
                    -np.sin(L) * P + np.cos(L) * H)
            tau = np.pi - self.angles[(i + 1) % m]
            H = np.cos(tau) * H + np.sin(tau) * np.cross(P, H)
            corners.append(P)
        residual = float(np.linalg.norm(corners[-1] - corners[0]))
        return corners[:-1], residual


def polar_dual_polygon(link) -> SphericalPolygon:
    """Spherical polar dual: sides and angles swap through pi-complements.

    Corner i of the dual corresponds to side i of the input (a face of the
    vertex), and side i of the dual to corner i (an edge of the vertex).
    """
    if isinstance(link, VertexLink):
        sides, angles = link.side_lengths, link.angles
    else:
        sides, angles = link.sides, link.angles
    return SphericalPolygon(sides=np.pi - np.asarray(angles, dtype=float),
                            angles=np.pi - np.asarray(sides, dtype=float))


def fan_triangulation(m: int, base: int = 0) -> tuple:
    """Checks `surface.fan_triangulations` and serves the dual oracles: the
    fan of one m-gon from its corner 0, as triangles base, ..., base + m - 3,
    triangle base + j - 1 with the polygon corners (0, j, j + 1). Returns
    (corners, sides, diagonals): those corner triples; sides[j], the
    half-edge of the side from corner j to corner j + 1; and diagonals[j - 2],
    the glued pair (j -> 0, 0 -> j) of the diagonal to corner j."""
    corners = [(0, j, j + 1) for j in range(1, m - 1)]
    sides = [3 * base] + [3 * (base + j - 1) + 1 for j in range(1, m - 1)]
    sides.append(3 * (base + m - 3) + 2)
    diagonals = [(3 * (base + j - 2) + 2, 3 * (base + j - 1)) for j in range(2, m - 1)]
    return corners, sides, diagonals


def reference_dualize(P) -> DualMetricOutput:
    """Checks `polyhedra.dualize`: the dual metric from developed link
    polygons, sides pi minus the dihedral angles and diagonals read off each
    developed polar dual, glued one vertex at a time."""
    triangles = []
    side_tag = {}
    gluing = {}
    lengths_by_he = {}
    provenance_by_he = {}

    for v in range(P.n_vertices):
        link = vertex_link(P, v)
        corners, resid = polar_dual_polygon(link).develop()
        assert resid < 1e-9
        m = len(link.faces)
        anchor = int(np.argmin(link.faces))
        local = [(anchor + j) % m for j in range(m)]
        fan, sides, diagonals = fan_triangulation(m, base=len(triangles))
        triangles += [tuple(link.faces[local[c]] for c in tri) for tri in fan]
        for i, e_primal in enumerate(link.edges):
            he = sides[(i - anchor) % m]
            side_tag.setdefault(e_primal, []).append(he)
            lengths_by_he[he] = np.pi - link.angles[i]
            provenance_by_he[he] = ("primal", P.edges[e_primal].faces)
        for j, (he_a, he_b) in enumerate(diagonals, start=2):
            gluing[he_a] = he_b
            gluing[he_b] = he_a
            lengths_by_he[he_a] = sphere_angle(corners[local[0]], corners[local[j]])
            provenance_by_he[he_a] = ("fan", v)

    for hes in side_tag.values():
        assert len(hes) == 2
        gluing[hes[0]] = hes[1]
        gluing[hes[1]] = hes[0]

    surf = CombSurface(P.n_faces, triangles, gluing)
    lengths = np.empty(surf.n_edges)
    provenance = [None] * surf.n_edges
    for e, (ha, hb) in enumerate(surf.edge_halfedges):
        src = ha if ha in lengths_by_he else hb
        lengths[e] = lengths_by_he[src]
        provenance[e] = provenance_by_he[src]
    return DualMetricOutput(metric=ConeMetric(surf, SPHERICAL, lengths),
                            marking=list(range(P.n_faces)),
                            edge_provenance=provenance)


def vertex_stars(surface):
    """Checks `polyhedra.cycle_walk` on a chart's edge table read vertex
    first: per vertex of a chart, its triangles in rotation order from the
    lowest, by a walk over the gluing, each next triangle across the edge
    that leaves the vertex in the one before."""
    # corner 3t + k sits at the start of half-edge 3t + k; its mate m
    # ends at the same vertex, at the next corner of the mate's triangle
    after = [3 * (m // 3) + (m + 1) % 3
             for m in surface.mate.tolist()]
    stars = [None] * surface.n_vertices
    for c in range(3 * surface.n_triangles):
        v = surface.triangles[c // 3][c % 3]
        if stars[v] is None:
            star = stars[v] = [c // 3]
            nxt = after[c]
            while nxt != c:
                star.append(nxt // 3)
                nxt = after[nxt]
    return stars


# -- the half-edge mesh ------------------------------------------------------------


class DictCombSurface:
    """Checks `surface.CombSurface`: the mesh it replaced, a gluing dict and
    edge lists built and validated in Python loops over half-edges and
    triangles, with the same InvalidSurface messages."""

    def __init__(self, n_vertices, triangles, gluing=None):
        self.n_vertices = int(n_vertices)
        self.triangles = [tuple(int(v) for v in t) for t in triangles]
        if any(len(t) != 3 for t in self.triangles):
            raise InvalidSurface("triangles need exactly three corners")
        used = {v for t in self.triangles for v in t}
        if used and (min(used) < 0 or max(used) >= self.n_vertices):
            raise InvalidSurface("vertex id out of range")
        if used != set(range(self.n_vertices)):
            raise InvalidSurface("every vertex id must appear in some triangle")
        if gluing is None:
            gluing = self._derive_gluing()
        self.gluing = {int(a): int(b) for a, b in gluing.items()}
        self._validate_gluing()
        pairs = sorted({tuple(sorted((a, b))) for a, b in self.gluing.items()})
        self.edge_halfedges = pairs
        self.halfedge_edge = {}
        for e, (a, b) in enumerate(pairs):
            self.halfedge_edge[a] = e
            self.halfedge_edge[b] = e
        self._check_connected()

    def _derive_gluing(self) -> dict:
        directed = {}
        for t, tri in enumerate(self.triangles):
            for k in range(3):
                key = (tri[k], tri[(k + 1) % 3])
                directed.setdefault(key, []).append(3 * t + k)
        gluing = {}
        for (u, w), hes in directed.items():
            if len(hes) != 1:
                raise InvalidSurface(
                    f"directed edge {(u, w)} appears {len(hes)} times; "
                    "pass an explicit gluing")
            mates = directed.get((w, u), [])
            if len(mates) != 1:
                raise InvalidSurface(f"directed edge {(u, w)} has no unique mate")
            gluing[hes[0]] = mates[0]
        return gluing

    def _validate_gluing(self):
        n_he = 3 * len(self.triangles)
        if set(self.gluing) != set(range(n_he)):
            raise InvalidSurface("gluing must cover every half-edge")
        for a, b in self.gluing.items():
            if a == b or self.gluing[b] != a:
                raise InvalidSurface("gluing must be a fixed-point-free involution")
            ua, wa = self.halfedge_endpoints(a)
            ub, wb = self.halfedge_endpoints(b)
            if (ua, wa) != (wb, ub):
                raise InvalidSurface(
                    f"half-edges {a} and {b} glued without reversing orientation")

    def _check_connected(self):
        if not self.triangles:
            raise InvalidSurface("empty surface")
        seen = {0}
        stack = [0]
        while stack:
            t = stack.pop()
            for k in range(3):
                t2 = self.gluing[3 * t + k] // 3
                if t2 not in seen:
                    seen.add(t2)
                    stack.append(t2)
        if len(seen) != len(self.triangles):
            raise InvalidSurface("surface is not connected")

    def halfedge_endpoints(self, h: int) -> tuple:
        t, k = divmod(h, 3)
        tri = self.triangles[t]
        return tri[k], tri[(k + 1) % 3]

    def edge_pairs(self) -> np.ndarray:
        return np.array([self.halfedge_endpoints(a) for a, _ in self.edge_halfedges])

    def triangle_sides(self) -> np.ndarray:
        return np.array([[self.halfedge_edge[3 * t + (k + 1) % 3] for k in range(3)]
                         for t in range(len(self.triangles))])

    def has_parallel_edges(self) -> bool:
        pairs = {frozenset(p) for p in self.edge_pairs().tolist()}
        return len(pairs) != len(self.edge_halfedges)


# -- closed geodesic search ----------------------------------------------------


def lexsort_closed_walks(mate, depth) -> list:
    """Checks `geodesic._closed_walks`: the tree held as (half-edge, root,
    parent) per node, successors in the triangle's corner order, each
    length's closed walks read back along the parent pointers and sorted
    by `np.lexsort`."""
    h = np.arange(len(mate))
    k = h % 3
    succ = mate[np.stack([h - k + (k + 1) % 3, h - k + (k + 2) % 3], axis=1)]
    dist = geodesic._step_distances(succ, depth)
    cur = root = h.astype(np.int32)
    levels = []
    parent = np.full(len(h), -1, dtype=np.int32)
    out = []
    for length in itertools.count(1):
        levels.append((cur, parent))
        nxt = succ[cur]
        closing = np.nonzero(nxt == root[:, None])[0]
        if len(closing):
            walks = np.empty((len(closing), length), dtype=np.int32)
            node = closing
            for i in range(length - 1, -1, -1):
                walks[:, i] = levels[i][0][node]
                node = levels[i][1][node]
            out.append(walks[np.lexsort(walks.T[::-1])])
        if length >= depth:
            return out
        node, col = np.nonzero((nxt > root[:, None])
                               & (dist[nxt, root[:, None]] <= depth - length))
        cur, parent, root = nxt[node, col], node.astype(np.int32), root[node]


def padded_search(m, depth, contractible_only=True) -> SearchReport:
    """Checks `geodesic.closed_geodesic_search` bit for bit: the padded
    pass as it was before the walk tree carried its paths, with the walks of
    `lexsort_closed_walks`, each half-edge's deck word from
    `ConeMetric.edge_word`, two products per strip step, `np.cross`, and
    every stage run on its rows, empty or not."""
    report = SearchReport()
    mate = m.surface.mate
    groups = lexsort_closed_walks(mate, depth)
    if not groups:
        return report
    corners = _develop(m)
    t, k = np.divmod(np.arange(len(mate)), 3)
    t2, k2 = np.divmod(mate, 3)

    def frame(P, Q):
        return np.stack([P, Q, np.cross(P, Q)], axis=-1)

    frames = frame(corners[t, :, (k + 1) % 3], corners[t, :, k])
    R = frames @ np.linalg.inv(frame(corners[t2, :, k2], corners[t2, :, (k2 + 1) % 3]))
    frames = np.concatenate([frames, np.eye(3)[None]])
    R = np.concatenate([R, np.eye(3)[None]])
    walks, lengths, exits = geodesic._padded_walks(groups, mate)
    report.n_cycles_checked = len(walks)
    contractible = np.ones(len(walks), dtype=bool)
    if m.deck_words is not None:
        words = np.array([m.edge_word(h) for h in range(len(mate))] + [np.eye(4)])
        contractible = (geodesic._max_deviation(
            geodesic._word_products(exits, words), np.eye(4)) < IDENTITY_TOL)
    keep = contractible if contractible_only else np.ones_like(contractible)
    M = np.tile(np.eye(3), (np.count_nonzero(keep), 1, 1))
    X = np.empty(exits[keep].shape + (3, 3))
    for i, e in enumerate(exits[keep].T):
        X[:, i] = M @ frames[e]
        M = M @ R[e]
    H, A, B, kept_lengths = M, X[..., 1], X[..., 0], lengths[keep]
    flat = geodesic._max_deviation(H, np.eye(3)) < IDENTITY_TOL
    valid = np.arange(A.shape[1]) < kept_lengths[:, None]
    normal = np.empty((len(H), 3))
    normal[flat] = geodesic._fit_flat_normal(A[flat], B[flat], valid[flat])
    K = H[~flat] - np.eye(3)
    c = np.cross(K, np.roll(K, -1, axis=1))
    c = c[np.arange(len(c)), np.argmax(rowdot(c, c), axis=1)]
    normal[~flat] = c / np.sqrt(rowdot(c, c))[:, None]
    H = np.where(flat[:, None, None], np.eye(3), H)
    fa, fb = rowdot(A, normal[:, None]), rowdot(B, normal[:, None])
    live = np.nonzero(((fa > 0) != (fb > 0)).all(axis=1, where=valid))[0]
    found, length = np.zeros(len(H), dtype=bool), np.zeros(len(H))
    n, A, B, H, ell = normal[live], A[live], B[live], H[live], kept_lengths[live]
    valid = np.arange(A.shape[1]) < ell[:, None]
    q, ok = _crossing_points(n, A, B)
    ends = np.roll(q, -1, axis=1)
    ends[np.arange(len(q)), ell - 1] = (H @ q[:, 0, :, None])[..., 0]
    sgn = rowdot(n[:, None, :], np.cross(q, ends))
    step = np.arctan2(np.abs(sgn), rowdot(q, ends))
    sign = np.sign(sgn)
    found[live] = (ok.all(axis=1, where=valid)
                   & ~((step < CROSSING_TOL)
                       | (step > MAX_STEP)).any(axis=1, where=valid)
                   & (sign[:, 0] != 0) & (sign == sign[:, :1]).all(axis=1, where=valid))
    length[live] = np.cumsum(np.where(valid, step, 0.0), axis=1)[:, -1]
    rows = np.nonzero(keep)[0][found]
    for walk, n, ell, c in zip(walks[rows], lengths[rows], length[found],
                               contractible[rows]):
        report.geodesics.append(
            ClosedGeodesic(float(ell), tuple(walk[:n].tolist()), bool(c)))
    if report.geodesics:
        report.min_length = min(g.length for g in report.geodesics)
    report.found_within_cap = (report.min_length is not None
                               and report.min_length <= LENGTH_CAP)
    return report


def developed_strip(m, walk):
    """Checks `geodesic._strip_holonomy` and `geodesic._word_products`:
    develop the strip triangle by triangle from its first one, each
    neighbour placed from the two corners it shares with the last; returns
    (holonomy, crossed developed edges, deck word product or None)."""
    surf = m.surface
    t0 = walk[0] // 3
    l01, l12, l20 = m.lengths[surf.halfedge_edge[3 * t0:3 * t0 + 3]]
    A, B = base_pair(l01)
    X = [A, B, develop_third_point(A, B, l20, l12, +1.0)]
    X0 = np.stack(X, axis=1)
    edges = []
    word = np.eye(4) if m.deck_words is not None else None
    for i in range(len(walk)):
        exit_he = surf.mate[walk[(i + 1) % len(walk)]]
        ke = exit_he % 3
        t2, k2 = divmod(surf.mate[exit_he], 3)
        u, w = X[ke], X[(ke + 1) % 3]
        edges.append((u, w))
        if word is not None:
            word = word @ m.edge_word(exit_he)
        side = -np.sign(np.linalg.det(np.stack([u, w, X[(ke + 2) % 3]])))
        C = develop_third_point(u, w, m.lengths[surf.halfedge_edge[3 * t2 + (k2 + 1) % 3]],
                                m.lengths[surf.halfedge_edge[3 * t2 + (k2 + 2) % 3]], side)
        X = [None] * 3
        X[k2], X[(k2 + 1) % 3], X[(k2 + 2) % 3] = w, u, C
    return np.stack(X, axis=1) @ np.linalg.inv(X0), edges, word


# -- reference search: one walk at a time, depth-first -------------------------


def reference_walks(m, depth):
    """Checks `geodesic._closed_walks`: closed walks in the strip graph,
    canonical up to rotation, found by a depth-first search from each root
    half-edge."""
    surf = m.surface
    for h0 in range(3 * surf.n_triangles):
        stack = [(h0, (h0,))]
        while stack:
            h, walk = stack.pop()
            t, k = divmod(h, 3)
            for off in (1, 2):
                nxt = int(surf.mate[3 * t + (k + off) % 3])
                if nxt == h0:
                    yield walk
                    continue
                if len(walk) < depth and nxt >= h0:
                    stack.append((nxt, walk + (nxt,)))


def reference_holonomy(m, walk, corners, rotations, words):
    """Checks `geodesic._strip_holonomy`: compose one strip once around in
    the chart of its first triangle, and project onto SO(3)."""
    surf = m.surface
    M = np.eye(3)
    edges = []
    word = np.eye(4) if words is not None else None
    for i in range(len(walk)):
        exit_he = surf.mate[walk[(i + 1) % len(walk)]]
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
    """Checks `_crossing_points`' strictly-inside test on one
    crossing."""
    da = sphere_angle(A, q)
    db = sphere_angle(q, B)
    return (abs(da + db - sphere_angle(A, B)) <= ON_SEGMENT_TOL
            and da >= CROSSING_TOL and db >= CROSSING_TOL)


def reference_circle_length(n, edges, H):
    """Checks `geodesic._circle_lengths` on one strip: its length, or None
    where the circle misses an edge or turns back."""
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
    """Checks `geodesic._closed_geodesics`' rotation argument: the rotation
    by angle about n."""
    n = n / np.linalg.norm(n)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def reference_search(m, depth, contractible_only=True):
    """Checks `geodesic.closed_geodesic_search`: the search one walk at a
    time, depth-first enumeration, then each strip developed and tested on
    single vectors, and every circle found checked
    against the rotation by its length, which the batched search proves
    instead of testing."""
    report = SearchReport()
    corners = _develop(m)
    _, rotations, words = _crossings(m, corners, m.surface.mate)
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


def per_length_holonomy(walks, mate, corners, rotations, words):
    """Checks `geodesic._strip_holonomy`: compose every strip of an (N, L)
    walk array once around in the chart of its first triangle, and project
    the holonomies onto SO(3)."""
    n, length = walks.shape
    exits = mate[np.roll(walks, -1, axis=1)]
    rows = np.arange(n)
    M = np.tile(np.eye(3), (n, 1, 1))
    word = None if words is None else np.tile(np.eye(4), (n, 1, 1))
    A, B = np.empty((n, length, 3)), np.empty((n, length, 3))
    for i in range(length):
        e = exits[:, i]
        X = M @ corners[e // 3]
        A[:, i], B[:, i] = X[rows, :, e % 3], X[rows, :, (e + 1) % 3]
        M = M @ rotations[e]
        if word is not None:
            word = word @ words[e]
    u, _, vt = np.linalg.svd(M)
    return u @ vt, A, B, word


def per_length_geodesics(H, A, B):
    """Checks `geodesic._closed_geodesics`: the tests of one walk length on
    unpadded (N, L) arrays, the normal off the flat branch taken from an SVD
    of H - I."""
    flat = np.max(np.abs(H - np.eye(3)), axis=(1, 2)) < IDENTITY_TOL
    normal = np.empty((len(H), 3))
    mids = A[flat] + B[flat]
    mids = mids / np.sqrt(rowdot(mids, mids))[..., None]
    normal[flat] = np.linalg.eigh(np.swapaxes(mids, -1, -2) @ mids)[1][..., 0]
    normal[~flat] = np.linalg.svd(H[~flat] - np.eye(3))[2][:, -1]
    H = np.where(flat[:, None, None], np.eye(3), H)
    q, ok = _crossing_points(normal, A, B)
    ends = np.concatenate([q[:, 1:], (H @ q[:, 0, :, None])[:, None, :, 0]], axis=1)
    sgn = rowdot(normal[:, None, :], np.cross(q, ends))
    step = np.arctan2(np.abs(sgn), rowdot(q, ends))
    sign = np.sign(sgn)
    found = (ok.all(axis=1)
             & ~((step < CROSSING_TOL) | (step > MAX_STEP)).any(axis=1)
             & (sign[:, 0] != 0) & (sign == sign[:, :1]).all(axis=1))
    return found, np.cumsum(step, axis=1)[:, -1]


def per_length_search(m, depth, contractible_only=True):
    """Checks `geodesic.closed_geodesic_search`: the search as one stacked
    pass per walk length, two SVDs each."""
    report = SearchReport()
    corners = _develop(m)
    mate = m.surface.mate
    _, rotations, words = _crossings(m, corners, mate)
    for walks in _closed_walks(mate, depth):
        report.n_cycles_checked += len(walks)
        H, A, B, word = per_length_holonomy(walks, mate, corners, rotations, words)
        contractible = np.ones(len(walks), dtype=bool)
        if word is not None:
            contractible = np.max(np.abs(word - np.eye(4)), axis=(1, 2)) < IDENTITY_TOL
        keep = contractible if contractible_only else np.ones_like(contractible)
        found, length = per_length_geodesics(H[keep], A[keep], B[keep])
        for walk, ell, c in zip(walks[keep][found], length[found],
                                contractible[keep][found]):
            report.geodesics.append(
                ClosedGeodesic(float(ell), tuple(walk.tolist()), bool(c)))
    if report.geodesics:
        report.min_length = min(g.length for g in report.geodesics)
    report.found_within_cap = (report.min_length is not None
                               and report.min_length <= LENGTH_CAP)
    return report


# -- the genus-2 dual ------------------------------------------------------------
#
# The general hull path `fuchsian.fuchsian_dualize` took before its closed
# form: the apex star is read off the hull of the orbit points whose feet lie
# within ORBIT_RADIUS of the octagon centre o, and it is proven exact there.
# The part of the height-h equidistant surface on the positive side of a face
# plane projects to a disc, and when every such disc lies inside the ball no
# orbit point outside it can reach a face plane. Each face's disc is the
# circumdisc of the eight orbit points around a tile vertex, so it reaches 2R
# from o (R = OCTAGON_CIRCUMRADIUS) at every height, and the ball of radius
# just over 2R holds its 49 orbit points. The hull's simplices, grouped into
# apex faces and glued, give an edge table, and `polyhedra.cycle_walk` reads
# off it the faces around the apex and each face's vertex cycle.

# the face discs reach exactly 2R, and the next orbit point past 2R lies at
# 2.22 R, so the margin need only cover roundoff
ORBIT_MARGIN = 1e-6             # relative slack of the ball over 2R
ORBIT_RADIUS = 2.0 * OCTAGON_CIRCUMRADIUS * (1.0 + ORBIT_MARGIN)
CENTRE_DIGITS = 2               # decimals of a tile centre's key (`centre_keys`)
MEMBER_TOL = 1e-9               # relative |<x, n>| of an orbit point on a face
WORD_MATCH_TOL = 1e-8           # max |entry| difference of equal edge words
PAIRING_TOL = 1e-7              # max |entry| of a paired normal's mismatch


def orbit(data, h):
    """Every orbit point of the apex at height h whose foot lies within
    ORBIT_RADIUS of o, with its matrix, deduplicated, identity first.

    Breadth first over side-adjacent tiles: each frontier is multiplied by
    every generator in one stacked product, frontier element major; a
    candidate is kept at its first occurrence when no earlier element has
    its tile centre (`centre_keys`) and its tile centre lies within
    ORBIT_RADIUS + R of o (gamma[0, 0] is cosh d(o, gamma o)). A tile that
    meets the ball is joined to o's tile by side-adjacent tiles that meet it
    too, and each of those has its centre within ORBIT_RADIUS + R, so the
    search reaches every orbit point in the ball."""
    apex = np.array([np.cosh(h), 0.0, 0.0, np.sinh(h)])
    gens = np.array([g.m for g in data.generators])
    bound = np.cosh(ORBIT_RADIUS + OCTAGON_CIRCUMRADIUS)
    mats = frontier = np.eye(4)[None]
    while len(frontier):
        cand = (frontier[:, None] @ gens).reshape(-1, 4, 4)
        cand = cand[cand[:, 0, 0] <= bound]
        keys = centre_keys(np.concatenate([mats, cand]))
        first = np.unique(keys, return_index=True)[1]
        frontier = cand[np.sort(first[first >= len(mats)]) - len(mats)]
        mats = np.concatenate([mats, frontier])
    mats = mats[mats[:, 0, 0] <= np.cosh(ORBIT_RADIUS)]
    return mats, mats @ apex


def centre_keys(mats: np.ndarray) -> np.ndarray:
    """Each group element's tile centre gamma o = (x0, x1, x2, 0) as the key
    x1 + i x2 rounded to CENTRE_DIGITS decimals: distinct elements' (x1, x2)
    lie more than 4 apart (their centres at least 2 OCTAGON_HALF_WIDTH), and
    the products' roundoff is about 1e-10 in the farthest centres."""
    return np.round(mats[:, 1, 0] + 1j * mats[:, 2, 0], CENTRE_DIGITS)


def face_reaches(normals: np.ndarray, h: float) -> np.ndarray:
    """Per outward face normal n (F, 4), the farthest distance from o of the
    disc {y in H^2 : cosh h <n, y> + sinh h n3 > 0}, the projection of the
    height-h equidistant surface on n's positive side; inf where that set
    is not a bounded disc.

    It is a disc when n0 > 0 and n3 > 1: with k = sqrt(n3^2 - 1) its centre
    is u = (n0, n1, n2) / k and its radius r has cosh r = n3 tanh h / k, so
    it reaches d(o, u) + r = arccosh(n0 / k) + r."""
    n0, n3 = normals[:, 0], normals[:, 3]
    disc = (n0 > 0) & (n3 > 1)
    k = np.sqrt(np.where(disc, n3 ** 2 - 1.0, 1.0))
    reach = (np.arccosh(np.where(disc, n0 / k, 1.0))
             + np.arccosh(np.where(disc, np.tanh(h) * n3 / k, 1.0)))
    return np.where(disc, reach, np.inf)


def plane_through_points(rows: np.ndarray) -> np.ndarray:
    """Best-fit Minkowski plane normal through the given points (spacelike);
    stacked point sets (..., k, 4) give stacked normals (..., 4)."""
    scaled = rows / np.linalg.norm(rows, axis=-1)[..., None]
    n = np.linalg.svd(scaled @ J)[2][..., -1, :]
    q = rowdot(n @ J, n)
    if (q <= 0).any():
        raise InvalidPolyhedron("support plane through apex is not spacelike")
    return n / np.sqrt(q)[..., None]


def members_on_planes(points: np.ndarray, normals: np.ndarray) -> list:
    """Per plane normal (F, 4): the indices of the points on it."""
    on = (np.abs(points @ J @ normals.T)
          <= MEMBER_TOL * np.linalg.norm(points, axis=1)[:, None])
    return [tuple(col.nonzero()[0].tolist()) for col in on.T]


@dataclass
class ApexStar:
    faces: list          # per face: dict(normal, members, cycle)
    order: list          # cyclic order of faces around the apex
    neighbors: list      # orbit index of the edge endpoint between consecutive faces


def apex_star(points: np.ndarray) -> ApexStar:
    """The faces around the apex points[0] of the orbit points' hull, in
    order, each with its outward normal, its members and its vertex cycle."""
    klein = points[:, 1:] / points[:, [0]]
    ConvexHull, _ = qhull()
    hull = ConvexHull(klein)
    if 0 not in set(int(v) for v in hull.vertices):
        raise InvalidPolyhedron("apex is not extreme in the sampled orbit")
    # fit each apex simplex's plane, collect the orbit points on it, and
    # refit each distinct such set once, the sets of one size in one stacked
    # fit; a face's last simplex sets its normal
    apex_simplices = hull.simplices[(hull.simplices == 0).any(axis=1)]
    firsts = members_on_planes(points, plane_through_points(points[apex_simplices]))
    by_size = {}
    for f in dict.fromkeys(firsts):
        by_size.setdefault(len(f), []).append(f)
    sets = [f for group in by_size.values() for f in group]
    fits = np.concatenate([plane_through_points(points[group])
                           for group in by_size.values()])
    refit = dict(zip(sets, zip(members_on_planes(points, fits), fits)))
    members, normals = zip(*sorted(dict(refit[f] for f in firsts).items()))
    incidence = np.zeros((len(members), len(points)), dtype=bool)
    for row, m in zip(incidence, members):
        row[list(m)] = True
    # orient outward: the rest of the orbit lies strictly on the negative side
    vals = np.array(normals) @ J @ points.T
    above = vals.max(axis=1, where=~incidence, initial=-np.inf) > 0
    if (above & (vals.min(axis=1, where=~incidence, initial=np.inf) < 0)).any():
        raise InvalidPolyhedron("apex face plane does not support the orbit")
    faces = [{"normal": -n if flip else n, "members": m}
             for n, m, flip in zip(normals, members, above)]

    # each hull simplex lies in the apex face whose members hold its
    # corners, or in a group of its own. An edge's head corner turns ccw
    # from its first group to its second (`glued_edges`), so with the
    # corners reversed the walk reads each face's cycle ccw seen from
    # outside, from the apex, and the faces around the apex cw, the order
    # the side pairing reads them in
    tri = oriented_simplices(hull)
    at = incidence[:, tri].all(axis=2)                  # face x simplex
    alone = ~at.any(axis=0)
    group = np.where(alone, len(faces) + np.cumsum(alone) - 1, np.argmax(at, axis=0))
    pairs, corners = glued_edges(tri, directed_mates(tri, len(points)), group)
    corners = corners[:, ::-1]
    order, via, count = cycle_walk(corners, pairs, len(points))
    order, via = order[:count[0]], via[:count[0]]
    cycles, _, sizes = cycle_walk(pairs, corners, len(faces) + int(alone.sum()))
    sizes = sizes[:len(faces)]
    cycles = cycles[:sizes.sum()]
    _check_turns(np.array([f["normal"][1:] for f in faces]), klein, cycles, sizes)
    for f, cycle in zip(faces, np.split(cycles, np.cumsum(sizes)[:-1])):
        f["cycle"] = cycle.tolist()
    # the far end of the edge between consecutive faces at the apex
    neighbors = corners[via].sum(axis=1)
    return ApexStar(faces=faces, order=order.tolist(), neighbors=neighbors.tolist())


def corner_classes(sigma: np.ndarray) -> tuple:
    """The least corner of each vertex of the glued polygon, ascending, and
    each corner's vertex: gluing side i to side sigma(i), an involution,
    identifies corner j with corners sigma(j) + 1 and sigma(j - 1)."""
    m = len(sigma)
    label = least_labels(np.stack([(sigma + 1) % m, sigma[np.arange(m) - 1]], axis=1))
    classes = np.unique(label)
    return classes, np.searchsorted(classes, label)


def hull_dualize(data, h):
    """Checks `fuchsian.fuchsian_dualize`: the general path its closed form
    replaced, to 1e-12 in the numbers and bit for bit in the deck words and
    the layout.

    The link is read off the hull of the orbit points whose feet lie within
    ORBIT_RADIUS of o, and it is exact when, for every apex face, the part
    of the height-h equidistant surface on the face plane's positive side
    projects into that ball: then no orbit point outside the ball lies on or
    beyond a face plane, and every face's full vertex set is inside it.
    Otherwise InvalidPolyhedron names the face and its reach. Each face area
    is the angle defect of the face's own vertex cycle."""
    if h <= 0:
        raise InvalidPolyhedron("apex height must be positive")
    mats, points = orbit(data, h)
    star = apex_star(points)
    reach = face_reaches(np.array([f["normal"] for f in star.faces]), h)
    outside = (~(reach < ORBIT_RADIUS)).nonzero()[0]
    if len(outside):
        f = outside[0]
        raise InvalidPolyhedron(
            f"apex face {f} reaches {reach[f]:.9f} from the octagon centre,"
            f" not inside the orbit radius {ORBIT_RADIUS:.9f}")

    m = len(star.order)
    # gamma_i carries the apex to the far endpoint of edge i; side i is glued
    # to side sigma(i), the one whose gamma is gamma_i^-1, found by centre
    gammas = mats[star.neighbors]
    inverses = np.linalg.inv(gammas)
    keys = centre_keys(gammas)
    order = np.argsort(keys)
    sigma = order[np.minimum(np.searchsorted(keys[order], centre_keys(inverses)),
                             m - 1)]
    if (np.abs(gammas[sigma] - inverses).max(axis=(1, 2))
            >= WORD_MATCH_TOL).any():
        raise InvalidPolyhedron("side pairing leaves the apex star")

    # corner identification: side i glued to side sigma(i) reversing direction
    normals = np.array([star.faces[idx]["normal"] for idx in star.order])
    mapped = (inverses @ normals[:, :, None])[..., 0]
    if (np.abs(mapped - normals[(sigma + 1) % m]).max(axis=1)
            > PAIRING_TOL).any():
        raise InvalidPolyhedron(
            "side pairing does not reverse the polygon orientation")
    classes, class_of = corner_classes(sigma)

    _, corners, sides, diagonals, _ = fan_triangulations([m])
    sides = sides[0]
    mate = np.full(3 * len(corners), -1)
    pairs = np.vstack([diagonals, np.stack([sides, sides[sigma]], axis=1)])
    mate[pairs] = pairs[:, ::-1]
    surf = CombSurface(len(classes), class_of[corners], mate)

    # an edge's length is the de Sitter distance of the normals at its
    # polygon corners, as in `polyhedra.dualize`, read off its smaller
    # half-edge; a side's half-edge carries gamma_i
    first = surf.edge_halfedges[:, 0]
    ends = np.stack([corners, np.roll(corners, -1, axis=1)]).reshape(2, -1)[:, first]
    side_of = np.full(len(mate), -1)
    side_of[sides] = np.arange(m)
    words = {e: gammas[i] if i >= 0 else np.eye(4)
             for e, i in enumerate(side_of[first].tolist())}
    metric = ConeMetric(surf, SPHERICAL, ds_distances(*normals[ends]),
                        deck_words=words)

    core_distance = min(
        float(np.arccosh(abs(f["normal"][3])))
        for f in star.faces)

    marking = [star.order[c] for c in classes.tolist()]
    face_areas = [polygon_area(points[star.faces[idx]["cycle"]])
                  for idx in marking]
    return FuchsianDualOutput(metric=metric, marking=marking,
                              core_distance=core_distance,
                              face_areas=face_areas)


ORBIT_DIGITS = 9                # reference_orbit: equal matrices round equal


def reference_orbit(data, h, word_bound=None):
    """Checks `orbit`: the orbit one candidate at a time, each frontier
    matrix times each generator, kept when its rounded entries are new.
    With a word bound, every word up to that length, the orbit `hull_dualize`
    took before its distance ball; without, the ball of `orbit`: candidates
    centred beyond ORBIT_RADIUS + R are dropped, and the rows beyond
    ORBIT_RADIUS cut at the end."""
    apex = np.array([np.cosh(h), 0.0, 0.0, np.sinh(h)])
    ball = word_bound is None
    bound = np.cosh(ORBIT_RADIUS + OCTAGON_CIRCUMRADIUS) if ball else np.inf
    seen = {tuple(np.round(np.eye(4).ravel(), ORBIT_DIGITS))}
    mats = frontier = [np.eye(4)]
    length = 0
    while frontier and (ball or length < word_bound):
        length += 1
        nxt = []
        for m in frontier:
            for g in data.generators:
                cand = m @ g.m
                key = tuple(np.round(cand.ravel(), ORBIT_DIGITS))
                if cand[0, 0] <= bound and key not in seen:
                    seen.add(key)
                    nxt.append(cand)
        mats, frontier = mats + nxt, nxt
    if ball:
        mats = [m for m in mats if m[0, 0] <= np.cosh(ORBIT_RADIUS)]
    return np.array(mats), np.array([m @ apex for m in mats])


def reference_apex_faces(points):
    """Checks `apex_star`'s faces: the apex faces one hull simplex
    at a time: fit its plane, collect
    the orbit points on it, refit through them and collect again; then
    orient each face against the orbit points off it, one at a time."""
    def fit(rows):
        rows = rows / np.linalg.norm(rows, axis=1)[:, None]
        n = np.linalg.svd(rows @ J)[2][-1]
        return n / np.sqrt(float(n @ J @ n))

    def members_on(n):
        resid = np.abs(points @ J @ n)
        on = resid <= MEMBER_TOL * np.linalg.norm(points, axis=1)
        return tuple(int(i) for i in np.nonzero(on)[0])

    groups = {}
    for simplex in ConvexHull(points[:, 1:] / points[:, [0]]).simplices:
        if 0 in simplex:
            n = fit(points[list(members_on(fit(points[simplex])))])
            groups[members_on(n)] = n
    faces = []
    for members, n in sorted(groups.items()):
        off = [v for i, v in enumerate(points @ J @ n) if i not in members]
        faces.append((-n if np.max(off) > 0 else n, members))
    return faces


def reference_apex_star(points):
    """Checks `apex_star`: the star it replaced, which ordered
    each apex face's members by angle (`order_face_cycle`) and walked the
    apex's faces by a dict of the edges at the apex, each next face across
    the edge from the apex to its successor in the face before."""
    klein = points[:, 1:] / points[:, [0]]
    hull = ConvexHull(klein)
    if 0 not in set(int(v) for v in hull.vertices):
        raise InvalidPolyhedron("apex is not extreme in the sampled orbit")
    apex_simplices = hull.simplices[(hull.simplices == 0).any(axis=1)]
    firsts = members_on_planes(
        points, plane_through_points(points[apex_simplices]))
    refit = {}
    for f in set(firsts):
        n = plane_through_points(points[list(f)])
        refit[f] = (members_on_planes(points, n[None])[0], n)
    members, normals = zip(*sorted(dict(refit[f] for f in firsts).items()))
    incidence = np.zeros((len(members), len(points)), dtype=bool)
    for row, m in zip(incidence, members):
        row[list(m)] = True
    vals = np.array(normals) @ J @ points.T
    above = np.max(vals, axis=1, where=~incidence, initial=-np.inf) > 0
    if np.any(above & (np.min(vals, axis=1, where=~incidence, initial=np.inf) < 0)):
        raise InvalidPolyhedron("apex face plane does not support the orbit")
    faces = [{"normal": -n if flip else n, "members": m,
              "cycle": order_face_cycle((-n if flip else n)[1:], klein[list(m)],
                                        list(m))}
             for n, m, flip in zip(normals, members, above)]

    by_edge = {}
    for idx, f in enumerate(faces):
        cyc = f["cycle"]
        i0 = cyc.index(0)
        by_edge.setdefault(frozenset((0, cyc[(i0 + 1) % len(cyc)])), []).append(idx)
        by_edge.setdefault(frozenset((0, cyc[i0 - 1])), []).append(idx)
    order, neighbors, cur = [0], [], 0
    for _ in range(len(faces)):
        cyc = faces[cur]["cycle"]
        succ = cyc[(cyc.index(0) + 1) % len(cyc)]
        neighbors.append(succ)
        pair = by_edge[frozenset((0, succ))]
        if len(pair) != 2:
            raise InvalidPolyhedron("apex edge not shared by exactly two faces")
        cur = pair[0] if pair[1] == cur else pair[1]
        if cur == 0 and len(order) < len(faces):
            raise InvalidPolyhedron("apex face fan closed early")
        if len(order) < len(faces):
            order.append(cur)
    if cur != 0:
        raise InvalidPolyhedron("apex face fan did not close")
    return ApexStar(faces=faces, order=order, neighbors=neighbors)


def matrix_key_orbit(data, h):
    """Checks `orbit` bit for bit: the stacked breadth-first orbit
    it replaced, each level's candidates kept at their first occurrence
    when no earlier matrix has the same 16 entries rounded to ORBIT_DIGITS
    (one `np.unique` over those rows per level)."""
    apex = np.array([np.cosh(h), 0.0, 0.0, np.sinh(h)])
    gens = np.array([g.m for g in data.generators])
    bound = np.cosh(ORBIT_RADIUS + OCTAGON_CIRCUMRADIUS)
    mats = frontier = np.eye(4)[None]
    while len(frontier):
        cand = (frontier[:, None] @ gens).reshape(-1, 4, 4)
        cand = cand[cand[:, 0, 0] <= bound]
        keys = np.round(np.concatenate([mats, cand]).reshape(-1, 16), ORBIT_DIGITS)
        first = np.unique(keys, axis=0, return_index=True)[1]
        frontier = cand[np.sort(first[first >= len(mats)]) - len(mats)]
        mats = np.concatenate([mats, frontier])
    mats = mats[mats[:, 0, 0] <= np.cosh(ORBIT_RADIUS)]
    return mats, mats @ apex


def union_find_classes(sigma):
    """Checks `corner_classes`: the Python union-find it replaced,
    each class rooted at its least corner."""
    m = len(sigma)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i in range(m):
        union(i, (sigma[i] + 1) % m)
        union((i + 1) % m, sigma[i])
    classes = sorted({find(i) for i in range(m)})
    return classes, [classes.index(find(i)) for i in range(m)]


def reference_lengths(data, h, out):
    """Checks the edge lengths of `fuchsian.fuchsian_dualize` and of
    `hull_dualize`: those of out's surface from the developed polar dual of
    the hull path's apex link, as it computed them before it took the de
    Sitter distances of the normals: sides pi minus the apex dihedral
    angles, diagonals read off the development."""
    _, points = orbit(data, h)
    star = apex_star(points)
    normals = [star.faces[idx]["normal"] for idx in star.order]
    m = len(normals)
    face_angles, dihedrals = [], []
    for i, idx in enumerate(star.order):
        cyc = star.faces[idx]["cycle"]
        i0 = cyc.index(0)
        face_angles.append(corner_angle(points[0], points[cyc[i0 - 1]],
                                        points[cyc[(i0 + 1) % len(cyc)]]))
        x = clamped(float(normals[i] @ J @ normals[(i + 1) % m]), -1.0, 1.0, 1e-9)
        dihedrals.append(np.pi - float(np.arccos(x)))
    corners, resid = SphericalPolygon(sides=np.pi - np.array(dihedrals),
                                      angles=np.pi - np.array(face_angles)).develop()
    assert resid < 1e-8
    _, sides, diagonals = fan_triangulation(m)
    side_of = {he: j for j, he in enumerate(sides)}
    diagonal_to = {he_a: j for j, (he_a, _) in enumerate(diagonals, start=2)}
    return np.array([np.pi - dihedrals[side_of[ha]] if ha in side_of
                     else sphere_angle(corners[0], corners[diagonal_to[ha]])
                     for ha in out.metric.surface.edge_halfedges[:, 0].tolist()])


# -- cone angles ----------------------------------------------------------------


def triangle_angles(a, b, c, geometry):
    """Checks `surface.corner_angles`: the per-triangle law of cosines that
    it stacks, to be equalled bit for bit."""
    if geometry == SPHERICAL:
        sa, sb, sc = np.sin([a, b, c])
        ca, cb, cc = np.cos([a, b, c])
        cos_a = clamped((ca - cb * cc) / (sb * sc), -1.0, 1.0, 1e-12)
        cos_b = clamped((cb - cc * ca) / (sc * sa), -1.0, 1.0, 1e-12)
        cos_c = clamped((cc - ca * cb) / (sa * sb), -1.0, 1.0, 1e-12)
    else:
        sa, sb, sc = np.sinh([a, b, c])
        ca, cb, cc = np.cosh([a, b, c])
        cos_a = clamped((cb * cc - ca) / (sb * sc), -1.0, 1.0, 1e-12)
        cos_b = clamped((cc * ca - cb) / (sc * sa), -1.0, 1.0, 1e-12)
        cos_c = clamped((ca * cb - cc) / (sa * sb), -1.0, 1.0, 1e-12)
    return np.arccos([cos_a, cos_b, cos_c])


def reference_corner_angles(surf, geometry, lengths):
    """Checks `ConeMetric`'s validation and angles: the per-triangle loop it
    stacks; returns the corner angles, or raises what that loop raised
    first."""
    if geometry == SPHERICAL and np.any(lengths >= np.pi):
        raise InvalidConeMetric("spherical edge lengths must stay below pi")
    for t in range(surf.n_triangles):
        a, b, c = surf.triangle_edge_lengths(t, lengths)
        if a + b <= c or b + c <= a or c + a <= b:
            raise InvalidConeMetric(f"triangle {t} violates the triangle inequality")
        if geometry == SPHERICAL and a + b + c >= 2 * np.pi:
            raise InvalidConeMetric(f"triangle {t} has perimeter >= 2*pi")
    return np.array([triangle_angles(*surf.triangle_edge_lengths(t, lengths),
                                     geometry)
                     for t in range(surf.n_triangles)])
