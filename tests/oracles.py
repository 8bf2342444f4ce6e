"""Reference implementations that stacked or leaner code replaced, kept as
the oracles it must match bit for bit. Each names the function it checks."""
import itertools
from typing import Optional

import numpy as np

from polydual import solver
from polydual.errors import (
    FeasibilityLost,
    NotSpacelikeSeparated,
    SolverError,
    StepStalled,
)
from polydual.minkowski import J, minkowski_rows
from polydual.polyhedra import (
    CERTIFIED,
    CERTIFY_MARGIN,
    CERTIFY_ROUNDOFF,
    UNDECIDED,
    VIOLATED,
    ChartCertificate,
    _plane_offsets,
    _row_norms,
)
from polydual.solver import FRAME_TOL
from polydual.surface import CombSurface


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
    tri = surface.triangle_array
    try:
        y = np.linalg.solve(a[tri], b[tri][..., None])[..., 0]
    except np.linalg.LinAlgError:
        return UNDECIDED
    resid, scale = _plane_offsets(a, b, y)            # triangle x plane
    limit = CERTIFY_MARGIN * scale
    own = surface.triangle_vertex_mask
    if np.any((resid > limit) & ~own):
        return VIOLATED
    if (np.all(np.einsum("ij,ij->i", y, y) < 1.0 - CERTIFY_MARGIN)
            and np.all(own | (resid < -limit))):
        return CERTIFIED
    return UNDECIDED


def chart_certificate(duals, surface: CombSurface) -> Optional[ChartCertificate]:
    """Checks the certificate of `polyhedra.chart_verdict`: the
    ChartCertificate of dual points that `chart_certifies` certified, from
    a second stacked inverse; None when its own numbers certify nothing."""
    x = np.asarray(duals, dtype=float)
    a, b = x[:, 1:], x[:, 0]
    tri = surface.triangle_array
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
    if slack <= roundoff or klein_radius ** 2 >= 1.0 - CERTIFY_MARGIN:
        return None
    return ChartCertificate(x, slack, inverse_bound, klein_radius, normal_bound,
                            roundoff)


def step_distances_int64(succ, depth):
    """Checks `geodesic._step_distances`: the same recurrence in int64."""
    dist = np.where(np.eye(len(succ), dtype=bool), 0, depth).astype(np.int64)
    for _ in range(depth - 1):
        dist = np.minimum(dist, 1 + np.minimum(dist[succ[:, 0]], dist[succ[:, 1]]))
    return dist
