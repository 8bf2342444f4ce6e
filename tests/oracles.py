"""Reference implementations that stacked or leaner code replaced, kept as
the oracles it must match bit for bit. Each names the function it checks."""
import numpy as np

from polydual import solver
from polydual.errors import (
    FeasibilityLost,
    NotSpacelikeSeparated,
    SolverError,
    StepStalled,
)
from polydual.minkowski import J, minkowski_rows
from polydual.solver import FRAME_TOL


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


def step_distances_int64(succ, depth):
    """Checks `geodesic._step_distances`: the same recurrence in int64."""
    dist = np.where(np.eye(len(succ), dtype=bool), 0, depth).astype(np.int64)
    for _ in range(depth - 1):
        dist = np.minimum(dist, 1 + np.minimum(dist[succ[:, 0]], dist[succ[:, 1]]))
    return dist
