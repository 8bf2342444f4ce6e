"""Linear algebra of Minkowski R^4 and the hyperboloid / de Sitter models.

Conventions used throughout the package:

* signature (-,+,+,+), with the bilinear form <x,y> = -x0*y0 + x1*y1 + x2*y2 + x3*y3;
* H^3 is the upper sheet of <x,x> = -1 (x0 > 0), dS^3 is the quadric <x,x> = +1;
* a point of dS^3 doubles as an oriented plane of H^3: the plane is its
  orthogonal complement, and the positive side of the plane is where <n,x> > 0.
  Face planes of convex bodies are oriented with the positive side OUTWARD;
* `ds_distances` is the one de Sitter distance: every dual edge length,
  dihedral angle (pi minus it) and solver chart length is read from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainExceeded, NotSpacelikeSeparated

J = np.diag([-1.0, 1.0, 1.0, 1.0])

NORM_TOL = 1e-12
ISO_TOL = 1e-10
CLAMP_SLACK = 1e-12
BASIS_OFFSETS = ((0.0, 0.0), (0.7, 0.0), (0.0, 0.7))   # plane_basis_points


def _as_vec4(x) -> np.ndarray:
    v = x.v if isinstance(x, (HPoint, DSPoint)) else np.asarray(x, dtype=float)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {v.shape}")
    return v


def minkowski_inner(a, b) -> float:
    """Signature (-,+,+,+) scalar product of two 4-vectors."""
    u, w = _as_vec4(a), _as_vec4(b)
    return float(-u[0] * w[0] + u[1] * w[1] + u[2] * w[2] + u[3] * w[3])


def minkowski_rows(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u, w> along the last axis of two broadcasting arrays of 4-vectors,
    term by term in minkowski_inner's order, so each entry has its bits."""
    return (-u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1]
            + u[..., 2] * w[..., 2] + u[..., 3] * w[..., 3])


def clamped(x: float, lo: float, hi: float, slack: float = CLAMP_SLACK) -> float:
    """Clamp x into [lo, hi], tolerating roundoff up to slack beyond the ends."""
    if x < lo - slack or x > hi + slack:
        raise DomainExceeded(f"value {x!r} outside [{lo}, {hi}] by more than {slack}")
    return min(max(x, lo), hi)


@dataclass(frozen=True, eq=False)
class HPoint:
    """Point of H^3 on the upper hyperboloid sheet."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "v", v)
        if v.shape != (4,) or not np.all(np.isfinite(v)):
            raise ValueError("HPoint needs 4 finite components")
        q = minkowski_inner(v, v)
        if abs(q + 1.0) > NORM_TOL:
            raise ValueError(f"<v,v> = {q}, not -1 within {NORM_TOL}")
        if v[0] <= 0:
            raise ValueError("not on the upper sheet (x0 <= 0)")

    @classmethod
    def from_vector(cls, v) -> "HPoint":
        """Normalize a timelike vector onto the upper sheet."""
        v = _as_vec4(v)
        q = minkowski_inner(v, v)
        if q >= 0:
            raise ValueError("vector is not timelike")
        w = v / np.sqrt(-q)
        if w[0] <= 0:
            raise ValueError("timelike vector points to the lower sheet")
        return cls(w)


@dataclass(frozen=True, eq=False)
class DSPoint:
    """Point of dS^3; equivalently an oriented geodesic plane of H^3."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "v", v)
        if v.shape != (4,) or not np.all(np.isfinite(v)):
            raise ValueError("DSPoint needs 4 finite components")
        q = minkowski_inner(v, v)
        if abs(q - 1.0) > NORM_TOL:
            raise ValueError(f"<v,v> = {q}, not +1 within {NORM_TOL}")

    @classmethod
    def from_vector(cls, v) -> "DSPoint":
        """Normalize a spacelike vector onto the de Sitter quadric."""
        v = _as_vec4(v)
        q = minkowski_inner(v, v)
        if q <= 0:
            raise ValueError("vector is not spacelike")
        return cls(v / np.sqrt(q))


def h_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance between two points of H^3.

    Uses the chord form 2*asinh(|p-q|_M / 2), which is exact on the
    hyperboloid and stable for nearby points.
    """
    d = _as_vec4(p) - _as_vec4(q)
    c2 = minkowski_inner(d, d)
    if c2 < -CLAMP_SLACK:
        raise DomainExceeded(f"chord norm {c2} negative beyond slack")
    return 2.0 * float(np.arcsinh(np.sqrt(max(c2, 0.0)) / 2.0))


def corner_angle(at, pred, succ) -> float:
    """Angle at the H^3 point `at` between the geodesics toward pred and succ.

    All three are raw 4-vectors on the hyperboloid.
    """
    def tangent(q):
        t = q + minkowski_inner(at, q) * at
        return t / np.sqrt(minkowski_inner(t, t))

    t1, t2 = tangent(pred), tangent(succ)
    return float(np.arccos(clamped(float(t1 @ J @ t2), -1.0, 1.0)))


def ds_distances(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Spacelike de Sitter distances in (0, pi) between the rows of u and w,
    two (N, 4) arrays of points on the quadric, in the chord form
    2*arcsin(|u-w|_M / 2): arccos(<u, w>), exact and stable for nearby points.

    Raises NotSpacelikeSeparated, naming the first pair, when a pair is not
    joined by a spacelike geodesic shorter than pi (a degenerate polyhedron).
    """
    diff = u - w
    csum = u + w
    c2m = np.einsum("ij,jk,ik->i", diff, J, diff)    # = 2 - 2<u,w>
    c2p = np.einsum("ij,jk,ik->i", csum, J, csum)    # = 2 + 2<u,w>
    bad = (c2m <= 0) | (c2p <= 0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotSpacelikeSeparated(
            f"pair {k}: <p,q> = {minkowski_rows(u[k], w[k])} outside (-1, 1)")
    return 2.0 * np.arcsin(np.minimum(np.sqrt(c2m) / 2.0, 1.0))


def side_of(n: DSPoint, x) -> float:
    """Signed side of the plane with normal n: positive, zero, or negative."""
    return minkowski_inner(n, x)


def plane_basis_points(n: DSPoint) -> list:
    """Three HPoints in general position on the plane orthogonal to n."""
    nv = _as_vec4(n)
    # Euclidean-orthonormal basis of the Minkowski-orthogonal complement of n
    basis = _complement_basis(nv)
    # the complement has signature (-,+,+); find its timelike combination
    gram = basis.T @ J @ basis
    w, vecs = np.linalg.eigh(gram)
    t = basis @ vecs[:, 0]  # most negative eigenvalue -> timelike
    t = t / np.sqrt(-minkowski_inner(t, t))
    if t[0] < 0:
        t = -t
    spacelike = [basis @ vecs[:, k] for k in (1, 2)]
    s1 = spacelike[0] / np.sqrt(minkowski_inner(spacelike[0], spacelike[0]))
    s2 = spacelike[1] / np.sqrt(minkowski_inner(spacelike[1], spacelike[1]))
    pts = []
    for (r1, r2) in BASIS_OFFSETS:
        v = t
        if r1 != 0.0:
            v = np.cosh(r1) * v + np.sinh(r1) * s1
        if r2 != 0.0:
            v = np.cosh(r2) * v + np.sinh(r2) * s2
        pts.append(HPoint.from_vector(v))
    return pts


def _complement_basis(nv: np.ndarray) -> np.ndarray:
    """4x3 Euclidean-orthonormal basis of {u : <nv,u>_M = 0}."""
    row = (J @ nv)[None, :]
    _, _, vt = np.linalg.svd(row)
    return vt[1:].T


def plane_through(p: HPoint, q: HPoint, r: HPoint,
                  positive_side_hint=None) -> DSPoint:
    """Oriented plane through three points of H^3.

    The normal is the Minkowski dual of the span; if a hint point is given
    the orientation is chosen so the hint lies on the positive side.
    """
    m = np.stack([_as_vec4(p), _as_vec4(q), _as_vec4(r)])
    ne = np.array([(-1.0) ** i * np.linalg.det(np.delete(m, i, axis=1))
                   for i in range(4)])
    n = J @ ne
    qn = minkowski_inner(n, n)
    if qn <= 0:
        raise ValueError("points do not span a plane meeting H^3")
    out = DSPoint(n / np.sqrt(qn))
    if positive_side_hint is not None and side_of(out, positive_side_hint) < 0:
        out = DSPoint(-out.v)
    return out


class Isometry:
    """Orientation- and time-orientation-preserving isometry of H^3 and dS^3."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("isometry needs a 4x4 matrix")
        if np.max(np.abs(m.T @ J @ m - J)) > ISO_TOL:
            raise ValueError("matrix does not preserve the Minkowski form")
        if abs(np.linalg.det(m) - 1.0) > ISO_TOL:
            raise ValueError("matrix does not have determinant +1")
        if m[0, 0] <= 0:
            raise ValueError("matrix swaps the hyperboloid sheets")
        self.m = m

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.m @ other.m)

    def inverse(self) -> "Isometry":
        return Isometry(J @ self.m.T @ J)

    def apply(self, p):
        """Apply to an HPoint or DSPoint, renormalizing to control drift."""
        if isinstance(p, HPoint):
            return HPoint.from_vector(self.m @ p.v)
        if isinstance(p, DSPoint):
            return DSPoint.from_vector(self.m @ p.v)
        return self.m @ _as_vec4(p)

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(np.eye(4))

    @classmethod
    def rotation(cls, i: int, j: int, phi: float) -> "Isometry":
        """Rotation by phi in the spatial coordinate plane (i, j), i,j in {1,2,3}."""
        if not (1 <= i <= 3 and 1 <= j <= 3 and i != j):
            raise ValueError("rotation plane must use two distinct spatial axes")
        m = np.eye(4)
        m[i, i] = m[j, j] = np.cos(phi)
        m[i, j] = -np.sin(phi)
        m[j, i] = np.sin(phi)
        return cls(m)

    @classmethod
    def boost(cls, i: int, t: float) -> "Isometry":
        """Translation by length t along the coordinate geodesic through axis i."""
        if not 1 <= i <= 3:
            raise ValueError("boost axis must be spatial")
        m = np.eye(4)
        m[0, 0] = m[i, i] = np.cosh(t)
        m[0, i] = m[i, 0] = np.sinh(t)
        return cls(m)
