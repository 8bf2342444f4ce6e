"""Genus-2 surface group from the regular octagon, acting on a plane in H^3,
and the dual cone-metric of the equivariant hull of one apex orbit, in
closed form.

The group is generated by the eight translations pairing opposite sides of
the regular octagon with vertex angle pi/4 centred at the origin o of the
invariant plane x3 = 0. The hull of the orbit of the apex p at height h
above o is an equivariant polyhedral dome. Its quotient is a genus-2
polyhedral surface with one vertex, so its dual metric is one polygon, with
a side per face around p, whose sides are glued in pairs.

Write R = OCTAGON_CIRCUMRADIUS, W = OCTAGON_HALF_WIDTH, e3 for the unit
normal of the invariant plane, and v_k for the octagon's vertices, v_k at
angle (2k + 1) pi/8 about o. Side k of the octagon joins v_{k-1} and v_k,
and generator g_k carries o across it. The dual follows from the tiling's
symmetry:

* Normals. Eight tiles meet at v_k, and the order-8 rotation about the
  geodesic through v_k perpendicular to the plane permutes them, and so the
  eight apex translates over their centres. These are the vertices of apex
  face k, so the rotation fixes the face's plane, and the plane's outward
  unit normal lies in the rotation's fixed space: n_k = a v_k + b e3 with
  a, b > 0. The plane holds p = cosh h o + sinh h e3, so
  b sinh h = a cosh R cosh h, that is b/a = cosh R coth h; with
  <n_k, n_k> = b^2 - a^2 = 1 this gives a^-2 = cosh^2 R csch^2 h + sinh^2 R.
* Lengths. The dual length of the faces k and k + j is the de Sitter
  distance of their normals, arccos <n_k, n_{k+j}> =
  arccos(b^2 - a^2 cosh d_j), with cosh d_j = cosh^2 R - sinh^2 R cos(j pi/4)
  the distance of v_k and v_{k+j}. Since sinh(d_j / 2) = sinh R sin(j pi/8),
      tan(l_j / 2) = sinh R sin(j pi/8)
                     / sqrt(cosh^2 R csch^2 h + sinh^2 R cos^2(j pi/8)),
  the same length without the arccos's cancellation: the longest diagonal
  l_4 stays below pi until csch h underflows.
* Area. The rotation turns face k's vertices cyclically, so the face is a
  regular octagon. Its side t joins apex translates over tile centres 2W
  apart, so cosh t = cosh^2 h cosh 2W - sinh^2 h, that is
  sinh(t/2) = cosh h sinh W. Its corner angle alpha has
  sin(alpha/2) cosh(t/2) = cos(pi/8), that is
      tan(alpha/2) = cos(pi/8) sech h / sqrt(sinh^2 W + sin^2(pi/8) sech^2 h),
  and by Gauss-Bonnet its area is 6 pi - 8 alpha. The dual vertex's cone
  angle is 2 pi plus that area.
* Core distance. The face plane's distance from the invariant plane is
  arccosh <n_k, e3> = arccosh b = arcsinh a.
* Gluing and deck words. Seen from outside, the faces around p follow each
  other in the order k = 0, 7, 6, ..., 1, so polygon corner i is face -i
  mod 8. The dome edge between the faces -i and -i - 1 runs from p to its
  translate across octagon side -i, so polygon side i carries the deck word
  g_{-i}. Side i + 4 carries its inverse, and the two are glued; every
  corner is then the one vertex.

tests/oracles.py keeps the general path this replaced: the hull of the
orbit points near o, read face by face, against which the closed form is
checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPolyhedron
from .minkowski import DSPoint, Isometry
from .surface import SPHERICAL, CombSurface, ConeMetric, fan_triangulations

OCTAGON_HALF_WIDTH = float(np.arccosh(1.0 / np.tan(np.pi / 8)))
OCTAGON_CIRCUMRADIUS = float(np.arccosh(1.0 / np.tan(np.pi / 8) ** 2))
TRANSLATION_LENGTH = 2.0 * OCTAGON_HALF_WIDTH
RELATION_TOL = 1e-8             # max |entry| of the relation product minus I
CONE_ANGLE_TOL = 1e-8           # max |cone angle - 2 pi - face area| of the dual


@dataclass
class FuchsianData:
    """Octagon surface group embedded as plane-preserving isometries of H^3."""

    generators: list                 # eight translations, [k+4] inverse to [k]
    invariant_plane: DSPoint
    relation: list                   # generator indices multiplying to identity

    def relation_residual(self) -> float:
        prod = np.eye(4)
        for k in self.relation:
            prod = prod @ self.generators[k].m
        return float(np.abs(prod - np.eye(4)).max())


def _octagon_vertices_h2():
    R = OCTAGON_CIRCUMRADIUS
    pts = []
    for k in range(8):
        a = (2 * k + 1) * np.pi / 8
        pts.append(np.array([np.cosh(R), np.sinh(R) * np.cos(a),
                             np.sinh(R) * np.sin(a), 0.0]))
    return pts


def fuchsian_octagon_group() -> FuchsianData:
    """The genus-2 group of the regular octagon with opposite sides identified.

    Translation k runs along the direction k*pi/4 in the invariant plane with
    length 2*arccosh(1 + sqrt(2)); the defining relation is recovered by
    walking the corner cycle of the octagon and verified numerically.
    """
    gens = [Isometry.rotation(1, 2, k * np.pi / 4)
            @ Isometry.boost(1, TRANSLATION_LENGTH)
            @ Isometry.rotation(1, 2, -k * np.pi / 4) for k in range(8)]
    verts = _octagon_vertices_h2()

    # the corner cycle: repeatedly follow the pairing of one adjacent side;
    # side k joins verts[k-1], verts[k], and generator k maps side k+4 onto it
    relation = []
    prod = np.eye(4)
    v, s = 0, 0
    for _ in range(8):
        ginv = gens[(s + 4) % 8].m
        img = ginv @ verts[v]
        vnew = int(np.argmin([np.abs(img - w).max() for w in verts]))
        relation.append((s + 4) % 8)
        prod = prod @ ginv
        arrived = (s + 4) % 8
        s = vnew if arrived == (vnew + 1) % 8 else (vnew + 1) % 8
        v = vnew
    data = FuchsianData(generators=gens,
                        invariant_plane=DSPoint(np.array([0.0, 0, 0, 1.0])),
                        relation=relation)
    if data.relation_residual() > RELATION_TOL:
        raise InvalidPolyhedron("octagon relation failed to close")
    return data


# -- the dual metric in closed form ----------------------------------------------


@dataclass
class FuchsianDualOutput:
    metric: ConeMetric
    marking: list                  # dual vertex -> representative apex face index
    core_distance: float
    face_areas: list = field(repr=False, default_factory=list)


def fuchsian_dualize(data: FuchsianData, h: float) -> FuchsianDualOutput:
    """Dual spherical cone-metric of the equivariant hull of the orbit of
    the apex at height h, in the closed form of the module docstring. data
    is the group of `fuchsian_octagon_group`; its generators are the deck
    words of the octagon's sides.

    Raises InvalidPolyhedron unless h is finite and positive, and when the
    metric's cone angle misses 2 pi plus the face area by more than
    CONE_ANGLE_TOL: the spherical law of cosines of `ConeMetric`'s corner
    angles cancels on short sides, so below about h = 1e-3 the angle goes
    wrong (by 6e-4 at h = 1e-6, and by 3 pi at h = 1e-10), and near h = 18
    its sides' roundoff reaches it. From about h = 19 up the lengths round
    to those of an octagon with its corners on one great circle, and
    `ConeMetric` names the triangle or length it rejects.
    """
    if not (math.isfinite(h) and h > 0):
        raise InvalidPolyhedron(f"apex height must be finite and positive, got {h}")
    R, W = OCTAGON_CIRCUMRADIUS, OCTAGON_HALF_WIDTH
    # csch h and sech h through e^-h, which neither overflows nor warns
    q = math.exp(-h)
    csch, sech = 2.0 * q / -math.expm1(-2.0 * h), 2.0 * q / (1.0 + q * q)

    # the octagon, corner i the face -i mod 8, fanned from corner 0; side i
    # is glued to side i + 4
    _, corners, sides, diagonals, _ = fan_triangulations([8])
    sides = sides[0]
    mate = np.full(3 * len(corners), -1)
    pairs = np.vstack([diagonals, np.stack([sides, np.roll(sides, -4)], axis=1)])
    mate[pairs] = pairs[:, ::-1]
    surf = CombSurface(1, np.zeros_like(corners), mate)

    # an edge joins the corners its smaller half-edge runs between, j steps
    # apart (j and 8 - j give one length), and a side's half-edge carries
    # g_{-i}
    first = surf.edge_halfedges[:, 0]
    j = np.abs(corners - np.roll(corners, -1, axis=1)).ravel()[first]
    half = j * np.pi / 8
    lengths = 2.0 * np.arctan2(np.sinh(R) * np.sin(half),
                               np.hypot(np.cosh(R) * csch, np.sinh(R) * np.cos(half)))
    side_of = np.full(len(mate), -1)
    side_of[sides] = np.arange(8)
    words = {e: data.generators[-i % 8].m if i >= 0 else np.eye(4)
             for e, i in enumerate(side_of[first].tolist())}
    metric = ConeMetric(surf, SPHERICAL, lengths, deck_words=words)

    alpha = 2.0 * math.atan2(math.cos(math.pi / 8) * sech,
                             math.hypot(math.sinh(W), math.sin(math.pi / 8) * sech))
    area = 6.0 * math.pi - 8.0 * alpha
    residual = float(metric.cone_angles()[0]) - 2.0 * math.pi - area
    if not abs(residual) <= CONE_ANGLE_TOL:
        raise InvalidPolyhedron(
            f"at apex height {h:g} the cone angle misses 2 pi plus the face "
            f"area by {residual:+.3e}, beyond {CONE_ANGLE_TOL:g}")
    a = 1.0 / math.hypot(math.cosh(R) * csch, math.sinh(R))
    return FuchsianDualOutput(metric=metric, marking=[0],
                              core_distance=math.asinh(a), face_areas=[area])
