"""Self-describing JSON documents for metrics, polyhedra, dual outputs, and
solver reports, with deterministic byte-identical output.

Every file is one envelope: schema version, a kind tag, the payload, and the
provenance (command, parameters, seed) that produced it. Reals are printed
with the shortest decimal that round-trips the double exactly, combinatorics
as integer index lists, so parse(serialize(x)) reproduces x bit for bit.
Writes go through a temp file and an atomic rename.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import InvalidConeMetric, InvalidSurface
from .minkowski import DSPoint
from .polyhedra import ConvexPolyhedronH3, DualMetricOutput, hull_from_dual_points
from .surface import CombSurface, ConeMetric

SCHEMA_VERSION = 1

KINDS = ("cone_metric", "polyhedron", "dual_output", "solver_report",
         "fuchsian_data")


class ParseError(Exception):
    pass


def envelope(kind: str, payload: dict, provenance: dict) -> dict:
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind,
            "payload": payload, "provenance": provenance}


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_document(path: str, doc: dict):
    """Serialize atomically: temp file in the target directory, then rename."""
    data = dumps(doc)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_document(path: str, expect_kind=None) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    for key in ("schema_version", "kind", "payload", "provenance"):
        if key not in doc:
            raise ParseError(f"{path}: missing envelope field {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported schema {doc['schema_version']}")
    if doc["kind"] not in KINDS:
        raise ParseError(f"{path}: unknown kind {doc['kind']!r}")
    if expect_kind is not None and doc["kind"] != expect_kind:
        raise ParseError(
            f"{path}: expected a {expect_kind} document, found {doc['kind']}")
    return doc


# -- cone metrics ----------------------------------------------------------------


def encode_cone_metric(m: ConeMetric) -> dict:
    surf = m.surface
    payload = {
        "geometry": m.geometry,
        "n_vertices": surf.n_vertices,
        "triangles": surf.triangles.tolist(),
        "gluing": surf.edge_halfedges.tolist(),
        "lengths": [float(x) for x in m.lengths],
    }
    if m.deck_words is not None:
        payload["deck_words"] = {
            str(e): [float(x) for x in np.asarray(w).ravel()]
            for e, w in sorted(m.deck_words.items())}
    return payload


def decode_cone_metric(payload: dict) -> ConeMetric:
    """The metric of a cone_metric payload; ParseError when the payload
    does not describe one, the surface or lengths invalid included."""
    try:
        pairs = np.array(payload["gluing"], dtype=int).reshape(len(payload["gluing"]), 2)
        gluing = dict(zip(pairs.ravel().tolist(), pairs[:, ::-1].ravel().tolist()))
        surf = CombSurface(int(payload["n_vertices"]), payload["triangles"], gluing)
        words = None
        if "deck_words" in payload:
            words = {int(e): np.array(w, dtype=float).reshape(4, 4)
                     for e, w in payload["deck_words"].items()}
        return ConeMetric(surf, payload["geometry"],
                          np.array(payload["lengths"], dtype=float),
                          deck_words=words)
    except (KeyError, TypeError, ValueError, InvalidSurface,
            InvalidConeMetric) as exc:
        raise ParseError(f"malformed cone_metric payload: {exc}") from exc


# -- polyhedra ---------------------------------------------------------------------


def encode_polyhedron(P: ConvexPolyhedronH3) -> dict:
    return encode_dual_points(P.plane_rows)


def encode_dual_points(rows) -> dict:
    """The polyhedron payload of the dual points `rows`, an (n, 4) array of
    rows on the de Sitter quadric (see `polyhedra.dual_rows`)."""
    return {"dual_points": np.asarray(rows, dtype=float).tolist()}


def decode_dual_points(payload: dict) -> list:
    """The dual points of a polyhedron payload, each validated as a DSPoint,
    all in one pass when they form an (n, 4) array; builds no hull."""
    try:
        points = payload["dual_points"]
        try:
            rows = np.array(points, dtype=float)
        except ValueError:
            rows = None          # ragged: the loop below names the bad point
        if rows is not None and rows.ndim == 2 and rows.shape[1] == 4:
            return DSPoint.from_rows(rows)
        return [DSPoint(np.array(p, dtype=float)) for p in points]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed polyhedron payload: {exc}") from exc


def decode_polyhedron(payload: dict) -> ConvexPolyhedronH3:
    return hull_from_dual_points(decode_dual_points(payload))


# -- Fuchsian group data -----------------------------------------------------------


def encode_fuchsian_data(data) -> dict:
    return {
        "generators": [[float(x) for x in g.m.ravel()] for g in data.generators],
        "invariant_plane": [float(x) for x in data.invariant_plane.v],
        "relation": [int(k) for k in data.relation],
    }


def decode_fuchsian_data(payload: dict):
    """The group data of a `fuchsian_data` payload. A `word_bound` key,
    which documents written before the orbit became a distance ball carry,
    is ignored."""
    from .fuchsian import FuchsianData
    from .minkowski import Isometry

    try:
        gens = [Isometry(np.array(g, dtype=float).reshape(4, 4))
                for g in payload["generators"]]
        plane = DSPoint(np.array(payload["invariant_plane"], dtype=float))
        return FuchsianData(generators=gens, invariant_plane=plane,
                            relation=[int(k) for k in payload["relation"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed fuchsian_data payload: {exc}") from exc


# -- dual outputs ------------------------------------------------------------------


def encode_dual_output(out: DualMetricOutput) -> dict:
    prov = []
    for tag in out.edge_provenance:
        if tag[0] == "primal":
            prov.append({"kind": "primal", "faces": [int(f) for f in tag[1]]})
        else:
            prov.append({"kind": "fan", "vertex": int(tag[1])})
    return {"metric": encode_cone_metric(out.metric),
            "marking": [int(x) for x in out.marking],
            "edge_provenance": prov}


def decode_dual_output(payload: dict):
    try:
        metric = decode_cone_metric(payload["metric"])
        marking = [int(x) for x in payload["marking"]]
        prov = []
        for tag in payload["edge_provenance"]:
            if tag["kind"] == "primal":
                prov.append(("primal", tuple(tag["faces"])))
            elif tag["kind"] == "fan":
                prov.append(("fan", tag["vertex"]))
            else:
                prov.append((tag["kind"],))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dual_output payload: {exc}") from exc
    return DualMetricOutput(metric=metric, marking=marking,
                            edge_provenance=prov)
