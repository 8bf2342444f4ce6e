"""Command-line drivers: generate fixtures, check metrics, dualize, scale,
realize targets, and run the round-trip and Fuchsian demos.

Exit codes: 0 all checks passed, 1 a mathematical check or solve failed,
2 unparseable or invalid input.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import serialize
from .errors import GeometryError, SolverError
from .fuchsian import CONE_ANGLE_TOL, fuchsian_dualize, fuchsian_octagon_group
from .geodesic import closed_geodesic_search
from .polyhedra import (
    dual_rows,
    dualize,
    hexahedron,
    random_polyhedron,
    regular_tetrahedron,
    triangular_bipyramid,
)
from .serialize import ParseError
from .solver import (
    MATCH_TOL,
    NEWTON_TOL,
    PERTURB_EDGE_SHARE,
    auto_start,
    check_feasible,
    continuation,
    match_dihedral_angles,
    perturbed_state,
    recovered_polyhedron,
    rigidity_report,
    validate_target,
)
from .surface import gauss_bonnet_residual, is_concave, scale as scale_metric

PASS, FAIL, INVALID = 0, 1, 2
GAUSS_BONNET_TOL = 1e-8      # largest accepted |gauss_bonnet_residual|
STEPS_HELP = ("continuation steps from the start to the target; the steps "
              "before s = 1 are only tracked near the path, and only s = 1 "
              "is solved to --tol")


def _checked(convert, holds, rule):
    """An argparse type: `convert` the text, and reject a value for which
    `holds` is false as not `rule` (argparse then exits 2 naming the
    option)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


# apex heights and tolerances; step counts and search depths; face counts;
# perturbation bounds (0 and inf work: the edge cap applies)
positive = _checked(float, lambda x: np.isfinite(x) and x > 0,
                    "finite and positive")
count = _checked(int, lambda k: k >= 1, "an integer of at least 1")
face_count = _checked(int, lambda k: k >= 4, "an integer of at least 4")
magnitude = _checked(float, lambda x: x >= 0, "at least 0 and not NaN")


def _provenance(args, command, **params):
    prov = {"command": command, "parameters": params}
    prov["seed"] = getattr(args, "seed", 0)
    return prov


def _load_metric(path):
    doc = serialize.read_document(path)
    if doc["kind"] == "cone_metric":
        return serialize.decode_cone_metric(doc["payload"]), doc
    if doc["kind"] == "dual_output":
        return serialize.decode_dual_output(doc["payload"]).metric, doc
    raise ParseError(f"{path}: expected a metric document, found {doc['kind']}")


def _fuchsian_payload(out) -> dict:
    """The dual_output payload of a genus-2 dual metric."""
    return {
        "metric": serialize.encode_cone_metric(out.metric),
        "marking": [int(x) for x in out.marking],
        "edge_provenance": [{"kind": "fuchsian"}] * out.metric.surface.n_edges,
        "core_distance": out.core_distance,
        "face_areas": [float(a) for a in out.face_areas],
    }


def cmd_gen(args):
    rng = np.random.RandomState(args.seed)
    if args.shape == "tetrahedron":
        poly = regular_tetrahedron(args.theta)
    elif args.shape == "hexahedron":
        poly = hexahedron(args.t)
    elif args.shape == "bipyramid":
        poly = triangular_bipyramid()
    else:
        poly = random_polyhedron(rng, args.n)
    doc = serialize.envelope(
        "polyhedron", serialize.encode_polyhedron(poly),
        _provenance(args, "gen", shape=args.shape, theta=args.theta,
                    t=args.t, n=args.n))
    serialize.write_document(args.out, doc)
    print(f"wrote {args.shape} polyhedron with {poly.n_faces} faces to {args.out}")
    return PASS


def cmd_check(args):
    metric, _ = _load_metric(args.metric)
    failures = []
    angles = metric.cone_angles()
    for v, a in enumerate(angles):
        print(f"vertex {v}: cone angle {a:.12f} (margin {a - 2 * np.pi:+.3e})")
    if metric.geometry != "spherical":
        print("geometry: hyperbolic metric, concavity/largeness not applicable")
    else:
        rep = is_concave(metric)
        print(f"concavity: min margin {rep.min_margin:+.6e}")
        if not rep.concave:
            failures.append("concavity")
    gb = gauss_bonnet_residual(metric)
    print(f"gauss-bonnet residual: {gb:+.3e} "
          f"(chi = {metric.surface.euler_characteristic})")
    if abs(gb) > GAUSS_BONNET_TOL:
        failures.append("gauss-bonnet")
    if metric.geometry == "spherical":
        search = closed_geodesic_search(metric, depth=args.depth)
        if search.min_length is None:
            print(f"geodesic search: none found at depth {args.depth} "
                  f"({search.n_cycles_checked} cycles)")
        else:
            print(f"geodesic search: min contractible length "
                  f"{search.min_length:.9f} at depth {args.depth}")
        if search.found_within_cap:
            failures.append("largeness")
    for name in failures:
        print(f"FAILED: {name}")
    return FAIL if failures else PASS


def cmd_dualize(args):
    if args.fuchsian is not None:
        data = fuchsian_octagon_group()
        out = fuchsian_dualize(data, args.fuchsian)
        doc = serialize.envelope(
            "dual_output", _fuchsian_payload(out),
            _provenance(args, "dualize", fuchsian=args.fuchsian))
        serialize.write_document(args.out, doc)
        print(f"genus-2 dual metric: {out.metric.surface.n_vertices} vertices, "
              f"{out.metric.surface.n_edges} edges, "
              f"core distance {out.core_distance:.6f}")
        return PASS
    doc_in = serialize.read_document(args.polyhedron, expect_kind="polyhedron")
    poly = serialize.decode_polyhedron(doc_in["payload"])
    out = dualize(poly)
    doc = serialize.envelope(
        "dual_output", serialize.encode_dual_output(out),
        _provenance(args, "dualize", source=args.polyhedron))
    serialize.write_document(args.out, doc)
    if poly.discarded:
        print(f"discarded redundant dual points {poly.discarded}; "
              "marking[i] is the input index of dual vertex i")
    print(f"dual metric: {out.metric.surface.n_vertices} vertices, "
          f"{out.metric.surface.n_edges} edges")
    return PASS


def cmd_scale(args):
    metric, _ = _load_metric(args.metric)
    scaled = scale_metric(metric, args.lam)
    doc = serialize.envelope(
        "cone_metric", serialize.encode_cone_metric(scaled),
        _provenance(args, "scale", lam=args.lam, source=args.metric))
    serialize.write_document(args.out, doc)
    print(f"scaled {scaled.surface.n_edges} edges by exp({args.lam})")
    return PASS


def cmd_realize(args):
    metric, _ = _load_metric(args.target)
    try:
        validate_target(metric, largeness_depth=args.depth)
    except GeometryError as exc:
        print(f"invalid target: {exc}")
        return INVALID
    if args.start:
        doc_in = serialize.read_document(args.start, expect_kind="polyhedron")
        start = serialize.decode_dual_points(doc_in["payload"])
    else:
        start = auto_start(metric)
    state, report = continuation(start, metric, steps=args.steps, tol=args.tol)
    # a polyhedron document holds dual points only: write the solved
    # state's, normalized as a polyhedron built on them holds them
    check_feasible(state)
    rig = rigidity_report(state)
    payload = {
        "polyhedron": serialize.encode_dual_points(dual_rows(state.positions)),
        "steps": [{"s": s.s, "residual": s.residual} for s in report.steps],
        "bump": report.bump,
        "rigidity": {"smallest_singular_value": rig.smallest_singular_value,
                     "condition_number": rig.condition_number},
    }
    doc = serialize.envelope(
        "solver_report", payload,
        _provenance(args, "realize", target=args.target, steps=args.steps,
                    tol=args.tol))
    serialize.write_document(args.out, doc)
    for s in report.steps:
        print(f"s={s.s:.4f} residual={s.residual:.3e}")
    print(f"final residual {np.abs(state.residual()).max():.3e}, "
          f"rigidity sv_min {rig.smallest_singular_value:.3e}")
    return PASS


def cmd_roundtrip(args):
    doc_in = serialize.read_document(args.polyhedron, expect_kind="polyhedron")
    poly = serialize.decode_polyhedron(doc_in["payload"])
    target = dualize(poly).metric
    rng = np.random.RandomState(args.seed)
    start = perturbed_state(poly, rng, args.magnitude, target)
    state, _ = continuation(start, target, steps=args.steps,
                            tol=args.tol)
    recovered = recovered_polyhedron(state)
    ok = match_dihedral_angles(poly, recovered, tol=args.match_tol)
    print(f"round trip {'recovered' if ok else 'FAILED to recover'} the "
          f"polyhedron (dihedral multisets within {args.match_tol})")
    return PASS if ok else FAIL


def cmd_fuchsian_demo(args):
    data = fuchsian_octagon_group()
    print(f"octagon group relation residual: {data.relation_residual():.3e}")
    if args.group_out:
        doc = serialize.envelope(
            "fuchsian_data", serialize.encode_fuchsian_data(data),
            _provenance(args, "fuchsian-demo", height=args.height))
        serialize.write_document(args.group_out, doc)
    out = fuchsian_dualize(data, args.height)
    m = out.metric
    gb = gauss_bonnet_residual(m)
    print(f"h={args.height}: genus-2 dual metric with "
          f"{m.surface.n_vertices} vertices, {m.surface.n_edges} edges")
    print(f"gauss-bonnet residual vs chi=-2: {gb:+.3e}")
    print(f"boundary-to-core distance: {out.core_distance:.9f}")
    rep = is_concave(m)
    print(f"concavity margin: {rep.min_margin:+.6f}")
    angles = m.cone_angles()
    residuals = angles - 2 * np.pi - np.array(out.face_areas)
    for c, area in enumerate(out.face_areas):
        print(f"dual vertex {c}: cone angle {angles[c]:.9f} "
              f"= 2*pi + face area {area:.9f} "
              f"(residual {residuals[c]:+.2e})")
    if args.out:
        doc = serialize.envelope("dual_output", _fuchsian_payload(out),
                                 _provenance(args, "fuchsian-demo",
                                             height=args.height))
        serialize.write_document(args.out, doc)
    bad = (abs(gb) > GAUSS_BONNET_TOL or out.core_distance <= 0
           or not rep.concave or not (np.abs(residuals) <= CONE_ANGLE_TOL).all())
    return FAIL if bad else PASS


def build_parser():
    p = argparse.ArgumentParser(
        prog="polydual",
        description="convex polyhedra in H^3 and their dual cone-metrics")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a polyhedron fixture")
    g.add_argument("shape",
                   choices=["tetrahedron", "hexahedron", "bipyramid", "random"])
    g.add_argument("--theta", type=float, default=1.15,
                   help="dihedral angle for the tetrahedron")
    g.add_argument("--t", type=float, default=0.5,
                   help="plane distance for the hexahedron")
    g.add_argument("--n", type=face_count, default=6,
                   help="faces of a random solid")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", help="validate a cone-metric file")
    c.add_argument("metric")
    c.add_argument("--depth", type=count, default=8)
    c.set_defaults(func=cmd_check)

    d = sub.add_parser("dualize", help="dual metric of a polyhedron")
    d.add_argument("polyhedron", nargs="?")
    d.add_argument("--fuchsian", type=positive, default=None,
                   help="apex height for the genus-2 case")
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_dualize)

    s = sub.add_parser("scale", help="scale all edge lengths by exp(lambda)")
    s.add_argument("metric")
    s.add_argument("lam", type=float)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_scale)

    r = sub.add_parser("realize", help="recover a polyhedron from a dual metric")
    r.add_argument("target")
    r.add_argument("--start", default=None)
    r.add_argument("--steps", type=count, default=10, help=STEPS_HELP)
    r.add_argument("--tol", type=positive, default=NEWTON_TOL)
    r.add_argument("--depth", type=count, default=6,
                   help="largeness search depth for target validation")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_realize)

    t = sub.add_parser("roundtrip",
                       help="dualize, perturb, realize, and compare")
    t.add_argument("polyhedron")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--magnitude", type=magnitude, default=1e-2,
                   help="upper bound on the start perturbation of the dual "
                        f"points; capped at {PERTURB_EDGE_SHARE:g} times the "
                        "shortest primal edge")
    t.add_argument("--steps", type=count, default=10, help=STEPS_HELP)
    t.add_argument("--tol", type=positive, default=NEWTON_TOL)
    t.add_argument("--match-tol", type=positive, default=MATCH_TOL)
    t.set_defaults(func=cmd_roundtrip)

    f = sub.add_parser("fuchsian-demo",
                       help="genus-2 dual metric over the octagon group")
    f.add_argument("--height", type=positive, default=1.0)
    f.add_argument("--out", default=None)
    f.add_argument("--group-out", default=None,
                   help="also write the group data document")
    f.set_defaults(func=cmd_fuchsian_demo)
    return p


@functools.cache
def _parser():
    """The parser of this process, built on first use. parse_args keeps no
    state between calls and no option has a mutable default, so one parser
    serves every `main` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return INVALID
    except (GeometryError, SolverError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
