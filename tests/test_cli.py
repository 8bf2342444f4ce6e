import json
import os
import subprocess
import sys

import numpy as np
import pytest

from polydual import cli, serialize
from polydual.cli import main
from polydual.fuchsian import fuchsian_dualize, fuchsian_octagon_group
from polydual.polyhedra import dualize, regular_tetrahedron
from polydual.surface import octahedron_sphere

from bench_solids import fibonacci_solid

@pytest.fixture()
def tetra_files(tmp_path):
    poly_path = tmp_path / "tet.json"
    dual_path = tmp_path / "dual.json"
    assert main(["gen", "tetrahedron", "--theta", "1.2",
                 "--out", str(poly_path)]) == 0
    assert main(["dualize", str(poly_path), "--out", str(dual_path)]) == 0
    return poly_path, dual_path


def count_hull_builds(monkeypatch):
    """Record every hull build, through each module that binds the builder."""
    from polydual import polyhedra, solver

    calls = []
    build = polyhedra.hull_from_dual_points

    def counting(duals):
        calls.append(1)
        return build(duals)

    for module in (polyhedra, serialize, solver):
        monkeypatch.setattr(module, "hull_from_dual_points", counting)
    return calls


SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_python(code, *args):
    """Run `code` in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_out_scipy_optimize():
    # scipy serves only the hulls, their Chebyshev fallback and the chord
    # step's LU, each imported on use
    code = ("import sys, polydual.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_check_and_scale_run_without_scipy(tetra_files, tmp_path):
    _, dual_path = tetra_files
    code = ("import sys; sys.modules['scipy'] = None; "
            "from polydual.cli import main; sys.exit(main(sys.argv[1:]))")
    scaled = tmp_path / "scaled.json"
    for argv in (["check", str(dual_path), "--depth", "6"],
                 ["scale", str(dual_path), "0.01", "--out", str(scaled)]):
        out = run_python(code, *argv)
        assert out.returncode == 0, out.stderr
    assert scaled.exists()
    # the guard holds: a command that builds a hull cannot run
    out = run_python(code, "dualize", str(tetra_files[0]),
                     "--out", str(tmp_path / "dual.json"))
    assert out.returncode != 0 and "scipy" in out.stderr


def realize_large_files(tmp_path, monkeypatch, n_faces):
    """(start, target) documents of a seed-1 realize-large job on an
    n-face bench/solids.py solid."""
    solid = fibonacci_solid(np.random.RandomState([1, 0, n_faces]), n_faces,
                            0.02)
    start, target = tmp_path / "start.json", tmp_path / "target.json"
    prov = {"command": "test", "parameters": {}, "seed": 0}
    write_polyhedron_payload(start, serialize.encode_polyhedron(solid.start))
    serialize.write_document(str(target), serialize.envelope(
        "dual_output", serialize.encode_dual_output(solid.dual), prov))
    return start, target


def write_polyhedron_payload(path, payload):
    serialize.write_document(str(path), serialize.envelope(
        "polyhedron", payload, {"command": "t", "parameters": {}, "seed": 0}))


class TestSerializeRoundTrip:
    def test_cone_metric_bit_exact(self):
        m = dualize(regular_tetrahedron(1.17)).metric
        payload = serialize.encode_cone_metric(m)
        text = serialize.dumps(serialize.envelope("cone_metric", payload, {}))
        back = serialize.decode_cone_metric(json.loads(text)["payload"])
        assert np.array_equal(back.surface.triangles, m.surface.triangles)
        assert np.array_equal(back.surface.mate, m.surface.mate)
        assert np.array_equal(back.lengths, m.lengths)

    def test_deck_words_round_trip(self):
        out = fuchsian_dualize(fuchsian_octagon_group(), 0.8)
        payload = serialize.encode_cone_metric(out.metric)
        back = serialize.decode_cone_metric(json.loads(json.dumps(payload)))
        for e, w in out.metric.deck_words.items():
            assert np.array_equal(back.deck_words[e], w)

    def test_polyhedron_round_trip(self):
        P = regular_tetrahedron(1.2)
        payload = serialize.encode_polyhedron(P)
        back = serialize.decode_polyhedron(json.loads(json.dumps(payload)))
        assert back.n_faces == P.n_faces
        for p, q in zip(back.planes, P.planes):
            assert np.array_equal(p.v, q.v)

    def test_fuchsian_data_with_a_word_bound_decodes(self):
        # documents written before the orbit became a distance ball carry a
        # word bound, which the reader ignores
        data = fuchsian_octagon_group()
        payload = serialize.encode_fuchsian_data(data)
        back = serialize.decode_fuchsian_data(
            json.loads(json.dumps({**payload, "word_bound": 3})))
        assert back.relation == data.relation
        for g, h in zip(back.generators, data.generators):
            assert np.array_equal(g.m, h.m)
        assert np.array_equal(back.invariant_plane.v, data.invariant_plane.v)

    def test_dual_output_round_trip(self):
        out = dualize(regular_tetrahedron(1.1))
        payload = serialize.encode_dual_output(out)
        back = serialize.decode_dual_output(json.loads(json.dumps(payload)))
        assert back.marking == out.marking
        assert back.edge_provenance == out.edge_provenance


class TestCommands:
    def test_check_passes_on_dual(self, tetra_files):
        _, dual_path = tetra_files
        assert main(["check", str(dual_path), "--depth", "6"]) == 0

    def test_check_fails_on_convex_metric(self, tmp_path):
        m = octahedron_sphere()
        doc = serialize.envelope("cone_metric", serialize.encode_cone_metric(m),
                                 {"command": "test", "parameters": {}, "seed": 0})
        path = tmp_path / "octa.json"
        serialize.write_document(str(path), doc)
        assert main(["check", str(path), "--depth", "4"]) == 1

    def test_truncated_file_is_invalid(self, tmp_path, tetra_files):
        _, dual_path = tetra_files
        bad = tmp_path / "bad.json"
        bad.write_text(dual_path.read_text()[:40])
        assert main(["check", str(bad)]) == 2

    @pytest.mark.parametrize("defect", ["negative length", "NaN length",
                                        "gluing kept orientation"])
    @pytest.mark.parametrize("command", ["check", "scale", "realize"])
    def test_malformed_metric_is_invalid(self, tetra_files, tmp_path, capsys,
                                         command, defect):
        _, dual_path = tetra_files
        doc = json.loads(dual_path.read_text())
        metric = doc["payload"]["metric"]
        if defect == "negative length":
            metric["lengths"][0] = -0.5
        elif defect == "NaN length":
            metric["lengths"][0] = float("nan")   # json writes the NaN token
        else:
            # swap the mates of two edges: still an involution, but a
            # half-edge is glued to one running the same way
            (a, b), (c, d) = metric["gluing"][:2]
            metric["gluing"][:2] = [[a, d], [c, b]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = str(tmp_path / "out.json")
        argv = {"check": ["check", str(bad)],
                "scale": ["scale", str(bad), "0.01", "--out", out],
                "realize": ["realize", str(bad), "--out", out]}[command]
        assert main(argv) == 2
        assert "parse error: malformed cone_metric payload" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_scale_zero_identity(self, tetra_files, tmp_path):
        _, dual_path = tetra_files
        out = tmp_path / "scaled.json"
        assert main(["scale", str(dual_path), "0.0", "--out", str(out)]) == 0
        orig = json.loads(dual_path.read_text())["payload"]["metric"]
        scaled = json.loads(out.read_text())["payload"]
        assert json.dumps(orig, sort_keys=True) == json.dumps(scaled, sort_keys=True)

    def test_scale_overflow_exit_one(self, tetra_files, tmp_path):
        _, dual_path = tetra_files
        out = tmp_path / "over.json"
        assert main(["scale", str(dual_path), "1.0", "--out", str(out)]) == 1

    def test_scale_small_stays_concave(self, tetra_files, tmp_path):
        _, dual_path = tetra_files
        out = tmp_path / "s.json"
        assert main(["scale", str(dual_path), "0.01", "--out", str(out)]) == 0
        assert main(["check", str(out), "--depth", "4"]) == 0

    def test_determinism(self, tmp_path):
        bipyramid = tmp_path / "bi.json"
        assert main(["gen", "bipyramid", "--out", str(bipyramid)]) == 0
        commands = [["gen", "random", "--n", "6", "--seed", "5"],
                    ["dualize", str(bipyramid)],
                    ["dualize", "--fuchsian", "1.0"]]
        for i, argv in enumerate(commands):
            a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
            for path in (a, b):
                assert main(argv + ["--out", str(path)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_one_parser_serves_every_call(self, tetra_files, tmp_path,
                                          capsys, monkeypatch):
        # a subcommand run twice with different options, then with its
        # defaults, gives what a freshly built parser gives for each call
        poly_path, _ = tetra_files
        assert cli._parser() is cli._parser()
        runs = [["gen", "random", "--n", "8", "--seed", "2"],
                ["gen", "random"],
                ["roundtrip", str(poly_path), "--seed", "2", "--steps", "4"],
                ["roundtrip", str(poly_path), "--steps", "4"]]

        def outputs():
            got = []
            for i, argv in enumerate(runs):
                path = tmp_path / f"out{i}.json"
                out = ["--out", str(path)] if argv[0] == "gen" else []
                code = main(argv + out)
                got.append((code, capsys.readouterr(),
                             path.read_bytes() if out else None))
            return got

        shared = outputs()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == outputs()

    def test_realize_roundtrip_fixture(self, tetra_files, tmp_path):
        poly_path, dual_path = tetra_files
        report = tmp_path / "report.json"
        assert main(["realize", str(dual_path), "--start", str(poly_path),
                     "--steps", "4", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "solver_report"
        assert doc["payload"]["rigidity"]["smallest_singular_value"] > 1e-8

    @pytest.mark.parametrize("target", ["tetrahedron", "solid-30"])
    def test_realize_takes_one_rigidity_report_at_the_solution(
            self, target, tetra_files, tmp_path, monkeypatch):
        # no continuation step builds a report: the document's rigidity is
        # the one report taken on the solved state, and the steps keep
        # continuing in their chart, so there are fewer bases than steps
        from polydual import solver

        if target == "tetrahedron":
            _, target_path = tetra_files
            P = regular_tetrahedron(1.2)
            start = tmp_path / "start.json"
            write_polyhedron_payload(start, serialize.encode_polyhedron(
                solver.perturbed_polyhedron(P, np.random.RandomState(3), 1e-2,
                                            chart=dualize(P).metric)))
        else:
            start, target_path = realize_large_files(tmp_path, monkeypatch, 30)
        solved, reports = [], []
        follow, report_of = cli.continuation, solver.rigidity_report

        def recording_continuation(*args, **kwargs):
            solved.append(follow(*args, **kwargs))
            return solved[-1]

        def counting_report(state):
            reports.append(state)
            return report_of(state)

        monkeypatch.setattr(cli, "continuation", recording_continuation)
        for module in (cli, solver):
            monkeypatch.setattr(module, "rigidity_report", counting_report)
        gauges = []
        build = solver.build_gauge
        monkeypatch.setattr(solver, "build_gauge", lambda *args: (
            gauges.append(1) or build(*args)))
        out = tmp_path / "report.json"
        assert main(["realize", str(target_path), "--start", str(start),
                     "--steps", "4", "--out", str(out)]) == 0
        [(state, report)] = solved
        assert reports == [state]
        assert len(report.steps) == 4 and len(gauges) < len(report.steps)
        payload = json.loads(out.read_text())["payload"]
        assert [sorted(step) for step in payload["steps"]] == [
            ["residual", "s"]] * 4
        fresh = solver.SolverState(state.positions, state.surface, state.target)
        want = report_of(fresh)
        assert payload["rigidity"] == {
            "smallest_singular_value": want.smallest_singular_value,
            "condition_number": want.condition_number}

    @pytest.mark.parametrize("target", ["tetrahedron", "solid-30"])
    def test_realize_builds_no_polyhedron(self, target, tetra_files, tmp_path,
                                          monkeypatch):
        # the report's polyhedron is the solved state's dual points, written
        # as the polyhedron built on them would write them
        from polydual import polyhedra, solver

        if target == "tetrahedron":
            _, target_path = tetra_files
            P = regular_tetrahedron(1.2)
            start = tmp_path / "start.json"
            write_polyhedron_payload(start, serialize.encode_polyhedron(
                solver.perturbed_polyhedron(P, np.random.RandomState(3), 1e-2,
                                            chart=dualize(P).metric)))
        else:
            start, target_path = realize_large_files(tmp_path, monkeypatch, 30)
        solved = []
        follow = cli.continuation

        def recording_continuation(*args, **kwargs):
            solved.append(follow(*args, **kwargs))
            return solved[-1]

        def no_polyhedron(*args):
            raise AssertionError("realize built a polyhedron")

        monkeypatch.setattr(cli, "continuation", recording_continuation)
        builders = {name: getattr(polyhedra, name)
                    for name in ("hull_from_dual_points", "polyhedron_from_chart")}
        for module in (polyhedra, serialize, solver):
            for name in builders:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_polyhedron)
        out = tmp_path / "report.json"
        assert main(["realize", str(target_path), "--start", str(start),
                     "--steps", "4", "--out", str(out)]) == 0
        for module in (polyhedra, serialize, solver):
            for name, build in builders.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, build)
        [(state, _)] = solved
        fresh = solver.SolverState(state.positions, state.surface, state.target)
        payload = json.loads(out.read_text())["payload"]["polyhedron"]
        assert json.dumps(payload) == json.dumps(serialize.encode_polyhedron(
            solver.recovered_polyhedron(fresh)))

    def test_dualize_names_discarded_points(self, tmp_path, capsys):
        # dual point 0 is a redundant plane: dual vertex i is input point
        # marking[i], and the command says which point it dropped
        P = regular_tetrahedron(1.15)
        far = np.array([np.sinh(2.0), *(np.cosh(2.0) * np.ones(3) / np.sqrt(3))])
        path, out = tmp_path / "redundant.json", tmp_path / "dual.json"
        write_polyhedron_payload(path, {"dual_points": [far.tolist()] + [
            p.v.tolist() for p in P.planes]})
        assert main(["dualize", str(path), "--out", str(out)]) == 0
        assert "discarded redundant dual points [0]" in capsys.readouterr().out
        payload = json.loads(out.read_text())["payload"]
        assert payload["marking"] == [1, 2, 3, 4]
        assert (payload["metric"]["lengths"]
                == serialize.encode_dual_output(dualize(P))["metric"]["lengths"])

    def test_realize_start_builds_no_hull(self, tetra_files, tmp_path,
                                          monkeypatch):
        poly_path, dual_path = tetra_files
        calls = count_hull_builds(monkeypatch)
        assert main(["realize", str(dual_path), "--start", str(poly_path),
                     "--steps", "4", "--out", str(tmp_path / "r.json")]) == 0
        assert calls == []

    def test_realize_start_without_dual_points(self, tetra_files, tmp_path):
        _, dual_path = tetra_files
        start = tmp_path / "start.json"
        write_polyhedron_payload(start, {})
        assert main(["realize", str(dual_path), "--start", str(start),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_realize_start_off_the_quadric(self, tetra_files, tmp_path):
        poly_path, dual_path = tetra_files
        payload = json.loads(poly_path.read_text())["payload"]
        payload["dual_points"][2] = [0.0, 2.0, 0.0, 0.0]     # <v, v> = 4
        start = tmp_path / "start.json"
        write_polyhedron_payload(start, payload)
        assert main(["realize", str(dual_path), "--start", str(start),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_realize_start_not_realizing_the_chart(self, tetra_files,
                                                   tmp_path, capsys):
        # planes 0.5 from the origin: the tetrahedron's vertices lie beyond
        # the sphere at infinity
        from polydual.polyhedra import TETRA_DIRECTIONS

        _, dual_path = tetra_files
        start = tmp_path / "start.json"
        write_polyhedron_payload(start, {"dual_points": [
            [float(np.sinh(0.5)), *(float(np.cosh(0.5) * x) for x in u)]
            for u in TETRA_DIRECTIONS]})
        assert main(["realize", str(dual_path), "--start", str(start),
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "does not realize the target chart" in err
        assert "chart validity lost" in err

    @pytest.mark.parametrize("shape", ["tetrahedron", "hexahedron"])
    def test_roundtrip_builds_only_the_input_hull(self, shape, tmp_path,
                                                  monkeypatch):
        poly_path = tmp_path / "p.json"
        assert main(["gen", shape, "--out", str(poly_path)]) == 0
        calls = count_hull_builds(monkeypatch)
        assert main(["roundtrip", str(poly_path), "--seed", "2",
                     "--steps", "6"]) == 0
        assert len(calls) == 1

    def test_realize_auto(self, tetra_files, tmp_path):
        _, dual_path = tetra_files
        report = tmp_path / "report.json"
        assert main(["realize", str(dual_path), "--steps", "6",
                     "--out", str(report)]) == 0

    def test_realize_rejects_small_metric(self, tmp_path):
        m = octahedron_sphere()
        doc = serialize.envelope("cone_metric", serialize.encode_cone_metric(m),
                                 {"command": "t", "parameters": {}, "seed": 0})
        path = tmp_path / "octa.json"
        serialize.write_document(str(path), doc)
        out = tmp_path / "r.json"
        assert main(["realize", str(path), "--out", str(out)]) == 2

    def test_roundtrip_command(self, tetra_files):
        poly_path, _ = tetra_files
        assert main(["roundtrip", str(poly_path), "--seed", "2",
                     "--steps", "6"]) == 0

    def test_roundtrip_on_wall_fixture(self, tmp_path):
        # the bipyramid sits on a combinatorial wall: every perturbation
        # splits its four-face vertices, so the start realizes the chart
        # through chords rather than matching combinatorics
        poly_path = tmp_path / "bi.json"
        assert main(["gen", "bipyramid", "--out", str(poly_path)]) == 0
        assert main(["roundtrip", str(poly_path), "--seed", "7",
                     "--steps", "8"]) == 0

    def test_roundtrip_on_short_edges(self, tmp_path, monkeypatch):
        # this 30-face solid's shortest edge is 0.023; an uncapped 1e-2
        # perturbation of its dual points failed every attempt for both seeds
        solid = fibonacci_solid(np.random.RandomState([1, 0, 30]), 30, 0.02)
        poly_path = tmp_path / "solid.json"
        serialize.write_document(str(poly_path), serialize.envelope(
            "polyhedron", serialize.encode_polyhedron(solid.poly),
            {"command": "test", "parameters": {}, "seed": 0}))
        for seed in ("1", "2"):
            assert main(["roundtrip", str(poly_path), "--seed", seed]) == 0

    def test_fuchsian_demo(self, tmp_path):
        out = tmp_path / "f.json"
        group_out = tmp_path / "g.json"
        assert main(["fuchsian-demo", "--height", "0.7", "--out", str(out),
                     "--group-out", str(group_out)]) == 0
        assert main(["check", str(out), "--depth", "5"]) == 0
        doc = serialize.read_document(str(group_out), expect_kind="fuchsian_data")
        assert "word_bound" not in doc["payload"]
        data = serialize.decode_fuchsian_data(doc["payload"])
        assert data.relation_residual() < 1e-8
        assert (data.relation_residual()
                == fuchsian_octagon_group().relation_residual())

    def test_unbounded_gen_reports_error(self, tmp_path, capsys):
        # hexahedron beyond the compactness bound must exit with a math error
        out = tmp_path / "x.json"
        assert main(["gen", "hexahedron", "--t", "1.2",
                     "--out", str(out)]) == 1

    def test_dualize_unbounded_configuration(self, tmp_path, capsys):
        # a hand-written polyhedron file whose planes recede in one direction
        dirs = np.array([[1, 0, 0.4], [-1, 0, 0.4], [0, 1, 0.4], [0, -1, 0.4]])
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        duals = [[float(np.sinh(0.5)), *(np.cosh(0.5) * u)] for u in dirs]
        path = tmp_path / "unbounded.json"
        doc = serialize.envelope("polyhedron", {"dual_points": duals},
                                 {"command": "t", "parameters": {}, "seed": 0})
        serialize.write_document(str(path), doc)
        out = tmp_path / "d.json"
        assert main(["dualize", str(path), "--out", str(out)]) == 1
        assert "UnboundedPolyhedron" in capsys.readouterr().err
