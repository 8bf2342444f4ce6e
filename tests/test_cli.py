import json

import numpy as np
import pytest

from polydual import serialize
from polydual.cli import main
from polydual.fuchsian import fuchsian_dualize, fuchsian_octagon_group
from polydual.polyhedra import dualize, regular_tetrahedron
from polydual.surface import octahedron_sphere


@pytest.fixture()
def tetra_files(tmp_path):
    poly_path = tmp_path / "tet.json"
    dual_path = tmp_path / "dual.json"
    assert main(["gen", "tetrahedron", "--theta", "1.2",
                 "--out", str(poly_path)]) == 0
    assert main(["dualize", str(poly_path), "--out", str(dual_path)]) == 0
    return poly_path, dual_path


class TestSerializeRoundTrip:
    def test_cone_metric_bit_exact(self):
        m = dualize(regular_tetrahedron(1.17)).metric
        payload = serialize.encode_cone_metric(m)
        text = serialize.dumps(serialize.envelope("cone_metric", payload, {}))
        back = serialize.decode_cone_metric(json.loads(text)["payload"])
        assert back.surface.triangles == m.surface.triangles
        assert back.surface.gluing == m.surface.gluing
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

    def test_realize_roundtrip_fixture(self, tetra_files, tmp_path):
        poly_path, dual_path = tetra_files
        report = tmp_path / "report.json"
        assert main(["realize", str(dual_path), "--start", str(poly_path),
                     "--steps", "4", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "solver_report"
        assert doc["payload"]["rigidity"]["smallest_singular_value"] > 1e-8

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

    def test_fuchsian_demo(self, tmp_path):
        out = tmp_path / "f.json"
        group_out = tmp_path / "g.json"
        assert main(["fuchsian-demo", "--height", "0.7", "--out", str(out),
                     "--group-out", str(group_out)]) == 0
        assert main(["check", str(out), "--depth", "5"]) == 0
        doc = serialize.read_document(str(group_out), expect_kind="fuchsian_data")
        data = serialize.decode_fuchsian_data(doc["payload"])
        assert data.relation_residual() < 1e-8

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
