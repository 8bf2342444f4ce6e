import json
import os
import subprocess
import sys

import pytest

TOOLS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")


@pytest.fixture()
def compare(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS_DIR)
    import compare_outputs
    return compare_outputs


def write_tree(root, payload, provenance="a"):
    """One solver report document under root, as a manifest run writes it."""
    os.makedirs(root / "realize-large-seed1")
    doc = {"kind": "solver_report", "schema_version": 1,
           "provenance": {"target": provenance}, "payload": payload}
    (root / "realize-large-seed1" / "report.json").write_text(json.dumps(doc))


def report(residuals, points=((0.0, 1.0, 0.0, 0.0),)):
    return {"steps": [{"s": (k + 1) / len(residuals), "residual": r}
                      for k, r in enumerate(residuals)],
            "dual_points": [list(p) for p in points]}


def run(compare, capsys, tree_a, tree_b):
    code = compare.main([str(tree_a), str(tree_b)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees(compare, capsys, tmp_path):
    for side in "ab":
        write_tree(tmp_path / side, report([1e-4, 1e-11]))
    code, lines = run(compare, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert lines == ["realize-large-seed1/report.json: identical"]


def test_provenance_only(compare, capsys, tmp_path):
    write_tree(tmp_path / "a", report([1e-4, 1e-11]), provenance="a")
    write_tree(tmp_path / "b", report([1e-4, 1e-11]), provenance="b")
    code, lines = run(compare, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert lines == ["realize-large-seed1/report.json: provenance-only"]


def test_payload_differs_reports_the_last_step_apart(compare, capsys, tmp_path):
    write_tree(tmp_path / "a", report([1e-4, 2e-4, 1e-11]))
    write_tree(tmp_path / "b", report([3e-4, 2e-4, 4e-11],
                                      points=((0.0, 0.0, 1.0, 0.0),)))
    code, lines = run(compare, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines[0] == "realize-large-seed1/report.json: payload differs"
    places = {line.split(":")[0].strip(): line for line in lines[1:]}
    # the intermediate steps and the final one are separate lines, the
    # unchanged s values none, and both unit points keep their Gram matrix
    assert set(places) == {"steps[].residual", "steps[-1].residual",
                           "dual_points[]"}
    assert "max abs diff 2.000e-04" in places["steps[].residual"]
    assert "max abs diff 3.000e-11" in places["steps[-1].residual"]


def test_keys_on_one_side_are_named_and_the_rest_compared(compare, capsys,
                                                          tmp_path):
    # a field dropped from every step is one line per place, and the
    # numbers both sides still share are compared as before
    a, b = report([1e-4, 1e-11]), report([1e-4, 2e-11])
    for step in a["steps"]:
        step["smallest_singular_value"] = 0.25
    b["bump"] = 0.0
    write_tree(tmp_path / "a", a)
    write_tree(tmp_path / "b", b)
    code, lines = run(compare, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines == [
        "realize-large-seed1/report.json: payload differs",
        "  bump: only in B",
        "  steps[].smallest_singular_value: only in A",
        "  steps[-1].smallest_singular_value: only in A",
        "  steps[-1].residual: max abs diff 1.000e-11, max rel diff 5.000e-01"]


def test_keys_on_one_side_alone_still_fail(compare, capsys, tmp_path):
    a, b = report([1e-4, 1e-11]), report([1e-4, 1e-11])
    a["steps"][0]["smallest_singular_value"] = 0.25
    write_tree(tmp_path / "a", a)
    write_tree(tmp_path / "b", b)
    code, lines = run(compare, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines[1:] == ["  steps[].smallest_singular_value: only in A"]


def test_text_files_report_their_changed_lines(compare, capsys, tmp_path):
    # a job's standard output: the changed line is shown from both sides,
    # the unchanged lines not at all
    for side, margin in (("a", "+1.2e-14"), ("b", "+3.4e-14")):
        write_tree(tmp_path / side, report([1e-4, 1e-11]))
        (tmp_path / side / "realize-large-seed1" / "r0-check.stdout").write_text(
            f"vertex 0: cone angle 14.3\nresidual {margin}\nconcave\n")
    code, lines = run(compare, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines == ["realize-large-seed1/r0-check.stdout: text differs",
                     "  @@ -2 +2 @@",
                     "  -residual +1.2e-14",
                     "  +residual +3.4e-14",
                     "realize-large-seed1/report.json: identical"]


def test_ab_rounds_runs_a_checkout_against_itself():
    root = os.path.dirname(TOOLS_DIR)
    src = os.path.join(root, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(TOOLS_DIR, "ab_rounds.py"), src, src,
         "--workload", "solve-small", "--seed", "1", "--pairs", "1"],
        capture_output=True, text=True, cwd=root)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("ab_rounds: workload solve-small, seed 1, "
                        "1 pairs of 20 jobs a side")
    assert lines[3].startswith("pair 1: A ")
    won = [line.split("won ")[1] for line in lines[4:6]]
    assert sorted(won) == ["0 of 1 pairs", "1 of 1 pairs"]
    assert lines[6].startswith("median B/A ")
    assert "FAILED" not in done.stdout


def test_cold_start_times_one_command_of_one_tree():
    root = os.path.dirname(TOOLS_DIR)
    src = os.path.join(root, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(TOOLS_DIR, "cold_start.py"), src,
         "--repeats", "1", "--commands", "check"],
        capture_output=True, text=True, cwd=root)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["cold_start: 1 repeats, medians", f"  tree 1: {src}"]
    cells = lines[2].split()
    assert cells[:3] == ["check", "tree", "1"]
    assert cells[4] == "ms" and cells[6] == "MB"
    assert float(cells[3]) > 0 and float(cells[5]) > 0
