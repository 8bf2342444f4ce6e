"""The benchmark's tracer must still find every function it wraps.

`bench/spans.py` patches polydual functions by name, so a rename in the
package would break `bench/run.py --trace 1` without failing any other test.
"""
import os

import numpy as np

import polydual.cli  # noqa: F401  (loads every module the tracer patches)
from polydual import serialize, solver
from polydual.geodesic import closed_geodesic_search

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _bindings():
    return (solver.jacobian, solver.SolverState.__init__, np.linalg.solve)


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import spans

    originals = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(now is not old for now, old in zip(_bindings(), originals))
    finally:
        tracer.remove()
    assert all(now is old for now, old in zip(_bindings(), originals))


def test_traced_check_counts_search_cycles(monkeypatch, tmp_path):
    """The search hook reads `SearchReport.n_cycles_checked` and `.geodesics`;
    a traced `check` must count what the search itself reports."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    import harness
    import spans

    poly, dual = str(tmp_path / "tet.json"), str(tmp_path / "tet-dual.json")
    assert polydual.cli.main(["gen", "tetrahedron", "--out", poly]) == 0
    assert polydual.cli.main(["dualize", poly, "--out", dual]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.job(0):
            assert polydual.cli.main(["check", dual, "--depth", "4"]) == 0
    finally:
        tracer.remove()

    metric = serialize.decode_dual_output(
        serialize.read_document(dual)["payload"]).metric
    search = closed_geodesic_search(metric, depth=4)
    metrics = harness.layer_metrics(tracer.spans, tracer.counts)
    assert search.n_cycles_checked > 0
    assert metrics["geodesic.cycles_checked"] == search.n_cycles_checked
    assert tracer.counts["geodesic.geodesics_found"] == len(search.geodesics)
    assert spans.check_nesting(tracer.spans, spans.self_times(tracer.spans)) == []
