"""The benchmark's tracer must still find every function it wraps.

`bench/spans.py` patches polydual functions by name, so a rename in the
package would break `bench/run.py --trace 1` without failing any other test.
"""
import os

import numpy as np

import polydual.cli  # noqa: F401  (loads every module the tracer patches)
from polydual import solver

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
