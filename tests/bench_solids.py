"""The benchmark's seeded solids (`bench/solids.py`) for the tests, loaded
from that file without putting `bench/` on sys.path."""
import importlib.util
import os
import sys

import numpy as np

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")

_spec = importlib.util.spec_from_file_location(
    "bench_solids_generator", os.path.join(BENCH_DIR, "solids.py"))
_generator = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_generator)

fibonacci_solid = _generator.fibonacci_solid


def fibonacci_solids(face_counts):
    """The seed-1, round-0 solids with these face counts, minimum edge 0.02,
    as the benchmark draws them."""
    return [fibonacci_solid(np.random.RandomState([1, 0, n]), n, 0.02).poly
            for n in face_counts]
