"""The benchmark's micro module must import and run against the library.

perfbench/micro.py imports ring elements, the rings' operation methods and
the enumeration streams it drains by name, so a refactor that drops one of
them breaks the benchmark's per-layer mode; this test catches that without
running the benchmark.
"""

import importlib.util
import math
from pathlib import Path

MICRO_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "micro.py"


def test_micro_drains_and_ring_timings_run():
    spec = importlib.util.spec_from_file_location("perfbench_micro", MICRO_PATH)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    metrics = {**micro.drains(), **micro.ring_timings(1)}
    assert metrics
    for name, value in metrics.items():
        assert isinstance(value, float) and math.isfinite(value) and value > 0, name
