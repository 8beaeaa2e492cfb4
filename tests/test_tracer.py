"""The benchmark's layer tracer still finds every function it wraps.

`perfbench/child.py` runs `thagg run` with `perfbench/tracer.py` wrapped
around named functions of the package. A renamed or removed function, or a
counter hook that no longer fits its function's arguments or result, shows
up there as a missing name or a hook error, and the benchmark's traced run
loses metrics. This runs the child as the benchmark does, on the golden
configs, and checks that every per-layer metric `BENCHMARK.json` declares
comes out, finite.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

# The ratio of traced to untraced wall time, which only the benchmark's
# driver computes from its pairs of runs; one child cannot report it.
DRIVER_ONLY = {"trace.overhead_ratio"}

# Exact counts on the golden configs. `golden_mbfv` and `golden_mckks`
# have n = 1024, L = 3 and 3 chunks in one group; `golden_mbfv_bigt` has
# n = 1024, L = 2, 2 chunks and t = 2^70. A change that moves work between
# counted layers, such as where the opened chunks are lifted, shows up here.
# `schemes.add` reads 0: the aggregator adds each checked submission in
# place into its sums (`ring.add_into`), not through the scheme API.
SMALL_COUNTS = {
    "ring.crt_lift.coeffs": 3072,
    "schemes.add.calls": 0,
    "threshold.partial_decrypt.calls": 3,
    "wire.messages": 21,
    "ntt.forward.calls": 9,
    "ntt.inverse.calls": 12,
}
PINNED_COUNTS = {
    "golden_mbfv": SMALL_COUNTS,
    "golden_mckks": SMALL_COUNTS,
    "golden_mbfv_bigt": {
        "ring.crt_lift.coeffs": 2048,
        "schemes.add.calls": 0,
        "threshold.partial_decrypt.calls": 2,
        "wire.messages": 10,
        "ntt.forward.calls": 7,
        "ntt.inverse.calls": 8,
    },
}


def declared_layers() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]} - DRIVER_ONLY


@pytest.mark.parametrize("config", list(PINNED_COUNTS))
def test_traced_child_reports_every_declared_layer(config, tmp_path):
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         str(ROOT / "src"), str(DATA / f"{config}.ini"), str(tmp_path / "out"),
         str(result_path), "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(result_path.read_text())
    assert result["rc"] == 0
    assert result["missing"] == []
    assert result["hook_errors"] == {}
    layers = result["layers"]
    assert declared_layers() - layers.keys() == set()
    json.dumps(result, allow_nan=False)  # raises on NaN or infinity
    assert all(math.isfinite(value) for value, _unit in layers.values())
    pinned = PINNED_COUNTS[config]
    assert {name: layers[name][0] for name in pinned} == pinned
