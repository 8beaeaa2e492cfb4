"""The benchmark's layer tracer still finds every function it wraps.

`perfbench/child.py` runs `thagg run` with `perfbench/tracer.py` wrapped
around named functions of the package. A renamed or removed function, or a
counter hook that no longer fits its function's arguments or result, shows
up there as a missing name or a hook error, and the benchmark's traced run
loses metrics. This runs the child as the benchmark does, on two small
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

# Exact counts on both golden configs (n = 1024, L = 3, 3 chunks in one
# group). A change that moves work between counted layers, such as where
# the opened chunks are lifted, shows up here.
PINNED_COUNTS = {
    "ring.crt_lift.coeffs": 3072,
    "schemes.add.calls": 2,
    "threshold.partial_decrypt.calls": 3,
    "wire.messages": 21,
    "ntt.forward.calls": 9,
    "ntt.inverse.calls": 12,
}


def declared_layers() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]} - DRIVER_ONLY


@pytest.mark.parametrize("config", ["golden_mbfv", "golden_mckks"])
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
    assert {name: layers[name][0] for name in PINNED_COUNTS} == PINNED_COUNTS
