"""One `thagg run -c <ini> -o <dir>` in a fresh interpreter, with boundary marks.

Usage: python3 child.py <src-dir> <ini> <out-dir> <result.json> <trace 0|1>

It imports `thagg` from <src-dir> only, calls `thagg.cli.main` exactly as the
`thagg` console script does, and records monotonic timestamps around
`harness.run_setup` and `harness.run_protocol`. With trace 1 it first wraps
the layer functions (see tracer.py). The marks, the exit code and, when
traced, the per-layer figures go to <result.json>; the CLI's own stdout and
stderr are left to the caller.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _mckks_error_bound(art) -> str | None:
    """b_ct_mp / delta, the bound the MCKKS opened average must stay under."""
    try:
        bound = art.report.bounds.b_ct_mp / art.params.delta
    except (AttributeError, TypeError, ZeroDivisionError):
        return None
    return f"{bound.numerator}/{bound.denominator}"


def main() -> int:
    src, ini, outdir, result_path, trace = sys.argv[1:6]
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    import thagg
    import thagg.cli
    import thagg.harness as harness

    if src_dir not in Path(thagg.__file__).resolve().parents:
        sys.stderr.write(f"thagg imported from {thagg.__file__}, "
                         f"not from {src_dir}\n")
        return 2

    from tracer import Tracer, rebind

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()

    marks: dict = {}
    inner_setup = harness.run_setup
    inner_protocol = harness.run_protocol

    def run_setup(*args, **kwargs):
        t0 = time.monotonic()
        art = inner_setup(*args, **kwargs)
        marks["setup_end"] = time.monotonic()
        marks["setup_s"] = marks["setup_end"] - t0
        marks["mckks_error_bound"] = _mckks_error_bound(art)
        return art

    def run_protocol(*args, **kwargs):
        t0 = time.monotonic()
        transcript = inner_protocol(*args, **kwargs)
        marks["protocol_s"] = time.monotonic() - t0
        return transcript

    rebind(inner_setup, run_setup)
    rebind(inner_protocol, run_protocol)

    t0 = time.perf_counter()
    rc = thagg.cli.main(["run", "-c", ini, "-o", outdir])
    main_s = time.perf_counter() - t0

    result = {"rc": rc, "marks": marks}
    if tracer is not None:
        result["layers"] = tracer.metrics(main_s)
        result["per_call_ms"] = tracer.per_call_ms()
        result["missing"] = tracer.missing
        result["hook_errors"] = tracer.hook_errors
    Path(result_path).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
