"""thagg benchmark: whole `thagg run` processes on three fixed protocol configs.

Usage:
  python3 perfbench/run.py --workload deep-mbfv --seed 1 --seconds 36 --trace 0

Each sample launches a fresh interpreter (child.py) that runs
`thagg run -c <ini> -o <dir>` on an INI generated from (workload, seed), one
process at a time, with numpy/BLAS threads pinned to 1. Samples repeat until
--seconds have passed. Every sample is checked (exit code, exact MBFV opening,
MCKKS error bound, message count, byte-identical transcripts per seed) and a
failed check counts against the run.

--trace 0 reports the end-to-end metrics (medians over samples). --trace 1
alternates untraced and traced samples and reports the per-layer metrics of
the traced ones plus the tracing overhead. Human-readable lines go first;
the last line of stdout is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A run must end within 180 s; a sample still running at this point of the
# run is killed and counts as failed.
RUN_LIMIT_S = 170

# Only config keys that stay valid after the thread pool and its
# `parallel_clients` key are removed; security enforcement stays on.
WORKLOADS = {
    "deep-mbfv": {"scheme": "mbfv", "n": 16384, "parties": 4, "lambda": 128,
                  "t_bits": 45, "fixed_point_bits": 20, "model_size": 131072},
    "deep-mckks": {"scheme": "mckks", "n": 16384, "parties": 4, "lambda": 128,
                   "eps_inv_bits": 45, "model_size": 131072},
    "wide-mbfv": {"scheme": "mbfv", "n": 2048, "parties": 16, "lambda": 16,
                  "t_bits": 16, "fixed_point_bits": 8, "model_size": 65536},
}

# End-to-end metrics measured once per sample and reported as medians.
SAMPLED_UNITS = {"run_s": "s", "setup_s": "s", "round_s": "s",
                 "peak_rss_mib": "MiB"}

# Per-layer units that are counts, so they must repeat exactly per seed.
EXACT_UNITS = {"count", "bytes", "ratio"}

# Layers whose per-call cost the traced run prints as a table.
BASELINE_LAYERS = [
    "ntt.forward", "ntt.inverse", "ring.ring_mul", "schemes.encrypt",
    "threshold.partial_decrypt", "ring.sample_uniform",
    "ring.sample_smudging", "ring.sample_gaussian", "ring.sample_ternary",
    "ring.from_coeffs", "ring.crt_lift", "schemes.encode_fixed",
    "wire.serialize_ciphertext",
]


class SampleFailure(Exception):
    """A sample whose process or output failed a correctness check."""


def config_text(workload: str, seed: int) -> str:
    w = WORKLOADS[workload]
    proto = [f"scheme = {w['scheme']}", f"model_size = {w['model_size']}",
             f"root_seed = {seed}", "rounds = 1", "enforce_security = true"]
    if "fixed_point_bits" in w:
        proto.append(f"fixed_point_bits = {w['fixed_point_bits']}")
    plan = [f"n = {w['n']}", f"parties = {w['parties']}", "sigma = 3.2",
            "noise_bound = 19.2", f"lambda = {w['lambda']}"]
    for key in ("t_bits", "eps_inv_bits"):
        if key in w:
            plan.append(f"{key} = {w[key]}")
    return ("[protocol]\n" + "\n".join(proto) + "\n\n[plan]\n"
            + "\n".join(plan) + "\n")


def expected_messages(workload: str) -> int:
    w = WORKLOADS[workload]
    chunks = -(-w["model_size"] // w["n"])
    return w["parties"] + 2 * w["parties"] * chunks


def read_sections(text: str) -> dict[str, list[str]]:
    """Non-empty lines of each `[section]` of a transcript, by section name."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif line and current is not None:
            current.append(line)
    return sections


def section_fields(lines: list[str]) -> dict[str, str]:
    fields = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def message_size(line: str) -> int:
    """Size of one `[messages]` record: a `size=` field, else column 4."""
    tokens = line.split()
    for tok in tokens:
        if tok.startswith("size="):
            return int(tok[len("size="):])
    return int(tokens[3])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
    })
    return env


def launch(cmd: list[str], env: dict, log: Path,
           deadline: float) -> tuple[int, float, float, float]:
    """Run one process to its end: (exit code, wall s, launch time, peak MiB).

    The process is killed if it is still running at `deadline` (monotonic).
    """
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=fh,
                                stdin=subprocess.DEVNULL, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, t0, usage.ru_maxrss / 1024.0


def run_sample(workload: str, seed: int, traced: bool, work: Path,
               k: int, env: dict, deadline: float) -> dict:
    ini = work / f"{k}.ini"
    ini.write_text(config_text(workload, seed))
    outdir = work / f"out{k}"
    result_path = work / f"{k}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(ini),
           str(outdir), str(result_path), "1" if traced else "0"]
    rc, wall, t_launch, rss = launch(cmd, env, work / f"{k}.log", deadline)
    try:
        if rc != 0:
            tail = (work / f"{k}.log").read_text(errors="replace")[-400:]
            raise SampleFailure(f"exit code {rc}: {tail}")
        child = json.loads(result_path.read_text())
        marks = child["marks"]
        sample = {
            "traced": traced,
            "run_s": wall,
            "setup_s": marks["setup_end"] - t_launch,
            "round_s": marks["protocol_s"] - marks["setup_s"],
            "peak_rss_mib": rss,
            "layers": child.get("layers"),
            "per_call_ms": child.get("per_call_ms"),
            "missing": child.get("missing", []),
            "hook_errors": child.get("hook_errors", {}),
        }
        sample.update(check_outputs(workload, outdir,
                                    marks.get("mckks_error_bound")))
    except (OSError, KeyError, ValueError, SampleFailure) as exc:
        return {"traced": traced, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return sample


def check_outputs(workload: str, outdir: Path, mckks_bound: str | None) -> dict:
    """Correctness of one run's artifacts; raises SampleFailure on a miss."""
    w = WORKLOADS[workload]
    text = (outdir / "transcript.txt").read_text()
    sections = read_sections(text)
    sizes = [message_size(line) for line in sections.get("messages", [])]
    if len(sizes) != expected_messages(workload):
        raise SampleFailure(f"{len(sizes)} messages, expected "
                            f"{expected_messages(workload)}")
    result = section_fields(sections.get("result", []))
    max_error = Fraction(result["max_error"])
    if w["scheme"] == "mbfv":
        if max_error != 0:
            raise SampleFailure(f"mbfv average not exact: {max_error}")
    else:
        if mckks_bound is None:
            raise SampleFailure("no b_ct_mp/delta bound to check against")
        if not 0 < max_error < Fraction(mckks_bound):
            raise SampleFailure(f"mckks error {float(max_error):.3e} outside "
                                f"(0, {float(Fraction(mckks_bound)):.3e})")
    agg = np.load(outdir / "aggregate.npy")
    if agg.shape != (w["model_size"],) or not np.isfinite(agg).all():
        raise SampleFailure(f"aggregate.npy has shape {agg.shape}")
    # averages of updates in (-1, 1]; MCKKS may overshoot by its error
    if float(np.abs(agg).max()) > 1 + float(max_error):
        raise SampleFailure("aggregate coordinate outside [-1, 1]")
    return {"bus_bytes": sum(sizes), "messages": len(sizes),
            "transcript_sha256": hashlib.sha256(text.encode()).hexdigest()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_consistency(samples: list[dict]) -> None:
    """Same seed, same facts: transcript bytes and exact counts must repeat.

    A sample that disagrees with the first good one is marked failed.
    """
    good = [s for s in samples if "error" not in s]
    if not good:
        return
    ref = good[0]
    exact_keys = ("transcript_sha256", "bus_bytes", "messages")
    ref_traced = next((s for s in good if s["traced"]), None)
    for s in good[1:]:
        for key in exact_keys:
            if s[key] != ref[key]:
                s["error"] = f"{key} differs from the first sample"
        if s["traced"] and s is not ref_traced and "error" not in s:
            for name, (value, unit) in ref_traced["layers"].items():
                if (unit in EXACT_UNITS
                        and s["layers"].get(name, [None])[0] != value):
                    s["error"] = f"exact count {name} differs between samples"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative (it becomes root_seed)")
    if not (SRC / "thagg" / "cli.py").is_file():
        sys.stderr.write(f"no thagg sources under {SRC}; run from a checkout "
                         "of the repository\n")
        return 2

    env = child_env()
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(SRC / "thagg"), str(HERE)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        samples = []
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        while time.monotonic() < deadline:
            traced = bool(args.trace) and len(samples) % 2 == 1
            t0 = time.monotonic()
            samples.append(run_sample(args.workload, args.seed, traced, work,
                                      len(samples), env, deadline))
            samples[-1]["wall_s"] = time.monotonic() - t0
            # stop where the run ends nearest to --seconds: start another
            # sample only if at least half of it fits
            typical = statistics.median(s["wall_s"] for s in samples)
            # a traced run needs two traced samples to compare exact counts
            enough = not args.trace or len(samples) >= 4
            if enough and (time.monotonic() - start + typical / 2
                           > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_consistency(samples)
    failed = [s for s in samples if "error" in s]
    for s in failed:
        sys.stdout.write(f"sample failed: {s['error']}\n")
    good = [s for s in samples if "error" not in s]
    if args.trace:
        metrics = layer_metrics(good, args.workload)
    else:
        metrics = end_to_end_metrics(good, len(samples))
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def end_to_end_metrics(good: list[dict], attempted: int) -> dict:
    metrics = {}
    for name, unit in SAMPLED_UNITS.items():
        values = [s[name] for s in good]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        sys.stdout.write(f"{name} = {med:.4f} {unit} (median of {len(values)};"
                         f" quartiles {q1:.4f} .. {q3:.4f}; samples "
                         + " ".join(f"{v:.3f}" for v in values) + ")\n")
        metrics[name] = {"value": med, "unit": unit}
    if good:
        metrics["bus_bytes"] = {"value": good[0]["bus_bytes"], "unit": "bytes"}
        sys.stdout.write(f"bus_bytes = {good[0]['bus_bytes']} bytes "
                         f"({good[0]['messages']} messages)\n")
    ok = len(good) / attempted
    metrics["ok_run_ratio"] = {"value": ok, "unit": "ratio"}
    sys.stdout.write(f"failed_run_ratio = {attempted - len(good)}/{attempted}"
                     f" runs (ok_run_ratio = {ok:.4f})\n")
    return metrics


def layer_metrics(good: list[dict], workload: str) -> dict:
    traced = [s for s in good if s["traced"]]
    plain = [s for s in good if not s["traced"]]
    if not traced:
        return {}
    metrics = {}
    for name, (first, unit) in traced[0]["layers"].items():
        if unit in EXACT_UNITS:  # equal in every traced sample
            metrics[name] = {"value": first, "unit": unit}
            continue
        values = [s["layers"][name][0] for s in traced if name in s["layers"]]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    if plain:
        ratio = (statistics.median(s["run_s"] for s in traced)
                 / statistics.median(s["run_s"] for s in plain))
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    for name in traced[0]["missing"]:
        sys.stdout.write(f"absent: {name} (no longer in its module)\n")
    for name, err in traced[0]["hook_errors"].items():
        sys.stdout.write(f"absent: counters of {name} ({err})\n")
    sys.stdout.write(f"{workload}: {len(traced)} traced, {len(plain)} untraced"
                     " samples\n")
    sys.stdout.write(f"{'layer':<28}{'calls':>8}{'ms/call':>10}"
                     f"{'self ms/call':>14}\n")
    for name in BASELINE_LAYERS:
        rows = [s["per_call_ms"][name] for s in traced
                if name in s["per_call_ms"]]
        if rows:
            incl = statistics.median(r[1] for r in rows)
            own = statistics.median(r[2] for r in rows)
            sys.stdout.write(f"{name:<28}{rows[0][0]:>8}{incl:>10.3f}"
                             f"{own:>14.3f}\n")
    for name, entry in metrics.items():
        value = entry["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        sys.stdout.write(f"{name} = {shown} {entry['unit']}\n")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
