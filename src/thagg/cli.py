"""Command-line interface.

Subcommands: plan, region, run, bench. Exit codes: 0 on success, 2 when a
configuration or bound check rejects the request (a malformed command line
included), 3 on a runtime protocol failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from .config import parse_config, with_parties
from .errors import ConfigRejection, ProtocolFailure
from .harness import PHASE_LABELS, run_protocol
from .planner import grid_to_csv, interval_approx_check, plan, region_grid


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigRejection(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _emit(text: str, path: str | None) -> None:
    """Write an output to the file at path, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigRejection(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """Reject an output file that cannot be opened, before any long run.
    Append mode leaves an existing file as it is."""
    if path:
        try:
            open(path, "a").close()
        except OSError as exc:
            raise ConfigRejection(f"cannot write {path}: {exc}") from exc


def _parse_range(spec: str) -> range:
    try:
        lo, hi = spec.split(":")
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ConfigRejection(
            f"range must look like LO:HI, got {spec!r}") from exc


def cmd_plan(args) -> int:
    cfg = _load_config(args.config)
    report = plan(cfg.plan_inputs, cfg.scheme,
                  enforce_security=cfg.enforce_security)
    _emit(report.to_text(), args.output)
    return 0


def cmd_region(args) -> int:
    inputs = _load_config(args.config).plan_inputs
    grid = region_grid(inputs, _parse_range(args.t_bits),
                       _parse_range(args.eps_bits))
    text = io.StringIO()
    grid_to_csv(grid, text)
    _emit(text.getvalue(), args.output)
    if args.intervals:
        rep = interval_approx_check(inputs, grid)
        sys.stderr.write(
            f"piecewise check: max deviation outside +-"
            f"{rep.window_halfwidth_bits:.0f}-bit window = "
            f"{rep.max_deviation_outside:.3f} bits, crossover at "
            f"log2 t ~ {rep.crossover_bits:.1f}\n")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    outdir = Path(args.output) if args.output else None
    if outdir is not None:  # fail before the protocol, not after it
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigRejection(f"cannot create {outdir}: {exc}") from exc
    transcript = run_protocol(cfg)
    sys.stdout.write(transcript.timings_text())
    sys.stdout.write(f"max_error = {float(transcript.max_error):.6e}\n")
    if outdir is not None:
        try:
            (outdir / "transcript.txt").write_text(transcript.to_text())
            (outdir / "timings.txt").write_text(transcript.timings_text())
            np.save(outdir / "aggregate.npy", transcript.aggregate.to_floats())
        except OSError as exc:
            raise ConfigRejection(f"cannot write to {outdir}: {exc}") from exc
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    try:
        parties = [int(x) for x in args.parties.split(",")]
    except ValueError as exc:
        raise ConfigRejection(
            f"--parties must be integers like 2,4,8, got {args.parties!r}"
        ) from exc
    if args.repeats < 1:
        raise ConfigRejection(f"--repeats must be >= 1, got {args.repeats}")
    # check every party count and the output before running any of them
    sweep = [with_parties(cfg, count) for count in parties]
    _check_writable(args.output)
    rows = []
    for run_cfg in sweep:
        best = None
        for _ in range(args.repeats):
            transcript = run_protocol(run_cfg)
            timings = transcript.timings
            if best is None or timings["total"] < best["total"]:
                best = timings
        count = run_cfg.parties
        rows.append([count] + [f"{best[k]:.6f}" for k in PHASE_LABELS])
        sys.stderr.write(f"parties={count}: total {best['total']:.3f} s\n")
    header = ["parties"] + list(PHASE_LABELS.values())
    text = io.StringIO()
    out = csv.writer(text, lineterminator="\n")
    out.writerow(header)
    out.writerows(rows)
    _emit(text.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thagg",
        description="threshold additive HE aggregation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="evaluate bounds and pick a modulus")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("region", help="scheme-comparison grid as CSV")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--t-bits", default="8:120")
    p.add_argument("--eps-bits", default="8:120")
    p.add_argument("--intervals", action="store_true",
                   help="report the piecewise-linear approximation quality")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("run", help="run the aggregation protocol once")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", help="directory for transcript artifacts")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="timing sweep over party counts")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--parties", default="2,4,8,16")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigRejection as exc:
        sys.stderr.write(f"rejected: {exc}\n")
        return 2
    except ProtocolFailure as exc:
        sys.stderr.write(f"protocol failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
