"""Outside-in layer tracing for one `thagg run` process.

The tracer wraps named public functions of the `thagg` modules from the
benchmark's own code; nothing under `src/` knows about it. Each wrapped call
opens a span on a stack. A span's self time is its wall time minus the wall
time of the wrapped spans it encloses, so self times of all wrapped functions
never double count. A few wrappers also count work (butterflies, bytes, lifted
coefficients, sampler draws) from the call's arguments and result.

A wrapped name that no longer exists in its module is skipped, and its metrics
are reported as absent rather than failing the run.
"""

from __future__ import annotations

import sys
import time

# module -> public functions wrapped there. `rng.Xof.read` is a method and is
# patched on the class.
WRAPPED = {
    "thagg.ntt": ["forward", "inverse", "pointwise", "transform_plan"],
    "thagg.ring": ["ring_mul", "ring_add", "from_coeffs", "crt_lift",
                   "sample_uniform", "sample_ternary", "sample_gaussian",
                   "sample_smudging"],
    "thagg.schemes": ["encode_fixed", "encode_real", "encrypt", "add",
                      "decode_fixed", "bfv_round", "ckks_scale_down"],
    "thagg.threshold": ["crs_expand", "gen_share", "pk_share", "combine_pk",
                        "partial_decrypt", "combine_decrypt"],
    "thagg.wire": ["serialize_ciphertext", "deserialize_ciphertext",
                   "serialize_partial_dec", "deserialize_partial_dec",
                   "serialize_pk_share", "deserialize_pk_share"],
    "thagg.harness": ["run_setup", "synthesize_update", "client_input_step",
                      "aggregator_eval_step", "output_step",
                      "cleartext_oracle", "run_protocol"],
    "thagg.planner": ["plan"],
    "thagg.config": ["parse_config"],
}

# Bytes one draw of each rejection sampler reads from its stream, so that
# draws read = stream bytes read inside the sampler / bytes per draw.
_GAUSSIAN_DRAW_BYTES = 16  # two 64-bit uniforms per Box-Muller draw


def rebind(old, new) -> None:
    """Point every `thagg` namespace that bound `old` at `new`."""
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "thagg" or key.startswith("thagg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


class _Span:
    __slots__ = ("child_s", "rng_bytes")

    def __init__(self):
        self.child_s = 0.0
        self.rng_bytes = 0


class Tracer:
    """Span stack plus per-function totals and work counters."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.owners: dict[str, set[str]] = {}  # counter -> hooks that add to it
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}

    # -- instrumentation -------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = _Span()
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total_s[name] = tracer.total_s.get(name, 0.0) + dur
                tracer.self_s[name] = (tracer.self_s.get(name, 0.0)
                                       + dur - span.child_s)
                if stack:
                    parent = stack[-1]
                    parent.child_s += dur
                    parent.rng_bytes += span.rng_bytes
            if hook is not None:
                try:
                    increments = hook(tracer, args, kwargs, result, span)
                except Exception as exc:  # a refactor broke a counter only
                    tracer.hook_errors[name] = f"{type(exc).__name__}: {exc}"
                else:
                    for key, amount in increments.items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + amount
                        tracer.owners.setdefault(key, set()).add(name)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every `thagg` namespace bound to it."""
        for module, names in WRAPPED.items():
            for fname in names:
                name = f"{module.split('.', 1)[1]}.{fname}"
                fn = getattr(sys.modules[module], fname, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                rebind(fn, self._wrap(name, fn, _HOOKS.get(name)))
        xof = getattr(sys.modules["thagg.rng"], "Xof", None)
        read = getattr(xof, "read", None)
        if read is None:
            self.missing.append("rng.read")
        else:
            xof.read = self._wrap("rng.read", read, _hook_read)

    # -- metrics ---------------------------------------------------------

    def metrics(self, main_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); absent names omitted."""
        out: dict[str, tuple[float, str]] = {}
        calls, total, own = self.calls, self.total_s, self.self_s
        # a counter that a failing hook also adds to would be partial: drop it
        counts = {key: value for key, value in self.counts.items()
                  if not self.owners[key] & self.hook_errors.keys()}

        def put(key, value, unit):
            if value is not None:
                out[key] = (value, unit)

        # a wrapped function that exists but never ran reads as 0
        def selfs(name):
            return None if name in self.missing else own.get(name, 0.0)

        def ncalls(name):
            return None if name in self.missing else calls.get(name, 0)

        def totals(name):
            return None if name in self.missing else total.get(name, 0.0)

        for fn in ("forward", "inverse"):
            put(f"ntt.{fn}.calls", ncalls(f"ntt.{fn}"), "count")
            put(f"ntt.{fn}.self_s", selfs(f"ntt.{fn}"), "s")
        put("ntt.pointwise.self_s", selfs("ntt.pointwise"), "s")
        put("ntt.transform_plan.self_s", selfs("ntt.transform_plan"), "s")
        butterflies = counts.get("ntt.butterflies")
        put("ntt.butterflies", butterflies, "count")
        fwd, inv = selfs("ntt.forward"), selfs("ntt.inverse")
        if butterflies and fwd is not None and inv is not None:
            put("ntt.ns_per_butterfly", (fwd + inv) * 1e9 / butterflies, "ns")

        put("ring.ring_mul.calls", ncalls("ring.ring_mul"), "count")
        for fn in ("ring_add", "from_coeffs", "crt_lift", "sample_uniform",
                   "sample_ternary", "sample_gaussian", "sample_smudging"):
            put(f"ring.{fn}.self_s", selfs(f"ring.{fn}"), "s")
        put("ring.crt_lift.coeffs", counts.get("ring.crt_lift.coeffs"), "count")
        for fn in ("sample_uniform", "sample_gaussian", "sample_smudging"):
            kept = counts.get(f"ring.{fn}.kept")
            draws = counts.get(f"ring.{fn}.draws")
            if kept is not None and draws:
                put(f"ring.{fn}.accept_ratio", kept / draws, "ratio")

        put("rng.read.calls", ncalls("rng.read"), "count")
        put("rng.read.bytes", counts.get("rng.read.bytes"), "bytes")
        put("rng.read.self_s", selfs("rng.read"), "s")

        for fn in ("encode_fixed", "encode_real", "encrypt", "add",
                   "decode_fixed", "bfv_round", "ckks_scale_down"):
            put(f"schemes.{fn}.self_s", selfs(f"schemes.{fn}"), "s")
        put("schemes.encrypt.calls", ncalls("schemes.encrypt"), "count")
        put("schemes.add.calls", ncalls("schemes.add"), "count")

        for fn in ("crs_expand", "gen_share", "pk_share", "combine_pk",
                   "partial_decrypt", "combine_decrypt"):
            put(f"threshold.{fn}.self_s", selfs(f"threshold.{fn}"), "s")
        put("threshold.partial_decrypt.calls",
            ncalls("threshold.partial_decrypt"), "count")

        for fn in ("serialize_ciphertext", "deserialize_ciphertext",
                   "serialize_partial_dec", "deserialize_partial_dec"):
            put(f"wire.{fn}.self_s", selfs(f"wire.{fn}"), "s")
        put("wire.messages", counts.get("wire.messages"), "count")
        for kind in ("ciphertext", "partial_dec", "pk_share"):
            put(f"wire.bytes.{kind}", counts.get(f"wire.bytes.{kind}"), "bytes")
        residues = counts.get("wire.ciphertext_residues")
        if residues:
            put("wire.bytes_per_residue",
                counts["wire.bytes.ciphertext"] / residues, "bytes")

        put("harness.run_setup.s", totals("harness.run_setup"), "s")
        put("harness.synthesize_update.self_s",
            selfs("harness.synthesize_update"), "s")
        if "harness.client_input_step" in calls:
            put("harness.client_input_step.per_call_s",
                total["harness.client_input_step"]
                / calls["harness.client_input_step"], "s")
        put("harness.aggregator_eval_step.s",
            totals("harness.aggregator_eval_step"), "s")
        put("harness.output_step.s", totals("harness.output_step"), "s")
        put("harness.cleartext_oracle.self_s",
            selfs("harness.cleartext_oracle"), "s")
        put("harness.run_protocol.self_s", selfs("harness.run_protocol"), "s")
        reported = counts.get("harness.reported_total_s")
        if reported is not None and "harness.run_protocol" in total:
            put("harness.untimed_s",
                total["harness.run_protocol"] - reported, "s")

        put("planner.plan.self_s", selfs("planner.plan"), "s")
        put("config.parse_config.self_s", selfs("config.parse_config"), "s")
        if "harness.run_protocol" in total:
            put("cli.artifacts_s", main_s - total["harness.run_protocol"], "s")
        return out

    def per_call_ms(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive ms per call, self ms per call)."""
        return {name: (n, self.total_s[name] * 1e3 / n,
                       self.self_s[name] * 1e3 / n)
                for name, n in self.calls.items() if n}


# ---------------------------------------------------------------------------
# work counters, run after the wrapped call returns


def _hook_read(tracer, args, kwargs, result, span):
    if tracer.stack:
        tracer.stack[-1].rng_bytes += len(result)
    return {"rng.read.bytes": len(result)}


def _hook_transform(tracer, args, kwargs, result, span):
    # any batch shape: rows of n residues, n/2 butterflies per row per stage
    n = result.shape[-1]
    return {"ntt.butterflies": result.size // 2 * (n.bit_length() - 1)}


def _hook_crt_lift(tracer, args, kwargs, result, span):
    return {"ring.crt_lift.coeffs": len(result)}


def _draw_bytes(width: int) -> int:
    """Bytes per rejection draw of a value below `width`."""
    return ((width - 1).bit_length() + 7) // 8


def _sampler_hook(name: str, draw_bytes):
    def hook(tracer, args, kwargs, result, span):
        size = (len(result) if isinstance(result, list)
                else result.params.n)
        per_draw = draw_bytes(args, kwargs, result)
        if not (per_draw and span.rng_bytes):
            return {}
        return {f"ring.{name}.kept": size,
                f"ring.{name}.draws": span.rng_bytes // per_draw}
    return hook


def _uniform_draw(args, kwargs, result):
    return _draw_bytes(result.params.q)


def _gaussian_draw(args, kwargs, result):
    return _GAUSSIAN_DRAW_BYTES


def _smudging_draw(args, kwargs, result):
    b = int(args[1] if len(args) > 1 else kwargs["b_smg"])
    return _draw_bytes(2 * b + 1) if b > 0 else 0


def _wire_hook(kind: str):
    def hook(tracer, args, kwargs, result, span):
        counts = {"wire.messages": 1, f"wire.bytes.{kind}": len(result)}
        if kind == "ciphertext":
            ct = args[0] if args else next(iter(kwargs.values()))
            counts["wire.ciphertext_residues"] = (ct.c0.residues.size
                                                  + ct.c1.residues.size)
        return counts
    return hook


def _hook_run_protocol(tracer, args, kwargs, result, span):
    return {"harness.reported_total_s": result.timings["total"]}


_HOOKS = {
    "ntt.forward": _hook_transform,
    "ntt.inverse": _hook_transform,
    "ring.crt_lift": _hook_crt_lift,
    "ring.sample_uniform": _sampler_hook("sample_uniform", _uniform_draw),
    "ring.sample_gaussian": _sampler_hook("sample_gaussian", _gaussian_draw),
    "ring.sample_smudging": _sampler_hook("sample_smudging", _smudging_draw),
    "wire.serialize_ciphertext": _wire_hook("ciphertext"),
    "wire.serialize_partial_dec": _wire_hook("partial_dec"),
    "wire.serialize_pk_share": _wire_hook("pk_share"),
    "harness.run_protocol": _hook_run_protocol,
}
