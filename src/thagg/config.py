"""Config file parsing: INI-style key/value sections, unknown keys rejected.

Two sections drive a run: [plan] carries the planner inputs, [protocol]
the protocol-level settings. The security verdict comes from the shipped
table alone (`planner.SECURITY_MAX_Q_BITS`); `enforce_security = false`
runs past a failing one.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .errors import ConfigError
from .planner import MBFV, MCKKS, PlanInputs
from .wire import MAX_PARTIES

_PROTOCOL_KEYS = {
    "scheme", "model_size", "root_seed", "fixed_point_bits", "rounds",
    "enforce_security",
}
_PLAN_KEYS = {
    "n", "parties", "sigma", "noise_bound", "lambda", "t_bits",
    "eps_inv_bits",
}


@dataclass(frozen=True)
class ProtocolConfig:
    scheme: str
    plan_inputs: PlanInputs
    model_size: int
    root_seed: int
    fixed_point_bits: int = 8
    rounds: int = 1
    enforce_security: bool = True

    @property
    def parties(self) -> int:
        return self.plan_inputs.parties

    @property
    def n(self) -> int:
        return self.plan_inputs.n


def _get_int(section, key, default=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


def _get_bool(section, key, default: bool) -> bool:
    raw = section.get(key)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def parse_config(text: str) -> ProtocolConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    known_sections = {"protocol", "plan"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "protocol" not in parser or "plan" not in parser:
        raise ConfigError("config needs [protocol] and [plan] sections")

    proto = parser["protocol"]
    bad = set(proto.keys()) - _PROTOCOL_KEYS
    if bad:
        raise ConfigError(f"unknown keys in [protocol]: {sorted(bad)}")
    plan_sec = parser["plan"]
    bad = set(plan_sec.keys()) - _PLAN_KEYS
    if bad:
        raise ConfigError(f"unknown keys in [plan]: {sorted(bad)}")

    scheme = proto.get("scheme", "").strip().lower()
    if scheme not in (MBFV, MCKKS):
        raise ConfigError(f"scheme must be {MBFV} or {MCKKS}, got {scheme!r}")

    n = _get_int(plan_sec, "n")
    try:
        plan_inputs = PlanInputs.create(
            n,
            _get_int(plan_sec, "parties"),
            plan_sec.get("sigma", "3.2"),
            _get_int(plan_sec, "lambda", 0),
            bound=plan_sec.get("noise_bound"),
            t_bits=(_get_int(plan_sec, "t_bits")
                    if plan_sec.get("t_bits") else None),
            eps_inv_bits=(_get_int(plan_sec, "eps_inv_bits")
                          if plan_sec.get("eps_inv_bits") else None),
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad [plan] values: {exc}") from exc
    if scheme == MBFV and plan_inputs.t_bits is None:
        raise ConfigError("mbfv needs t_bits in [plan]")
    if scheme == MCKKS and plan_inputs.eps_inv_bits is None:
        raise ConfigError("mckks needs eps_inv_bits in [plan]")

    cfg = ProtocolConfig(
        scheme=scheme,
        plan_inputs=plan_inputs,
        model_size=_get_int(proto, "model_size", n),
        root_seed=_get_int(proto, "root_seed", 1),
        fixed_point_bits=_get_int(proto, "fixed_point_bits", 8),
        rounds=_get_int(proto, "rounds", 1),
        enforce_security=_get_bool(proto, "enforce_security", True),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ProtocolConfig) -> None:
    if cfg.model_size < 1:
        raise ConfigError("model_size must be >= 1")
    if cfg.rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if cfg.root_seed < 0:
        raise ConfigError("root_seed must be non-negative")
    n, i = cfg.n, cfg.plan_inputs
    if n < 4 or n & (n - 1):
        raise ConfigError(f"n must be a power of two >= 4, got {n}")
    if cfg.parties > MAX_PARTIES:
        raise ConfigError(f"parties must be at most {MAX_PARTIES}, the "
                          f"largest party index a message carries, got "
                          f"{cfg.parties}")
    for key, bits in (("t_bits", i.t_bits), ("eps_inv_bits", i.eps_inv_bits),
                      ("fixed_point_bits", cfg.fixed_point_bits)):
        if bits is not None and bits < 0:
            raise ConfigError(f"{key} must be non-negative, got {bits}")
    if cfg.scheme == MBFV:
        p, t_bits, parties = (cfg.fixed_point_bits, cfg.plan_inputs.t_bits,
                              cfg.parties)
        # updates live in (-1, 1]: parties * 2^p * 1 must stay under t/2
        if parties * (1 << p) * 2 >= (1 << t_bits):
            raise ConfigError(
                f"fixed_point_bits={p} too large: {parties} * 2^{p} "
                f">= 2^{t_bits}/2; lower it or raise t_bits")


def with_parties(cfg: ProtocolConfig, parties: int) -> ProtocolConfig:
    """`cfg` with another party count, checked as `parse_config` checks a
    file: the plan inputs and the fixed-point headroom for that count."""
    i = cfg.plan_inputs
    inputs = PlanInputs.create(i.n, parties, i.sigma, i.lam, bound=i.bound,
                               t_bits=i.t_bits, eps_inv_bits=i.eps_inv_bits)
    out = replace(cfg, plan_inputs=inputs)
    _validate(out)
    return out


def config_text(cfg: ProtocolConfig) -> str:
    """Canonical text form of a config (used in transcripts). Rationals
    print as `Fraction` prints them: `num`, or `num/den` in lowest terms."""
    i = cfg.plan_inputs
    lines = [
        f"scheme = {cfg.scheme}",
        f"n = {i.n}",
        f"parties = {i.parties}",
        f"sigma = {i.sigma}",
        f"noise_bound = {i.bound}",
        f"lambda = {i.lam}",
        f"t_bits = {i.t_bits if i.t_bits is not None else '-'}",
        f"eps_inv_bits = {i.eps_inv_bits if i.eps_inv_bits is not None else '-'}",
        f"model_size = {cfg.model_size}",
        f"root_seed = {cfg.root_seed}",
        f"fixed_point_bits = {cfg.fixed_point_bits}",
        f"rounds = {cfg.rounds}",
        f"enforce_security = {'true' if cfg.enforce_security else 'false'}",
    ]
    return "\n".join(lines)
