"""Simulated federated private-average aggregation over an in-process bus.

One run drives Setup / Input / Evaluation / Output over L clients plus an
aggregator on synthetic model vectors. Every protocol message crosses the
byte-counted message bus in its wire format, so serialization is exercised
end to end. The aggregator object only ever holds public material; it has
no field that could carry a secret share.

Timings are wall-clock and hardware-bound; they are reported next to the
transcript but kept out of it, so a fixed root seed reproduces the
transcript byte for byte.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import ring as rg
from . import wire
from .config import ProtocolConfig, config_text
from .errors import LengthMismatchError
from .exact import Ratios, binary_places, scaled_round, scaled_round_array
from .planner import MBFV, PlanReport, plan
from .rng import Xof
from .schemes import (
    BFV,
    CKKS,
    Ciphertext,
    PublicKey,
    SchemeParams,
    add,
    decode_fixed,
    encode_fixed,
    encode_real,
    encrypt,
    setup,
)
from .threshold import (
    Crs,
    SecretShare,
    SmudgeParams,
    combine_decrypt,
    combine_pk,
    crs_expand,
    finalize_bfv,
    finalize_ckks,
    gen_share,
    partial_decrypt,
    pk_share,
)

# Values per slice when the aggregate digest is hashed.
DIGEST_SLICE = 4096

PHASES = ("collective_keygen", "encryption", "aggregation",
          "collective_decryption", "total")

PHASE_LABELS = {
    "collective_keygen": "Col. Key Gen.",
    "encryption": "Encryption",
    "aggregation": "Aggregation",
    "collective_decryption": "Col. Dec.",
    "total": "Total runtime",
}


@dataclass(frozen=True)
class MessageRecord:
    seq: int
    kind: str
    sender: str
    size: int


class MessageBus:
    """Synchronous in-process transport; logs (kind, sender, byte size)."""

    def __init__(self):
        self.records: list[MessageRecord] = []

    def post(self, kind: str, sender: str, blob: bytes) -> bytes:
        self.records.append(
            MessageRecord(seq=len(self.records), kind=kind, sender=sender,
                          size=len(blob)))
        return blob


@dataclass
class ClientState:
    """One client: its key share and its update."""

    index: int
    share: SecretShare
    update: np.ndarray | None = None


class Aggregator:
    """Holds only public parameters and the running chunk-wise sum.

    Each submission is added in as it arrives, so at most one client's
    ciphertexts are held besides the sum.
    """

    def __init__(self, params: SchemeParams):
        self.params = params
        self.total: list[Ciphertext] | None = None

    def receive(self, sender: int, cts: list[Ciphertext]) -> None:
        self.total = (cts if self.total is None
                      else aggregator_eval_step([self.total, cts]))

    def evaluate(self) -> list[Ciphertext]:
        if self.total is None:
            raise LengthMismatchError("no client submissions")
        return self.total


@dataclass
class SetupArtifacts:
    report: PlanReport
    params: SchemeParams
    crs: Crs
    clients: list[ClientState]
    cpk: PublicKey


@dataclass
class Transcript:
    """Deterministic protocol record plus (excluded) wall-clock timings."""

    cfg: ProtocolConfig
    log2_q: int
    primes: tuple[int, ...]
    messages: list[MessageRecord]
    aggregate: Ratios
    max_error: Fraction
    timings: dict = field(default_factory=dict)

    def aggregate_digest(self) -> str:
        """sha256 of every term followed by a newline, hashed slice by slice
        so that the terms of the whole aggregate are never held at once."""
        h, agg = hashlib.sha256(), self.aggregate
        for lo in range(0, len(agg), DIGEST_SLICE):
            terms = agg[lo : lo + DIGEST_SLICE].terms()
            h.update("".join(f"{v}\n" for v in terms).encode())
        return h.hexdigest()

    def to_text(self) -> str:
        """Canonical transcript; replaying the seed reproduces it exactly."""
        err = self.max_error
        lines = [
            "format = thagg-transcript-v1",
            config_text(self.cfg),
            f"log2_q = {self.log2_q}",
            f"primes = {','.join(str(p) for p in self.primes)}",
            "",
            "[messages]",
        ]
        for m in self.messages:
            lines.append(f"{m.seq} {m.kind} {m.sender} {m.size}")
        head = ",".join(self.aggregate[:8].terms())
        lines += [
            "",
            "[result]",
            f"coordinates = {len(self.aggregate)}",
            f"max_error = {err.numerator}/{err.denominator}",
            f"max_error_approx = {float(err):.6e}",
            f"aggregate_sha256 = {self.aggregate_digest()}",
            f"aggregate_head = {head}",
        ]
        return "\n".join(lines) + "\n"

    def timings_text(self) -> str:
        lines = []
        for key in PHASES:
            lines.append(f"{PHASE_LABELS[key]}: {self.timings[key]:.3f} s")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# protocol steps


def derive_scheme_params(cfg: ProtocolConfig) -> tuple[PlanReport, SchemeParams]:
    report = plan(cfg.plan_inputs, cfg.scheme,
                  enforce_security=cfg.enforce_security,
                  security_table=cfg.security_table)
    i = cfg.plan_inputs
    if cfg.scheme == MBFV:
        params = setup(BFV, i.n, sigma=i.sigma, bound=i.bound,
                       t=1 << i.t_bits, primes=report.primes,
                       kappa=i.parties, mp_noise_bound=report.bounds.b_ct_mp)
    else:
        params = setup(CKKS, i.n, sigma=i.sigma, bound=i.bound,
                       eps_inv=1 << i.eps_inv_bits, primes=report.primes,
                       kappa=i.parties, mp_noise_bound=report.bounds.b_ct_mp)
    return report, params


def run_setup(cfg: ProtocolConfig, bus: MessageBus | None = None,
              root: Xof | None = None) -> SetupArtifacts:
    """Plan, expand the CRS, generate shares, and combine the public key."""
    bus = MessageBus() if bus is None else bus
    root = Xof.from_seed(cfg.root_seed) if root is None else root
    report, params = derive_scheme_params(cfg)
    crs = crs_expand(root.child("crs").read(32), params.ring)

    clients = []
    pk_blobs = []
    for i in range(1, cfg.parties + 1):
        share = gen_share(params, i, root.child(f"client/{i}/share"))
        clients.append(ClientState(index=i, share=share))
        piece = pk_share(params, share, crs, root.child(f"client/{i}/pk"))
        pk_blobs.append(bus.post("pk_share", f"client{i}",
                                 wire.serialize_pk_share(piece)))
    shares_rx = [wire.deserialize_pk_share(blob, params) for blob in pk_blobs]
    cpk = combine_pk(params, shares_rx, crs, cfg.parties)
    return SetupArtifacts(report=report, params=params, crs=crs,
                          clients=clients, cpk=cpk)


def chunk_count(model_size: int, n: int) -> int:
    return -(-model_size // n)


def synthesize_update(cfg: ProtocolConfig, root: Xof, client_index: int,
                      round_index: int) -> np.ndarray:
    """Deterministic stand-in for a local training step: reals in (-1, 1]."""
    stream = root.child(f"round/{round_index}/client/{client_index}/update")
    return stream.float_open01(cfg.model_size) * 2.0 - 1.0


def client_input_step(cfg: ProtocolConfig, params: SchemeParams,
                      client: ClientState, cpk: PublicKey, root: Xof,
                      round_index: int, bus: MessageBus) -> list[Ciphertext]:
    """Chunk the update into ceil(N/n) ciphertexts under the collective key."""
    n = params.ring.n
    w = client.update
    chunks = chunk_count(cfg.model_size, n)
    out = []
    for c in range(chunks):
        piece = w[c * n : (c + 1) * n]
        if piece.size < n:
            piece = np.concatenate([piece, np.zeros(n - piece.size)])
        if cfg.scheme == MBFV:
            pt = encode_fixed(piece, cfg.fixed_point_bits, params)
        else:
            # normalize by L up front so the homomorphic sum is the average
            pt = encode_real(piece / cfg.parties, params)
        rng = root.child(
            f"round/{round_index}/client/{client.index}/enc/{c}")
        ct = encrypt(params, cpk, pt, rng)
        blob = bus.post("ciphertext", f"client{client.index}",
                        wire.serialize_ciphertext(ct))
        out.append(wire.deserialize_ciphertext(blob, params))
    return out


def aggregator_eval_step(ct_lists: list[list[Ciphertext]]) -> list[Ciphertext]:
    """Chunk-wise homomorphic sum across clients: L-1 additions per chunk."""
    if not ct_lists:
        raise LengthMismatchError("no client submissions")
    length = len(ct_lists[0])
    for lst in ct_lists:
        if len(lst) != length:
            raise LengthMismatchError(
                f"submission lengths differ: {len(lst)} vs {length}")
    out = []
    for c in range(length):
        acc = ct_lists[0][c]
        for lst in ct_lists[1:]:
            acc = add(acc, lst[c])
        out.append(acc)
    return out


def output_step(cfg: ProtocolConfig, params: SchemeParams,
                clients: list[ClientState], agg_cts: list[Ciphertext],
                report: PlanReport, root: Xof, round_index: int,
                bus: MessageBus) -> Ratios:
    """Collective decryption of every chunk, then per-scheme finalization."""
    b = report.bounds
    smudge = SmudgeParams(parties=cfg.parties, b_ct=b.b_ct, b_smg=b.b_smg)
    parts: list[Ratios] = []
    for c, ct in enumerate(agg_cts):
        # every party multiplies by the same c1: transform it once
        ct = replace(ct, c1=rg.to_ntt(ct.c1))
        partials = []
        for client in clients:
            rng = root.child(
                f"round/{round_index}/client/{client.index}/pdec/{c}")
            part = partial_decrypt(params, client.share, ct, smudge, rng)
            blob = bus.post("partial_dec", f"client{client.index}",
                            wire.serialize_partial_dec(part))
            partials.append(wire.deserialize_partial_dec(blob, params))
        d = combine_decrypt(params, ct, partials, cfg.parties)
        if cfg.scheme == MBFV:
            pt = finalize_bfv(params, d)
            parts.append(decode_fixed(pt, cfg.fixed_point_bits, cfg.parties))
        else:
            pt = finalize_ckks(params, d)
            parts.append(pt.values)
    return Ratios.concat(parts)[: cfg.model_size]


def _scaled_sum(updates: list[np.ndarray], d: int) -> np.ndarray:
    """Sum over clients of floor(w * 2^d + 1/2), exact.

    int64 when the sum provably fits, else Python integers (dtype object).
    """
    top = max(Fraction(float(np.abs(w).max(initial=0.0))) for w in updates)
    if top * (len(updates) << d) < 1 << 61:
        return sum(scaled_round_array(w, d) for w in updates)
    return sum(np.array([scaled_round(float(x), d) for x in w], dtype=object)
               for w in updates)


def cleartext_oracle(cfg: ProtocolConfig,
                     updates: list[np.ndarray]) -> Ratios:
    """What the protocol should open: the cleartext average.

    MBFV averages on the fixed-point grid (exact target); MCKKS against the
    exact rational average of the raw updates. Both are integer sums over
    one denominator: 2^p * L, or 2^k * L with 2^k the finest binary place
    of any update.
    """
    L = cfg.parties
    if cfg.scheme == MBFV:
        p = cfg.fixed_point_bits
    else:
        p = max(binary_places(w) for w in updates)
    return Ratios(_scaled_sum(updates, p), (1 << p) * L)


def run_protocol(cfg: ProtocolConfig) -> Transcript:
    """Setup -> (input -> evaluation -> output) x rounds, timed per phase."""
    bus = MessageBus()
    root = Xof.from_seed(cfg.root_seed)

    t0 = time.perf_counter()
    art = run_setup(cfg, bus, root)
    t_keygen = time.perf_counter() - t0

    t_enc = t_agg = t_dec = 0.0
    aggregate = Ratios([], 1)
    max_error = Fraction(0)
    for r in range(cfg.rounds):
        for client in art.clients:
            client.update = synthesize_update(cfg, root, client.index, r)

        agg = Aggregator(art.params)
        for client in art.clients:
            t1 = time.perf_counter()
            cts = client_input_step(cfg, art.params, client, art.cpk,
                                    root, r, bus)
            t2 = time.perf_counter()
            agg.receive(client.index, cts)
            t_agg += time.perf_counter() - t2
            t_enc += t2 - t1
            del cts  # folded into the sum; free it before the next client
        summed = agg.evaluate()

        t3 = time.perf_counter()
        aggregate = output_step(cfg, art.params, art.clients, summed,
                                art.report, root, r, bus)
        t_dec += time.perf_counter() - t3

        oracle = cleartext_oracle(cfg, [c.update for c in art.clients])
        max_error = max(max_error, aggregate.max_abs_diff(oracle))

    timings = {
        "collective_keygen": t_keygen,
        "encryption": t_enc,
        "aggregation": t_agg,
        "collective_decryption": t_dec,
        "total": t_keygen + t_enc + t_agg + t_dec,
    }
    return Transcript(cfg=cfg, log2_q=art.params.ring.log2_q,
                      primes=art.params.ring.primes,
                      messages=bus.records, aggregate=aggregate,
                      max_error=max_error, timings=timings)


# ---------------------------------------------------------------------------
# self-test


@dataclass
class SelfTestEntry:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SelfTestReport:
    entries: list[SelfTestEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.ok else "FAIL"
            detail = f" ({e.detail})" if e.detail else ""
            lines.append(f"{status} {e.name}{detail}")
        verdict = "all checks passed" if self.ok else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


def selftest() -> SelfTestReport:
    """Small-n property suite across all modules; failures become entries."""
    entries: list[SelfTestEntry] = []

    def check(name: str, fn) -> None:
        try:
            fn()
            entries.append(SelfTestEntry(name=name, ok=True))
        except Exception as exc:  # report, never raise: failures are content
            entries.append(SelfTestEntry(name=name, ok=False,
                                         detail=f"{type(exc).__name__}: {exc}"))

    def mul_oracle():
        from .ntt import prime_below
        from .ring import RingParams, ring_mul, ring_mul_schoolbook, sample_uniform

        for n in (4, 8, 16):
            primes = (prime_below(1 << 17, n),)
            params = RingParams.create(n, primes)
            rng = Xof.from_seed(f"selftest-mul-{n}")
            for _ in range(40):
                a = sample_uniform(params, rng)
                b = sample_uniform(params, rng)
                fast = ring_mul(a, b).residues
                slow = ring_mul_schoolbook(a, b).residues
                if not (fast == slow).all():
                    raise AssertionError(f"NTT != schoolbook at n={n}")

    def crt_roundtrip():
        from .ntt import prime_below
        from .ring import RingParams, crt_lift, from_coeffs

        primes = []
        for bits in (15, 16):
            primes.append(prime_below(1 << bits, 8, frozenset(primes)))
        params = RingParams.create(8, tuple(primes))
        rng = Xof.from_seed("selftest-crt")
        half = params.half_q
        for _ in range(50):
            coeffs = [rng.uniform_below(params.q) - half for _ in range(8)]
            coeffs = [c + params.q if c <= -half else c for c in coeffs]
            if crt_lift(from_coeffs(params, coeffs)) != coeffs:
                raise AssertionError("CRT lift does not invert decomposition")

    def planted_reject():
        # planted violation: must be reported as a rejection, not accepted
        from .errors import BoundViolationError

        try:
            setup(BFV, 1024, sigma="3.2", t=2**20, log2_q=30)
        except BoundViolationError:
            return
        raise AssertionError("expected-reject config was accepted")

    def bfv_roundtrip():
        from .schemes import bfv_plaintext, dec_bfv, pubkeygen, seckeygen

        params = setup(BFV, 64, sigma="3.2", t=257, log2_q=26)
        rng = Xof.from_seed("selftest-bfv")
        sk = seckeygen(params, rng.child("sk"))
        pk = pubkeygen(params, sk, rng.child("pk"))
        for i in range(20):
            vals = [rng.uniform_below(257) - 128 for _ in range(64)]
            pt = bfv_plaintext(params, vals)
            ct = encrypt(params, pk, pt, rng.child(f"e{i}"))
            if dec_bfv(params, sk, ct).values != vals:
                raise AssertionError("BFV round-trip failed")

    def threshold_smoke():
        from .config import parse_config

        cfg = parse_config(SMOKE_CONFIG)
        transcript = run_protocol(cfg)
        if transcript.max_error != 0:
            raise AssertionError(
                f"threshold BFV average not exact: {transcript.max_error}")

    def ordering_consistency():
        from .planner import (PlanInputs, mp_bounds, qmin_mbfv_bound,
                              qmin_mckks_bound, winner, MCKKS_SMALLER)

        inputs = PlanInputs.create(256, 4, "3.2", 8, bound="19.2")
        b = mp_bounds(inputs).b_ct_mp
        for tb in range(8, 32, 3):
            for eb in range(8, 32, 3):
                v = winner(1 << tb, 1 << eb, b) == MCKKS_SMALLER
                direct = (qmin_mckks_bound(b * (1 << eb), 1, b)
                          < qmin_mbfv_bound(1 << tb, b))
                if v != direct:
                    raise AssertionError("verdict and bound order disagree")

    check("ntt-vs-schoolbook oracle equivalence", mul_oracle)
    check("crt lift/decompose round-trip", crt_roundtrip)
    check("planted bound violation is rejected", planted_reject)
    check("single-key bfv round-trip", bfv_roundtrip)
    check("threshold bfv smoke run is exact", threshold_smoke)
    check("minimum-q ordering matches verdict", ordering_consistency)
    return SelfTestReport(entries=entries)


SMOKE_CONFIG = """\
[protocol]
scheme = mbfv
model_size = 1024
root_seed = 7
fixed_point_bits = 8
enforce_security = false

[plan]
n = 1024
parties = 2
sigma = 3.2
noise_bound = 19.2
lambda = 16
t_bits = 12
"""
