"""Simulated federated private-average aggregation over an in-process bus.

One run drives Setup / Input / Evaluation / Output over L clients plus an
aggregator on synthetic model vectors. Every protocol message crosses the
byte-counted message bus in its wire format, so serialization is exercised
end to end: a client hands over the messages it posted, and the
aggregator checks them all, then adds them into its running sum.
The aggregator object only ever holds public material; it has no field
that could carry a secret share. A client is its key share: a round's
update is synthesized for its client's turn and dropped once encrypted,
and re-derived from the root seed, one at a time, for the cleartext
oracle.

Timings are wall-clock and hardware-bound; they are reported next to the
transcript but kept out of it, so a fixed root seed reproduces the
transcript byte for byte. Decoding a client's messages is the
aggregator's work, timed as aggregation, not as encryption.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import ring as rg
from . import wire
from .config import ProtocolConfig, config_text
from .errors import LengthMismatchError, ProtocolFailure
from .exact import (Ratios, binary_places, scaled_round_array,
                    scaled_round_ints, slices)
from .planner import MBFV, PlanReport, plan
from .rng import Xof
from .schemes import (
    BFV,
    CKKS,
    Ciphertext,
    PublicKey,
    SchemeParams,
    bfv_round,
    ckks_scale_down,
    decode_fixed,
    encode_fixed,
    encode_real,
    encrypt,
    setup,
)
from .threshold import (
    SecretShare,
    check_parties,
    combine_decrypt,
    combine_pk,
    crs_expand,
    gen_share,
    partial_decrypt,
    pk_share,
    switch_c0,
)

# Most residue bytes per batched ring operation (`group_layout`), at 4 bytes
# a uint32 residue. A transform call has a fixed cost that a batch of small
# chunks shares, while stacking large ones only slows them (measurements in
# the `ntt` notes): 8 chunks of 2 x 2048 per call, one chunk of 5 x 16384.
# With the kernels' ufunc buffer cut to a tile, 16 chunks of 2 x 2048 cost
# about what 8 do per chunk (0.21 against 0.23 ms per inverse) and 32 cost
# more (0.30 ms).
BATCH_BYTES = 128 << 10

# the timed phases, in report order, and their labels
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


class Aggregator:
    """Holds only public data: the parameters, the senders and the round's
    running sum, one ciphertext whose batch axis is the chunk index.

    A submission is a client's ciphertext messages, one per chunk in chunk
    order. `receive` decodes and checks every message first, as read-only
    views into the messages; only a submission that passes all checks is
    added, chunk by chunk, in place into the sum (`aggregator_eval_step`),
    a fold that cannot fail. So a refused submission leaves the sum and the
    senders as they were, and no message is decoded twice. The sum of
    `chunks` rows is allocated once, zeroed, with the aggregator.
    `evaluate` releases the sum only if each of the parties 1..L submitted
    once: the round's capacity rule, since the plan sizes the noise for a
    sum of one fresh ciphertext a party. A submission beyond L or one of
    the wrong message count fails at once with its typed error.
    """

    def __init__(self, parties: int, params: SchemeParams, chunks: int):
        self.parties = parties
        self.params = params
        self.senders: list[int] = []
        self.total = Ciphertext(c0=rg.zero(params.dec_ring, lead=(chunks,)),
                                c1=rg.zero(params.ring, lead=(chunks,)))

    def receive(self, sender: int, messages: list[bytes]) -> None:
        senders = self.senders + [sender]
        if len(senders) > self.parties:  # fails at once, not at evaluate
            check_parties(senders, self.parties, "ciphertext submission")
        want = len(self.total.c1.residues)
        if len(messages) != want:
            raise LengthMismatchError(
                f"party {sender} submitted {len(messages)} messages, want "
                f"{want}")
        cts = [wire.deserialize_ciphertext(blob, self.params)
               for blob in messages]
        aggregator_eval_step(self.total, cts)
        self.senders = senders

    def evaluate(self) -> Ciphertext:
        check_parties(self.senders, self.parties, "ciphertext submission")
        return self.total


@dataclass
class SetupArtifacts:
    report: PlanReport
    params: SchemeParams
    crs: rg.RingElement
    shares: list[SecretShare]
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
        for part in slices(len(agg)):
            terms = agg[part].terms()
            h.update("".join(f"{v}\n" for v in terms).encode())
        return h.hexdigest()

    def to_text(self) -> str:
        """Canonical transcript; replaying the seed reproduces it exactly."""
        err = self.max_error
        lines = [
            "format = thagg-transcript-v2",
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
        return "".join(f"{label}: {self.timings[key]:.3f} s\n"
                       for key, label in PHASE_LABELS.items())


# ---------------------------------------------------------------------------
# protocol steps


def derive_scheme_params(cfg: ProtocolConfig) -> tuple[PlanReport, SchemeParams]:
    report = plan(cfg.plan_inputs, cfg.scheme,
                  enforce_security=cfg.enforce_security)
    i = cfg.plan_inputs
    common = dict(sigma=i.sigma, bound=i.bound, primes=report.primes,
                  kappa=i.parties, bounds=report.bounds,
                  dec_limbs=len(report.dec_primes))
    if cfg.scheme == MBFV:
        params = setup(BFV, i.n, t=1 << i.t_bits, **common)
    else:
        params = setup(CKKS, i.n, eps_inv=1 << i.eps_inv_bits, **common)
    return report, params


def run_setup(cfg: ProtocolConfig, bus: MessageBus | None = None,
              root: Xof | None = None) -> SetupArtifacts:
    """Plan, expand the CRS, generate shares, and combine the public key."""
    bus = MessageBus() if bus is None else bus
    root = Xof.from_seed(cfg.root_seed) if root is None else root
    report, params = derive_scheme_params(cfg)
    crs = crs_expand(root.child("crs").read(32), params.ring)

    shares = []
    pk_blobs = []
    for i in range(1, cfg.parties + 1):
        share = gen_share(params, i, root.child(f"client/{i}/share"))
        shares.append(share)
        piece = pk_share(params, share, crs, root.child(f"client/{i}/pk"))
        pk_blobs.append(bus.post("pk_share", f"client{i}",
                                 wire.serialize_pk_share(piece)))
    shares_rx = [wire.deserialize_pk_share(blob, params) for blob in pk_blobs]
    cpk = combine_pk(params, shares_rx, crs, cfg.parties)
    return SetupArtifacts(report=report, params=params, crs=crs,
                          shares=shares, cpk=cpk)


def synthesize_update(cfg: ProtocolConfig, root: Xof, client_index: int,
                      round_index: int) -> np.ndarray:
    """Deterministic stand-in for a local training step: reals in (-1, 1]."""
    stream = root.child(f"round/{round_index}/client/{client_index}/update")
    update = stream.float_open01(cfg.model_size)
    update *= 2.0  # in place: the same values as w * 2 - 1, one array
    update -= 1.0
    return update


def group_layout(model_size: int, ring: rg.RingParams) -> list[range]:
    """The chunk groups of a submission of `model_size` values: its
    ceil(N/n) chunk indices on `ring`, in consecutive groups of as many whole
    chunks as fit in BATCH_BYTES of uint32 residues, and at least one."""
    chunks = -(-model_size // ring.n)
    per = max(1, BATCH_BYTES // (4 * len(ring.primes) * ring.n))
    return [range(lo, min(lo + per, chunks)) for lo in range(0, chunks, per)]


def client_input_step(cfg: ProtocolConfig, params: SchemeParams, index: int,
                      update: np.ndarray, cpk: PublicKey, root: Xof,
                      round_index: int, bus: MessageBus) -> list[bytes]:
    """Chunk party `index`'s update of N = `cfg.model_size` values into
    ceil(N/n) ciphertexts under the collective key, each sent with c0
    already rounded to the decryption modulus q'.

    Each group of chunks (`group_layout`) is encoded and encrypted as one
    batch, read as a view of the update: only a group whose last chunk is
    short of n values is copied, zero-padded. Every chunk still draws its
    randomness from its own stream and goes out as its own message. The
    messages posted are returned, one per chunk in chunk order, for the
    aggregator to decode.
    """
    if update.shape != (cfg.model_size,):
        raise LengthMismatchError(f"update of shape {update.shape}, want "
                                  f"({cfg.model_size},)")
    n = params.ring.n
    out = []
    for group in group_layout(cfg.model_size, params.ring):
        block = update[group.start * n : group.stop * n]
        if block.size < len(group) * n:
            block = np.pad(block, (0, len(group) * n - block.size))
        block = block.reshape(len(group), n)
        pt = (encode_fixed(block, cfg.fixed_point_bits, params)
              if cfg.scheme == MBFV else encode_real(block, params))
        rngs = [root.child(f"round/{round_index}/client/{index}/enc/{c}")
                for c in group]
        batch = switch_c0(params, encrypt(params, cpk, pt, rngs))
        for c0, c1 in zip(rg.unstack(batch.c0), rg.unstack(batch.c1)):
            blob = wire.serialize_ciphertext(Ciphertext(c0=c0, c1=c1),
                                             params)
            out.append(bus.post("ciphertext", f"client{index}", blob))
    return out


def aggregator_eval_step(total: Ciphertext, cts: list[Ciphertext]) -> None:
    """One submission's chunk ciphertexts, in chunk order, added in place
    into the running sum: chunk i's c0 and c1 into row i. The caller has
    checked the rings and the count."""
    for c0, c1, ct in zip(rg.unstack(total.c0), rg.unstack(total.c1), cts):
        rg.add_into(c0, ct.c0)
        rg.add_into(c1, ct.c1)


def output_step(cfg: ProtocolConfig, params: SchemeParams,
                shares: list[SecretShare], total: Ciphertext, root: Xof,
                round_index: int, bus: MessageBus) -> Ratios:
    """Collective decryption of each chunk's row of the round's sum, then
    per-scheme finalization; a sum of another chunk count is refused first.

    Partial decryptions travel and are combined, with the clients' summed
    c0, at the decryption modulus q' (`params.dec_ring`), not at q. A group
    of rows (`group_layout`) has its c1 transformed once and each party
    decrypts it as one batch, each chunk's smudging drawn from its own
    stream at the plan's b_smg (`params.bounds`). Shares go out and are
    combined one per chunk and party: every party's for a chunk, then the
    next.
    """
    groups = group_layout(cfg.model_size, params.ring)
    got = {el.residues.shape[:-2] for el in (total.c0, total.c1)}
    if got != {(groups[-1].stop,)}:
        raise LengthMismatchError(f"a sum of batch shape {sorted(got)}, want "
                                  f"({groups[-1].stop},): a row per chunk")
    parts: list[Ratios] = []
    c0s = rg.unstack(total.c0)
    for group in groups:
        rows = slice(group.start, group.stop)  # views of the sum's rows
        c1 = rg.to_ntt(replace(total.c1, residues=total.c1.residues[rows]))
        blobs = []  # per party, its shares of the group, chunk by chunk
        for share in shares:
            part = partial_decrypt(params, share, c1, [
                root.child(f"round/{round_index}/client/{share.index}/pdec/{c}")
                for c in group])
            blobs.append([wire.serialize_partial_dec(replace(part, h=h))
                          for h in rg.unstack(part.h)])
        for c0, chunk_blobs in zip(c0s[rows], zip(*blobs)):
            partials = [wire.deserialize_partial_dec(
                bus.post("partial_dec", f"client{share.index}", blob),
                params) for share, blob in zip(shares, chunk_blobs)]
            d = combine_decrypt(params, c0, partials, cfg.parties)
            if cfg.scheme == MBFV:
                parts.append(decode_fixed(bfv_round(params, d),
                                          cfg.fixed_point_bits, cfg.parties))
            else:
                parts.append(ckks_scale_down(params, d))
    return Ratios.concat(parts)[: cfg.model_size]


def cleartext_oracle(cfg: ProtocolConfig,
                     updates: Iterable[np.ndarray]) -> Ratios:
    """What the protocol should open: the cleartext average of updates in
    [-1, 1], folded one update at a time.

    MBFV averages on the fixed-point grid (exact target); MCKKS against the
    exact rational average of the raw updates. Both are sums of
    floor(w * 2^p + 1/2) over 2^p * L: p is the fixed-point bits, or the
    finest binary place of any update so far, every term then exact. The
    running MCKKS sum is rescaled exactly when an update needs a finer
    place. |sum| <= L * 2^p: int64 below 2^61, Python ints beyond.
    """
    L = cfg.parties
    p = cfg.fixed_point_bits if cfg.scheme == MBFV else 0
    total = np.zeros(cfg.model_size, dtype=np.int64)
    parts = slices(cfg.model_size)
    for w in updates:
        if (w.shape != total.shape
                or max(w.max(initial=0.0), -w.min(initial=0.0)) > 1):
            raise ValueError(f"the cleartext oracle takes updates of "
                             f"{cfg.model_size} values in [-1, 1]")
        k = p if cfg.scheme == MBFV else max(
            [p] + [binary_places(w[part]) for part in parts])
        if total.dtype != object and L << k >= 1 << 61:
            total = total.astype(object)
        if k > p:
            total <<= k - p
            p = k
        wide = total.dtype == object
        for part in parts:  # temporaries of one slice, not of the update
            total[part] += (scaled_round_ints if wide
                            else scaled_round_array)(w[part], p)
        del w  # one update alive: the next is made once this one is gone
    return Ratios(total, (1 << p) * L)


def _check_error(cfg: ProtocolConfig, params: SchemeParams, error: Fraction,
                 round_index: int) -> None:
    """Raise ProtocolFailure unless a round's opened average meets the plan:
    MBFV exactly, MCKKS within b_ct_mp/delta."""
    if cfg.scheme == MBFV:
        ok, want = error == 0, "0"
    else:
        bound = params.bounds.b_ct_mp / params.delta
        ok, want = error < bound, f"below b_ct_mp/delta = {float(bound):.6e}"
    if not ok:
        raise ProtocolFailure(f"round {round_index}: max_error "
                              f"{float(error):.6e} misses the plan: it must "
                              f"be {want}")


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
    parties = range(1, cfg.parties + 1)
    for r in range(cfg.rounds):
        agg = Aggregator(cfg.parties, art.params,
                         -(-cfg.model_size // art.params.ring.n))
        for i in parties:
            update = synthesize_update(cfg, root, i, r)
            t1 = time.perf_counter()
            messages = client_input_step(cfg, art.params, i, update, art.cpk,
                                         root, r, bus)
            t2 = time.perf_counter()
            agg.receive(i, messages)  # decoding counts as aggregation
            t_agg += time.perf_counter() - t2
            t_enc += t2 - t1
            del update, messages  # folded in; free before the next turn
        summed = agg.evaluate()

        t3 = time.perf_counter()
        aggregate = output_step(cfg, art.params, art.shares, summed, root,
                                r, bus)
        t_dec += time.perf_counter() - t3
        del agg, summed  # opened: the check needs only the updates

        error = aggregate.max_abs_diff(cleartext_oracle(
            cfg, (synthesize_update(cfg, root, i, r) for i in parties)))
        _check_error(cfg, art.params, error, r)
        max_error = max(max_error, error)

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
