"""Protocol harness, wire formats, config parsing, CLI plumbing."""

import argparse
import dataclasses
import functools
import hashlib
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thagg import cli, harness, ntt
from thagg.config import ProtocolConfig, parse_config
from thagg.errors import (
    CapacityError,
    ConfigError,
    NoPrimesFoundError,
    DomainMismatchError,
    LengthMismatchError,
    ParamsMismatchError,
    ProtocolFailure,
    ShareSetError,
    WireFormatError,
)
from thagg.exact import SLICE, Ratios
from thagg.harness import (
    Aggregator,
    MessageBus,
    SetupArtifacts,
    Transcript,
    cleartext_oracle,
    client_input_step,
    derive_scheme_params,
    group_layout,
    output_step,
    run_protocol,
    run_setup,
    synthesize_update,
)
from thagg.planner import PlanInputs
from thagg.ring import RingParams, sample_uniform, unstack
from thagg.rng import Xof
from thagg.schemes import BFV, Ciphertext, add, encrypt, setup
from thagg.threshold import (
    PartialDecryption,
    PkShare,
    SecretShare,
    SmudgeParams,
    partial_decrypt,
)
from thagg import wire

from oracles import primes_for, stack


def make_cfg(scheme="mbfv", n=1024, parties=2, lam=16, model_size=None,
             seed=7, t_bits=12, eps_inv_bits=12, fixed_point_bits=8,
             rounds=1, sigma="3.2", bound="19.2"):
    inputs = PlanInputs.create(n, parties, sigma, lam, bound=bound,
                               t_bits=t_bits, eps_inv_bits=eps_inv_bits)
    return ProtocolConfig(
        scheme=scheme, plan_inputs=inputs,
        model_size=n if model_size is None else model_size,
        root_seed=seed, fixed_point_bits=fixed_point_bits, rounds=rounds,
        enforce_security=False)


def submit(cfg, art, root, index, bus):
    """Party `index`'s ciphertext messages of its round-0 update."""
    return client_input_step(cfg, art.params, index,
                             synthesize_update(cfg, root, index, 0), art.cpk,
                             root, 0, bus)


def decoded(art, messages):
    """A submission's messages decoded into one batch indexed by chunk,
    copied: the sum of this one submission."""
    cts = [wire.deserialize_ciphertext(blob, art.params) for blob in messages]
    return dataclasses.replace(
        cts[0], c0=stack([ct.c0 for ct in cts]),
        c1=stack([ct.c1 for ct in cts]),
        adds_consumed=max(ct.adds_consumed for ct in cts))


def summed(params, *sums):
    """Chunk-indexed sums added with `schemes.add`, the reference the
    aggregator's in-place fold is checked against."""
    return functools.reduce(functools.partial(add, params), sums)


def same_sums(got, want):
    """Chunk-indexed sums equal residue for residue, and in adds_consumed."""
    assert np.array_equal(got.c0.residues, want.c0.residues)
    assert np.array_equal(got.c1.residues, want.c1.residues)
    assert got.adds_consumed == want.adds_consumed


def aggregator(cfg, art, parties=None):
    return Aggregator(cfg.parties if parties is None else parties, art.params,
                      -(-cfg.model_size // art.params.ring.n))


# ---------------------------------------------------------------------------
# chunking


def ring_of(n, limbs):
    primes = []
    while len(primes) < limbs:
        primes.append(ntt.prime_below(1 << 30, n, frozenset(primes)))
    return RingParams.create(n, tuple(primes))


def test_chunk_count_arithmetic():
    assert group_layout(1024, ring_of(1024, 1))[-1].stop == 1
    assert group_layout(1_638_400, ring_of(16_384, 1))[-1].stop == 100
    assert group_layout(1025, ring_of(1024, 1))[-1].stop == 2


@settings(max_examples=200, deadline=None)
@given(log_n=st.integers(4, 15), limbs=st.integers(1, 8), data=st.data())
def test_group_layout_matches_the_8_byte_formula(log_n, limbs, data):
    # the layout as it was stated at 8 bytes a residue in 256 KiB:
    # ceil(N/n) chunks, max(1, 2^18 // (8kn)) of them per group
    n = 1 << log_n
    model_size = data.draw(st.integers(1, 40 * n))
    chunks = -(-model_size // n)
    per = max(1, 2**18 // (8 * limbs * n))
    assert group_layout(model_size, ring_of(n, limbs)) == [
        range(lo, min(lo + per, chunks)) for lo in range(0, chunks, per)]


# ---------------------------------------------------------------------------
# setup


def test_run_setup_smoke_and_determinism():
    cfg = make_cfg()
    a = run_setup(cfg)
    b = run_setup(cfg)
    assert np.array_equal(a.cpk.p0.residues, b.cpk.p0.residues)
    assert [sh.index for sh in a.shares] == [1, 2]
    assert a.report.log2_q == a.params.ring.log2_q


@pytest.mark.parametrize("parties", [2, 4])
def test_run_setup_forward_transforms(parties, monkeypatch):
    # one per share, one for the CRS polynomial, one for the summed p0
    calls = 0
    forward = ntt.forward

    def counted(*args):
        nonlocal calls
        calls += 1
        return forward(*args)

    monkeypatch.setattr(ntt, "forward", counted)
    run_setup(make_cfg(parties=parties))
    assert calls == parties + 2


def test_setup_artifacts_hold_each_key_once():
    art = run_setup(make_cfg(parties=3))
    assert art.cpk.p1 is art.crs
    # a client is its key share: no per-client state besides it
    assert not hasattr(harness, "ClientState")
    assert [f.name for f in dataclasses.fields(SetupArtifacts)] == [
        "report", "params", "crs", "shares", "cpk"]


def test_input_step_chunk_shapes_and_zero_vector():
    cfg = make_cfg(model_size=4096)
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(cfg.root_seed)
    zeros = np.zeros(cfg.model_size)
    batch = decoded(art, client_input_step(cfg, art.params, 1, zeros, art.cpk,
                                           root, 0, bus))
    # 4096 / 1024 chunks, in one group: c1 at q's 2 limbs, c0 at q' (1 limb)
    assert len(group_layout(4 * 1024, art.params.ring)) == 1
    assert batch.c1.residues.shape == (4, 2, 1024)
    assert batch.c0.residues.shape == (4, 1, 1024)
    assert sum(m.kind == "ciphertext" for m in bus.records) == 4
    # a zero vector opens to zero through the full threshold path
    other = decoded(art, client_input_step(cfg, art.params, 2, zeros, art.cpk,
                                           root, 0, bus))
    opened = output_step(cfg, art.params, art.shares,
                         summed(art.params, batch, other), art.report, root,
                         0, bus)
    assert list(opened) == [Fraction(0)] * cfg.model_size


@pytest.mark.parametrize("size", [4095, 4097])
def test_input_step_rejects_an_update_of_the_wrong_length(size):
    # neither zero-padded nor cut to the model size; exit 3
    cfg = make_cfg(model_size=4096)
    art = run_setup(cfg)
    bus = MessageBus()
    with pytest.raises(LengthMismatchError, match=r"\(4096,\)") as info:
        client_input_step(cfg, art.params, 1, np.zeros(size), art.cpk,
                          Xof.from_seed(1), 0, bus)
    assert isinstance(info.value, ProtocolFailure)
    assert bus.records == []


def test_eval_step_identity_and_mismatch():
    cfg = make_cfg(model_size=2048)
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(99)
    subs = [submit(cfg, art, root, sh.index, bus) for sh in art.shares]
    sums = [decoded(art, msgs) for msgs in subs]
    # a single submission: identity
    solo = aggregator(cfg, art, 1)
    solo.receive(1, subs[0])
    same_sums(solo.evaluate(), sums[0])
    with pytest.raises(ShareSetError):
        aggregator(cfg, art, 2).evaluate()


def test_aggregator_folds_submissions_as_they_arrive():
    cfg = make_cfg(parties=3, model_size=2048)
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(5)
    agg = aggregator(cfg, art)
    with pytest.raises(ShareSetError):
        agg.evaluate()
    sums = []
    for sh in art.shares:
        messages = submit(cfg, art, root, sh.index, bus)
        sums.append(decoded(art, messages))
        agg.receive(sh.index, messages)
    # no per-client store
    assert vars(agg).keys() == {"parties", "params", "senders", "total"}
    want = summed(art.params, *sums)
    got = agg.evaluate()
    # one row per chunk, each summed over the 3 clients
    assert got.adds_consumed == 2
    assert got.c1.residues.shape == (2, 2, 1024)
    same_sums(got, want)


def test_aggregation_order_does_not_change_opened_value():
    cfg = make_cfg()
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(5)
    sums = [decoded(art, submit(cfg, art, root, sh.index, bus))
            for sh in art.shares]
    fwd = output_step(cfg, art.params, art.shares, summed(art.params, *sums),
                      art.report, root.child("d1"), 0, bus)
    rev = output_step(cfg, art.params, art.shares,
                      summed(art.params, *reversed(sums)), art.report,
                      root.child("d2"), 0, bus)
    assert fwd == rev


def submissions(cfg, art):
    """Every client's ciphertext messages for round 0, by party index."""
    bus, root = MessageBus(), Xof.from_seed(cfg.root_seed)
    return {sh.index: submit(cfg, art, root, sh.index, bus)
            for sh in art.shares}


def test_aggregator_takes_each_party_exactly_once():
    # L = 3: a sender outside 1..3, a missing party, a duplicate (the case
    # of one party twice and another never is the next test)
    cfg = make_cfg(parties=3, model_size=1024)
    art = run_setup(cfg)
    subs = submissions(cfg, art)
    for senders in [(1, 2, 4), (1, 2), (3, 1, 2, 2)]:
        agg = aggregator(cfg, art)
        with pytest.raises(ShareSetError) as info:
            for i in senders:
                agg.receive(i, subs[min(i, 3)])
            agg.evaluate()
        assert isinstance(info.value, ProtocolFailure)  # exit 3
    # a submission beyond L fails as it arrives
    agg = aggregator(cfg, art)
    for _ in range(3):
        agg.receive(1, subs[1])
    with pytest.raises(ShareSetError, match=r"got \[1, 1, 1, 1\]"):
        agg.receive(1, subs[1])
    agg = aggregator(cfg, art)
    for i in (2, 3, 1):
        agg.receive(i, subs[i])
    agg.evaluate()


def test_double_submission_raises_before_output_step():
    # client 1's chunks received twice and client 3's never: the sum opens
    # far off the cleartext average, so evaluate must refuse to release it
    cfg = make_cfg(parties=3, model_size=1024)
    art = run_setup(cfg)
    subs = submissions(cfg, art)
    agg = aggregator(cfg, art)
    for i in (1, 1, 2):
        agg.receive(i, subs[i])
    with pytest.raises(ShareSetError, match=r"submission .* got \[1, 1, 2\]"):
        agg.evaluate()
    opened = output_step(cfg, art.params, art.shares, agg.total, art.report,
                         Xof.from_seed(1), 0, MessageBus())
    root = Xof.from_seed(cfg.root_seed)
    oracle = cleartext_oracle(cfg, [synthesize_update(cfg, root, i, 0)
                                    for i in (1, 2, 3)])
    assert opened.max_abs_diff(oracle) > Fraction(1, 4)


def test_rejected_submission_does_not_count_as_received():
    # party 2's chunks do not match party 1's: its submission fails, so the
    # parties 1 and 3 that were folded must not pass the party-set check
    cfg = make_cfg(parties=3, model_size=2048)
    art = run_setup(cfg)
    subs = submissions(cfg, art)
    misshaped = subs[2][:1]  # one chunk's message where the round has two
    agg = aggregator(cfg, art)
    agg.receive(1, subs[1])
    with pytest.raises(LengthMismatchError):
        agg.receive(2, misshaped)
    agg.receive(3, subs[3])
    with pytest.raises(ShareSetError, match=r"got \[1, 3\]"):
        agg.evaluate()


def test_a_misshaped_first_submission_does_not_set_the_shapes():
    # party 1 sends one chunk where the round has two: it is refused by name
    # against the chunk count the aggregator was given, and the well-formed
    # submissions of parties 2 and 3 still fold in
    cfg = make_cfg(parties=3, model_size=2048)
    art = run_setup(cfg)
    subs = submissions(cfg, art)
    ct = decoded(art, subs[1])  # c0 at q', c1 at q
    assert (ct.c0.residues.shape, ct.c1.residues.shape) == ((2, 1, 1024),
                                                            (2, 2, 1024))
    short = subs[1][:1]  # one chunk's message where the round has two
    agg = aggregator(cfg, art)
    with pytest.raises(LengthMismatchError, match="party 1 submitted"):
        agg.receive(1, short)
    assert agg.senders == [] and is_zero(agg.total)
    agg.receive(2, subs[2])
    agg.receive(3, subs[3])
    assert agg.senders == [2, 3]
    with pytest.raises(ShareSetError, match=r"got \[2, 3\]"):
        agg.evaluate()


def is_zero(total):
    """A sum as the aggregator allocates it: all zero, no addition spent."""
    return (not total.c0.residues.any() and not total.c1.residues.any()
            and total.adds_consumed == 0)


@functools.lru_cache(maxsize=None)
def three_chunks():
    """A 3-party round of 3 chunks: the config, the setup, every party's
    messages and what the round must open to."""
    cfg = make_cfg(parties=3, model_size=3072)
    art = run_setup(cfg)
    root = Xof.from_seed(cfg.root_seed)
    oracle = cleartext_oracle(cfg, [synthesize_update(cfg, root, i, 0)
                                    for i in (1, 2, 3)])
    return cfg, art, submissions(cfg, art), oracle


def open_round(cfg, art, total):
    """What a round's sum opens to, as `output_step` opens it."""
    return output_step(cfg, art.params, art.shares, total, art.report,
                       Xof.from_seed(1), 0, MessageBus())


def tampered(params, blob, fault, draw):
    """A ciphertext message made unusable: a residue on a drawn limb of c0
    or c1 set to its prime, its last byte cut off, or its version field
    changed."""
    if fault == "residue":
        ring, k_dec = params.ring, len(params.dec_ring.primes)
        in_c1 = draw(st.booleans(), label="in c1")
        limb = draw(st.integers(0, len((ring if in_c1 else params.dec_ring)
                                       .primes) - 1), label="limb")
        coeff = draw(st.integers(0, ring.n - 1), label="coefficient")
        # after the 13 + 8k header bytes, c0 on k' limbs, then c1
        at = 13 + 8 * len(ring.primes) + 4 * (
            ring.n * (k_dec * in_c1 + limb) + coeff)
        return (blob[:at] + ring.primes[limb].to_bytes(4, "little")
                + blob[at + 4:])
    if fault == "truncated":
        return blob[:-1]
    version = draw(st.integers(0, 0xFFFF).filter(lambda v: v != wire.VERSION),
                   label="version")
    return blob[:4] + version.to_bytes(2, "little") + blob[6:]


def with_adds(blob, adds):
    """A ciphertext message whose trailing adds_consumed field reads `adds`."""
    return blob[:-4] + adds.to_bytes(4, "little")


def tampered_last(art, messages, how):
    """The submission with its last message made unusable: its last c1
    residue (on the last prime) set to that prime, or adds_consumed set to
    1, a sum of two, which the wire takes but a round of fresh ciphertexts
    refuses."""
    last = messages[-1]
    if how == "residue":
        p = art.params.ring.primes[-1]
        last = last[:-8] + p.to_bytes(4, "little") + last[-4:]
    else:
        last = with_adds(last, 1)
    return messages[:-1] + [last]


@pytest.mark.parametrize("how, error", [("residue", WireFormatError),
                                        ("adds", CapacityError)])
def test_a_late_bad_message_leaves_the_sums_bit_for_bit(how, error):
    # party 2's last message is bad, after parties 1 and 3 were folded in:
    # its first two chunks are not added either, so the sums are those of
    # parties 1 and 3 alone, and party 2 can submit again; the round opens
    # exactly. A claim of one addition is refused as well, though kappa = 3
    # would hold it: the plan covers a sum of one fresh ciphertext a party
    cfg, art, subs, oracle = three_chunks()
    agg, others = (aggregator(cfg, art) for _ in range(2))
    for i in (1, 3):
        agg.receive(i, subs[i])
        others.receive(i, subs[i])
    with pytest.raises(error):
        agg.receive(2, tampered_last(art, subs[2], how))
    assert agg.senders == [1, 3]
    same_sums(agg.total, others.total)
    # a bad message in the first submission leaves the sum zero
    first = aggregator(cfg, art)
    with pytest.raises(error):
        first.receive(2, tampered_last(art, subs[2], how))
    assert first.senders == [] and is_zero(first.total)
    agg.receive(2, subs[2])
    assert open_round(cfg, art, agg.evaluate()).max_abs_diff(oracle) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_refused_submission_leaves_the_sums_bit_for_bit(data):
    # party 2's submission, the first the aggregator gets or one after
    # parties 1 and 3, has one bad message (first, middle or last). Every
    # message is checked before any is added, so the refusal leaves the
    # senders and the sums (the same arrays, bit for bit) as they were, and
    # party 2 can submit again; the round then opens exactly. A message
    # that claims additions is not fresh: the aggregator refuses up to
    # kappa, the wire above it
    cfg, art, subs, oracle = three_chunks()
    late = data.draw(st.booleans(), label="late")
    at = data.draw(st.sampled_from([0, 1, 2]), label="message")
    fault = data.draw(st.sampled_from(["residue", "adds", "truncated",
                                       "version"]), label="fault")
    bad = list(subs[2])
    error = WireFormatError
    if fault == "adds":
        kappa = art.params.kappa
        adds = data.draw(st.sampled_from([1, kappa, kappa + 1]), label="adds")
        bad[at] = with_adds(bad[at], adds)
        if adds <= kappa:
            error = CapacityError
    else:
        bad[at] = tampered(art.params, bad[at], fault, data.draw)
    earlier = [1, 3] if late else []
    agg = aggregator(cfg, art)
    for i in earlier:
        agg.receive(i, subs[i])
    sums = agg.total
    c0, c1 = sums.c0.residues, sums.c1.residues
    c0_was, c1_was, adds = c0.copy(), c1.copy(), sums.adds_consumed
    with pytest.raises(ProtocolFailure) as info:
        agg.receive(2, bad)
    assert type(info.value) is error
    assert agg.senders == earlier
    assert agg.total is sums
    assert sums.c0.residues is c0 and sums.c1.residues is c1
    assert np.array_equal(c0, c0_was) and np.array_equal(c1, c1_was)
    assert sums.adds_consumed == adds
    for i in [2] + ([] if late else [1, 3]):
        agg.receive(i, subs[i])
    assert open_round(cfg, art, agg.evaluate()).max_abs_diff(oracle) == 0


def test_receive_folds_in_place(monkeypatch):
    # the sum is allocated with the aggregator and written in place from
    # then to evaluate; every message is decoded once, and (weak
    # references) no decoded ciphertext outlives its receive
    cfg, art, subs, _ = three_chunks()
    assert all(type(m) is bytes for msgs in subs.values() for m in msgs)
    decode = wire.deserialize_ciphertext
    decoded_from, received = [], []

    def watched_decode(blob, params):
        ct = decode(blob, params)
        decoded_from.append(blob)
        received.append(weakref.ref(ct))
        return ct

    monkeypatch.setattr(wire, "deserialize_ciphertext", watched_decode)
    agg = aggregator(cfg, art)
    first = agg.total.c0.residues, agg.total.c1.residues
    assert first[0].shape == (3, 1, 1024) and first[1].shape == (3, 2, 1024)
    for i in (1, 2, 3):
        agg.receive(i, subs[i])
        assert all(ref() is None for ref in received)
        assert agg.total.c0.residues is first[0]
        assert agg.total.c1.residues is first[1]
    total = agg.evaluate()
    assert total.c0.residues is first[0] and total.c1.residues is first[1]
    assert list(map(id, decoded_from)) == [id(m) for i in (1, 2, 3)
                                           for m in subs[i]]


@pytest.mark.parametrize("rows", [2, 4])
def test_output_step_refuses_a_sum_of_the_wrong_chunk_count(rows):
    # a sum one row short of the round's 3 chunks, or one row long, is
    # refused before any party decrypts: no share is posted; a longer sum's
    # extra row is not dropped, nor is a shorter one opened
    cfg, art, subs, _ = three_chunks()
    agg = aggregator(cfg, art)
    for i in (1, 2, 3):
        agg.receive(i, subs[i])
    total = agg.evaluate()
    pick = [0, 1, 2, 0][:rows]
    wrong = dataclasses.replace(
        total, c0=dataclasses.replace(total.c0,
                                      residues=total.c0.residues[pick]),
        c1=dataclasses.replace(total.c1, residues=total.c1.residues[pick]))
    bus = MessageBus()
    with pytest.raises(LengthMismatchError, match=r"a row per chunk") as info:
        output_step(cfg, art.params, art.shares, wrong, art.report,
                    Xof.from_seed(1), 0, bus)
    assert isinstance(info.value, ProtocolFailure)  # exit 3
    assert bus.records == []


def test_the_sums_do_not_depend_on_the_group_layout(monkeypatch):
    # 18 chunks: 16 + 2 per group, or one by one. Submissions made under
    # either layout fold into the same (18, limbs, n) sums, and each sum
    # opens to the same average under either layout, the exact one
    cfg = make_cfg(parties=2, model_size=17 * 1024 + 5)
    art = run_setup(cfg)
    root = Xof.from_seed(cfg.root_seed)
    oracle = cleartext_oracle(cfg, [synthesize_update(cfg, root, i, 0)
                                    for i in (1, 2)])
    layouts = {harness.BATCH_BYTES: 2, 0: 18}  # groups under each cap
    sums = []
    for cap, groups in layouts.items():
        monkeypatch.setattr(harness, "BATCH_BYTES", cap)
        assert len(group_layout(cfg.model_size, art.params.ring)) == groups
        agg = aggregator(cfg, art)
        for i, messages in submissions(cfg, art).items():
            agg.receive(i, messages)
        sums.append(agg.evaluate())
    assert sums[0].c0.residues.shape == (18, 1, 1024)
    assert sums[0].c1.residues.shape == (18, 2, 1024)
    same_sums(sums[0], sums[1])
    for cap in layouts:
        monkeypatch.setattr(harness, "BATCH_BYTES", cap)
        for total in sums:
            assert open_round(cfg, art, total) == oracle


# ---------------------------------------------------------------------------
# full runs


def test_updates_and_sums_live_only_as_long_as_their_step(monkeypatch):
    # weak references to every update synthesized and to every round's sum
    # the output step opens: an update is gone once the next one is made,
    # for a client's turn or for the oracle, so at most one is alive at a
    # time; no sum is alive at the oracle; and the opened average reaches
    # the error check with int64 numerators, MCKKS with its factor D > 1
    synthesize = harness.synthesize_update
    open_step, oracle = harness.output_step, harness.cleartext_oracle
    check = harness._check_error
    for scheme in ("mbfv", "mckks"):
        cfg = make_cfg(scheme=scheme, parties=3, model_size=2048, rounds=2)
        updates, sums, opened, synthesized, checked = [], [], [], [], []

        def counted(cfg, root, index, round_index):
            assert all(ref() is None for ref in updates)
            synthesized.append(round_index)
            update = synthesize(cfg, root, index, round_index)
            updates.append(weakref.ref(update))
            return update

        def watched_output(cfg, params, shares, total, *rest):
            sums.append(weakref.ref(total))
            opened.append(open_step(cfg, params, shares, total, *rest))
            return opened[-1]

        def watched_oracle(cfg, round_updates):
            assert len(updates) == cfg.parties * (2 * len(checked) + 1)
            assert all(ref() is None for ref in updates + sums)
            made = len(updates)
            result = oracle(cfg, round_updates)
            checked.append(len(updates) - made)
            return result

        def watched_check(cfg, art, error, round_index):
            assert opened[-1].numerators.dtype == np.int64
            assert (opened[-1].factor > 1) == (scheme == "mckks")
            return check(cfg, art, error, round_index)

        monkeypatch.setattr(harness, "synthesize_update", counted)
        monkeypatch.setattr(harness, "output_step", watched_output)
        monkeypatch.setattr(harness, "cleartext_oracle", watched_oracle)
        monkeypatch.setattr(harness, "_check_error", watched_check)
        transcript = run_protocol(cfg)
        assert (transcript.max_error == 0) == (scheme == "mbfv")
        assert checked == [3, 3]  # the oracle synthesized each update once
        assert len(sums) == 2  # one sum per round
        # 2L syntheses per round: one for the client's turn, one for the
        # oracle, which folds an MCKKS sum to a finer place in the same pass
        assert synthesized == [0] * 6 + [1] * 6


def test_mckks_verification_tail_holds_about_one_update(monkeypatch):
    # from the opened average to the error check, the oracle's fold and the
    # comparison allocate about one update and the int64 oracle sum, plus
    # the synthesis's second array: not the L updates at once, nor
    # Python-int copies of the aggregate (14 updates' worth before)
    cfg = make_cfg(scheme="mckks", parties=8, model_size=16384)
    open_step, check = harness.output_step, harness._check_error
    peaks = []

    def traced_output(*args):
        opened = open_step(*args)
        tracemalloc.start()
        return opened

    def traced_check(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return check(*args)

    monkeypatch.setattr(harness, "output_step", traced_output)
    monkeypatch.setattr(harness, "_check_error", traced_check)
    run_protocol(cfg)
    update_bytes = 8 * cfg.model_size
    assert len(peaks) == 1
    assert peaks[0] < 4 * update_bytes, peaks[0] / update_bytes


def test_smoke_config_runs_quickly():
    import time

    cfg = make_cfg(parties=2, lam=16, model_size=4096)
    t0 = time.perf_counter()
    transcript = run_protocol(cfg)
    elapsed = time.perf_counter() - t0
    assert transcript.max_error == 0
    assert elapsed < 5.0, f"smoke run took {elapsed:.1f} s"


def test_run_protocol_mbfv_exact_average():
    cfg = make_cfg(parties=4, lam=16)
    transcript = run_protocol(cfg)
    assert transcript.max_error == 0
    assert set(transcript.timings) == {
        "collective_keygen", "encryption", "aggregation",
        "collective_decryption", "total"}
    kinds = {m.kind for m in transcript.messages}
    assert kinds == {"pk_share", "ciphertext", "partial_dec"}


def test_run_protocol_mckks_within_margin():
    cfg = make_cfg(scheme="mckks", parties=4, lam=16)
    transcript = run_protocol(cfg)
    art = run_setup(cfg)
    eps = art.report.bounds.b_ct_mp / art.params.delta
    assert 0 < transcript.max_error < eps


def test_lambda_zero_matches_lambda_sixteen_for_mbfv():
    opened = []
    for lam in (0, 16):
        transcript = run_protocol(make_cfg(parties=2, lam=lam, seed=11))
        opened.append(transcript.aggregate)
        assert transcript.max_error == 0
    assert opened[0] == opened[1]


def test_transcript_replay_determinism_and_timings_excluded():
    cfg = make_cfg(seed=123)
    a = run_protocol(cfg)
    b = run_protocol(cfg)
    assert a.to_text() == b.to_text()
    assert a.timings["total"] > 0
    assert "Col. Key Gen." in a.timings_text()
    assert "Total runtime" in a.timings_text()
    for line in a.to_text().splitlines():
        assert not line.startswith("Col. ")  # no wall clock in the transcript


def test_multiround_reuses_keys_and_stays_exact():
    cfg = make_cfg(parties=2, rounds=3, seed=31)
    transcript = run_protocol(cfg)
    assert transcript.max_error == 0
    pk_msgs = [m for m in transcript.messages if m.kind == "pk_share"]
    assert len(pk_msgs) == 2  # setup once, rounds reuse the keys
    ct_msgs = [m for m in transcript.messages if m.kind == "ciphertext"]
    assert len(ct_msgs) == 2 * 3 * -(-cfg.model_size // cfg.n)


def test_multiround_mckks_stays_within_plan_bound(tmp_path, capsys):
    # streams are keyed by round: a second MCKKS round must open as well
    text = (DATA / "golden_mckks.ini").read_text()
    assert "rounds = 1\n" in text
    text = text.replace("rounds = 1\n", "rounds = 2\n")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    assert cli.main(["run", "-c", str(cfg_path), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    cfg = parse_config(text)
    report, params = derive_scheme_params(cfg)
    lines = (tmp_path / "transcript.txt").read_text().splitlines()
    chunks = group_layout(cfg.model_size, params.ring)[-1].stop
    first, end = lines.index("[messages]") + 1, lines.index("[result]") - 1
    assert end - first == cfg.parties + 2 * 2 * cfg.parties * chunks
    error = Fraction(next(line for line in lines
                          if line.startswith("max_error =")).split()[2])
    assert 0 < error < report.bounds.b_ct_mp / params.delta


@st.composite
def small_protocol_configs(draw):
    """Both schemes over small rings, 1 to 6 parties, any smudging width
    and precision, noise from none to sigma 4 with a bound from 1/1000 to
    20, and a fixed-point grid that t has room for."""
    n = 1 << draw(st.integers(2, 8))
    parties = draw(st.integers(1, 6))
    t_bits = draw(st.integers(10, 70))
    sigma = draw(st.fractions(0, 4, max_denominator=1000))
    bound = draw(st.fractions(max(sigma, Fraction(1, 1000)), 20,
                              max_denominator=1000))
    return make_cfg(
        scheme=draw(st.sampled_from(["mbfv", "mckks"])), n=n,
        sigma=sigma, bound=bound, parties=parties,
        lam=draw(st.integers(0, 200)), t_bits=t_bits,
        eps_inv_bits=draw(st.integers(1, 70)),
        model_size=draw(st.integers(1, 3 * n)),
        seed=draw(st.integers(0, 2**32)), rounds=draw(st.integers(1, 2)),
        # parties * 2^p must stay below 2^t_bits / 2 (`parse_config`)
        fixed_point_bits=draw(st.integers(0, t_bits - 1
                                          - parties.bit_length())))


# L = 3 and 2^-52: a float64 division by L before encoding missed the bound
PINNED_MCKKS = """\
[protocol]
scheme = mckks
root_seed = 3
enforce_security = false

[plan]
n = 1024
parties = 3
lambda = 40
eps_inv_bits = 52
"""

# no noise and B = 1/1000: b_ct_mp is all but the encoding rounding's L/2,
# which a plan once left out, so a run opened 0.44 against 9/500
SCALE_BELOW_ONE = """\
[protocol]
scheme = mckks
enforce_security = false

[plan]
n = 4
parties = 1
sigma = 0
noise_bound = 0.001
lambda = 0
eps_inv_bits = 0
"""


@settings(max_examples=100, deadline=None)
@given(small_protocol_configs())
@example(parse_config(PINNED_MCKKS))
@example(parse_config(SCALE_BELOW_ONE))
def test_every_small_run_opens_within_its_plan(cfg):
    # MBFV opens exactly and MCKKS within b_ct_mp/delta; a seed replays
    # byte for byte, whatever the chunk groups
    report, params = derive_scheme_params(cfg)
    first = run_protocol(cfg)  # its own check of the plan raises first
    if cfg.scheme == "mbfv":
        assert first.max_error == 0
    else:
        assert first.max_error < report.bounds.b_ct_mp / params.delta
    assert run_protocol(cfg).to_text() == first.to_text()
    cap = harness.BATCH_BYTES
    harness.BATCH_BYTES = 0  # one chunk per group
    try:
        assert run_protocol(cfg).to_text() == first.to_text()
    finally:
        harness.BATCH_BYTES = cap


def test_pinned_mckks_run_exits_0_within_its_bound(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(PINNED_MCKKS)
    assert cli.main(["run", "-c", str(cfg_path), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    report, params = derive_scheme_params(parse_config(PINNED_MCKKS))
    assert params.delta == 3 * 2**91
    lines = (tmp_path / "transcript.txt").read_text().splitlines()
    error = Fraction(next(line for line in lines
                          if line.startswith("max_error =")).split()[2])
    assert 0 < error < report.bounds.b_ct_mp / params.delta


@pytest.mark.parametrize("scheme", ["mbfv", "mckks"])
def test_an_average_that_misses_the_plan_exits_3(scheme, tmp_path,
                                                 monkeypatch, capsys):
    # one opened value off by 1: MBFV must open exactly, and MCKKS within
    # b_ct_mp/delta, far below 1
    opened = harness.output_step

    def off_by_one(*args):
        agg = opened(*args)  # values num * factor / den, the factor > 1 at q'
        nums = agg.numerators.astype(object) * agg.factor
        nums[0] += agg.denominator
        return Ratios(nums, agg.denominator)

    monkeypatch.setattr(harness, "output_step", off_by_one)
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(DATA / f"golden_{scheme}.ini"),
                     "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("protocol failure: round 0: max_error ")
    assert "misses the plan: it must be " in err
    assert list(out.iterdir()) == []  # no artifacts


def test_error_check_edges():
    # MBFV fails at any error above 0, MCKKS at b_ct_mp/delta and above
    tiny = Fraction(1, 2**400)
    for scheme in ("mbfv", "mckks"):
        cfg = make_cfg(scheme=scheme, n=64)
        art = run_setup(cfg)
        bound = (tiny if scheme == "mbfv"
                 else art.report.bounds.b_ct_mp / art.params.delta)
        harness._check_error(cfg, art, bound - tiny, 0)
        with pytest.raises(ProtocolFailure, match="round 4: max_error"):
            harness._check_error(cfg, art, bound, 4)


def test_scale_below_one_plans_at_delta_1_and_opens_within_its_bound(
        tmp_path, capsys):
    # b_ct_mp * eps_inv = 9/500 + 1/2: delta is L * 2^0 = 1, not the 2^-5
    # that crashed with a negative shift. Encoding then rounds each value
    # to an integer, up to 1/2 off, which the L/2 of b_ct_mp covers: the
    # run opens within the plan.
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SCALE_BELOW_ONE)
    out = tmp_path / "plan.txt"
    assert cli.main(["plan", "-c", str(cfg_path), "-o", str(out)]) == 0
    assert "b_ct_mp = 259/500\n" in out.read_text()
    assert "delta_ckks = 1\n" in out.read_text()
    assert cli.main(["run", "-c", str(cfg_path), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "transcript.txt").read_text().splitlines()
    error = Fraction(next(line for line in lines
                          if line.startswith("max_error =")).split()[2])
    assert 0 < error < Fraction(259, 500)


def test_chunk_groups_cap_residue_bytes():
    # 8 chunks of 2 x 2048 per group, and one of 5 x 16384 however big
    assert group_layout(32 * 2048, ring_of(2048, 2)) == [
        range(lo, lo + 8) for lo in range(0, 32, 8)]
    assert group_layout(3 * 16384, ring_of(16384, 5)) == [
        range(0, 1), range(1, 2), range(2, 3)]
    assert group_layout(12 * 1024, ring_of(1024, 3)) == [range(0, 10),
                                                         range(10, 12)]


@pytest.mark.parametrize("scheme", ["mbfv", "mckks"])
def test_groups_of_chunks_leave_the_run_unchanged(scheme, tmp_path,
                                                   monkeypatch, capsys):
    # a golden config with 12 chunks: 10 + 2 per group, or one by one
    text = (DATA / f"golden_{scheme}.ini").read_text()
    assert "model_size = 2500\n" in text
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text.replace("model_size = 2500\n",
                                     "model_size = 11764\n"))
    _, params = derive_scheme_params(parse_config(cfg_path.read_text()))
    assert len(params.ring.primes) == 3 and len(params.dec_ring.primes) == 1
    assert len(group_layout(12 * params.ring.n, params.ring)) == 2
    runs = []
    for cap in (harness.BATCH_BYTES, 0):
        monkeypatch.setattr(harness, "BATCH_BYTES", cap)
        out = tmp_path / f"cap{cap}"
        assert cli.main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
        runs.append([(out / name).read_bytes()
                     for name in ("transcript.txt", "aggregate.npy")])
    capsys.readouterr()
    assert len(group_layout(12 * params.ring.n, params.ring)) == 12
    assert runs[0] == runs[1]


@pytest.mark.parametrize("scheme", ["mbfv", "mckks"])
def test_group_encryption_draws_each_chunk_from_its_own_stream(scheme,
                                                                monkeypatch):
    # MBFV opens exactly and MCKKS rounds fresh noise away at q', so no
    # transcript shows u, e0 or e1. Before c0 is switched to q', each entry
    # of a group's batch is what encrypt draws from its chunk's stream alone.
    cfg = parse_config((DATA / f"golden_{scheme}.ini").read_text())
    art = run_setup(cfg)
    root = Xof.from_seed(cfg.root_seed)
    batches = []

    def kept(params, pk, msg, rng, **hooks):
        batches.append((msg, encrypt(params, pk, msg, rng, **hooks)))
        return batches[-1][1]

    monkeypatch.setattr(harness, "encrypt", kept)
    submit(cfg, art, root, 2, MessageBus())
    ((msg, batch),) = batches  # 2500 values: 3 chunks, in one group
    assert batch.c0.residues.shape[0] == 3
    for c, (el, c0, c1) in enumerate(zip(unstack(msg),
                                         unstack(batch.c0),
                                         unstack(batch.c1))):
        stream = root.child(f"round/0/client/2/enc/{c}")
        want = encrypt(art.params, art.cpk, el, stream)
        assert np.array_equal(c0.residues, want.c0.residues)
        assert np.array_equal(c1.residues, want.c1.residues)


def test_aggregator_never_holds_share_typed_state():
    cfg = make_cfg()
    art = run_setup(cfg)
    agg = aggregator(cfg, art)
    bus = MessageBus()
    root = Xof.from_seed(1)
    for sh in art.shares:
        agg.receive(sh.index, submit(cfg, art, root, sh.index, bus))
    agg.evaluate()

    seen = set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        assert not isinstance(obj, SecretShare), "aggregator saw a share"
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(k)
                walk(v)
        elif isinstance(obj, (list, tuple, set)):
            for v in obj:
                walk(v)
        elif hasattr(obj, "__dict__"):
            for v in vars(obj).values():
                walk(v)

    walk(agg)


def test_cleartext_oracle_quantizes_like_the_clients():
    cfg = make_cfg(parties=2)
    updates = [np.array([0.5] * cfg.model_size),
               np.array([-0.25] * cfg.model_size)]
    oracle = cleartext_oracle(cfg, updates)
    assert oracle[0] == (Fraction(128) + Fraction(-64)) / (256 * 2)


# ---------------------------------------------------------------------------
# wire formats


def _session_ct():
    cfg = make_cfg()
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(3)
    (blob,) = submit(cfg, art, root, 1, bus)  # one chunk, one message
    return art, wire.deserialize_ciphertext(blob, art.params)


def ct_len(k, n, k_dec=None):
    """Ciphertext bytes: c1 on k primes, c0 on k_dec (default all k)."""
    k_dec = k if k_dec is None else k_dec
    return 17 + 8 * k + 4 * (k + k_dec) * n


def share_len(k, n):
    return 8 + 8 * k + 4 * k * n


def test_ciphertext_wire_roundtrip():
    art, ct = _session_ct()
    blob = wire.serialize_ciphertext(ct, art.params)
    assert blob[:4] == b"THAG"
    assert int.from_bytes(blob[4:6], "little") == wire.VERSION == 3
    back = wire.deserialize_ciphertext(blob, art.params)
    assert np.array_equal(back.c0.residues, ct.c0.residues)
    assert np.array_equal(back.c1.residues, ct.c1.residues)
    assert back.adds_consumed == ct.adds_consumed
    # the client sent c0 at q' (1 of 2 limbs), c1 at q
    assert back.c0.params == art.params.dec_ring != art.params.ring
    assert back.c1.params == art.params.ring
    k, n = len(art.params.ring.primes), art.params.ring.n
    assert len(blob) == ct_len(k, n, 1) == 33 + 12 * n


def full_q_ct(art, ct):
    """A client's ciphertext with c0 left at the full q, and the parameters
    that decrypt on every limb, under which it is encoded."""
    return (dataclasses.replace(
        ct, c0=sample_uniform(art.params.ring, Xof.from_seed("c0"))),
        dataclasses.replace(art.params, dec_ring=art.params.ring))


def test_wire_v3_rejects_v2_full_q_c0_and_wrong_k_dec():
    art, ct = _session_ct()
    params, ring = art.params, art.params.ring
    k, n = len(ring.primes), ring.n
    full, unswitched = full_q_ct(art, ct)
    blob = wire.serialize_ciphertext(full, unswitched)
    assert len(blob) == ct_len(k, n)
    with pytest.raises(WireFormatError, match="c0 sent at the full q"):
        wire.deserialize_ciphertext(blob, params)
    # a receiver that decrypts on every limb takes it
    back = wire.deserialize_ciphertext(blob, unswitched)
    assert np.array_equal(back.c0.residues, full.c0.residues)
    # version 2: no k' byte, c0 at the full q
    v2 = b"".join((blob[:4], (2).to_bytes(2, "little"), blob[6 : 12 + 8 * k],
                   blob[13 + 8 * k :]))
    assert len(v2) == 16 + 8 * k + 8 * k * n
    for receiver in (params, unswitched):
        with pytest.raises(WireFormatError, match="unsupported version 2"):
            wire.deserialize_ciphertext(v2, receiver)
    # k' that is neither the receiver's dec_limbs nor k
    switched = wire.serialize_ciphertext(ct, params)
    at = 12 + 8 * k  # the k' byte
    assert switched[at] == len(params.dec_ring.primes) == 1
    for k_dec in (0, 3, 255):
        bad = switched[:at] + bytes([k_dec]) + switched[at + 1 :]
        with pytest.raises(WireFormatError, match=f"on {k_dec} limbs"):
            wire.deserialize_ciphertext(bad, params)
    with pytest.raises(WireFormatError, match="on 1 limbs"):
        wire.deserialize_ciphertext(switched, unswitched)
    # truncated inside the c0 block
    with pytest.raises(WireFormatError, match="truncated"):
        wire.deserialize_ciphertext(switched[: at + 1 + 4 * n - 4], params)
    # the encoder takes both rings from its parameters: a c0 off q' (at
    # the full q, or on another prime) or a c1 off q is refused
    tail = RingParams.create(n, ring.primes[1:])
    off_q = sample_uniform(tail, Xof.from_seed("tail"))
    for c0, c1 in [(full.c0, ct.c1), (off_q, ct.c1), (ct.c0, ct.c0)]:
        with pytest.raises(ParamsMismatchError, match="not on"):
            wire.serialize_ciphertext(
                dataclasses.replace(ct, c0=c0, c1=c1), params)


def test_full_q_c0_maps_to_exit_3(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)

    def send_full_q_c0(cfg):
        art, ct = _session_ct()
        blob = wire.serialize_ciphertext(*full_q_ct(art, ct))
        wire.deserialize_ciphertext(blob, art.params)

    monkeypatch.setattr("thagg.cli.run_protocol", send_full_q_c0)
    assert cli.main(["run", "-c", str(cfg_path)]) == 3


def test_wire_rejects_tampering():
    art, ct = _session_ct()
    blob = wire.serialize_ciphertext(ct, art.params)
    with pytest.raises(WireFormatError):
        wire.deserialize_ciphertext(b"XXXX" + blob[4:], art.params)
    with pytest.raises(WireFormatError):
        wire.deserialize_ciphertext(blob[:-4], art.params)
    with pytest.raises(WireFormatError):
        wire.deserialize_ciphertext(blob + b"\x00", art.params)


def test_share_wire_roundtrip():
    cfg = make_cfg()
    art = run_setup(cfg)
    from thagg.threshold import pk_share

    piece = pk_share(art.params, art.shares[0], art.crs,
                     Xof.from_seed("w"))
    blob = wire.serialize_pk_share(piece)
    assert blob[0] == wire.KIND_PK_SHARE
    assert len(blob) == share_len(len(art.params.ring.primes), art.params.ring.n)
    back = wire.deserialize_pk_share(blob, art.params)
    assert back.index == piece.index
    assert np.array_equal(back.p0.residues, piece.p0.residues)
    with pytest.raises(WireFormatError):
        wire.deserialize_partial_dec(blob, art.params)  # wrong kind tag


def test_switched_partial_dec_length_and_full_q_share_rejected():
    art, ct = _session_ct()
    params = art.params
    ring, dec = params.ring, params.dec_ring
    assert len(dec.primes) == 1 < len(ring.primes) == 2
    assert dec.primes == ring.primes[:1]
    b = art.report.bounds
    smudge = SmudgeParams(parties=2, b_ct=b.b_ct, b_smg=b.b_smg)
    part = partial_decrypt(params, art.shares[0], ct.c1, smudge,
                           Xof.from_seed("pd"))
    blob = wire.serialize_partial_dec(part)
    assert len(blob) == share_len(1, ring.n) == 8 + 8 + 4 * ring.n
    back = wire.deserialize_partial_dec(blob, params)
    assert np.array_equal(back.h.residues, part.h.residues)
    # the same share left at the full q: the header lists q's two primes
    full = wire.serialize_partial_dec(
        PartialDecryption(index=1, h=sample_uniform(ring, Xof.from_seed("h"))))
    assert len(full) == share_len(2, ring.n)
    with pytest.raises(WireFormatError, match="ring parameters"):
        wire.deserialize_partial_dec(full, params)
    # a receiver that keeps every limb takes it, and rejects the switched one
    unswitched = dataclasses.replace(params, dec_ring=ring)
    assert wire.deserialize_partial_dec(full, unswitched).h.params == ring
    with pytest.raises(WireFormatError):
        wire.deserialize_partial_dec(blob, unswitched)


def test_full_q_partial_dec_maps_to_exit_3(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)

    def send_full_q_share(cfg):
        art = run_setup(cfg)
        el = sample_uniform(art.params.ring, Xof.from_seed("h"))
        blob = wire.serialize_partial_dec(PartialDecryption(index=1, h=el))
        wire.deserialize_partial_dec(blob, art.params)

    monkeypatch.setattr("thagg.cli.run_protocol", send_full_q_share)
    assert issubclass(WireFormatError, ProtocolFailure)
    assert cli.main(["run", "-c", str(cfg_path)]) == 3


# Small messages for the decoder properties: n = 16, two primes, kappa = 3.
WIRE_PARAMS = setup(BFV, 16, sigma="3.2", t=16,
                    primes=primes_for(16, 50), kappa=3)


def wire_messages():
    ring = WIRE_PARAMS.ring
    rng = Xof.from_seed("wire")
    el = lambda: sample_uniform(ring, rng)
    ct = Ciphertext(c0=el(), c1=el(), adds_consumed=2)
    return {
        "ciphertext": (wire.serialize_ciphertext(ct, WIRE_PARAMS),
                       wire.deserialize_ciphertext),
        "pk_share": (wire.serialize_pk_share(PkShare(index=2, p0=el())),
                     wire.deserialize_pk_share),
        "partial_dec": (wire.serialize_partial_dec(
            PartialDecryption(index=3, h=el())), wire.deserialize_partial_dec),
    }


WIRE_MESSAGES = wire_messages()


def test_wire_v3_message_lengths():
    k, n = len(WIRE_PARAMS.ring.primes), WIRE_PARAMS.ring.n
    assert k == 2
    for kind, (blob, _) in WIRE_MESSAGES.items():
        want = ct_len(k, n) if kind == "ciphertext" else share_len(k, n)
        assert len(blob) == want, kind


WIRE_ENCODERS = {
    "ciphertext": lambda c0, c1: wire.serialize_ciphertext(
        Ciphertext(c0=c0, c1=c1, adds_consumed=0), WIRE_PARAMS),
    "pk_share": lambda _, el: wire.serialize_pk_share(PkShare(index=1, p0=el)),
    "partial_dec": lambda _, el: wire.serialize_partial_dec(
        PartialDecryption(index=1, h=el)),
}


@pytest.mark.parametrize("kind", sorted(WIRE_ENCODERS))
def test_wire_encoders_reject_a_batch(kind):
    # a 2-entry batch was once encoded without error, and the decoder then
    # refused the bytes as "residue out of range"
    ring = WIRE_PARAMS.ring
    rng = Xof.from_seed("wire-batch")
    one = sample_uniform(ring, rng)
    pair = stack([one, sample_uniform(ring, rng)])
    encode = WIRE_ENCODERS[kind]
    encode(one, one)
    bad = [(one, pair), (one, stack([one]))]  # a batch of one is a batch
    if kind == "ciphertext":
        bad.append((pair, one))
    for c0, c1 in bad:
        with pytest.raises(WireFormatError, match="carries one element"):
            encode(c0, c1)


def v1_blob(kind):
    """The message in version 1: u64 residues, version field 1."""
    blob, _ = WIRE_MESSAGES[kind]
    head = 8 if kind == "ciphertext" else 3  # bytes before n, plus k'
    head += 5 + 8 * len(WIRE_PARAMS.ring.primes)
    tail = 4 if kind == "ciphertext" else 0
    body = np.frombuffer(blob[head : len(blob) - tail], dtype="<u4")
    out = blob[:head] + body.astype("<u8").tobytes() + blob[len(blob) - tail :]
    if kind == "ciphertext":
        out = out[:4] + (1).to_bytes(2, "little") + out[6:]
    return out


@pytest.mark.parametrize("kind", sorted(WIRE_MESSAGES))
def test_wire_rejects_version_1(kind):
    _, decode = WIRE_MESSAGES[kind]
    with pytest.raises(WireFormatError):
        decode(v1_blob(kind), WIRE_PARAMS)


def test_wire_rejects_adds_above_kappa_and_party_zero():
    ct_blob, _ = WIRE_MESSAGES["ciphertext"]
    at_kappa = ct_blob[:-4] + (3).to_bytes(4, "little")
    assert wire.deserialize_ciphertext(at_kappa, WIRE_PARAMS).adds_consumed == 3
    with pytest.raises(WireFormatError, match="kappa"):
        wire.deserialize_ciphertext(ct_blob[:-4] + (4).to_bytes(4, "little"),
                                    WIRE_PARAMS)
    for kind in ("pk_share", "partial_dec"):
        blob, decode = WIRE_MESSAGES[kind]
        with pytest.raises(WireFormatError, match="index 0"):
            decode(blob[:1] + bytes(2) + blob[3:], WIRE_PARAMS)


def test_wire_rejects_residue_at_its_prime():
    blob, decode = WIRE_MESSAGES["pk_share"]
    ring = WIRE_PARAMS.ring
    at = 8 + 8 * len(ring.primes) + 4 * ring.n  # first residue of prime 1
    bad = blob[:at] + ring.primes[1].to_bytes(4, "little") + blob[at + 4 :]
    with pytest.raises(WireFormatError, match=f"prime {ring.primes[1]}$"):
        decode(bad, WIRE_PARAMS)


def mutations(size):
    """A single-byte overwrite, a truncation, or appended bytes. Overwrites
    hit the header (29 bytes for a ciphertext, 24 for a share: the n, count
    and prime fields, and a ciphertext's k') and a ciphertext's trailing
    adds_consumed as often as the residues."""
    pos = st.one_of(st.integers(0, 28), st.integers(size - 4, size - 1),
                    st.integers(0, size - 1))
    return st.one_of(
        st.tuples(st.just("set"), pos, st.integers(0, 255)),
        st.tuples(st.just("cut"), st.integers(0, size - 1), st.just(0)),
        st.tuples(st.just("add"), st.binary(min_size=1, max_size=9), st.just(0)),
    )


def mutate(blob, how):
    op, arg, value = how
    if op == "set":
        return blob[:arg] + bytes([value]) + blob[arg + 1 :]
    if op == "cut":
        return blob[:arg]
    return blob + arg


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_wire_decoders_survive_mutation(data):
    kind = data.draw(st.sampled_from(sorted(WIRE_MESSAGES)))
    blob, decode = WIRE_MESSAGES[kind]
    bad = mutate(blob, data.draw(mutations(len(blob))))
    try:
        out = decode(bad, WIRE_PARAMS)
    except WireFormatError:
        return
    ring = WIRE_PARAMS.ring
    els = [out.c0, out.c1] if kind == "ciphertext" else [
        out.p0 if kind == "pk_share" else out.h]
    for el in els:
        assert el.params == ring and el.residues.shape == (2, ring.n)
        assert (el.residues < np.array(ring.primes)[:, None]).all()
        assert (el.residues >= 0).all()
    if kind == "ciphertext":
        assert 0 <= out.adds_consumed <= WIRE_PARAMS.kappa
    else:
        assert out.index >= 1
    # an accepted message is canonical: header, lengths and fields intact
    encode = {"ciphertext": lambda ct: wire.serialize_ciphertext(
                  ct, WIRE_PARAMS),
              "pk_share": wire.serialize_pk_share,
              "partial_dec": wire.serialize_partial_dec}[kind]
    assert encode(out) == bad


def test_aggregate_digest_hashes_slices_like_one_join():
    def one_shot(agg):
        text = "".join(f"{v}\n" for v in agg.terms())
        return hashlib.sha256(text.encode()).hexdigest()

    size = 2 * SLICE + 5
    rng = np.random.default_rng(4)
    small = Ratios(rng.integers(-(2**40), 2**40, size), 2**9 * 3)
    big = Ratios(np.array([int(v) << 70 | 12345 for v in
                           rng.integers(-(2**40), 2**40, size)], dtype=object),
                 2**135)
    for agg in (small, big, small[:7], Ratios(np.zeros(0, np.int64), 1)):
        tr = Transcript(cfg=None, log2_q=0, primes=(), messages=[],
                        aggregate=agg, max_error=Fraction(0))
        assert tr.aggregate_digest() == one_shot(agg)


# ---------------------------------------------------------------------------
# config


GOOD_CONFIG = """\
[protocol]
scheme = mbfv
model_size = 2048
root_seed = 9
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


def test_parse_config_happy_path():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.scheme == "mbfv"
    assert cfg.plan_inputs.bound == Fraction("19.2")
    assert cfg.model_size == 2048
    assert not cfg.enforce_security


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(GOOD_CONFIG + "typo_key = 3\n")
    with pytest.raises(ConfigError, match="unknown config sections"):
        parse_config(GOOD_CONFIG + "\n[mystery]\nx = 1\n")


def test_removed_parallel_clients_key_is_rejected(tmp_path, capsys):
    text = GOOD_CONFIG.replace("root_seed = 9\n",
                               "root_seed = 9\nparallel_clients = true\n")
    with pytest.raises(ConfigError, match="parallel_clients"):
        parse_config(text)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    assert cli.main(["run", "-c", str(cfg_path)]) == 2
    assert "parallel_clients" in capsys.readouterr().err


def test_removed_b_m_key_is_rejected(tmp_path, capsys):
    # at b_m = 1/2 this config once planned (exit 0) but failed setup
    text = """\
[protocol]
scheme = mckks
enforce_security = false

[plan]
n = 1024
parties = 2
lambda = 0
eps_inv_bits = 8
b_m = 1/2
"""
    with pytest.raises(ConfigError, match="b_m"):
        parse_config(text)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        assert "b_m" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("golden,key,value,message", [
    ("mbfv", "n", "1000", "n must be a power of two >= 4, got 1000"),
    ("mbfv", "n", "12", "n must be a power of two >= 4, got 12"),
    ("mbfv", "t_bits", "-1", "t_bits must be non-negative, got -1"),
    ("mbfv", "fixed_point_bits", "-1", "fixed_point_bits must be non-negative"),
    ("mckks", "eps_inv_bits", "-3", "eps_inv_bits must be non-negative"),
])
def test_bad_degree_and_negative_bits_are_config_errors(golden, key, value,
                                                         message, tmp_path,
                                                         capsys):
    # once: n = 1000 planned (exit 0) and failed in run (exit 1, bare
    # ValueError); a negative bit count failed both with exit 1
    lines = (DATA / f"golden_{golden}.ini").read_text().splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(f"{key} =")]
    assert len(hits) == 1
    lines[hits[0]] = f"{key} = {value}"
    text = "\n".join(lines) + "\n"
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["mbfv", "mckks"]),
       n=st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]),
       parties=st.integers(1, 16), lam=st.integers(0, 130),
       bits=st.integers(1, 60))
def test_every_plan_passes_setup(scheme, n, parties, lam, bits):
    """`thagg plan` and `thagg run` agree: setup accepts what plan chose."""
    key = "t_bits" if scheme == "mbfv" else "eps_inv_bits"
    inputs = PlanInputs.create(n, parties, "3.2", lam, bound="19.2",
                               **{key: bits})
    cfg = ProtocolConfig(scheme=scheme, plan_inputs=inputs, model_size=n,
                         root_seed=1, enforce_security=False)
    report, params = derive_scheme_params(cfg)
    assert params.ring.primes == report.primes
    assert params.dec_ring.primes == report.dec_primes
    if scheme == "mckks":
        assert params.delta == report.delta_ckks


def test_parse_config_requires_precision_for_scheme():
    broken = GOOD_CONFIG.replace("t_bits = 12\n", "")
    with pytest.raises(ConfigError, match="t_bits"):
        parse_config(broken)


def test_parse_config_rejects_fixed_point_overflow():
    bad = GOOD_CONFIG.replace("fixed_point_bits = 8", "fixed_point_bits = 11")
    with pytest.raises(ConfigError, match="fixed_point_bits"):
        parse_config(bad)


def test_parse_config_security_override(tmp_path, capsys):
    # a [security] table once replaced the shipped one: this config ran at
    # n = 1024 with log2 q = 74 and its plan read security_ok = true
    text = (DATA / "golden_mbfv.ini").read_text().replace(
        "enforce_security = false", "enforce_security = true")
    text += "\n[security]\n1024 = 100\n"
    with pytest.raises(ConfigError, match="unknown config sections"):
        parse_config(text)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        assert "['security']" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI


def test_cli_plan_and_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)

    assert cli.main(["plan", "-c", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "qmin_mbfv_bits" in out

    outdir = tmp_path / "run"
    assert cli.main(["run", "-c", str(cfg_path), "-o", str(outdir)]) == 0
    assert (outdir / "transcript.txt").exists()
    assert (outdir / "timings.txt").exists()
    assert (outdir / "aggregate.npy").exists()
    assert np.load(outdir / "aggregate.npy").shape == (2048,)

    bad = tmp_path / "bad.ini"
    bad.write_text(GOOD_CONFIG.replace("enforce_security = false",
                                       "enforce_security = true"))
    assert cli.main(["run", "-c", str(bad)]) == 2  # insecure config rejected

    missing = tmp_path / "nope.ini"
    assert cli.main(["plan", "-c", str(missing)]) == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> str:
    """The `ini` block of the README's CLI section."""
    text = README.read_text()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("scheme", ["mbfv", "mckks"])
def test_readme_config_example_plans_and_runs(scheme, tmp_path, capsys):
    text = readme_config()
    assert "scheme = mbfv\n" in text
    cfg_path = tmp_path / "readme.ini"
    cfg_path.write_text(text.replace("scheme = mbfv\n", f"scheme = {scheme}\n"))
    assert cli.main(["plan", "-c", str(cfg_path)]) == 0
    outdir = tmp_path / "run"
    assert cli.main(["run", "-c", str(cfg_path), "-o", str(outdir)]) == 0
    capsys.readouterr()
    if scheme == "mbfv":
        lines = (outdir / "transcript.txt").read_text().splitlines()
        assert "max_error = 0/1" in lines


# Edge configs, each GOOD_CONFIG with one line changed; every one of them
# decrypts at 1 of its 2 limbs.
EDGE_CONFIGS = {
    "one_party": ("parties = 2", "parties = 1"),
    "lambda_zero": ("lambda = 16", "lambda = 0"),
    "odd_lambda": ("lambda = 16", "lambda = 17"),
    "model_below_n": ("model_size = 2048", "model_size = 700"),
    "model_not_multiple_of_n": ("model_size = 2048", "model_size = 1500"),
}


@pytest.mark.parametrize("edge", sorted(EDGE_CONFIGS))
def test_cli_edge_configs_run_exact(edge, tmp_path, capsys):
    old, new = EDGE_CONFIGS[edge]
    assert old in GOOD_CONFIG
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG.replace(old, new))
    assert cli.main(["plan", "-c", str(cfg_path)]) == 0
    plan_lines = capsys.readouterr().out.splitlines()
    assert "dec_limbs = 1" in plan_lines and "limbs = 2" in plan_lines

    outdir = tmp_path / "run"
    assert cli.main(["run", "-c", str(cfg_path), "-o", str(outdir)]) == 0
    capsys.readouterr()
    text = (outdir / "transcript.txt").read_text()
    assert "max_error = 0/1" in text.splitlines()
    sizes = {int(line.split()[3]) for line in text.splitlines()
             if " partial_dec " in line}
    assert sizes == {share_len(1, 1024)}
    cfg = parse_config(cfg_path.read_text())
    assert np.load(outdir / "aggregate.npy").shape == (cfg.model_size,)


def test_more_limbs_than_the_wire_counts_is_a_config_error(tmp_path, capsys):
    # once: `plan` exited 0 on this 337-limb plan and `run` failed after
    # about 20 s with a bare struct.error from the u8 prime count
    text = (DATA / "golden_mckks.ini").read_text()
    text = text.replace("n = 1024\n", "n = 32768\n").replace(
        "lambda = 64\n", "lambda = 20000\n")
    assert "n = 32768\n" in text and "lambda = 20000\n" in text
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rejected: ") and "255" in err
    with pytest.raises(NoPrimesFoundError, match="more than 255 primes"):
        harness.derive_scheme_params(parse_config(text))


def test_more_parties_than_the_wire_numbers_is_a_config_error(tmp_path,
                                                              capsys):
    # once: parse_config took parties = 65536, and `run` failed with a bare
    # struct.error on the u16 index of client 65,536's public-key share
    text = (DATA / "golden_mckks.ini").read_text()
    assert "parties = 3\n" in text
    assert parse_config(text.replace("parties = 3\n", "parties = 65535\n"))
    text = text.replace("parties = 3\n", "parties = 65536\n")
    complaint = "parties must be at most 65535"
    with pytest.raises(ConfigError, match=complaint):
        parse_config(text)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        assert complaint in capsys.readouterr().err


def test_ring_degree_without_ntt_primes_is_a_config_error(tmp_path, capsys):
    # n = 2^28: 2n = 2^29 leaves no prime = 1 mod 2n below 2^30
    text = GOOD_CONFIG.replace("n = 1024\n", f"n = {1 << 28}\n")
    assert f"n = {1 << 28}\n" in text
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rejected: ") and "no unused prime" in err
    with pytest.raises(NoPrimesFoundError, match="no unused prime"):
        harness.derive_scheme_params(parse_config(text))


def test_noise_bound_below_sigma_is_a_config_error(tmp_path, capsys):
    # once: `plan` exited 0 and `run` exited 1 with a bare ValueError from
    # the sampler's noise spec
    text = GOOD_CONFIG.replace("noise_bound = 19.2\n", "noise_bound = 3\n")
    assert "noise_bound = 3\n" in text
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rejected: ") and "noise_bound 3" in err
    with pytest.raises(ConfigError, match="must be >= sigma"):
        parse_config(text)


@pytest.mark.parametrize("plan_lines", [
    "sigma = 3.2\nnoise_bound = 32768\n",  # floor(bound) = 2^15
    "sigma = 6000\nnoise_bound = 40000\n",
    "sigma = 6000\n",  # the default bound, 6 sigma = 36000
])
def test_noise_bound_beyond_the_sampler_table_is_a_config_error(
        plan_lines, tmp_path, capsys):
    # the Gaussian sampler's table holds |k| <= 32767 (its size and build
    # time grow with the bound), so plan and run refuse a wider one
    text = GOOD_CONFIG.replace("sigma = 3.2\nnoise_bound = 19.2\n",
                               plan_lines)
    assert plan_lines in text
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    for command in ("plan", "run"):
        assert cli.main([command, "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rejected: noise_bound ") and "32768" in err
    with pytest.raises(ConfigError, match="table limit"):
        parse_config(text)
    ok = GOOD_CONFIG.replace("noise_bound = 19.2\n",
                             "noise_bound = 32767.9\n")
    assert parse_config(ok).plan_inputs.bound == Fraction("32767.9")


def test_cli_region_csv(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)
    out_csv = tmp_path / "grid.csv"
    rc = cli.main(["region", "-c", str(cfg_path), "--t-bits", "8:12",
                   "--eps-bits", "8:12", "-o", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "log2_t,log2_eps_inv,winner,qmin_mbfv_bits,qmin_mckks_bits"
    assert len(lines) == 1 + 25


@pytest.mark.parametrize("flags, complaint", [
    (["--t-bits", "0:1"], "log2 t must be >= 1"),  # t = 1, which setup refuses
    (["--t-bits=-2:0"], "log2 t must be >= 1"),
    (["--eps-bits=-1:0"], "log2 eps_inv must be >= 0"),
    (["--t-bits", "1:2", "--eps-bits", "0:1"], None),  # the lowest usable
])
def test_cli_region_rejects_unusable_grid_bounds(flags, complaint, tmp_path,
                                                 capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)
    rc = cli.main(["region", "-c", str(cfg_path), *flags])
    captured = capsys.readouterr()
    if complaint is None:
        assert rc == 0 and captured.out.count("\n") == 1 + 4
    else:
        assert rc == 2
        assert captured.err.startswith("rejected: ")
        assert complaint in captured.err


@pytest.mark.parametrize("command, flags", [
    ("plan", []),
    ("region", ["--t-bits", "8:9", "--eps-bits", "8:9"]),
    ("run", []),
    ("bench", ["--parties", "1", "--repeats", "1"]),
])
def test_cli_output_write_failure_is_a_rejection(command, flags, tmp_path,
                                                 capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)
    blocker = tmp_path / "file"  # a regular file, so nothing fits under it
    blocker.write_text("")
    # run and bench check their output before the protocol
    monkeypatch.setattr("thagg.cli.run_protocol",
                        lambda cfg: pytest.fail("the protocol ran"))
    rc = cli.main([command, "-c", str(cfg_path), *flags,
                   "-o", str(blocker / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: cannot ") and str(blocker) in err
    assert err.count("\n") == 1


def test_cli_run_artifact_write_failure_is_a_rejection(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)
    outdir = tmp_path / "run"
    (outdir / "transcript.txt").mkdir(parents=True)  # a directory: no write
    assert cli.main(["run", "-c", str(cfg_path), "-o", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: cannot write to ")


def test_cli_protocol_failure_maps_to_exit_3(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)

    def boom(cfg):
        raise LengthMismatchError("simulated mid-protocol failure")

    monkeypatch.setattr("thagg.cli.run_protocol", boom)
    assert cli.main(["run", "-c", str(cfg_path)]) == 3


def test_wire_rejects_ntt_domain_elements(tmp_path, monkeypatch):
    art = run_setup(make_cfg())
    with pytest.raises(DomainMismatchError):
        wire.serialize_pk_share(PkShare(index=1, p0=art.cpk.p0))
    with pytest.raises(DomainMismatchError):
        wire.serialize_partial_dec(
            PartialDecryption(index=1, h=art.shares[0].s))

    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)

    def send_cpk(cfg):
        wire.serialize_pk_share(PkShare(index=1, p0=run_setup(cfg).cpk.p0))

    monkeypatch.setattr("thagg.cli.run_protocol", send_cpk)
    assert cli.main(["run", "-c", str(cfg_path)]) == 3


def test_cli_bench_sweep(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)
    out_csv = tmp_path / "bench.csv"
    rc = cli.main(["bench", "-c", str(cfg_path), "--parties", "1,2",
                   "--repeats", "1", "-o", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("parties,Col. Key Gen.,Encryption,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"


@pytest.mark.parametrize("flags, complaint", [
    (["--repeats", "0"], "--repeats must be >= 1"),
    (["--parties", "abc"], "--parties must be integers"),
    (["--parties", "0"], "plan inputs must be positive"),
    # 8 parties * 2^8 * 2 >= 2^12: the fixed-point headroom check
    (["--parties", "2,8"], "fixed_point_bits=8 too large"),
    # one more than the u16 party index of a share message can number
    (["--parties", "2,65536"], "parties must be at most 65535"),
], ids=["repeats-0", "parties-abc", "parties-0", "parties-2,8",
        "parties-2,65536"])
def test_cli_bench_checks_every_sweep_config_first(flags, complaint, tmp_path,
                                                   capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)
    monkeypatch.setattr("thagg.cli.run_protocol",
                        lambda cfg: pytest.fail("a sweep config ran"))
    assert cli.main(["bench", "-c", str(cfg_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: ") and complaint in err


def test_cli_offers_exactly_the_protocol_commands(capsys):
    want = {"plan", "region", "run", "bench"}
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == want
    block = README.read_text().split("## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    assert {line.split()[1] for line in block.splitlines() if line} == want
    for argv, complaint in (
            (["selftest"], "invalid choice"),
            (["run", "-c", "cfg.ini", "--rounds", "2"],
             "unrecognized arguments: --rounds 2"),
            (["region", "-c", "cfg.ini", "--lam", "8"],
             "unrecognized arguments: --lam 8")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert complaint in capsys.readouterr().err
