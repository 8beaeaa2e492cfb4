"""Protocol harness, wire formats, config parsing, CLI plumbing."""

import dataclasses
import io
from fractions import Fraction

import numpy as np
import pytest

from thagg import cli
from thagg.config import ProtocolConfig, parse_config
from thagg.errors import (
    ConfigError,
    LengthMismatchError,
    WireFormatError,
)
from thagg.harness import (
    Aggregator,
    MessageBus,
    aggregator_eval_step,
    chunk_count,
    cleartext_oracle,
    client_input_step,
    output_step,
    run_protocol,
    run_setup,
    selftest,
    synthesize_update,
)
from thagg.planner import PlanInputs
from thagg.rng import Xof
from thagg.threshold import SecretShare
from thagg import wire


def make_cfg(scheme="mbfv", n=1024, parties=2, lam=16, model_size=None,
             seed=7, t_bits=12, eps_inv_bits=12, fixed_point_bits=8,
             rounds=1):
    inputs = PlanInputs.create(n, parties, "3.2", lam, bound="19.2",
                               t_bits=t_bits, eps_inv_bits=eps_inv_bits)
    return ProtocolConfig(
        scheme=scheme, plan_inputs=inputs,
        model_size=n if model_size is None else model_size,
        root_seed=seed, fixed_point_bits=fixed_point_bits, rounds=rounds,
        enforce_security=False)


# ---------------------------------------------------------------------------
# chunking


def test_chunk_count_arithmetic():
    assert chunk_count(1024, 1024) == 1
    assert chunk_count(1_638_400, 16_384) == 100
    assert chunk_count(1025, 1024) == 2


# ---------------------------------------------------------------------------
# setup


def test_run_setup_smoke_and_determinism():
    cfg = make_cfg()
    a = run_setup(cfg)
    b = run_setup(cfg)
    assert np.array_equal(a.cpk.p0.residues, b.cpk.p0.residues)
    assert len(a.clients) == 2
    assert a.report.log2_q == a.params.ring.log2_q


def test_input_step_chunk_shapes_and_zero_vector():
    cfg = make_cfg(model_size=4096)
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(cfg.root_seed)
    client = art.clients[0]
    client.update = np.zeros(cfg.model_size)
    cts = client_input_step(cfg, art.params, client, art.cpk_ntt, root, 0, bus)
    assert len(cts) == 4  # 4096 / 1024
    # a zero vector opens to zero through the full threshold path
    for c in art.clients[1:]:
        c.update = np.zeros(cfg.model_size)
    other = client_input_step(cfg, art.params, art.clients[1], art.cpk_ntt,
                              root, 0, bus)
    summed = aggregator_eval_step([cts, other])
    opened = output_step(cfg, art.params, art.clients, summed, art.report,
                         root, 0, bus)
    assert opened == [Fraction(0)] * cfg.model_size


def test_eval_step_identity_and_mismatch():
    cfg = make_cfg(model_size=2048)
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(99)
    for c in art.clients:
        c.update = synthesize_update(cfg, root, c.index, 0)
    lists = [client_input_step(cfg, art.params, c, art.cpk_ntt, root, 0, bus)
             for c in art.clients]
    assert aggregator_eval_step([lists[0]]) == lists[0]  # single list: identity
    with pytest.raises(LengthMismatchError):
        aggregator_eval_step([lists[0], lists[1][:1]])


def test_aggregator_folds_submissions_as_they_arrive():
    cfg = make_cfg(parties=3, model_size=2048)
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(5)
    agg = Aggregator(art.params)
    with pytest.raises(LengthMismatchError):
        agg.evaluate()
    lists = []
    for c in art.clients:
        c.update = synthesize_update(cfg, root, c.index, 0)
        lists.append(client_input_step(cfg, art.params, c, art.cpk_ntt, root,
                                       0, bus))
        agg.receive(c.index, lists[-1])
    assert vars(agg).keys() == {"params", "total"}  # no per-client store
    want = aggregator_eval_step(lists)
    got = agg.evaluate()
    assert [ct.adds_consumed for ct in got] == [2, 2]
    for a, b in zip(got, want):
        assert np.array_equal(a.c0.residues, b.c0.residues)
        assert np.array_equal(a.c1.residues, b.c1.residues)


def test_aggregation_order_does_not_change_opened_value():
    cfg = make_cfg()
    art = run_setup(cfg)
    bus = MessageBus()
    root = Xof.from_seed(5)
    for c in art.clients:
        c.update = synthesize_update(cfg, root, c.index, 0)
    lists = [client_input_step(cfg, art.params, c, art.cpk_ntt, root, 0, bus)
             for c in art.clients]
    fwd = output_step(cfg, art.params, art.clients,
                      aggregator_eval_step(lists), art.report,
                      root.child("d1"), 0, bus)
    rev = output_step(cfg, art.params, art.clients,
                      aggregator_eval_step(list(reversed(lists))), art.report,
                      root.child("d2"), 0, bus)
    assert fwd == rev


# ---------------------------------------------------------------------------
# full runs


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
    assert len(ct_msgs) == 2 * 3 * chunk_count(cfg.model_size, cfg.n)


def test_aggregator_never_holds_share_typed_state():
    cfg = make_cfg()
    art = run_setup(cfg)
    agg = Aggregator(art.params)
    bus = MessageBus()
    root = Xof.from_seed(1)
    for c in art.clients:
        c.update = synthesize_update(cfg, root, c.index, 0)
        agg.receive(c.index, client_input_step(cfg, art.params, c,
                                               art.cpk_ntt, root, 0, bus))
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
    client = art.clients[0]
    client.update = synthesize_update(cfg, root, 1, 0)
    ct = client_input_step(cfg, art.params, client, art.cpk_ntt,
                           root, 0, bus)[0]
    return art, ct


def test_ciphertext_wire_roundtrip():
    art, ct = _session_ct()
    blob = wire.serialize_ciphertext(ct)
    assert blob[:4] == b"THAG"
    back = wire.deserialize_ciphertext(blob, art.params)
    assert np.array_equal(back.c0.residues, ct.c0.residues)
    assert np.array_equal(back.c1.residues, ct.c1.residues)
    assert back.adds_consumed == ct.adds_consumed
    k, n = len(art.params.ring.primes), art.params.ring.n
    expect_len = 4 + 2 + 1 + 4 + 1 + 8 * k + 2 * 8 * k * n + 4
    assert len(blob) == expect_len


def test_wire_rejects_tampering():
    art, ct = _session_ct()
    blob = wire.serialize_ciphertext(ct)
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

    piece = pk_share(art.params, art.clients[0].share, art.crs,
                     Xof.from_seed("w"))
    blob = wire.serialize_pk_share(piece)
    assert blob[0] == wire.KIND_PK_SHARE
    back = wire.deserialize_pk_share(blob, art.params)
    assert back.index == piece.index
    assert np.array_equal(back.p0.residues, piece.p0.residues)
    with pytest.raises(WireFormatError):
        wire.deserialize_partial_dec(blob, art.params)  # wrong kind tag


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


def test_parse_config_requires_precision_for_scheme():
    broken = GOOD_CONFIG.replace("t_bits = 12\n", "")
    with pytest.raises(ConfigError, match="t_bits"):
        parse_config(broken)


def test_parse_config_rejects_fixed_point_overflow():
    bad = GOOD_CONFIG.replace("fixed_point_bits = 8", "fixed_point_bits = 11")
    with pytest.raises(ConfigError, match="fixed_point_bits"):
        parse_config(bad)


def test_parse_config_security_override():
    text = GOOD_CONFIG.replace("enforce_security = false",
                               "enforce_security = true")
    text += "\n[security]\n1024 = 100\n"
    cfg = parse_config(text)
    assert cfg.security_table == {1024: 100}
    transcript = run_protocol(cfg)  # would be rejected with the shipped table
    assert transcript.max_error == 0


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


def test_cli_protocol_failure_maps_to_exit_3(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(GOOD_CONFIG)

    def boom(cfg):
        raise LengthMismatchError("simulated mid-protocol failure")

    monkeypatch.setattr("thagg.cli.run_protocol", boom)
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


def test_cli_selftest(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_selftest_report_structure():
    report = selftest()
    assert report.ok
    names = [e.name for e in report.entries]
    assert "planted bound violation is rejected" in names
    assert "ntt-vs-schoolbook oracle equivalence" in names
