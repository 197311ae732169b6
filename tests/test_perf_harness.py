"""Perf harness: registry, timing protocol, artifact schema, and the
equivalence guarantees the hot-path optimizations rest on."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.perf import (
    BENCH_SCHEMA,
    PERF_REGISTRY,
    PerfCase,
    PerfSettings,
    TimingSummary,
    calibrate,
    perf_case_names,
    run_case,
    run_cases,
    write_bench,
)
from repro.perf import baselines

SMOKE = PerfSettings(
    n=24, m=2, lam=2, referee_size=6, users_per_shard=12,
    tx_per_committee=4, committee=12, batch=48, messages=120,
)


# -- RNG stream guarantees the optimizations rely on -------------------------
def test_batched_random_matches_scalar_draws():
    """The jitter block in Network._next_jitter is stream-exact."""
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    batched = a.random(257)
    scalars = [b.random() for _ in range(257)]
    assert np.array_equal(batched, np.asarray(scalars))


def test_indexed_integers_match_generator_choice():
    """The workload defect draw is stream-exact vs Generator.choice."""
    options = ["double_spend", "overspend", "phantom_input"]
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    via_choice = [str(a.choice(options)) for _ in range(200)]
    via_index = [options[int(b.integers(0, 3))] for _ in range(200)]
    assert via_choice == via_index


# -- optimized vs frozen-baseline equivalence --------------------------------
def test_network_jitter_block_matches_naive_scalar_network():
    from repro.net.params import NetworkParams
    from repro.net.simulator import Network

    from repro.crypto.pki import PKI
    from repro.net.node import ProtocolNode

    fast = Network(NetworkParams(), np.random.default_rng(3), pool_envelopes=True)
    naive = baselines.NaiveNetwork(NetworkParams(), np.random.default_rng(3))
    pki = PKI()
    schedules = []
    for net in (fast, naive):
        net.set_channel_classifier(lambda src, dst: "intra")
        for i in range(2):
            net.add_node(ProtocolNode(i, pki.generate(i)))
        for _ in range(100):
            net.send(0, 1, "T", b"x")
        schedules.append(sorted(entry[:2] for entry in net._queue))
    assert schedules[0] == schedules[1]


def test_payload_size_matches_naive_on_protocol_shapes():
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import sign
    from repro.ledger.transaction import Transaction, TxInput, TxOutput
    from repro.net.message import payload_size

    pki = PKI()
    kp = pki.generate("x")
    tx = Transaction(
        inputs=(TxInput(b"\x07" * 32, 1),),
        outputs=(TxOutput("addr", 5),),
        nonce=3,
    )
    shapes = [
        None,
        True,
        7,
        3.5,
        b"\x01" * 16,
        "hello",
        (1, "a", b"bb"),
        [1, 2, 3],
        {1: "a", "b": (2, 3)},
        frozenset({1, 2}),
        sign(kp, ("S", 1)),
        tx,
        ("TX_LIST", (tx, tx), sign(kp, "s"), 42),
        np.int64(5),
        np.float64(2.5),
    ]
    for obj in shapes:
        assert payload_size(obj) == baselines.naive_payload_size(obj), obj


def test_workload_generator_matches_naive_generator():
    from repro.ledger.workload import WorkloadGenerator

    fast = WorkloadGenerator(m=3, users_per_shard=8, rng=np.random.default_rng(2))
    naive = baselines.NaiveWorkloadGenerator(
        m=3, users_per_shard=8, rng=np.random.default_rng(2)
    )
    assert fast.addresses_by_shard == naive.addresses_by_shard
    for _ in range(4):
        a = fast.generate_batch(32, cross_shard_ratio=0.4, invalid_ratio=0.5)
        b = naive.generate_batch(32, cross_shard_ratio=0.4, invalid_ratio=0.5)
        assert [t.tx.txid for t in a] == [t.tx.txid for t in b]
        assert [t.defect for t in a] == [t.defect for t in b]
        packed = {t.tx.txid for t in a[::2]}  # pack half, roll back half
        assert fast.confirm_round(packed) == naive.confirm_round(packed)


def test_batched_signatures_match_scalar_loops():
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import (
        sign,
        sign_many,
        signers_of,
        verify,
        verify_many,
    )

    pki = PKI()
    kps = [pki.generate(i) for i in range(6)]
    stmt = ("STMT", 1, (b"\x01" * 32,))
    sigs = sign_many(kps, stmt)
    assert sigs == [sign(kp, stmt) for kp in kps]
    assert verify_many(pki, sigs, stmt) == [verify(pki, s, stmt) for s in sigs]
    # Tampered and foreign signatures are rejected identically.
    bad = sigs[0].__class__(pk=sigs[0].pk, tag=b"\x00" * 32)
    mixed = [*sigs, bad]
    assert signers_of(pki, mixed, stmt) == {s.pk for s in sigs}
    members = {kps[0].pk, kps[1].pk}
    assert signers_of(pki, mixed, stmt, members=members) == members


def test_pki_mac_many_matches_mac():
    from repro.crypto.pki import PKI

    pki = PKI()
    kps = [pki.generate(i) for i in range(4)]
    pks = [kp.pk for kp in kps]
    message = b"payload"
    assert pki.mac_many(pks, message) == [pki.mac(pk, message) for pk in pks]
    with pytest.raises(KeyError):
        pki.mac_many(["missing"], message)


# -- envelope pooling --------------------------------------------------------
def test_envelope_pool_reuses_but_never_corrupts_delivery():
    from repro.crypto.pki import PKI
    from repro.net.node import ProtocolNode
    from repro.net.params import NetworkParams
    from repro.net.simulator import Network

    net = Network(NetworkParams(), np.random.default_rng(0), pool_envelopes=True)
    pki = PKI()
    seen: list[tuple[str, int]] = []
    nodes = [ProtocolNode(i, pki.generate(i)) for i in range(3)]
    for node in nodes:
        node.on("T", lambda m: seen.append((m.payload, m.sender)))
        net.add_node(node)
    net.set_channel_classifier(lambda s, d: "intra")
    for i in range(50):
        nodes[0].send(1, "T", f"p{i}")
    net.run()
    # Jitter permutes delivery order; every payload must arrive intact
    # exactly once (a pooled envelope clearing or reusing too early would
    # surface as None or duplicated payloads here).
    assert {p for p, _ in seen} == {f"p{i}" for i in range(50)}
    assert len(seen) == 50
    assert net._pool  # envelopes actually got recycled
    # Pool stays bounded and disabled networks never pool.
    plain = Network(NetworkParams(), np.random.default_rng(0))
    assert plain.pool_envelopes is False


# -- harness mechanics -------------------------------------------------------
def test_registry_contains_micro_and_round_cases():
    names = perf_case_names()
    assert "micro:mac_verify" in names
    assert "micro:workload_gen" in names
    assert "micro:message_pump" in names
    assert "micro:multicast_pump" in names
    for backend in ("cycledger", "rapidchain", "omniledger_sim"):
        assert f"round:{backend}" in names
    assert perf_case_names("round") == [
        n for n in names if n.startswith("round:")
    ]


def test_timing_summary_stats():
    summary = TimingSummary.from_samples([0.4, 0.1, 0.2, 0.3, 0.5])
    assert summary.median == pytest.approx(0.3)
    assert summary.minimum == pytest.approx(0.1)
    assert summary.repeats == 5
    assert summary.p95 >= summary.median


def test_run_case_reports_speedup_and_checks_equivalence():
    case = PERF_REGISTRY["micro:mac_verify"]
    result = run_case(case, SMOKE, warmup=0, repeats=2)
    assert result.ops == SMOKE.committee
    assert result.wall.repeats == 2
    assert result.baseline_wall is not None
    assert result.speedup is not None and result.speedup > 0


def test_failing_equivalence_check_aborts_the_case():
    def bad_check(settings):
        raise AssertionError("diverged")

    case = PerfCase(
        name="tmp:bad",
        description="",
        category="micro",
        setup=lambda s: None,
        run=lambda state: None,
        ops=lambda s: 1,
        check=bad_check,
    )
    with pytest.raises(AssertionError, match="diverged"):
        run_case(case, SMOKE, warmup=0, repeats=1)


def test_round_case_captures_sim_time():
    result = run_case(
        PERF_REGISTRY["round:rapidchain"], SMOKE, warmup=0, repeats=2
    )
    assert result.sim_time > 0.0


def test_unknown_case_name_fails_with_roster():
    with pytest.raises(ValueError, match="unknown perf case"):
        run_cases(["micro:nope"], SMOKE)


def test_scaled_settings_keep_committee_invariant():
    for n in (24, 36, 48, 96):
        scaled = PerfSettings(m=4, referee_size=8).scaled(n)
        assert (scaled.n - scaled.referee_size) % scaled.m == 0


def test_scale_sized_settings_grow_m_with_bounded_committees():
    base = PerfSettings(m=4, referee_size=8)
    for n in (128, 256, 512, 1024, 2048, 4096):
        sized = base.scale_sized(n)
        assert (sized.n - sized.referee_size) % sized.m == 0
        assert sized.referee_size >= 3
        committee = (sized.n - sized.referee_size) // sized.m
        # Paper-mode scaling: committee size stays bounded as n grows.
        assert base.lam + 2 <= committee <= 40
    assert base.scale_sized(4096).m > base.scale_sized(128).m
    # Unlike scaled()'s decrement-only search, the upward referee search
    # never underflows at large m (the n=512/m=16 failure mode).
    assert base.scale_sized(512).referee_size >= 3


def test_scale_registry_carries_curve_axis_and_caps():
    from repro.perf.cases import SCALE_CAPS, SCALE_CURVE

    names = perf_case_names("scale")
    assert names == [
        "scale:cycledger", "scale:omniledger_sim", "scale:rapidchain"
    ]
    for name in names:
        case = PERF_REGISTRY[name]
        assert case.category == "scale"
        assert case.scales == SCALE_CURVE
        assert case.max_scale == SCALE_CAPS[case.backend]
        assert case.max_repeats == 2


def test_scale_case_explicit_scales_override_and_caps_filter():
    # Explicit --scales override the pinned curve (the CI smoke preset),
    # max_scale filters out-of-cap entries, and max_repeats clamps the
    # harness-level repeat count.
    payload = run_cases(
        ["scale:rapidchain"], SMOKE, scales=[24, 8192], warmup=0, repeats=5
    )
    rows = [(r["name"], r["n"]) for r in payload["cases"]]
    assert rows == [("scale:rapidchain", 24)]  # 8192 > max_scale dropped
    assert payload["cases"][0]["wall"]["repeats"] == 2  # clamped from 5


def test_calibration_returns_positive_rates():
    calib = calibrate()
    assert calib["hash_1kib_ops_per_sec"] > 0
    assert calib["pyloop_ops_per_sec"] > 0


# -- artifact schema ---------------------------------------------------------
EXPECTED_TOP_KEYS = {"schema", "version", "host", "calibration", "settings", "cases"}
EXPECTED_CASE_KEYS = {
    "name", "category", "backend", "description", "n", "ops", "ops_per_sec",
    "normalized_ops", "sim_time", "wall", "baseline_wall", "speedup", "hotspots",
    "soak",  # None off-category; the soak: family's endurance block
}
EXPECTED_WALL_KEYS = {"median_s", "p95_s", "min_s", "mean_s", "repeats"}


def test_bench_payload_schema_is_stable(tmp_path):
    payload = run_cases(
        ["micro:mac_verify", "round:rapidchain"],
        SMOKE,
        warmup=0,
        repeats=2,
        profile=True,
        top=5,
    )
    assert payload["schema"] == BENCH_SCHEMA
    assert set(payload) == EXPECTED_TOP_KEYS
    assert len(payload["cases"]) == 2
    for row in payload["cases"]:
        assert set(row) == EXPECTED_CASE_KEYS
        assert set(row["wall"]) == EXPECTED_WALL_KEYS
    profiled = next(r for r in payload["cases"] if r["name"] == "round:rapidchain")
    assert profiled["hotspots"], "profiling requested but no hotspots recorded"
    assert len(profiled["hotspots"]) <= 5
    for spot in profiled["hotspots"]:
        assert set(spot) == {"function", "ncalls", "tottime_s", "cumtime_s"}

    out = tmp_path / "BENCH_perf.json"
    write_bench(str(out), payload)
    text = out.read_text()
    assert text.endswith("\n")
    reread = json.loads(text)
    assert set(reread) == EXPECTED_TOP_KEYS
    # Keys are sorted, so equal payloads are byte-equal files.
    assert text == json.dumps(reread, sort_keys=True, indent=2) + "\n"


def test_case_rows_are_sorted_by_name_then_scale():
    payload = run_cases(
        ["round:rapidchain", "micro:mac_sign"],
        SMOKE,
        scales=[36, 24],
        warmup=0,
        repeats=1,
    )
    rows = [(r["name"], r["n"]) for r in payload["cases"]]
    assert rows == sorted(rows)
    assert [r for r in rows if r[0] == "round:rapidchain"] == [
        ("round:rapidchain", 24),
        ("round:rapidchain", 36),
    ]
