"""Executable multi-protocol backend layer: registry, parity, scenarios."""

from __future__ import annotations

import json

import pytest

from repro.backends import (
    BACKEND_REGISTRY,
    LedgerBackend,
    backend_names,
    create_backend,
)
from repro.cli import main as cli_main
from repro.core.backend import CommitteeSimBackend, SimRoundReport
from repro.core.config import ProtocolParams
from repro.exp import (
    ExperimentSpec,
    Runner,
    backend_compare_spec,
    derive_point_seed,
    run_point,
    run_sweep,
)
from repro.exp.results import round_row
from repro.nodes.adversary import AdversaryConfig
from repro.scenarios import SCENARIO_PRESETS

ALL_BACKENDS = ("cycledger", "rapidchain", "omniledger_sim")

SMALL = dict(
    n=24, m=2, lam=2, referee_size=6, users_per_shard=12,
    tx_per_committee=4, cross_shard_ratio=0.3, invalid_ratio=0.1,
)

BACKEND_SPEC = ExperimentSpec(
    name="backend-parity",
    rounds=2,
    seeds=(0,),
    base=SMALL,
    backend_grid=ALL_BACKENDS,
)


# -- registry ----------------------------------------------------------------
def test_registry_contains_all_protocols():
    assert set(ALL_BACKENDS) <= set(backend_names())
    for info in BACKEND_REGISTRY.values():
        assert info.description


def test_create_backend_unknown_name_fails_fast():
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("no-such-protocol", ProtocolParams(**SMALL))


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_backend_satisfies_contract(name):
    ledger = create_backend(name, ProtocolParams(seed=1, **SMALL))
    assert isinstance(ledger, LedgerBackend)
    # One driver: every backend runs the same round loop, not a copy.
    assert isinstance(ledger, CommitteeSimBackend)
    assert type(ledger).run_round is CommitteeSimBackend.run_round
    assert type(ledger)._assign_round is CommitteeSimBackend._assign_round
    reports = ledger.run(2)
    assert len(ledger.chain) >= 1 and ledger.chain.verify()
    assert ledger.total_packed() > 0
    for report in reports:
        assert isinstance(report, SimRoundReport)
        assert round_row(report)["packed"] == report.packed
        # The flat report contract round_row() serializes.
        for attr in (
            "round_number", "packed", "cross_packed", "recoveries",
            "messages", "bytes_sent", "sim_time", "dropped",
            "intra_accepted", "inter_accepted", "inter_voted",
            "prefilter_savings", "intra_elapsed", "inter_elapsed",
            "blockgen_elapsed", "blockgen_subblocks", "blockgen_width",
        ):
            assert hasattr(report, attr), attr


def test_cycledger_report_keeps_its_phase_reports():
    """The examples and the adversarial integration tests read these."""
    report = create_backend("cycledger", ProtocolParams(seed=1, **SMALL)).run(1)[0]
    assert report.intra_accepted == sum(
        len(txs) for txs in report.intra.accepted_by_cr.values()
    )
    assert report.inter_elapsed == report.inter.elapsed
    assert report.semicommit.accepted and report.selection.next_leaders
    assert report.blockgen.block is report.block


@pytest.mark.parametrize("name", ("rapidchain", "omniledger_sim"))
def test_backend_runs_are_reproducible(name):
    def one_run():
        ledger = create_backend(name, ProtocolParams(seed=5, **SMALL))
        reports = ledger.run(3)
        return [
            (r.packed, r.cross_packed, r.messages, r.bytes_sent, r.sim_time,
             r.block.hash.hex() if r.block else None)
            for r in reports
        ]

    assert one_run() == one_run()


# -- spec axis ---------------------------------------------------------------
def test_backend_axis_is_seed_paired():
    points = BACKEND_SPEC.expand()
    assert [p.backend for p in points] == list(ALL_BACKENDS)
    # All arms share one protocol seed (paired comparison) but have
    # distinct cache keys via the descriptor.
    expected = derive_point_seed(dict(points[0].params), None, 0, 2)
    assert {p.derived_seed for p in points} == {expected}
    assert len({p.key for p in points}) == len(points)
    assert all(p.descriptor()["backend"] == p.backend for p in points)


def test_spec_rejects_unknown_backend_at_validation_time():
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentSpec(name="bad", backend="no-such-protocol")
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentSpec(name="bad", backend_grid=("cycledger", "typo"))
    with pytest.raises(ValueError, match="not both"):
        ExperimentSpec(
            name="bad", backend="rapidchain", backend_grid=("cycledger",)
        )


def test_backend_parity_serial_parallel_byte_identical():
    serial = Runner(BACKEND_SPEC, workers=1).run()
    parallel = Runner(BACKEND_SPEC, workers=3).run()
    assert parallel.workers >= 2
    assert serial.json_bytes() == parallel.json_bytes()
    # every backend produced a populated, distinguishable record
    by_backend = {r.point["backend"]: r for r in serial.results}
    assert set(by_backend) == set(ALL_BACKENDS)
    for name, result in by_backend.items():
        assert result.totals["packed"] > 0, name
        assert result.chain["valid"], name


def test_backend_point_runs_and_caches(tmp_path):
    cache = str(tmp_path / "cache")
    first = Runner(BACKEND_SPEC, workers=1, cache_dir=cache).run()
    assert first.executed == len(ALL_BACKENDS)
    second = Runner(BACKEND_SPEC, workers=1, cache_dir=cache).run()
    assert second.executed == 0 and second.from_cache == len(ALL_BACKENDS)
    assert second.json_bytes() == first.json_bytes()


def test_backend_column_in_csv(tmp_path):
    outcome = run_sweep(BACKEND_SPEC, workers=1)
    csv_path = tmp_path / "results.csv"
    outcome.write_csv(str(csv_path))
    header, *rows = csv_path.read_text().strip().splitlines()
    columns = header.split(",")
    assert "backend" in columns
    backend_col = columns.index("backend")
    assert {row.split(",")[backend_col] for row in rows} == set(ALL_BACKENDS)


def test_outcome_find_by_backend():
    outcome = run_sweep(BACKEND_SPEC, workers=1)
    result = outcome.one(backend="rapidchain")
    assert result.point["backend"] == "rapidchain"


def test_backend_compare_preset_expands():
    points = backend_compare_spec().expand()
    assert {p.backend for p in points} == set(ALL_BACKENDS)
    # adversary arms ride along: 2 fractions x 3 backends x 1 seed
    assert len(points) == 6


# -- scenarios against rival backends ---------------------------------------
def test_partition_scenario_degrades_rapidchain_then_recovers():
    scenario = SCENARIO_PRESETS["partition-halves"]
    rounds = scenario.last_event_round + 1
    params = ProtocolParams(seed=0, **SMALL)
    faulted = create_backend("rapidchain", params, scenario=scenario).run(rounds)
    clean = create_backend("rapidchain", params).run(rounds)
    dropped = [r.dropped for r in faulted]
    assert any(d > 0 for d in dropped)
    assert dropped[-1] == 0  # the cut heals
    assert all(r.dropped == 0 for r in clean)
    # Seed pairing: the fault-free arm packs at least as much in every
    # round, strictly more in some partitioned round.
    assert all(c.packed >= f.packed for c, f in zip(clean, faulted))
    assert sum(c.packed for c in clean) > sum(f.packed for f in faulted)


def test_scenario_axis_runs_on_rival_backend_via_engine():
    spec = ExperimentSpec(
        name="rival-scenario",
        rounds=4,
        seeds=(0,),
        base=SMALL,
        backend="rapidchain",
        scenario_grid=(None, "partition-halves"),
    )
    outcome = run_sweep(spec, workers=1)
    clean = outcome.one(scenario=None)
    cut = outcome.one(scenario="partition-halves")
    assert clean.totals["dropped"] == 0
    assert cut.totals["dropped"] > 0


def test_adversary_stalls_rival_cross_shard_but_not_cycledger():
    """The executable Table I dishonest-leader row: under a ~1/3 adversary
    *both* recovery-free rivals lose cross-shard throughput CycLedger
    keeps.  Run at m=4 scale — with only two committees the lottery too
    often draws zero corrupted leaders and the contrast drowns in noise."""
    params = dict(
        n=48, m=4, lam=2, referee_size=8, users_per_shard=24,
        tx_per_committee=6, cross_shard_ratio=0.3, invalid_ratio=0.1,
    )
    adversary = AdversaryConfig(fraction=0.33)
    totals = {}
    for name in ALL_BACKENDS:
        ledger = create_backend(
            name, ProtocolParams(seed=2, **params), adversary=adversary
        )
        reports = ledger.run(4)
        totals[name] = sum(r.cross_packed for r in reports)
    assert totals["cycledger"] > totals["rapidchain"]
    assert totals["cycledger"] > totals["omniledger_sim"]


def test_run_point_resolves_backend():
    point = BACKEND_SPEC.expand()[1]
    assert point.backend == "rapidchain"
    result = run_point(point)
    assert result.point["backend"] == "rapidchain"
    assert result.totals["packed"] > 0
    assert result.totals["recoveries"] == 0  # rivals have no recovery


# -- CLI ---------------------------------------------------------------------
def test_cli_backends_lists_registry(capsys):
    assert cli_main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in ALL_BACKENDS:
        assert name in out


def test_cli_backends_run(capsys):
    code = cli_main([
        "backends", "--run", "rapidchain", "--n", "24", "--m", "2",
        "--referee", "6", "--users", "12", "--txs", "4", "--rounds", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "backend 'rapidchain'" in out and "valid=True" in out


def test_cli_backends_run_unknown_fails(capsys):
    with pytest.raises(SystemExit):
        cli_main(["backends", "--run", "nope"])


def test_cli_sweep_backend_axis(tmp_path, capsys):
    out = tmp_path / "results.json"
    csv = tmp_path / "results.csv"
    code = cli_main([
        "sweep", "--backends", "cycledger,rapidchain,omniledger_sim",
        "--n", "24", "--m", "2", "--referee", "6", "--users", "12",
        "--txs", "4", "--rounds", "2", "--serial",
        "--out", str(out), "--csv", str(csv),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 3
    assert payload["spec"]["backend_grid"] == list(ALL_BACKENDS)
    assert "backend" in csv.read_text().splitlines()[0].split(",")


def test_cli_sweep_unknown_backend_fails_before_running(capsys):
    with pytest.raises(SystemExit, match="unknown backend"):
        cli_main(["sweep", "--backend", "no-such-protocol"])
