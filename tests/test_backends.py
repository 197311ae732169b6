"""Executable multi-protocol backend layer: registry, parity, scenarios."""

from __future__ import annotations

import json

import pytest
import config_cube
from config_cube import Cell, check, reference

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
    derive_point_seed,
    run_point,
    run_sweep,
)
from repro.exp.results import SweepResult, round_row
from repro.exp.spec import canonical_json, point_key
from repro.nodes.adversary import AdversaryConfig
from repro.scenarios import SCENARIO_PRESETS

ALL_BACKENDS = ("cycledger", "rapidchain", "omniledger_sim")
SMALL = {**config_cube.SMALL, "cross_shard_ratio": 0.3, "invalid_ratio": 0.1}

BACKEND_SPEC = ExperimentSpec(
    name="backend-parity",
    rounds=2,
    seeds=(0,),
    base=SMALL,
    grid={"backend": ALL_BACKENDS},
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
            "prefilter_savings", "phase_sim_times", "blockgen_subblocks",
            "blockgen_width",
        ):
            assert hasattr(report, attr), attr


def test_cycledger_report_keeps_its_phase_reports():
    """The examples and the adversarial integration tests read these."""
    ledger = create_backend("cycledger", ProtocolParams(seed=1, **SMALL))
    report = ledger.run(1)[0]
    assert report.intra_accepted == sum(
        len(txs) for txs in report.intra.accepted_by_cr.values()
    )
    # One clock per phase: the pipeline's, under the pipeline's names.
    assert tuple(report.phase_sim_times) == ledger.pipeline.names
    assert report.semicommit.accepted and report.selection.next_leaders
    assert report.blockgen.block is report.block


@pytest.mark.parametrize("name", ("rapidchain", "omniledger_sim"))
def test_backend_runs_are_reproducible(name):
    check(Cell(name, seed=5, rounds=3))


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
        ExperimentSpec(name="bad", base={"backend": "no-such-protocol"})
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentSpec(name="bad", grid={"backend": ("cycledger", "typo")})
    with pytest.raises(ValueError, match="both base and grid"):
        ExperimentSpec(
            name="bad", base={"backend": "rapidchain"},
            grid={"backend": ("cycledger",)},
        )


def test_backend_parity_serial_parallel_byte_identical():
    serial = run_sweep(BACKEND_SPEC, workers=1)
    parallel = run_sweep(BACKEND_SPEC, workers=3)
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
    first = run_sweep(BACKEND_SPEC, workers=1, cache_dir=cache)
    assert first.executed == len(ALL_BACKENDS)
    second = run_sweep(BACKEND_SPEC, workers=1, cache_dir=cache)
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
        base={**SMALL, "backend": "rapidchain"},
        grid={"scenario": (None, "partition-halves")},
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
        "run", "--backend", "rapidchain", "--n", "24", "--m", "2",
        "--referee", "6", "--users", "12", "--txs", "4", "--rounds", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "backend 'rapidchain'" in out and "valid=True" in out


def test_cli_backends_run_unknown_fails(capsys):
    with pytest.raises(SystemExit):
        cli_main(["run", "--backend", "nope"])


SMALL_FLAGS = [
    "--n", "24", "--m", "2", "--lam", "2", "--referee", "6", "--users", "12",
    "--txs", "4", "--cross", "0.3", "--invalid", "0.1",
]


def _cli_rows(path) -> list:
    return json.loads(path.read_text())["per_round"]


@pytest.mark.parametrize(
    "name, scenario",
    [("cycledger", "leader-crash"), ("rapidchain", "partition-halves"),
     ("omniledger_sim", "churn")],
)
def test_cli_run_is_the_library(name, scenario, tmp_path, capsys):
    """`repro run --backend B --scenario S` is `create_backend(B, ...,
    scenario=S).run(R)`: same params, same rows, nothing CLI-only."""
    record = tmp_path / "run.json"
    assert cli_main([
        "run", "--backend", name, "--scenario", scenario, *SMALL_FLAGS,
        "--rounds", "3", "--json", str(record),
    ]) == 0
    want = reference(Cell(name, scenario, rounds=3, shape=tuple(SMALL.items()))).rows
    assert [canonical_json(row) for row in _cli_rows(record)] == list(want)


def test_cli_run_checkpoint_split_of_rival_scenario_run(tmp_path, capsys):
    """A rival + scenario run checkpointed mid-fault and resumed prints the
    tail rows of the unbroken run and ends in the same chain, nodes and
    message census."""
    args = ["run", "--backend", "omniledger_sim", "--scenario", "churn",
            *SMALL_FLAGS]
    full, tail = tmp_path / "full.json", tmp_path / "tail.json"
    ckpt_dir = tmp_path / "ck"
    assert cli_main([*args, "--rounds", "5", "--json", str(full)]) == 0
    assert cli_main([*args, "--rounds", "2", "--checkpoint-every", "2",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
    assert cli_main([
        "run", "--resume-from", str(ckpt_dir / "checkpoint-r000002.pkl"),
        "--rounds", "3", "--json", str(tail),
    ]) == 0
    assert _cli_rows(tail) == _cli_rows(full)[2:]
    full_record, tail_record = (json.loads(p.read_text()) for p in (full, tail))
    for part in ("chain", "nodes", "cells"):
        assert tail_record[part] == full_record[part], part


def test_cli_run_record_is_the_sweep_record(tmp_path, capsys):
    """`repro run --json` writes the record a sweep point writes: for the
    same backend, scenario, params and seed, everything but the run's
    identity (`point`, `key`) equals `run_point`'s."""
    spec = ExperimentSpec(
        name="one-record", rounds=3, seeds=(0,),
        base={**SMALL, "backend": "rapidchain", "scenario": "partition-halves"},
    )
    (point,) = spec.expand()
    record = tmp_path / "run.json"
    assert cli_main([
        "run", "--backend", point.backend, "--scenario", point.scenario,
        *SMALL_FLAGS, "--rounds", str(point.rounds),
        "--seed", str(point.derived_seed), "--json", str(record),
    ]) == 0
    cli = json.loads(record.read_text())
    sweep = json.loads(canonical_json(run_point(point).to_dict()))
    assert set(cli) == set(sweep)
    for part in set(sweep) - {"point", "key"}:
        assert cli[part] == sweep[part], part
    assert cli["key"] == point_key(cli["point"])
    assert SweepResult.from_dict(cli).point["backend"] == "rapidchain"


def test_cli_sweep_backend_axis(tmp_path, capsys):
    out = tmp_path / "results.json"
    csv = tmp_path / "results.csv"
    code = cli_main([
        "sweep", "--grid", "backend=cycledger,rapidchain,omniledger_sim",
        "--n", "24", "--m", "2", "--referee", "6", "--users", "12",
        "--txs", "4", "--rounds", "2", "--serial",
        "--out", str(out), "--csv", str(csv),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 3
    assert payload["spec"]["grid"]["backend"] == list(ALL_BACKENDS)
    assert "backend" in csv.read_text().splitlines()[0].split(",")


def test_cli_sweep_unknown_backend_fails_before_running(capsys):
    with pytest.raises(SystemExit, match="unknown backend"):
        cli_main(["sweep", "--grid", "backend=no-such-protocol"])


def _module_level_containers():
    """Every container bound at module level in ``repro``, by qualified
    name (each ``repro`` module imported first, so none is created by the
    run being measured)."""
    import importlib
    import pkgutil
    import sys
    from collections import deque

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    containers = {}
    for name, module in sorted(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in vars(module).items():
            if not attr.startswith("__") and isinstance(
                value, (dict, list, set, deque)
            ):
                containers[f"{name}.{attr}"] = value
    return containers


#: type-keyed dispatch tables: they grow with the payload *types* seen,
#: never with addresses, transactions or rounds
_TYPE_KEYED = ("repro.crypto.hashing._ENCODERS", "repro.net.message._SIZERS")


def test_running_every_backend_grows_no_module_level_container():
    """Derived state lives and dies with the ledger that derives it: no
    module-level table of ``repro`` holds anything a run put there."""
    containers = _module_level_containers()
    before = {name: len(value) for name, value in containers.items()}
    for m in (2, 3):
        params = ProtocolParams(**{**SMALL, "m": m, "n": 6 + 9 * m})
        for name in ALL_BACKENDS:
            create_backend(name, params).run(2)
    grew = {
        name: (before[name], len(value))
        for name, value in containers.items()
        if len(value) != before[name] and name not in _TYPE_KEYED
    }
    assert grew == {}
    for name in _TYPE_KEYED:
        assert all(isinstance(key, type) for key in containers[name]), name


@pytest.mark.parametrize("name", ("rapidchain", "cycledger"))
def test_a_packed_transaction_leaves_one_tracked_object(name):
    """The chain and the UTXO sets hold a packed transaction's records for
    the rest of the run, and every full collection walks whatever of them
    the collector tracks.  An input and an output are exact tuples of atoms,
    which it stops tracking, so a packed transaction leaves its
    ``Transaction`` and little else (dataclass records left about 7)."""
    import gc

    def settle():
        # A collection stops tracking a tuple only if every element was
        # untracked before the pass reached it, and that order follows the
        # process's allocation history: an input tuple met before its
        # (txid, index) stays tracked until the next pass.  Two passes
        # leave what the run really holds.
        gc.collect()
        gc.collect()

    params = ProtocolParams(seed=1, **{**SMALL, "users_per_shard": 64, "tx_per_committee": 24})
    ledger = create_backend(name, params)
    ledger.report_retention = 1  # the round reports are not the ledger's records
    ledger.run(2)
    settle()
    tracked, packed = len(gc.get_objects()), ledger.total_packed()
    ledger.run(3)
    settle()
    grew, packed = len(gc.get_objects()) - tracked, ledger.total_packed() - packed
    assert packed >= 100 and grew <= 1.5 * packed, (grew, packed)
    tx = next(tx for tx in ledger.chain.head.transactions if tx.inputs)
    utxos = ledger.shard_states[0].utxos
    for record in (tx.inputs, tx.outputs, *tx.inputs, *tx.outputs, utxos.get(next(iter(utxos)))):
        assert type(record) is tuple and gc.is_tracked(record) is False, record


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_admission_leaves_few_tracked_objects(name):
    """Admission keeps two tracked records per transaction, the
    ``Transaction`` and its ``TaggedTx``: the mempool queues the ``TaggedTx``
    itself beside an arrival stamp its whole batch shares, and the pending
    effect is the entry popped from the spendable pool, a tuple of atoms the
    collector stops tracking (a queue-entry object and a ``(home, consumed,
    tx)`` effect made it 3.9).  Generation also builds the input, output and
    output-pair tuples, about 6 objects per transaction (7.9 with those two
    retired records).  The output entries are built only when a transaction
    packs, so a withdrawn transaction leaves nothing at settlement; the one
    object left is the generator's pending-effects dict, tracked again once
    it holds an entry."""
    import gc

    def settle():
        # Two passes: a tuple of tuples is untracked one level per pass
        # (see test_a_packed_transaction_leaves_one_tracked_object).
        gc.collect()
        gc.collect()

    params = ProtocolParams(seed=1, **{**SMALL, "users_per_shard": 64, "tx_per_committee": 24})
    ledger = create_backend(name, params)
    ledger.run(1)
    mempool = ledger.mempool
    settle()
    gc.disable()
    try:
        before = len(gc.get_objects())
        admitted = mempool.admit(
            ledger.round_number, 0.0, params.cross_shard_ratio, params.invalid_ratio
        )
        generated = len(gc.get_objects()) - before
    finally:
        gc.enable()
    settle()
    kept = len(gc.get_objects()) - before
    gc.disable()
    try:
        mempool.settle(set(), ledger.round_number, 0.0)  # all withdrawn
        left = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert admitted >= 90 and generated <= 7 * admitted, (generated, admitted)
    assert kept <= 2 * admitted, (kept, admitted)
    assert left <= 1, left
