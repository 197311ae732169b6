"""Experiment engine: spec hashing, parallel/serial equality, cache resume."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.config import ProtocolParams
from repro.exp import (
    ExperimentSpec,
    Runner,
    derive_point_seed,
    run_point,
    run_sweep,
    smoke_spec,
)
from repro.exp.spec import SweepPoint

TINY = ExperimentSpec(
    name="tiny",
    rounds=1,
    seeds=(0,),
    base={
        "n": 24,
        "lam": 2,
        "referee_size": 6,
        "users_per_shard": 8,
        "tx_per_committee": 3,
    },
    grid={"m": (2, 3)},
    adversary_grid={"fraction": (0.0, 0.2)},
)


# -- spec hashing -----------------------------------------------------------
def test_spec_hash_stable_across_instances():
    again = ExperimentSpec(
        name="tiny",
        rounds=1,
        seeds=(0,),
        base={
            "tx_per_committee": 3,
            "users_per_shard": 8,
            "referee_size": 6,
            "lam": 2,
            "n": 24,
        },  # same content, different key order / container types
        grid={"m": [2, 3]},
        adversary_grid={"fraction": [0.0, 0.2]},
    )
    assert TINY.spec_hash() == again.spec_hash()


def test_spec_hash_sensitive_to_every_knob():
    variants = [
        ExperimentSpec(name="tiny2", rounds=1, seeds=(0,), base=TINY.base,
                       grid=TINY.grid, adversary_grid=TINY.adversary_grid),
        ExperimentSpec(name="tiny", rounds=2, seeds=(0,), base=TINY.base,
                       grid=TINY.grid, adversary_grid=TINY.adversary_grid),
        ExperimentSpec(name="tiny", rounds=1, seeds=(0, 1), base=TINY.base,
                       grid=TINY.grid, adversary_grid=TINY.adversary_grid),
        ExperimentSpec(name="tiny", rounds=1, seeds=(0,), base=TINY.base,
                       grid={"m": (2, 4)}, adversary_grid=TINY.adversary_grid),
    ]
    hashes = {TINY.spec_hash()} | {v.spec_hash() for v in variants}
    assert len(hashes) == len(variants) + 1


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="ProtocolParams"):
        ExperimentSpec(name="bad", grid={"not_a_param": (1, 2)})
    # A config written while the vote window was a field (it is the
    # constant core.config.VOTE_WINDOW_DELTAS now).
    with pytest.raises(
        ValueError, match="unknown ProtocolParams field 'vote_window_deltas'"
    ):
        ExperimentSpec(name="old", base={"vote_window_deltas": 6.0})
    with pytest.raises(ValueError, match="AdversaryConfig"):
        ExperimentSpec(name="bad", adversary_grid={"nope": (0.1,)})
    with pytest.raises(ValueError, match="seeds"):
        ExperimentSpec(name="bad", base={"seed": 3})
    with pytest.raises(ValueError, match="capacity preset"):
        ExperimentSpec(name="bad", capacity_preset="no-such-preset")


def test_removed_shard_workers_input_is_rejected_by_name(capsys):
    """The shard-parallel mode is gone; every door it came in through
    refuses the stale input and names it."""
    with pytest.raises(TypeError, match="shard_workers"):
        ProtocolParams(shard_workers=1)
    with pytest.raises(ValueError, match="shard_workers"):
        ExperimentSpec(name="stale", base={"shard_workers": 2})
    with pytest.raises(SystemExit):
        cli_main(["run", "--shard-workers", "2"])
    assert "--shard-workers" in capsys.readouterr().err


def test_removed_points_input_is_rejected_by_name():
    """Explicit paired points had no user left; a spec that still lists
    them fails naming the field."""
    with pytest.raises(TypeError, match="'points'"):
        ExperimentSpec(name="stale", points=({"m": 2},))
    assert "points" not in ExperimentSpec(name="now").to_dict()


@pytest.mark.parametrize("name", ["semi_commit_delay_deltas", "inter_forward_gammas"])
def test_removed_timing_knob_is_rejected_by_name(name):
    """Nothing read them: the rules are drain barriers, not timers."""
    with pytest.raises(TypeError, match=name):
        ProtocolParams(**{name: 2.0})
    with pytest.raises(ValueError, match=name):
        ExperimentSpec(name="stale", grid={name: [1.0, 2.0]})


# -- seed derivation --------------------------------------------------------
def test_derived_seed_is_content_addressed():
    a = derive_point_seed({"n": 24, "m": 2}, None, 0, 2)
    assert a == derive_point_seed({"m": 2, "n": 24}, None, 0, 2)  # order-free
    assert a != derive_point_seed({"n": 24, "m": 3}, None, 0, 2)
    assert a != derive_point_seed({"n": 24, "m": 2}, None, 1, 2)
    assert a != derive_point_seed({"n": 24, "m": 2}, {"fraction": 0.1}, 0, 2)
    assert 0 <= a < 2**31


def test_expansion_is_deterministic_and_complete():
    points = TINY.expand()
    assert len(points) == 4  # 2 m-values × 2 fractions × 1 seed
    assert points == TINY.expand()
    keys = {p.key for p in points}
    assert len(keys) == 4
    ms = sorted({p.params["m"] for p in points})
    fractions = sorted({p.adversary["fraction"] for p in points})
    assert ms == [2, 3] and fractions == [0.0, 0.2]


# -- execution --------------------------------------------------------------
def test_parallel_equals_serial_byte_identical():
    serial = Runner(TINY, workers=1).run()
    parallel = Runner(TINY, workers=2).run()
    assert parallel.workers >= 2
    assert serial.json_bytes() == parallel.json_bytes()


def test_run_point_is_reproducible():
    point = TINY.expand()[0]
    first = run_point(point)
    second = run_point(point)
    assert first.to_dict() == second.to_dict()
    assert first.chain["valid"]
    assert first.totals["packed"] > 0
    assert len(first.per_round) == TINY.rounds


def test_resume_from_cache(tmp_path):
    cache = str(tmp_path / "cache")
    first = Runner(TINY, workers=1, cache_dir=cache).run()
    assert first.executed == 4 and first.from_cache == 0

    second = Runner(TINY, workers=1, cache_dir=cache).run()
    assert second.executed == 0 and second.from_cache == 4
    assert second.json_bytes() == first.json_bytes()

    # drop one cached point -> only that point re-runs, bytes unchanged
    victim = first.results[2].key
    os.unlink(os.path.join(cache, TINY.spec_hash(), f"{victim}.json"))
    third = Runner(TINY, workers=1, cache_dir=cache).run()
    assert third.executed == 1 and third.from_cache == 3
    assert third.json_bytes() == first.json_bytes()


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = str(tmp_path / "cache")
    first = Runner(TINY, workers=1, cache_dir=cache).run()
    victim = os.path.join(cache, TINY.spec_hash(), f"{first.results[0].key}.json")
    with open(victim, "w") as fh:
        fh.write("{not json")
    again = Runner(TINY, workers=1, cache_dir=cache).run()
    assert again.executed == 1
    assert again.json_bytes() == first.json_bytes()


def test_cache_reruns_entries_that_parse_but_are_not_records(tmp_path):
    """A cache file holding JSON that is not a record (a list, or a dict
    with only the key) is a miss: exactly those points re-run, and the
    artifact equals a cold run's."""
    cache = str(tmp_path / "cache")
    cold = Runner(TINY, workers=1, cache_dir=cache).run()
    first, last = cold.results[0].key, cold.results[3].key
    for key, entry in ((first, []), (last, {"key": last})):
        path = os.path.join(cache, TINY.spec_hash(), f"{key}.json")
        with open(path, "w") as fh:
            json.dump(entry, fh)
    executed = []
    again = Runner(TINY, workers=1, cache_dir=cache).run(
        progress=lambda done, total, result: executed.append(result.key)
    )
    assert sorted(executed) == sorted([first, last])
    assert again.executed == 2 and again.from_cache == 2
    assert again.json_bytes() == cold.json_bytes()


def test_outcome_lookup_and_artifacts(tmp_path):
    outcome = run_sweep(TINY, workers=1)
    result = outcome.one(m=2, fraction=0.2)
    assert result.point["params"]["m"] == 2
    assert result.point["adversary"]["fraction"] == 0.2
    with pytest.raises(LookupError):
        outcome.one(m=99)

    json_path = tmp_path / "results.json"
    csv_path = tmp_path / "results.csv"
    bench_path = tmp_path / "BENCH_sweep.json"
    outcome.write_json(str(json_path))
    outcome.write_csv(str(csv_path))
    outcome.write_bench(str(bench_path))

    payload = json.loads(json_path.read_text())
    assert payload["spec_hash"] == TINY.spec_hash()
    assert len(payload["results"]) == 4
    keys = [r["key"] for r in payload["results"]]
    assert keys == sorted(keys)

    header, *rows = csv_path.read_text().strip().splitlines()
    assert "p_m" in header and "a_fraction" in header and "packed" in header
    assert len(rows) == 4

    bench = json.loads(bench_path.read_text())
    assert bench["points"] == 4 and bench["executed"] == 4
    assert bench["rounds_per_sec"] > 0
    assert len(bench["trajectory"]) == 4


def test_smoke_spec_expands_to_2x2():
    points = smoke_spec().expand()
    assert len(points) == 4
    assert {p.params["m"] for p in points} == {2, 3}
    assert {p.adversary["fraction"] for p in points} == {0.0, 0.2}


def test_capacity_preset_round_trip():
    spec = ExperimentSpec(
        name="preset",
        rounds=1,
        seeds=(4,),
        derive_seeds=False,
        base={
            "n": 24,
            "m": 2,
            "lam": 2,
            "referee_size": 6,
            "users_per_shard": 8,
            "tx_per_committee": 3,
        },
        capacity_preset="tiered",
    )
    result = run_sweep(spec).results[0]
    capacities = {node["capacity"] for node in result.nodes}
    assert capacities == {2, 5, 10_000}


def test_scenario_axis_expands_and_runs():
    spec = ExperimentSpec(
        name="scenario-axis",
        rounds=4,
        seeds=(0,),
        base={
            "n": 24,
            "m": 2,
            "lam": 2,
            "referee_size": 6,
            "users_per_shard": 8,
            "tx_per_committee": 3,
        },
        scenario_grid=(None, "partition-halves"),
    )
    points = spec.expand()
    assert [p.scenario for p in points] == [None, "partition-halves"]
    # The scenario distinguishes the arms' cache keys, but both arms run
    # the SAME protocol seed — scenario sweeps are paired comparisons.
    assert points[0].derived_seed == derive_point_seed(
        dict(points[0].params), None, 0, 4
    )
    assert points[0].derived_seed == points[1].derived_seed
    assert points[0].key != points[1].key
    # The pool worker rebuilds a point as SweepPoint(**descriptor).
    assert set(points[0].descriptor()) == {
        f.name for f in dataclasses.fields(SweepPoint)
    }
    # One fault axis: scenario / scenario_grid carry policies too.
    assert len(dataclasses.fields(SweepPoint)) == 8
    assert len(dataclasses.fields(ExperimentSpec)) == 13

    outcome = run_sweep(spec, workers=1)
    clean = outcome.one(scenario=None)
    cut = outcome.one(scenario="partition-halves")
    assert clean.totals["dropped"] == 0
    assert cut.totals["dropped"] > 0


def test_spec_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        ExperimentSpec(name="bad", seeds=(0,), scenario="no-such-preset")
    with pytest.raises(ValueError):
        ExperimentSpec(
            name="bad", seeds=(0,), scenario="churn", scenario_grid=("churn",)
        )


# -- CLI --------------------------------------------------------------------
def test_cli_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "results.json"
    bench = tmp_path / "BENCH_sweep.json"
    code = cli_main([
        "sweep", "--grid", "m=2,3", "--grid", "adversary.fraction=0.0,0.2",
        "--n", "24", "--users", "8", "--txs", "3", "--rounds", "1",
        "--workers", "2", "--out", str(out), "--bench-out", str(bench),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "4 points" in captured
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 4
    assert json.loads(bench.read_text())["points"] == 4
