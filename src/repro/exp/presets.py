"""Named capacity presets and canned sweep specs.

Capacity functions cannot travel through a JSON spec (workers re-resolve
them by name), so heterogeneous-capacity experiments register a preset
here and reference it via ``ExperimentSpec.capacity_preset``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exp.spec import ExperimentSpec

CapacityFn = Callable[[int, np.random.Generator], int]


def tiered_capacity(node_id: int, rng: np.random.Generator) -> int:
    """§VII-A's heterogeneous population: a strong majority (which keeps the
    committee decision vector reliable), plus mid and weak minorities."""
    tier = node_id % 10
    if tier < 6:
        return 10_000
    if tier < 8:
        return 5
    return 2


def weak_heavy_capacity(node_id: int, rng: np.random.Generator) -> int:
    """Strong majority with a very weak tail — uniform leader lotteries
    often land on a weak node whose capacity caps the TXList."""
    return 10_000 if node_id % 10 < 6 else 3


CAPACITY_PRESETS: dict[str, CapacityFn] = {
    "uniform": lambda node_id, rng: 10_000,
    "tiered": tiered_capacity,
    "weak_heavy": weak_heavy_capacity,
}


def policy_compare_spec() -> ExperimentSpec:
    """Adaptive-adversary behaviour, seed-paired across backends: every
    backend runs its policy-free arm and a leaderboard-targeting
    corruption arm on the same protocol seed, so the per-backend packed
    ratio (policy ÷ policy-free) isolates how much damage the *same*
    adaptive adversary does to each protocol.  CycLedger's leader
    recovery (Alg. 6) keeps committing through corrupted leaders; the
    rivals model no recovery, so their ratios fall well below
    CycLedger's — the executable version of the paper's robustness
    claim."""
    return ExperimentSpec(
        name="policy-compare",
        rounds=5,
        seeds=(0,),
        base={
            "n": 48,
            "m": 4,
            "lam": 2,
            "referee_size": 8,
            "users_per_shard": 24,
            "tx_per_committee": 6,
            "cross_shard_ratio": 0.3,
        },
        scenario_grid=(None, "adaptive-corruption"),
        backend_grid=("cycledger", "rapidchain", "omniledger_sim"),
    )


def policies_artifact(outcome, seed: int | None = None) -> dict:
    """The dict ``BENCH_policies.json`` holds, from a finished
    ``policy-compare`` sweep: per backend, packed transactions in the
    policy-free arm and under the adaptive-corruption preset (seed-paired).
    ``seed`` picks one seed of a multi-seed sweep (default: the spec's
    first).  The one source of the measured dishonest-leader ratio: the
    bench, its tier-1 value gate, ``repro table1`` and the Table I bench
    all read it here."""
    spec, policy = outcome.spec, "adaptive-corruption"
    seed = spec.seeds[0] if seed is None else seed
    arms = {}
    for backend in spec.backend_grid:
        plain = outcome.one(backend=backend, scenario=None, seed=seed)
        attacked = outcome.one(backend=backend, scenario=policy, seed=seed)
        # Seed-paired: both arms of one backend run the same protocol seed.
        assert plain.point["derived_seed"] == attacked.point["derived_seed"]
        base, hit = plain.totals["packed"], attacked.totals["packed"]
        arms[backend] = {
            "packed_baseline": base,
            "packed_under_policy": hit,
            "packed_ratio": hit / base if base else 0.0,
            "recoveries_under_policy": attacked.totals["recoveries"],
        }
    return {
        "spec": spec.name,
        "policy": policy,
        "rounds": spec.rounds,
        "backends": arms,
    }


def overlap_compare_spec() -> ExperimentSpec:
    """Sequential vs pipelined execution, seed-paired: both arms run the
    identical protocol (byte-identical final chain/UTXO/reputation state)
    and differ only in how the end-to-end timeline composes — the
    ``semicommit`` arm overlaps round r+1's config + semi-commit prefix
    with round r's block suffix (§III-E/§V), so its ``e2e_sim_time``
    total lands ≥ 10% below the ``none`` arm's.  Eight rounds amortize
    the un-overlappable first round; the poisson mempool keeps a standing
    queue so the latency story includes sustained load."""
    return ExperimentSpec(
        name="overlap-compare",
        rounds=8,
        seeds=(0,),
        base={
            "n": 48,
            "m": 4,
            "lam": 2,
            "referee_size": 8,
            "users_per_shard": 24,
            "tx_per_committee": 6,
            "cross_shard_ratio": 0.3,
            "arrival_process": "poisson",
            "arrival_rate": 50.0,
            "mempool_max_age": 4,
        },
        grid={"overlap": ("none", "semicommit")},
    )


def smoke_spec() -> ExperimentSpec:
    """The CI smoke sweep: a tiny 2×2 grid (shard count × adversary
    fraction) that exercises the full protocol, the process pool, and the
    deterministic aggregation in a few seconds."""
    return ExperimentSpec(
        name="ci-smoke",
        rounds=2,
        seeds=(0,),
        base={
            "n": 24,
            "lam": 2,
            "referee_size": 6,
            "users_per_shard": 12,
            "tx_per_committee": 4,
            "cross_shard_ratio": 0.25,
            "invalid_ratio": 0.1,
        },
        grid={"m": (2, 3)},
        adversary_grid={"fraction": (0.0, 0.2)},
    )
