"""Parallel experiment engine.

Declarative parameter sweeps over CycLedger deployments: an
:class:`ExperimentSpec` (ProtocolParams grid × AdversaryConfig grid ×
seeds), a process-pool :class:`Runner` with deterministic per-point seed
derivation and resume-from-cache, and typed :class:`SweepResult` records
with canonical JSON/CSV serialization.

    from repro.exp import ExperimentSpec, run_sweep

    spec = ExperimentSpec(
        name="shards-vs-adversary",
        base={"n": 48, "lam": 2, "referee_size": 6},
        grid={"m": (2, 3)},
        adversary_grid={"fraction": (0.0, 0.2)},
        seeds=(0, 1),
        rounds=3,
    )
    outcome = run_sweep(spec, workers=4, cache_dir=".sweep-cache")
    outcome.write_json("results.json")   # byte-identical serial or parallel
    outcome.write_bench("BENCH_sweep.json")
"""

from repro.exp.presets import (
    CAPACITY_PRESETS,
    overlap_compare_spec,
    policies_artifact,
    policy_compare_spec,
    role_cells,
    smoke_spec,
    table1_cells,
)
from repro.exp.results import SweepResult
from repro.exp.runner import PointTiming, Runner, SweepOutcome, run_point, run_sweep
from repro.exp.spec import ExperimentSpec, SweepPoint, derive_point_seed

__all__ = [
    "CAPACITY_PRESETS",
    "ExperimentSpec",
    "PointTiming",
    "Runner",
    "SweepOutcome",
    "SweepPoint",
    "SweepResult",
    "derive_point_seed",
    "overlap_compare_spec",
    "policies_artifact",
    "policy_compare_spec",
    "role_cells",
    "run_point",
    "run_sweep",
    "smoke_spec",
    "table1_cells",
]
