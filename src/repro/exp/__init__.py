"""Parallel experiment engine.

Declarative parameter sweeps over deployments: an :class:`ExperimentSpec`
(``base`` keys, a product ``grid`` of axes over the same keys —
ProtocolParams fields, ``adversary.<field>``, ``scenario``, ``backend``,
``capacity_preset`` — and seeds), :func:`run_sweep` over a process pool
with deterministic per-point seed derivation and resume-from-cache, and
typed :class:`SweepResult` records with canonical JSON/CSV serialization.

    from repro.exp import ExperimentSpec, run_sweep

    spec = ExperimentSpec(
        name="shards-vs-adversary",
        base={"n": 48, "lam": 2, "referee_size": 6},
        grid={"m": (2, 3), "adversary.fraction": (0.0, 0.2)},
        seeds=(0, 1),
        rounds=3,
    )
    outcome = run_sweep(spec, workers=4, cache_dir=".sweep-cache")
    outcome.write_json("results.json")   # byte-identical serial or parallel
"""

from repro.exp.presets import (
    CAPACITY_PRESETS,
    TABLE1,
    Table1Row,
    overlap_compare_spec,
    policies_artifact,
    policy_compare_spec,
    role_cells,
    smoke_spec,
    table1_cells,
)
from repro.exp.results import SweepResult
from repro.exp.runner import SweepOutcome, run_point, run_sweep
from repro.exp.spec import ExperimentSpec, SweepPoint, derive_point_seed

__all__ = [
    "CAPACITY_PRESETS",
    "ExperimentSpec",
    "SweepOutcome",
    "SweepPoint",
    "SweepResult",
    "TABLE1",
    "Table1Row",
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
