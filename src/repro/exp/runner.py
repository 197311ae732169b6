"""The parallel sweep runner.

Fans :class:`~repro.exp.spec.ExperimentSpec` points out over a
``ProcessPoolExecutor`` (sweep points are embarrassingly parallel — each
owns its ledger, network and RNG streams), caches finished points on disk
keyed by spec hash, and aggregates records deterministically so a
parallel run is byte-identical to a serial run of the same spec.

Workers exchange JSON strings rather than live objects: a point crosses
the pool as its descriptor and comes back as a ``SweepResult`` dict,
keeping the pickling surface trivial and the results cacheable as-is.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.exp.results import (
    SweepResult,
    aggregate_json,
    atomic_write_bytes,
    collect_result,
    write_csv,
)
from repro.exp.spec import ExperimentSpec, SweepPoint


@dataclass(frozen=True)
class SweepOutcome:
    """Everything one :func:`run_sweep` produced."""

    spec: ExperimentSpec
    spec_hash: str
    results: tuple[SweepResult, ...]  # sorted by point key
    executed: int
    from_cache: int
    wall_time: float
    workers: int

    # -- lookup helpers ----------------------------------------------------
    def find(self, **filters: Any) -> list[SweepResult]:
        """Results whose point matches every filter.

        Filter names resolve against the params overrides, then the
        adversary overrides, then the point-level fields (``seed``,
        ``rounds``); e.g. ``find(m=4, fraction=0.2, seed=1)``.
        """
        out = []
        for result in self.results:
            point = result.point
            merged: dict[str, Any] = dict(point["params"])
            merged.update(point["adversary"] or {})
            merged["seed"] = point["seed"]
            merged["rounds"] = point["rounds"]
            merged["scenario"] = point.get("scenario")
            merged["backend"] = point.get("backend", "cycledger")
            if all(merged.get(k) == v for k, v in filters.items()):
                out.append(result)
        return out

    def one(self, **filters: Any) -> SweepResult:
        """The unique result matching ``filters``; raises otherwise."""
        matches = self.find(**filters)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one point for {filters}, got {len(matches)}"
            )
        return matches[0]

    # -- artifacts ---------------------------------------------------------
    def json_bytes(self) -> bytes:
        """The canonical results artifact (byte-identical serial/parallel)."""
        return aggregate_json(self.spec.to_dict(), self.spec_hash, self.results)

    def write_json(self, path: str) -> None:
        """Atomically write :meth:`json_bytes` to ``path``."""
        atomic_write_bytes(path, self.json_bytes())

    def write_csv(self, path: str) -> None:
        """Write the flat one-row-per-point CSV to ``path``."""
        write_csv(path, self.results)


# -- the worker --------------------------------------------------------------
def run_point(point: SweepPoint) -> SweepResult:
    """Execute one sweep point in-process and distil its result.

    The ledger is resolved by name through the backend registry — workers
    never construct a protocol class directly, so every registered backend
    (CycLedger and the executable rivals) runs through the same engine.
    """
    from repro.backends import create_backend
    from repro.core.config import ProtocolParams
    from repro.exp.presets import CAPACITY_PRESETS
    from repro.nodes.adversary import AdversaryConfig
    from repro.scenarios import SCENARIO_PRESETS

    params = ProtocolParams(**dict(point.params), seed=point.derived_seed)
    adversary = (
        AdversaryConfig(**dict(point.adversary))
        if point.adversary is not None
        else None
    )
    capacity_fn = (
        CAPACITY_PRESETS[point.capacity_preset]
        if point.capacity_preset is not None
        else None
    )
    scenario = (
        SCENARIO_PRESETS[point.scenario] if point.scenario is not None else None
    )
    ledger = create_backend(
        point.backend,
        params,
        adversary=adversary,
        capacity_fn=capacity_fn,
        scenario=scenario,
    )
    reports = ledger.run(point.rounds)
    return collect_result(ledger, reports, point.descriptor(), point.key)


def _pool_worker(payload: str) -> str:
    """Top-level (picklable) pool entry: descriptor JSON in, record JSON
    out."""
    # A descriptor's keys are exactly SweepPoint's fields.
    return json.dumps(run_point(SweepPoint(**json.loads(payload))).to_dict())


def _load_cached(folder: str, key: str) -> SweepResult | None:
    try:
        with open(os.path.join(folder, f"{key}.json"), "rb") as fh:
            data = json.loads(fh.read())
        result = SweepResult.from_dict(data)
        if result.to_dict() != data:
            return None  # parses, but does not round-trip: not a record
    except (OSError, ValueError, TypeError, KeyError):
        return None  # absent, unreadable, or JSON but not a record: re-run it
    return result if result.key == key else None


def run_sweep(
    spec: ExperimentSpec,
    workers: int | None = None,
    cache_dir: str | None = None,
    progress: Callable[[int, int, SweepResult], None] | None = None,
) -> SweepOutcome:
    """Run every point of ``spec``, in parallel, resumably, and return the
    aggregated :class:`SweepOutcome`.

    ``workers``: process count (``None`` → ``os.cpu_count()``, capped by
    the number of pending points; ``0``/``1`` → serial in-process
    execution).  ``cache_dir``: when set, finished points are written to
    ``<cache_dir>/<spec_hash>/<point_key>.json`` and found there again on
    the next run — a killed 1000-point sweep resumes where it stopped, and
    an unchanged re-run costs nothing.  ``progress(done, total, result)``
    is invoked after each executed point, in completion order.
    """
    started = time.perf_counter()
    spec_hash = spec.spec_hash()
    points = spec.expand()
    folder = None if cache_dir is None else os.path.join(cache_dir, spec_hash)

    results: dict[str, SweepResult] = {}
    pending: list[SweepPoint] = []
    for point in points:
        cached = None if folder is None else _load_cached(folder, point.key)
        if cached is not None:
            results[point.key] = cached
        else:
            pending.append(point)
    from_cache = len(results)

    def absorb(point: SweepPoint, record: Mapping[str, Any]) -> None:
        result = SweepResult.from_dict(record)
        results[point.key] = result
        if folder is not None:
            atomic_write_bytes(
                os.path.join(folder, f"{point.key}.json"),
                (json.dumps(result.to_dict(), sort_keys=True) + "\n").encode(),
            )
        if progress is not None:
            progress(len(results), len(points), result)

    if workers is None:
        workers = min(len(pending), os.cpu_count() or 1)
    if pending and workers > 1:
        payloads = [json.dumps(p.descriptor()) for p in pending]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for point, reply in zip(pending, pool.map(_pool_worker, payloads)):
                absorb(point, json.loads(reply))
    else:
        for point in pending:
            absorb(point, run_point(point).to_dict())

    return SweepOutcome(
        spec=spec,
        spec_hash=spec_hash,
        results=tuple(results[key] for key in sorted(results)),
        executed=len(pending),
        from_cache=from_cache,
        wall_time=time.perf_counter() - started,
        workers=workers if pending else 0,
    )
