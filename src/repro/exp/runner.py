"""The parallel sweep runner.

Fans :class:`~repro.exp.spec.ExperimentSpec` points out over a
``ProcessPoolExecutor`` (sweep points are embarrassingly parallel — each
owns its ledger, network and RNG streams), caches finished points on disk
keyed by spec hash, and aggregates records deterministically so a
parallel run is byte-identical to a serial run of the same spec.

Workers exchange JSON strings rather than live objects: a point crosses
the pool as its descriptor and comes back as a ``SweepResult`` dict plus a
timing sidecar, keeping the pickling surface trivial and the results
cacheable as-is.
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
    atomic_write_json,
    collect_result,
    write_csv,
)
from repro.exp.spec import ExperimentSpec, SweepPoint


@dataclass(frozen=True)
class PointTiming:
    """Wall-clock measurements for one executed point (perf sidecar only;
    never part of the deterministic results artifact)."""

    key: str
    wall_time: float
    rounds: int

    @property
    def rounds_per_sec(self) -> float:
        """Throughput of this point's execution (0.0 for a zero wall time)."""
        return self.rounds / self.wall_time if self.wall_time > 0 else 0.0


@dataclass(frozen=True)
class SweepOutcome:
    """Everything one :meth:`Runner.run` produced."""

    spec: ExperimentSpec
    spec_hash: str
    results: tuple[SweepResult, ...]  # sorted by point key
    timings: tuple[PointTiming, ...]  # executed points only
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

    def bench_payload(self) -> dict[str, Any]:
        """The perf-trajectory sidecar (``BENCH_sweep.json``): rounds/sec
        and wall time per executed point plus sweep-level throughput, so
        future PRs can diff engine performance."""
        executed_rounds = sum(t.rounds for t in self.timings)
        return {
            "name": self.spec.name,
            "spec_hash": self.spec_hash,
            "workers": self.workers,
            "points": len(self.results),
            "executed": self.executed,
            "from_cache": self.from_cache,
            "wall_time": self.wall_time,
            "rounds_executed": executed_rounds,
            "rounds_per_sec": (
                executed_rounds / self.wall_time if self.wall_time > 0 else 0.0
            ),
            "trajectory": [
                {
                    "key": t.key,
                    "wall_time": t.wall_time,
                    "rounds": t.rounds,
                    "rounds_per_sec": t.rounds_per_sec,
                }
                for t in self.timings
            ],
        }

    def write_bench(self, path: str) -> None:
        """Write the ``BENCH_sweep.json`` perf sidecar to ``path``."""
        atomic_write_json(path, self.bench_payload())


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
    """Top-level (picklable) pool entry: descriptor JSON in, record +
    timing JSON out."""
    # A descriptor's keys are exactly SweepPoint's fields.
    point = SweepPoint(**json.loads(payload))
    start = time.perf_counter()
    result = run_point(point)
    wall = time.perf_counter() - start
    return json.dumps({"record": result.to_dict(), "wall_time": wall})


class Runner:
    """Run an :class:`ExperimentSpec`, in parallel, resumably.

    ``workers``: process count (``None`` → ``os.cpu_count()``, capped by
    the number of points; ``0``/``1`` → serial in-process execution).
    ``cache_dir``: when set, finished points are written to
    ``<cache_dir>/<spec_hash>/<point_key>.json`` and found there again on
    the next run — a killed 1000-point sweep resumes where it stopped, and
    an unchanged re-run costs nothing.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        workers: int | None = None,
        cache_dir: str | None = None,
    ) -> None:
        self.spec = spec
        self.workers = workers
        self.cache_dir = cache_dir

    # -- cache -------------------------------------------------------------
    def _cache_path(self, spec_hash: str, key: str) -> str | None:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, spec_hash, f"{key}.json")

    def _load_cached(self, spec_hash: str, key: str) -> SweepResult | None:
        path = self._cache_path(spec_hash, key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                data = json.loads(fh.read())
        except (OSError, ValueError):
            return None  # unreadable/corrupt cache entry: just re-run it
        if data.get("key") != key:
            return None
        return SweepResult.from_dict(data)

    def _store(self, spec_hash: str, result: SweepResult) -> None:
        path = self._cache_path(spec_hash, result.key)
        if path is not None:
            atomic_write_bytes(
                path,
                (json.dumps(result.to_dict(), sort_keys=True) + "\n").encode(),
            )

    # -- execution ---------------------------------------------------------
    def run(
        self, progress: Callable[[int, int, SweepResult], None] | None = None
    ) -> SweepOutcome:
        """Execute every pending point (cache hits are skipped) and return
        the aggregated :class:`SweepOutcome`.

        ``progress(done, total, result)`` is invoked after each executed
        point, in completion order.
        """
        spec_hash = self.spec.spec_hash()
        points = self.spec.expand()
        started = time.perf_counter()

        results: dict[str, SweepResult] = {}
        pending: list[SweepPoint] = []
        for point in points:
            cached = self._load_cached(spec_hash, point.key)
            if cached is not None:
                results[point.key] = cached
            else:
                pending.append(point)
        from_cache = len(results)

        timings: list[PointTiming] = []
        done = from_cache

        def _absorb(point: SweepPoint, record: Mapping[str, Any], wall: float) -> None:
            nonlocal done
            result = SweepResult.from_dict(record)
            results[point.key] = result
            timings.append(
                PointTiming(key=point.key, wall_time=wall, rounds=point.rounds)
            )
            self._store(spec_hash, result)
            done += 1
            if progress is not None:
                progress(done, len(points), result)

        max_workers = self.workers
        if max_workers is None:
            max_workers = min(len(pending), os.cpu_count() or 1)
        if pending and max_workers > 1:
            payloads = [json.dumps(p.descriptor()) for p in pending]
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                for point, reply in zip(pending, pool.map(_pool_worker, payloads)):
                    data = json.loads(reply)
                    _absorb(point, data["record"], data["wall_time"])
        else:
            for point in pending:
                start = time.perf_counter()
                result = run_point(point)
                _absorb(point, result.to_dict(), time.perf_counter() - start)

        ordered = tuple(
            results[key] for key in sorted(results)
        )
        return SweepOutcome(
            spec=self.spec,
            spec_hash=spec_hash,
            results=ordered,
            timings=tuple(sorted(timings, key=lambda t: t.key)),
            executed=len(pending),
            from_cache=from_cache,
            wall_time=time.perf_counter() - started,
            workers=max_workers if pending else 0,
        )


def run_sweep(
    spec: ExperimentSpec,
    workers: int | None = None,
    cache_dir: str | None = None,
) -> SweepOutcome:
    """One-call convenience: ``Runner(spec, ...).run()``."""
    return Runner(spec, workers=workers, cache_dir=cache_dir).run()
