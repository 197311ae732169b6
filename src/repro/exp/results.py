"""Typed sweep results and their serialization.

A :class:`SweepResult` is the complete, process-portable outcome of one
sweep point: the point descriptor, per-round headline rows, totals, the
phase/role message-census cells, a per-node summary (capacity, behaviour,
reputation, reward) and chain facts.  Everything inside it is a plain JSON
type, so records cross process boundaries as strings, cache cleanly on
disk, and aggregate into byte-identical files regardless of execution
order or worker count.

Wall-clock time deliberately stays *outside* the result (a sweep reports
only its total, ``SweepOutcome.wall_time``): two runs of the same spec must
produce identical ``results.json`` bytes whether they ran serially, on
eight workers, or half-from-cache.  Wall-clock performance is perfbench's
to measure (docs/perf.md).
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.exp.spec import canonical_json

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.backend import CommitteeSimBackend, SimRoundReport


@dataclass(frozen=True)
class SweepResult:
    """One sweep point's outcome (deterministic content only)."""

    point: Mapping[str, Any]  # SweepPoint.descriptor()
    key: str
    totals: Mapping[str, Any]
    per_round: tuple[Mapping[str, Any], ...]
    cells: Mapping[str, Mapping[str, int]]  # "phase/role" -> messages/bytes
    nodes: tuple[Mapping[str, Any], ...]
    chain: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON rendering (inverse of :meth:`from_dict`)."""
        return {
            "point": dict(self.point),
            "key": self.key,
            "totals": dict(self.totals),
            "per_round": [dict(r) for r in self.per_round],
            "cells": {k: dict(v) for k, v in self.cells.items()},
            "nodes": [dict(n) for n in self.nodes],
            "chain": dict(self.chain),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        """Rehydrate a record produced by :meth:`to_dict` (e.g. from the
        on-disk point cache or a worker's JSON reply)."""
        return cls(
            point=data["point"],
            key=data["key"],
            totals=data["totals"],
            per_round=tuple(data["per_round"]),
            cells=data["cells"],
            nodes=tuple(data["nodes"]),
            chain=data["chain"],
        )


#: totals summed over rounds (everything headline a bench might plot)
_SUMMED_ROUND_FIELDS = (
    "submitted",
    "packed",
    "cross_packed",
    "recoveries",
    "messages",
    "bytes",
    "dropped",
    "tx_evicted",
    "intra_accepted",
    "inter_accepted",
    "inter_voted",
    "prefilter_savings",
)


def round_row(report: "SimRoundReport") -> dict[str, Any]:
    """Flatten one round report into a JSON-ready row.

    Reads only the *flat* report contract
    (:class:`repro.core.backend.SimRoundReport`), which every executable
    backend's reports are instances of, so serialization never dispatches
    on the backend.
    """
    return {
        "round": report.round_number,
        "submitted": report.submitted,
        "packed": report.packed,
        "cross_packed": report.cross_packed,
        "recoveries": report.recoveries,
        "messages": report.messages,
        "bytes": report.bytes_sent,
        "dropped": report.dropped,
        "sim_time": report.sim_time,
        "reliable_channels": report.reliable_channels,
        "block": report.block.hash.hex() if report.block else None,
        "intra_accepted": report.intra_accepted,
        "inter_accepted": report.inter_accepted,
        "inter_voted": report.inter_voted,
        "prefilter_savings": report.prefilter_savings,
        # Sim-time span of each pipeline phase, under the pipeline's names.
        "phase_sim_times": dict(report.phase_sim_times),
        "blockgen_subblocks": report.blockgen_subblocks,
        "blockgen_width": report.blockgen_width,
        # Continuous-timeline window + mempool queue health (round-overlap
        # engine; timeline_end - timeline_start == sim_time at overlap=none).
        "timeline_start": report.timeline_start,
        "timeline_end": report.timeline_end,
        "queue_depth": report.queue_depth,
        "tx_evicted": report.tx_evicted,
        "tx_age_mean": report.tx_age_mean,
        "tx_age_max": report.tx_age_max,
        # Epoch-scale observability: RSS sample (0 unless sample_rss — it
        # is host-dependent and must stay out of byte-compared artifacts)
        # and the report's emission sequence number.
        "rss_peak_kb": report.rss_peak_kb,
        "reports_streamed": report.reports_streamed,
    }


def round_totals(rows: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """A run's totals from its round rows (as :func:`round_row` makes them)."""
    totals: dict[str, Any] = {
        name: sum(row[name] for row in rows) for name in _SUMMED_ROUND_FIELDS
    }
    sim_time = 0.0
    for row in rows:  # left to right: ``sum`` rounds floats its own way on 3.12+
        sim_time += row["sim_time"]
    last = rows[-1] if rows else {}
    totals.update(
        sim_time=sim_time,
        rounds=len(rows),
        blocks=sum(row["block"] is not None for row in rows),
        reliable_channels=last.get("reliable_channels", 0),
        # End-to-end latency on the overlap-scheduled continuous timeline:
        # at overlap=none this equals the summed sim_time exactly; at
        # overlap=semicommit it is strictly lower (the pipelining gain).
        e2e_sim_time=last.get("timeline_end", 0.0),
        queue_depth_final=last.get("queue_depth", 0),
        # The float seed comes first, so an all-zero run totals ``0.0``.
        tx_age_max=max([0.0, *(row["tx_age_max"] for row in rows)]),
        rss_peak_kb=max([0, *(row["rss_peak_kb"] for row in rows)]),
        reports_streamed=last.get("reports_streamed", 0),
    )
    return totals


class JsonlReportWriter:
    """Round-report sink writing one canonical JSON row per line.

    Attach as ``ledger.report_sink`` (see
    :func:`repro.core.reporting.emit_round_report`); the emitted stream is
    row-for-row identical to what a legacy in-memory run would flatten,
    so ``[json.loads(line) for line in file]`` equals
    ``[round_row(r) for r in ledger.reports]`` of an unstreamed run.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.rows_written = 0
        self._fh = open(path, "w", encoding="utf-8")

    def __call__(self, report: "SimRoundReport") -> None:
        self._fh.write(canonical_json(round_row(report)) + "\n")
        self.rows_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlReportWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def collect_result(
    ledger: "CommitteeSimBackend",
    reports: Iterable["SimRoundReport"],
    point_descriptor: Mapping[str, Any],
    key: str,
) -> SweepResult:
    """Distil a finished run into a :class:`SweepResult`."""
    rows = tuple(round_row(report) for report in reports)
    cells = {
        f"{phase}/{role}": {
            "messages": cell.messages,
            "bytes": cell.bytes,
            "storage": cell.storage,
        }
        for (phase, role), cell in sorted(ledger.metrics.cells.items())
    }
    nodes = tuple(
        {
            "id": node.node_id,
            "capacity": node.capacity,
            "behavior": node.behavior.name,
            "corrupted": ledger.adversary.is_corrupted(node.node_id),
            "reputation": ledger.reputation.get(node.pk, 0.0),
            "reward": ledger.rewards.get(node.pk, 0.0),
            "key_member": node.is_key_member,
            "referee": node.is_referee,
        }
        for node in ledger.nodes.values()
    )
    chain = {
        "length": len(ledger.chain),
        "valid": ledger.chain.verify(),
        "total_transactions": ledger.total_packed(),
        # Head hash pins the whole chain content: two sweep arms with equal
        # heads finished in byte-identical ledger states (the overlap tests
        # compare this across overlap modes).
        "head": ledger.chain.head.hash.hex() if len(ledger.chain) else None,
    }
    return SweepResult(
        point=dict(point_descriptor),
        key=key,
        totals=round_totals(rows),
        per_round=rows,
        cells=cells,
        nodes=nodes,
        chain=chain,
    )


# -- aggregation & files ----------------------------------------------------
def aggregate_json(
    spec_dict: Mapping[str, Any],
    spec_hash: str,
    results: Iterable[SweepResult],
) -> bytes:
    """The deterministic sweep artifact.

    Records are ordered by point key, the encoding is canonical, and no
    wall-clock data is included — serial and parallel runs of the same
    spec produce byte-identical output.
    """
    payload = {
        "spec": dict(spec_dict),
        "spec_hash": spec_hash,
        "results": [
            r.to_dict() for r in sorted(results, key=lambda r: r.key)
        ],
    }
    return (canonical_json(payload) + "\n").encode("utf-8")


_CSV_TOTAL_COLUMNS = (
    "rounds",
    "submitted",
    "packed",
    "cross_packed",
    "recoveries",
    "messages",
    "bytes",
    "dropped",
    "sim_time",
    "e2e_sim_time",
    "queue_depth_final",
    "tx_evicted",
    "tx_age_max",
    "blocks",
    "reliable_channels",
    "rss_peak_kb",
    "reports_streamed",
)


def write_csv(path: str, results: Iterable[SweepResult]) -> None:
    """Flat one-row-per-point CSV (params as ``p_*``, adversary as ``a_*``;
    the backend/scenario/capacity axes ride along so arms stay
    distinguishable)."""
    results = sorted(results, key=lambda r: r.key)
    param_keys = sorted({k for r in results for k in r.point["params"]})
    adv_keys = sorted(
        {k for r in results for k in (r.point["adversary"] or {})}
    )
    header = (
        [
            "key",
            "seed",
            "derived_seed",
            "backend",
            "scenario",
            "capacity_preset",
        ]
        + [f"p_{k}" for k in param_keys]
        + [f"a_{k}" for k in adv_keys]
        + list(_CSV_TOTAL_COLUMNS)
    )
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for r in results:
        adversary = r.point["adversary"] or {}
        writer.writerow(
            [
                r.key,
                r.point["seed"],
                r.point["derived_seed"],
                r.point.get("backend", "cycledger"),
                r.point.get("scenario") or "",
                r.point.get("capacity_preset") or "",
            ]
            + [r.point["params"].get(k, "") for k in param_keys]
            + [adversary.get(k, "") for k in adv_keys]
            + [r.totals.get(col, "") for col in _CSV_TOTAL_COLUMNS]
        )
    atomic_write_bytes(path, buffer.getvalue().encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Crash-safe write: the cache and artifacts are either complete or
    absent, never truncated (a killed sweep must be resumable)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, obj: Any) -> None:
    """Crash-safe, key-sorted, human-readable JSON write."""
    atomic_write_bytes(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())
