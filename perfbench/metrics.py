"""Metric definitions and the arithmetic from raw repeats to values.

``END_TO_END`` and ``per_layer()`` are the single source of the names,
units, directions and bounds; ``BENCHMARK.json`` is ``manifest()`` written
out, and the tests hold the two together.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from perfbench.calibrate import slowdown
from perfbench.workloads import WORKLOADS

#: What one driver run measures, in seconds, at scale 1.0 (3 repeats).
RUN_SECONDS = 12
#: Repeats of a driver run; ``python -m perfbench run`` defaults to 5.
RUN_REPEATS = 3


@dataclass(frozen=True)
class Metric:
    """Name, unit, direction and (end-to-end only) regression bound."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    doc: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "process start to end of warm-up: interpreter start, imports, "
           "`create_backend`, warm-up rounds; calibrated, median of the repeats"),
    Metric("round_wall_ms_p50", "ms", "lower", 0.25,
           "median host wall per timed round; calibrated, median of the repeats"),
    Metric("packed_tx_per_host_s", "tx/s", "higher", 0.25,
           "packed transactions / summed timed-round host wall: work per "
           "host second at the stated size; calibrated, median of the repeats"),
    Metric("peak_rss_mib", "MiB", "lower", 0.15,
           "`ru_maxrss` of the measured process; median of the repeats"),
    Metric("sim_tx_per_s", "tx/s", "higher", 0.25,
           "packed transactions per SIMULATED second over the timeline span "
           "of the timed rounds (the paper's throughput)"),
    Metric("sim_round_latency_s", "s", "lower", 0.10,
           "SIMULATED seconds per round: timeline span / rounds (uses "
           "`timeline_start/end`, so overlap counts)"),
    Metric("packed_ratio", "ratio", "higher", 0.20,
           "packed / submitted over the timed rounds"),
    Metric("msgs_per_packed_tx", "count", "lower", 0.25,
           "messages sent per committed transaction (Table II)"),
    Metric("bytes_per_packed_tx", "B", "lower", 0.25,
           "bytes sent per committed transaction (Table II)"),
)

#: Pipeline phase names across the three backends.
CYCLEDGER_PHASES = (
    "config", "semicommit", "intra", "inter", "reputation", "selection", "block",
)
PHASES = CYCLEDGER_PHASES + (
    "dissemination", "consensus", "routing", "shard", "atomix",
)

LAYERS = (
    "crypto", "net", "core", "ledger", "backends", "nodes", "scenarios",
    "metrics", "analysis", "exp", "other",
)
MODULES = (
    "crypto.hashing", "crypto.signatures", "crypto.pki",
    "net.simulator", "net.message", "net.node", "net.topology",
    "core.consensus", "core.voting", "core.inter", "core.intra",
    "core.semicommit", "core.recovery", "core.sortition", "core.selection",
    "core.reputation", "core.blockgen", "core.committee", "core.protocol",
    "ledger.workload", "ledger.utxo", "ledger.chain", "ledger.checkpoint",
    "ledger.state", "ledger.transaction",
    "backends.base", "backends.rapidchain", "backends.omniledger",
    "metrics.counters", "nodes.behaviors",
)


def per_layer() -> tuple[Metric, ...]:
    """Every per-layer metric, grouped by the pass that produces it."""
    low = "lower"
    counts = [
        Metric("net.msgs_per_round", "count", low),
        Metric("net.bytes_per_round", "B", low),
        Metric("net.dropped_per_round", "count", low),
        *(Metric(f"net.msgs.{p}", "count", low) for p in PHASES),
        *(Metric(f"core.phase_sim_s.{p}", "s", low) for p in CYCLEDGER_PHASES),
        Metric("core.recoveries_per_round", "count", low),
        Metric("core.recovery_sim_s_mean", "s", low),
        Metric("core.recovery_sim_s_max", "s", low),
        Metric("ledger.queue_depth_mean", "count", low),
        Metric("ledger.tx_evicted_per_round", "count", low),
        Metric("ledger.tx_age_mean_s", "s", low),
        Metric("ledger.checkpoint_bytes_first", "B", low),
        Metric("ledger.checkpoint_bytes_growth_per_100_rounds", "B", low),
        Metric("ledger.rss_growth_kib_per_100_rounds", "KiB", low),
        Metric("host.round_wall_ms_p95", "ms", low),
        Metric("host.round_samples", "count", "higher"),
        Metric("host.us_per_msg", "us", low),
        Metric("host.round_wall_ms_raw_p50", "ms", low),
        Metric("host.slowdown", "ratio", low),
    ]
    spans = [
        *(Metric(f"core.phase_wall_ms.{p}", "ms", low) for p in PHASES),
        Metric("core.round_overhead_wall_ms", "ms", low),
        Metric("net.run_wall_ms_per_round", "ms", low),
        Metric("net.run_calls_per_round", "count", low),
        Metric("ledger.mempool_admit_ms", "ms", low),
        Metric("ledger.mempool_settle_ms", "ms", low),
        Metric("ledger.checkpoint_save_ms", "ms", low),
        Metric("ledger.checkpoint_load_ms", "ms", low),
        Metric("trace.span_overhead_share", "ratio", low),
    ]
    profile = [
        *(Metric(f"self_ms.{layer}", "ms", low) for layer in LAYERS),
        *(Metric(f"self_ms.{module}", "ms", low) for module in MODULES),
        Metric("trace.profile_overhead_share", "ratio", low),
    ]
    return tuple(counts + spans + profile)


def manifest() -> dict[str, Any]:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in per_layer()
        ],
    }


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are read against."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _total(repeat: dict[str, Any], key: str) -> float:
    return sum(row[key] for row in repeat["rows"])


def speed(repeat: dict[str, Any]) -> float:
    """Host slowdown during the timed rounds of one measured process."""
    return slowdown(repeat["bursts_s"])


def repeat_end_to_end(repeat: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics of one repeat.  Host times are divided by
    the slowdown the repeat's own calibration bursts saw."""
    walls = repeat["walls_s"]
    packed = _total(repeat, "packed")
    span = _total(repeat, "timeline_span")
    return {
        "setup_s": repeat["setup_s"] / slowdown(repeat["setup_bursts_s"]),
        "round_wall_ms_p50": 1e3 * statistics.median(walls) / speed(repeat),
        "packed_tx_per_host_s": _ratio(packed, sum(walls) / speed(repeat)),
        "peak_rss_mib": repeat["peak_rss_kib"] / 1024.0,
        "sim_tx_per_s": _ratio(packed, span),
        "sim_round_latency_s": _ratio(span, len(walls)),
        "packed_ratio": _ratio(packed, _total(repeat, "submitted")),
        "msgs_per_packed_tx": _ratio(_total(repeat, "messages"), packed),
        "bytes_per_packed_tx": _ratio(_total(repeat, "bytes_sent"), packed),
    }


def end_to_end(repeats: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Median over the repeats of each per-repeat metric, with the
    min/max and quartile spread of the repeats beside it."""
    per_repeat = [repeat_end_to_end(r) for r in repeats]
    out = {}
    for metric in END_TO_END:
        values = [p[metric.name] for p in per_repeat]
        out[metric.name] = {
            "value": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "spread": quartile_spread(values),
        }
    return out


def layer_counts(repeats: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer numbers from the untraced repeats: exact simulated counts
    (taken from the first repeat; every repeat has the same) and the
    calibrated host-side numbers over all repeats."""
    first = repeats[0]
    rounds = first["rounds"]
    rows = first["rows"]
    recovery_times = [t for row in rows for t in row["recovery_times"]]
    out = {
        "net.msgs_per_round": _total(first, "messages") / rounds,
        "net.bytes_per_round": _total(first, "bytes_sent") / rounds,
        "net.dropped_per_round": _total(first, "dropped") / rounds,
        "core.recoveries_per_round": _total(first, "recoveries") / rounds,
        "core.recovery_sim_s_mean": (
            statistics.fmean(recovery_times) if recovery_times else 0.0
        ),
        "core.recovery_sim_s_max": max(recovery_times, default=0.0),
        "ledger.queue_depth_mean": _total(first, "queue_depth") / rounds,
        "ledger.tx_evicted_per_round": _total(first, "tx_evicted") / rounds,
        "ledger.tx_age_mean_s": _total(first, "tx_age_mean") / rounds,
    }
    for phase in PHASES:
        out[f"net.msgs.{phase}"] = first["phase_msgs"].get(phase, 0) / rounds
    for phase in CYCLEDGER_PHASES:
        out[f"core.phase_sim_s.{phase}"] = (
            sum((row["phase_sim_times"] or {}).get(phase, 0.0) for row in rows) / rounds
        )
    sizes, taken_after = first["checkpoint_bytes"], first["checkpoint_rounds"]
    out["ledger.checkpoint_bytes_first"] = float(sizes[0]) if sizes else 0.0
    out["ledger.checkpoint_bytes_growth_per_100_rounds"] = (
        100.0 * (sizes[-1] - sizes[0]) / (taken_after[-1] - taken_after[0])
        if len(sizes) > 1
        else 0.0
    )
    out["ledger.rss_growth_kib_per_100_rounds"] = statistics.median(
        100.0 * (r["rss_end_kib"] - r["rss_start_kib"]) / r["rounds"] for r in repeats
    )
    walls = sorted(w / speed(r) for r in repeats for w in r["walls_s"])
    out["host.round_wall_ms_p95"] = 1e3 * walls[max(0, -(-95 * len(walls) // 100) - 1)]
    out["host.round_samples"] = float(len(walls))
    out["host.us_per_msg"] = statistics.median(
        _ratio(1e6 * sum(r["walls_s"]) / speed(r), _total(r, "messages"))
        for r in repeats
    )
    out["host.round_wall_ms_raw_p50"] = 1e3 * statistics.median(
        statistics.median(r["walls_s"]) for r in repeats
    )
    out["host.slowdown"] = statistics.median(speed(r) for r in repeats)
    return out


def calibrated_wall_s(repeats: list[dict[str, Any]]) -> float:
    """Median over the untraced repeats of the calibrated timed wall —
    the base both tracing-overhead shares are taken against."""
    return statistics.median(sum(r["walls_s"]) / speed(r) for r in repeats)


def overhead_share(traced_pass: dict[str, Any], base_wall_s: float) -> float:
    """Calibrated timed wall of a traced pass / the untraced base - 1."""
    return _ratio(sum(traced_pass["walls_s"]) / speed(traced_pass), base_wall_s) - 1.0


def layer_spans(span_pass: dict[str, Any], base_wall_s: float) -> dict[str, float | None]:
    """Per-layer numbers from the span pass, as calibrated means per timed
    round, so that phases + round overhead add up to the traced round wall
    exactly.  A wrapper whose target was missing reports ``None``."""
    totals = span_pass["span_totals"]
    missing = set(span_pass["missing"])
    rounds = span_pass["rounds"]
    scale = 1e3 / (rounds * speed(span_pass))

    def ms(name: str) -> float:
        return scale * totals.get(name, [0.0, 0])[0]

    out: dict[str, float | None] = {
        f"core.phase_wall_ms.{phase}": ms("phase." + phase) for phase in PHASES
    }
    out["core.round_overhead_wall_ms"] = ms("round") - sum(
        ms("phase." + phase) for phase in PHASES
    )
    wrapped = {
        "net.run_wall_ms_per_round": "net.run",
        "ledger.mempool_admit_ms": "mempool.admit",
        "ledger.mempool_settle_ms": "mempool.settle",
    }
    for name, span in wrapped.items():
        out[name] = None if span in missing else ms(span)
    out["net.run_calls_per_round"] = (
        None if "net.run" in missing else totals.get("net.run", [0.0, 0])[1] / rounds
    )
    out["ledger.checkpoint_save_ms"] = ms("checkpoint.save")
    out["ledger.checkpoint_load_ms"] = ms("checkpoint.load")
    out["trace.span_overhead_share"] = overhead_share(span_pass, base_wall_s)
    return out


def layer_profile(profile_pass: dict[str, Any], base_wall_s: float) -> dict[str, float]:
    """Calibrated self time per timed round by layer and by module, from
    the profile pass (built-in/stdlib/numpy time already charged to its
    caller)."""
    self_s = profile_pass["profile"]["self_s"]
    scale = 1e3 / (profile_pass["rounds"] * speed(profile_pass))
    out = {f"self_ms.{layer}": 0.0 for layer in LAYERS}
    for module, seconds in self_s.items():
        layer = module.split(".")[0]
        key = f"self_ms.{layer}" if f"self_ms.{layer}" in out else "self_ms.other"
        out[key] += scale * seconds
    for module in MODULES:
        out[f"self_ms.{module}"] = scale * self_s.get(module, 0.0)
    out["trace.profile_overhead_share"] = overhead_share(profile_pass, base_wall_s)
    return out
