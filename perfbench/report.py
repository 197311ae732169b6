"""Printing and comparing results (``run`` / ``aa`` / ``compare``)."""

from __future__ import annotations

from typing import Any

from perfbench import metrics

#: Acceptance limits of the traced passes (checked by ``run``).
SPAN_OVERHEAD_MAX = 0.05
PROFILE_SUM_TOLERANCE = 0.02
PROFILE_OTHER_MAX = 0.10
#: Settings two result files must share before ``compare`` reads them.
SETTINGS = ("seed", "scale", "repeats", "smoke")
#: Printed beside the calibrated verdicts: the calibration kernel runs in
#: the measured process, so a change that slows both hides part of itself
#: in the calibrated numbers and shows in these two.
UNCALIBRATED = ("host.slowdown", "host.round_wall_ms_raw_p50")


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}"


def print_result(result: dict[str, Any], network: dict[str, float]) -> None:
    """Every metric of every workload by name, with its unit."""
    print(
        f"perfbench: seed={result['seed']} scale={result['scale']} "
        f"repeats={result['repeats']} closed loop, one process at a time"
    )
    print(
        "message delay (injected, simulated): "
        + " ".join(f"{k}={v:g}" for k, v in network.items())
        + "; sim_* metrics are on the simulated clock, *_host_s/_wall_ on the host clock"
    )
    for name, w in result["workloads"].items():
        print(f"\n== {name}: {w.get('rounds', 0)} timed rounds per repeat, "
              f"timed seconds per repeat {[round(t, 2) for t in w.get('timed_s', [])]}")
        print(f"   sim_digest {w['sim_digest']}")
        for metric in metrics.END_TO_END:
            cell = w["end_to_end"].get(metric.name)
            if cell is None:
                continue
            print(
                f"   {metric.name:34s} {_fmt(cell['value']):>12s} {metric.unit:6s}"
                f" min {_fmt(cell['min'])} max {_fmt(cell['max'])}"
                f" spread {cell['spread']:.3f} bound {metric.bound:g}"
            )
        for metric in metrics.per_layer():
            if metric.name in w["per_layer"]:
                value = w["per_layer"][metric.name]
                print(f"   {metric.name:50s} {_fmt(value):>12s} {metric.unit}")
        if "span_cost_share" in w:
            print(f"   span recording cost (spans x measured cost per span / wall) "
                  f"{w['span_cost_share']:.5f}")
        for spot in w.get("hotspots", []):
            print(f"   hotspot {spot['function']:44s} "
                  f"{spot['self_s']:.3f} s self, {spot['calls']} calls")
        for failure in w["failures"]:
            print(f"   FAILED {failure}")


def trace_checks(result: dict[str, Any]) -> list[str]:
    """Breaches of the traced passes' own acceptance limits."""
    problems = []
    for name, w in result["workloads"].items():
        layer = w["per_layer"]
        # The wall ratio (trace.span_overhead_share) cannot resolve 5% on a
        # host whose speed moves by more than that between two processes,
        # so the limit is held against the measured cost of recording.
        cost = w.get("span_cost_share", 0.0)
        if cost > SPAN_OVERHEAD_MAX:
            problems.append(
                f"{name}: recording spans costs {cost:.3f} of the span pass "
                f"(> {SPAN_OVERHEAD_MAX})"
            )
        if "profile_total_s" in w:
            total, wall = w["profile_total_s"], w["profile_wall_s"]
            if abs(total - wall) > PROFILE_SUM_TOLERANCE * wall:
                problems.append(
                    f"{name}: profile self time {total:.3f} s != profiled wall {wall:.3f} s"
                )
            layers = sum(layer[f"self_ms.{x}"] for x in metrics.LAYERS)
            if layers and layer["self_ms.other"] > PROFILE_OTHER_MAX * layers:
                problems.append(f"{name}: self_ms.other is more than 10% of the round")
    return problems


def worsening(metric: metrics.Metric, before: float, after: float) -> float:
    """Relative change of ``after`` against ``before``, positive = worse."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if metric.better == "lower" else -change


def verdict(metric: metrics.Metric, a: dict[str, float], b: dict[str, float]) -> str:
    """better / within / worse, or unresolved when the change exceeds the
    bound but the two sets of repeats overlap."""
    change = worsening(metric, a["value"], b["value"])
    if abs(change) <= metric.bound:
        return "within"
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if overlap:
        return "unresolved"
    return "worse" if change > 0 else "better"


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, str, str]]:
    """Print B against A: one row per (workload, end-to-end metric), then
    the per-layer changes by size.  Returns (workload, name, outcome) for
    every row that is not ``within`` and every sim_digest mismatch."""
    bad = []
    layer_rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        same = wa["sim_digest"] == wb["sim_digest"]
        print(f"\n== {name}: sim_digest {'equal' if same else 'DIFFERENT'}")
        if not same:
            bad.append((name, "sim_digest", "different"))
        for metric in metrics.END_TO_END:
            ca, cb = wa["end_to_end"].get(metric.name), wb["end_to_end"].get(metric.name)
            if ca is None or cb is None:
                continue
            change = worsening(metric, ca["value"], cb["value"])
            outcome = verdict(metric, ca, cb)
            print(
                f"   {metric.name:26s} A {_fmt(ca['value']):>12s}  B {_fmt(cb['value']):>12s}"
                f" {metric.unit:6s} worse by {change:+.4f} bound {metric.bound:g}  {outcome}"
            )
            if outcome != "within":
                bad.append((name, metric.name, outcome))
        for raw in UNCALIBRATED:
            va, vb = wa["per_layer"].get(raw), wb["per_layer"].get(raw)
            print(f"   {raw:26s} A {_fmt(va):>12s}  B {_fmt(vb):>12s}  (not calibrated)")
        for metric in metrics.per_layer():
            va, vb = wa["per_layer"].get(metric.name), wb["per_layer"].get(metric.name)
            if va is None or vb is None or va == vb:
                continue
            layer_rows.append(((vb - va) / abs(va) if va else float("inf"),
                               name, metric, va, vb))
    if layer_rows:
        print("\nper-layer changes, largest first")
    for size, name, metric, va, vb in sorted(layer_rows, key=lambda r: -abs(r[0])):
        print(f"   {name:10s} {metric.name:48s} {_fmt(va):>12s} -> {_fmt(vb):>12s} "
              f"{metric.unit:6s} ({size:+.3f})")
    return bad
