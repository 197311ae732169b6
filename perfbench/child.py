"""One repeat of one workload, in its own process.

``python -m perfbench.child <workload> --seed N --rounds R --warmup W
--mode plain|spans|profile --spawned-at T --out DIR`` builds the
workload's ledgers, runs the warm-up rounds (all of that is set-up), then
runs ``R`` timed rounds back to back and prints one JSON document.  A
fresh process per repeat makes ``peak_rss_kib`` this repeat's own
high-water and ``setup_s`` include interpreter start and imports.
"""

from __future__ import annotations

import time

_STARTED_WALL = time.time()
_STARTED_PERF = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Callable  # noqa: E402

from perfbench import adapter, tracing  # noqa: E402
from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.workloads import BY_NAME, Workload  # noqa: E402

MODES = ("plain", "spans", "profile")
#: Share of a timed round's wall spent in the calibration bursts before it:
#: enough bursts to follow the host's speed, few enough to stay cheap.
CAL_SHARE = 0.06


def vm_rss_kib() -> int:
    """Current resident set size in KiB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def sim_digest(ledgers: list[Any], rows: list[dict[str, Any]]) -> str:
    """sha256 over everything a pure speed change must leave bit-equal."""
    material = [
        [adapter.head_hash(ledger) for ledger in ledgers],
        sum(r["packed"] for r in rows),
        sum(r["submitted"] for r in rows),
        sum(r["messages"] for r in rows),
        sum(r["bytes_sent"] for r in rows),
        repr(sum(r["sim_time"] for r in rows)),
        sum(r["recoveries"] for r in rows),
    ]
    return hashlib.sha256(json.dumps(material).encode()).hexdigest()


def merge_rows(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """One step's reports (one per backend) folded into one flat row:
    counts and simulated spans add, per-phase sim times merge."""
    merged: dict[str, Any] = {"phase_sim_times": {}, "recovery_times": ()}
    for key in ("submitted", "packed", "messages", "bytes_sent", "sim_time",
                "recoveries", "dropped", "queue_depth", "tx_evicted"):
        merged[key] = sum(r[key] for r in rows)
    merged["tx_age_mean"] = sum(r["tx_age_mean"] for r in rows) / len(rows)
    merged["timeline_span"] = sum(
        r["timeline_end"] - r["timeline_start"] for r in rows
    )
    for r in rows:
        merged["recovery_times"] += tuple(r["recovery_times"])
        for phase, seconds in (r["phase_sim_times"] or {}).items():
            merged["phase_sim_times"][phase] = (
                merged["phase_sim_times"].get(phase, 0.0) + seconds
            )
    return merged


def measure(
    workload: Workload,
    seed: int,
    rounds: int,
    warmup: int,
    mode: str = "plain",
    spawned_at: float | None = None,
    out_dir: str = ".",
    instrument: Callable[[Any], None] | None = None,
) -> dict[str, Any]:
    """Run one repeat and return its raw measurements.

    ``instrument(ledger)`` is called on every ledger object the repeat
    creates — at build and after each checkpoint restore — and is how the
    span recorder (and the tests' leak hook) attach from outside.
    """
    started_wall = _STARTED_WALL if spawned_at is None else spawned_at
    recorder = tracing.SpanRecorder() if mode == "spans" else None
    profile = cProfile.Profile() if mode == "profile" else None
    hooks = [h for h in (recorder.instrument if recorder else None, instrument) if h]
    if recorder:
        recorder.start("setup", at=_STARTED_PERF - (_STARTED_WALL - started_wall))

    calibrator = Calibrator()
    setup_bursts = [calibrator.burst()]
    ledgers = adapter.build(workload, seed, rounds)
    checker = adapter.install_invariants(ledgers[0]) if workload.faults else None
    for ledger in ledgers:
        for hook in hooks:
            hook(ledger)
    setup_bursts.append(calibrator.burst())

    def step() -> list[Any]:
        return [ledger.run_round() for ledger in ledgers]

    round_s = 0.0
    for _ in range(warmup):
        began = time.perf_counter()
        step()
        round_s = time.perf_counter() - began
        setup_bursts.append(calibrator.burst())
    # Sized from the last warm-up round (never a profiled one); one burst
    # a round where there is no warm-up (smoke mode).
    cal_bursts = max(1, math.ceil(CAL_SHARE * round_s / statistics.fmean(setup_bursts)))
    if recorder:
        recorder.end()
    setup_s = time.time() - started_wall
    rss_start = vm_rss_kib()
    traffic_start = adapter.phase_messages(ledgers)

    checkpoint_rounds = workload.checkpoint_rounds(rounds)
    ckpt_path = os.path.join(out_dir, f"perfbench-{os.getpid()}.ckpt")
    if recorder:
        timed = recorder.timed
    elif profile:
        timed = lambda name, fn: profile.runcall(fn)  # noqa: E731
    else:
        timed = lambda name, fn: fn()  # noqa: E731
    rows: list[dict[str, Any]] = []
    walls: list[float] = []
    checkpoint_bytes: list[int] = []
    checkpoint_wall = 0.0
    bursts: list[float] = []
    for index in range(rounds):
        bursts.extend(calibrator.burst() for _ in range(cal_bursts))
        if recorder:
            recorder.round = index
            recorder.start("round")
        began = time.perf_counter()
        reports = profile.runcall(step) if profile else step()
        walls.append(time.perf_counter() - began)
        if recorder:
            recorder.end()
        rows.append(merge_rows([adapter.report_row(r) for r in reports]))
        if index + 1 in checkpoint_rounds:
            os.makedirs(out_dir, exist_ok=True)
            began = time.perf_counter()
            ledgers[0], size = adapter.checkpoint_roundtrip(
                ledgers[0], workload, ckpt_path, timed
            )
            checkpoint_wall += time.perf_counter() - began
            checkpoint_bytes.append(size)
            for hook in hooks:
                hook(ledgers[0])
    bursts.extend(calibrator.burst() for _ in range(cal_bursts))
    rss_end = vm_rss_kib()
    traffic_end = adapter.phase_messages(ledgers)

    failures = [
        f"{workload.name}: chain.verify() failed"
        for ledger in ledgers
        if not adapter.chain_ok(ledger)
    ]
    if checker is not None:
        failures += adapter.violations(checker, ledgers[0])

    result: dict[str, Any] = {
        "workload": workload.name,
        "mode": mode,
        "seed": seed,
        "rounds": rounds,
        "setup_s": setup_s,
        "setup_bursts_s": setup_bursts,
        "walls_s": walls,
        "bursts_s": bursts,
        "bursts_per_round": cal_bursts,
        "rows": rows,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_start_kib": rss_start,
        "rss_end_kib": rss_end,
        "checkpoint_rounds": checkpoint_rounds,
        "checkpoint_bytes": checkpoint_bytes,
        "checkpoint_wall_s": checkpoint_wall,
        "phase_msgs": {
            phase: count - traffic_start.get(phase, 0)
            for phase, count in traffic_end.items()
        },
        "sim_digest": sim_digest(ledgers, rows),
        "failures": failures,
    }
    if recorder:
        recorder.round = -1
        result["span_totals"] = recorder.totals()
        result["span_count"] = len(recorder.spans)
        result["span_cost_s"] = tracing.span_cost_s()
        result["missing"] = recorder.missing
        recorder.write(os.path.join(out_dir, "trace", f"{workload.name}.spans.jsonl"))
    if profile:
        result["profile"] = tracing.fold_profile(profile)
    return result


def main(argv: list[str] | None = None) -> int:
    """Entry point of the measured process."""
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    result = measure(
        BY_NAME[args.workload],
        args.seed,
        args.rounds,
        args.warmup,
        mode=args.mode,
        spawned_at=args.spawned_at,
        out_dir=args.out,
    )
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
