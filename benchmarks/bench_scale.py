"""Scale curve and soak: the two measurements perfbench cannot express.

Usage: ``python benchmarks/bench_scale.py [--out BENCH_scale.json] [--smoke]``.
The wall-clock-vs-n curve (n = 256 … 4096, every backend, paper-mode sizing)
and a 2 000-round bounded-memory soak at n = 64 gated on RSS and round-wall plateaus.
The method is perfbench's: each measurement is a fresh child process; a curve
point runs one warm round, then times one round (and, through ``gc.callbacks``,
the cyclic collector inside it) between bursts of ``perfbench.calibrate``'s kernel
and divides by their slowdown; REPEATS times round-robin, fastest kept (docs/perf.md).
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(HERE), "src")]

import repro
from perfbench.calibrate import Calibrator, slowdown
from repro.backends import BACKEND_REGISTRY, create_backend
from repro.core.config import ProtocolParams
from repro.core.reporting import rss_kb
from repro.ledger.checkpoint import compact_ledger

CURVE = (256, 512, 1024, 2048, 4096)
REPEATS, BURSTS = 3, 5  # per point; calibration bursts each side of the timed round
PLATEAU_LIMIT = 1.5  # soak: RSS peak / at the reference round; round wall last / first
WINDOW = 100  # soak rounds in the first-vs-last round-wall comparison
SOAK = {"rounds": 2000, "reference_round": 500, "compact_every": 500}
SMOKE_SOAK = {"rounds": 300, "reference_round": 100, "compact_every": 100}
WORKLOAD = dict(lam=2, seed=0, users_per_shard=24, tx_per_committee=6,
                cross_shard_ratio=0.3, invalid_ratio=0.1)


def sized(n: int, **extra) -> ProtocolParams:
    """Paper-mode sizing: committee count grows with n, committee size stays
    ≈ 30; the referee size is searched upward so it never underflows."""
    m = max(4, n // 32)
    referee = next(r for r in range(8, 8 + m) if (n - r) % m == 0)
    return ProtocolParams(n=n, m=m, referee_size=referee, **WORKLOAD, **extra)


def measure_point(backend: str, n: int) -> dict:
    """Child entry: one curve point, measured in this process."""
    calibrator, params = Calibrator(), sized(n)
    ledger = create_backend(backend, params)
    ledger.run_round()  # warm: caches filled, lazy set-up done
    bursts = [calibrator.burst() for _ in range(BURSTS)]
    stamps = []  # (clock, generation) at the start and at the end of each collector pass
    gc.callbacks.append(lambda _, info: stamps.append((time.perf_counter(), info["generation"])))
    began = time.perf_counter()
    report = ledger.run_round()
    raw = time.perf_counter() - began
    gc.callbacks.pop()
    bursts += [calibrator.burst() for _ in range(BURSTS)]
    slow, msgs = slowdown(bursts), report.messages
    return {"backend": backend, "n": n, "m": params.m, "messages": msgs, "wall_s_raw": raw,
            "wall_s": raw / slow, "us_per_msg": 1e6 * raw / slow / msgs if msgs else None,
            "rss_mib": rss_kb() / 1024, "gen2_passes": sum(g == 2 for _, g in stamps[::2]),
            "gc_s": sum(b[0] - a[0] for a, b in zip(stamps[::2], stamps[1::2])) / slow}


def soak_ledger():
    """Bounded memory: poisson mempool, pruned chain, trimmed spent history."""
    ledger = create_backend("cycledger", sized(
        64, arrival_process="poisson", arrival_rate=48.0, mempool_max_age=4,
        chain_retention=8, spent_retention=4096, sample_rss=True))
    ledger.report_retention = 1  # reports dropped after emission
    return ledger


def run_soak(ledger, rounds: int, reference_round: int, compact_every: int) -> dict:
    """Child entry: RSS at ``reference_round`` and the peak after it (ratio None
    if never reached or unreadable); calibrated round-wall p50, first/last WINDOW."""
    calibrator, walls, bursts = Calibrator(), [], []  # per-round s; (round, burst s)
    reference_kb = peak_kb = 0
    for done in range(1, rounds + 1):
        if done % 10 == 1:
            bursts.append((done, calibrator.burst()))
        began = time.perf_counter()
        ledger.run_round()
        walls.append(time.perf_counter() - began)
        if done % compact_every == 0:
            compact_ledger(ledger)
        if done == reference_round:
            reference_kb = rss_kb()
        elif done > reference_round and done % 50 == 0:
            peak_kb = max(peak_kb, rss_kb())
    peak_kb = max(peak_kb, rss_kb())

    def p50_ms(lo: int, hi: int) -> float:
        seen = [burst for done, burst in bursts if lo < done <= hi]
        return 1e3 * statistics.median(walls[lo:hi]) / slowdown(seen)
    return {"n": ledger.params.n, "rounds": rounds, "reference_round": reference_round,
            "rss_reference_mib": reference_kb / 1024, "rss_peak_mib": peak_kb / 1024,
            "plateau_ratio": peak_kb / reference_kb if reference_kb else None,
            "round_ms_p50_first": p50_ms(0, min(WINDOW, rounds)),
            "round_ms_p50_last": p50_ms(max(0, rounds - WINDOW), rounds),
            "reports_streamed": ledger.reports_streamed,
            "total_transactions": ledger.chain.total_transactions()}


def in_child(call: str) -> dict:
    """Evaluate ``bench_scale.<call>`` in a fresh interpreter."""
    print("measuring", call, flush=True)
    code = f"import json, bench_scale; print(json.dumps(bench_scale.{call}))"
    out = subprocess.check_output([sys.executable, "-c", code], cwd=HERE)
    return json.loads(out.splitlines()[-1])


def failures(payload: dict) -> list[str]:
    """The gates: a falling curve is noise (re-run); soak RSS and round wall plateau."""
    soak = payload["soak"]
    growth = soak["round_ms_p50_last"] / soak["round_ms_p50_first"]
    ratios = {"RSS plateau violated": soak["plateau_ratio"], "round wall grows": growth}
    return [f"{a['backend']}: wall_s falls from n={a['n']} to n={b['n']}"
            for a, b in zip(payload["scale"], payload["scale"][1:])
            if a["backend"] == b["backend"] and b["wall_s"] < a["wall_s"]] + [
        f"soak {what}: {ratio:.2f}x > {PLATEAU_LIMIT}x"
        for what, ratio in ratios.items() if ratio and ratio > PLATEAU_LIMIT]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--smoke", action="store_true", help="one point, short soak")
    args = parser.parse_args(argv)
    points = [("cycledger", 256)] if args.smoke else [
        (backend, n) for backend in sorted(BACKEND_REGISTRY) for n in CURVE]
    runs = [[in_child("measure_point(%r, %d)" % point) for point in points]
            for _ in range(REPEATS)]
    soak = SMOKE_SOAK if args.smoke else SOAK
    payload = {"version": repro.__version__, "repeats": REPEATS,
               "scale": [min(rows, key=lambda r: r["wall_s"]) for rows in zip(*runs)],
               "soak": in_child(f"run_soak(bench_scale.soak_ledger(), **{soak!r})")}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    problems = failures(payload)
    sys.stderr.writelines(f"bench_scale: FAILED {problem}\n" for problem in problems)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
