"""Scale curve and soak: the two measurements perfbench cannot express.

Usage: ``python benchmarks/bench_scale.py [--out BENCH_scale.json] [--smoke]``.  The
curve in §III-D's shape (every backend; committees of 32, a referee committee of 8)
and a 2 000-round bounded-memory soak at n = 64, each in a fresh child process.  A
curve point times one round after a warm one (and, through ``gc.callbacks``, the
collector in it) between bursts of ``perfbench.calibrate``'s kernel, divided by their
slowdown; REPEATS times round-robin, fastest kept (docs/perf.md)."""

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
from repro.metrics.fitting import r_squared_loglog, scaling_exponent

CURVE = (8, 16, 32, 64, 128)  # m; n = 32·m + 8
REPEATS, BURSTS = 3, 5  # per point; calibration bursts each side of the timed round
PLATEAU_LIMIT = 1.5  # soak: RSS peak / at the reference round; round wall last / first
WINDOW = 100  # soak rounds in the first-vs-last round-wall comparison
SOAK = {"rounds": 2000, "reference_round": 500, "compact_every": 500}
SMOKE_SOAK = {"rounds": 300, "reference_round": 100, "compact_every": 100}
LATENCY_SPREAD, MSGS_STEP, FLAT_FROM = 1.05, 1.05, 32  # max / min; per doubling of m >= 32
EXPONENT, MIN_R2 = (0.7, 1.3), 0.9  # §III-D: CycLedger packed ~ n^b, quasi-linear
WORKLOAD = dict(lam=2, seed=0, users_per_shard=24, tx_per_committee=6,
                cross_shard_ratio=0.3, invalid_ratio=0.1)


def sized(m: int) -> ProtocolParams:
    """§III-D's shape: m committees of 32 and a fixed referee committee of 8."""
    return ProtocolParams(n=32 * m + 8, m=m, referee_size=8, **WORKLOAD)


def measure_point(backend: str, m: int) -> dict:
    """Child entry: one curve point, measured in this process."""
    calibrator, ledger = Calibrator(), create_backend(backend, sized(m))
    ledger.run_round()  # warm: caches filled, lazy set-up done
    bursts = [calibrator.burst() for _ in range(BURSTS)]
    stamps = []  # (clock, generation) at the start and at the end of each collector pass
    gc.callbacks.append(lambda _, info: stamps.append((time.perf_counter(), info["generation"])))
    began = time.perf_counter()
    report = ledger.run_round()
    raw = time.perf_counter() - began
    gc.callbacks.pop()
    bursts += [calibrator.burst() for _ in range(BURSTS)]
    slow, msgs, n = slowdown(bursts), report.messages, ledger.params.n
    return {"backend": backend, "n": n, "m": m, "messages": msgs, "wall_s_raw": raw,
            "wall_s": raw / slow, "us_per_msg": 1e6 * raw / slow / msgs if msgs else None,
            "packed": report.packed, "msgs_per_node": msgs / n,
            "bytes_per_node": report.bytes_sent / n, "sim_round_latency_s": report.sim_time,
            "rss_mib": rss_kb() / 1024, "gen2_passes": sum(g == 2 for _, g in stamps[::2]),
            "gc_s": sum(b[0] - a[0] for a, b in zip(stamps[::2], stamps[1::2])) / slow}


def soak_ledger():
    """Bounded memory: poisson mempool, pruned chain, trimmed spent history."""
    ledger = create_backend("cycledger", ProtocolParams(
        n=64, m=4, referee_size=8, **WORKLOAD, arrival_process="poisson", arrival_rate=48.0,
        mempool_max_age=4, chain_retention=8, spent_retention=4096, sample_rss=True))
    ledger.report_retention = 1  # reports dropped after emission
    return ledger


def run_soak(ledger, rounds: int, reference_round: int, compact_every: int) -> dict:
    """Child entry: RSS at ``reference_round`` and the peak after it (ratio None
    if never reached or unreadable); calibrated round-wall p50, first/last WINDOW.
    Every ``compact_every`` rounds the UTXO dicts are rebuilt at their live size."""
    calibrator, walls, bursts = Calibrator(), [], []  # per-round s; (round, burst s)
    reference_kb = peak_kb = 0
    for done in range(1, rounds + 1):
        if done % 10 == 1:
            bursts.append((done, calibrator.burst()))
        began = time.perf_counter()
        ledger.run_round()
        walls.append(time.perf_counter() - began)
        if done % compact_every == 0:  # content-neutral: ``UTXOSet.compact``
            for utxos in [ledger.global_utxos] + [s.utxos for s in ledger.shard_states]:
                utxos.compact()
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


def throughput_exponent(rows: list[dict]) -> tuple[float, float]:
    """§III-D's fit on CycLedger's rows: the exponent b of packed ~ n^b, and R²."""
    ns, packed = zip(*[(r["n"], r["packed"]) for r in rows if r["backend"] == "cycledger"])
    return scaling_exponent(ns, packed), r_squared_loglog(ns, packed)


def failures(payload: dict) -> list[str]:
    """The gates as (claim, ratio, bound): per backend, wall_s never falls (noise: re-run),
    latency and msgs_per_node stay flat; soak plateaus; then §III-D's exponent (CycLedger)."""
    curves, soak, checks = {}, payload["soak"], []
    for row in payload["scale"]:
        curves.setdefault(row["backend"], []).append(row)
    for backend, rows in curves.items():
        latency, pairs = sorted(r["sim_round_latency_s"] for r in rows), list(zip(rows, rows[1:]))
        checks += [(f"{backend}: wall_s falls from n={a['n']} to n={b['n']}",
                    a["wall_s"] / b["wall_s"], 1.0) for a, b in pairs]
        checks.append((f"{backend}: round latency is not flat in n (max / min)",
                       latency[-1] / latency[0], LATENCY_SPREAD))
        checks += [(f"{backend}: msgs_per_node is not flat from m={a['m']} to m={b['m']}",
                    b["msgs_per_node"] / a["msgs_per_node"], MSGS_STEP)
                   for a, b in pairs if a["m"] >= FLAT_FROM]
    checks += [("soak RSS plateau violated", soak["plateau_ratio"] or 0, PLATEAU_LIMIT),
               ("soak round wall grows", soak["round_ms_p50_last"] / soak["round_ms_p50_first"],
                PLATEAU_LIMIT)]
    problems = [f"{what}: {ratio:.3f}x > {cap}x" for what, ratio, cap in checks if ratio > cap]
    if len(curves.get("cycledger", ())) >= 3:  # two points fit any power law exactly
        b, r2 = throughput_exponent(payload["scale"])
        if not (EXPONENT[0] < b < EXPONENT[1] and r2 > MIN_R2):
            problems.append(f"§III-D throughput is not quasi-linear in n: packed ~ n^{b:.2f}, "
                            f"R² {r2:.3f}; want b in {EXPONENT}, R² > {MIN_R2}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--smoke", action="store_true", help="3 CycLedger points once, short soak")
    args = parser.parse_args(argv)
    points, repeats, soak = ([("cycledger", m) for m in CURVE[:3]], 1, SMOKE_SOAK) if args.smoke \
        else ([(backend, m) for backend in sorted(BACKEND_REGISTRY) for m in CURVE], REPEATS, SOAK)
    runs = [[in_child("measure_point(%r, %d)" % point) for point in points] for _ in range(repeats)]
    payload = {"version": repro.__version__, "repeats": repeats,
               "scale": [min(rows, key=lambda r: r["wall_s"]) for rows in zip(*runs)],
               "soak": in_child(f"run_soak(bench_scale.soak_ledger(), **{soak!r})")}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("cycledger packed ~ n^%.3f, R² %.4f" % throughput_exponent(payload["scale"]))
    problems = failures(payload)
    sys.stderr.writelines(f"bench_scale: FAILED {problem}\n" for problem in problems)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
