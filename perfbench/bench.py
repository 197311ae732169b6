"""The measurement protocol: which processes run, in what order.

Closed loop, one driver: each repeat is a fresh child process that calls
``run_round()`` back to back; children run strictly one after another
(never more than one busy process), round-robin across workloads so a
slow minute of the host is spread over all of them.  Untraced repeats
give the end-to-end numbers; one span pass and one profile pass per
workload give the per-layer numbers and are never used for end-to-end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Iterable

from perfbench import metrics
from perfbench.workloads import BY_NAME, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "perfbench", "results")
#: A child that runs longer than this (times the scale) is stopped and
#: counted as a failure; three of them fit the contract's 180 s per run.
CHILD_TIMEOUT_S = 55


def run_child(
    workload: Workload, seed: int, rounds: int, warmup: int, mode: str, out_dir: str,
    timeout_s: float = CHILD_TIMEOUT_S,
) -> dict[str, Any]:
    """One repeat in a fresh process; returns the child's JSON document.
    A child that fails or hangs is reported in ``failures``, not raised."""
    env = dict(os.environ)
    paths = [ROOT, os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [
        sys.executable, "-m", "perfbench.child", workload.name,
        "--seed", str(seed), "--rounds", str(rounds), "--warmup", str(warmup),
        "--mode", mode, "--out", out_dir, "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=timeout_s, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"{workload.name}/{mode}: timed out"]}
    if done.returncode != 0:
        return {"failures": [f"{workload.name}/{mode}: exit code {done.returncode}"]}
    return json.loads(done.stdout)


def run_protocol(
    names: Iterable[str],
    seed: int = 0,
    scale: float = 1.0,
    repeats: int = metrics.RUN_REPEATS,
    traced: bool = False,
    smoke: bool = False,
    out_dir: str = DEFAULT_OUT,
) -> dict[str, Any]:
    """Run the protocol over the named workloads and reduce it to metrics.

    ``smoke`` is the tests' fast mode: no warm-up, a few rounds, and the
    workload-size checks (enough recoveries) are skipped.
    """
    workloads = [BY_NAME[name] for name in names]
    plan = {
        w.name: (w.smoke_rounds if smoke else w.timed_rounds(scale),
                 0 if smoke else w.warmup)
        for w in workloads
    }
    timeout_s = CHILD_TIMEOUT_S * max(1.0, scale)
    raw: dict[str, dict[str, Any]] = {w.name: {"plain": []} for w in workloads}
    for _ in range(repeats):
        for w in workloads:
            raw[w.name]["plain"].append(
                run_child(w, seed, *plan[w.name], "plain", out_dir, timeout_s)
            )
    if traced:
        for mode in ("spans", "profile"):
            for w in workloads:
                raw[w.name][mode] = run_child(
                    w, seed, *plan[w.name], mode, out_dir, timeout_s
                )
    return {
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "smoke": smoke,
        "claim": None,
        "workloads": {
            w.name: reduce_workload(w, raw[w.name], smoke) for w in workloads
        },
    }


def reduce_workload(
    workload: Workload, raw: dict[str, Any], smoke: bool
) -> dict[str, Any]:
    """Checks plus metrics for one workload's children."""
    children = raw["plain"] + [raw[m] for m in ("spans", "profile") if m in raw]
    failures = [f for child in children for f in child.get("failures", [])]
    finished = [c for c in children if "sim_digest" in c]
    digests = {c["sim_digest"] for c in finished}
    if len(digests) > 1:
        failures.append(
            f"{workload.name}: sim_digest differs between "
            + ", ".join(f"{c['mode']}={c['sim_digest'][:12]}" for c in finished)
        )
    plain = [c for c in raw["plain"] if "sim_digest" in c]
    out: dict[str, Any] = {
        "sim_digest": sorted(digests)[0] if digests else None,
        "failures": failures,
        "attempted": 0,
        "packed": 0,
        "end_to_end": {},
        "per_layer": {},
    }
    if not plain:
        return out
    first = plain[0]
    out["rounds"] = first["rounds"]
    out["attempted"] = int(sum(row["submitted"] for row in first["rows"]))
    out["packed"] = int(sum(row["packed"] for row in first["rows"]))
    out["timed_s"] = [sum(c["walls_s"]) for c in plain]
    out["end_to_end"] = metrics.end_to_end(plain)
    out["per_layer"] = metrics.layer_counts(plain)
    recoveries = out["per_layer"]["core.recoveries_per_round"]
    if workload.faults and not smoke and recoveries < 1 / 3:
        failures.append(
            f"{workload.name}: {recoveries:.2f} recoveries per round, "
            "the fault schedule should give at least 1/3 (20 in 60 rounds)"
        )
    base = metrics.calibrated_wall_s(plain)
    if "sim_digest" in raw.get("spans", {}):
        out["per_layer"].update(metrics.layer_spans(raw["spans"], base))
        out["span_cost_share"] = (
            raw["spans"]["span_count"] * raw["spans"]["span_cost_s"]
            / sum(raw["spans"]["walls_s"])
        )
    if "sim_digest" in raw.get("profile", {}):
        out["per_layer"].update(metrics.layer_profile(raw["profile"], base))
        out["hotspots"] = raw["profile"]["profile"]["hotspots"]
        out["profile_total_s"] = raw["profile"]["profile"]["total_s"]
        out["profile_wall_s"] = (
            sum(raw["profile"]["walls_s"]) + raw["profile"]["checkpoint_wall_s"]
        )
    return out


def sim_line(result: dict[str, Any], workload: str) -> str:
    """What a pure speed or simplicity change must leave equal at a fixed
    (seed, seconds), as one line to ``diff``.  The contract's JSON object
    has no room for it (exactly four keys, ``failed`` 0 on a correct run,
    bounds wide enough for the driver's varying seeds), so ``run.py``
    prints it on the line before."""
    w = result["workloads"][workload]
    return (
        f"perfbench: sim workload={workload} seed={result['seed']} "
        f"rounds={w.get('rounds', 0)} submitted={w['attempted']} "
        f"packed={w['packed']} sim_digest={w['sim_digest']}"
    )


def driver_line(result: dict[str, Any], workload: str, traced: bool) -> dict[str, Any]:
    """The one JSON object the benchmark contract asks for on the last
    line: every end-to-end metric (untraced run) or every per-layer
    metric (traced run).  A per-layer value that could not be measured
    (``None``: its target no longer exists) is written as 0.0, since the
    contract wants numbers; the results file keeps the ``null``."""
    w = result["workloads"][workload]
    correct = not w["failures"]
    if traced:
        values = {
            m.name: (w["per_layer"].get(m.name) or 0.0, m.unit)
            for m in metrics.per_layer()
        }
    else:
        values = {
            m.name: (w["end_to_end"].get(m.name, {}).get("value", 0.0), m.unit)
            for m in metrics.END_TO_END
        }
    attempted = max(1, w["attempted"])
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }
