"""The only module of ``perfbench`` that touches ``src/repro``.

Everything the benchmark needs from the simulator goes through the names
used here (the frozen surface listed in README.md).  Instrumentation is
installed from outside: phase hooks through the pipeline's public hook
API and wrappers set as instance attributes on public entry points.  A
target that no longer exists is skipped and reported in ``missing``; it
never crashes the run.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import repro
from repro import (
    AdversaryConfig,
    ProtocolParams,
    Scenario,
    create_backend,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenarios import HALVES, Churn, LeaderCrash, Partition

from perfbench.workloads import COMMON_PARAMS, Workload

#: Directory holding the layer packages (``<here>/<layer>/<module>.py``).
SOURCE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Round-report fields the benchmark reads (all flat, backend-neutral).
REPORT_FIELDS = (
    "submitted",
    "packed",
    "messages",
    "bytes_sent",
    "sim_time",
    "recoveries",
    "recovery_times",
    "dropped",
    "queue_depth",
    "tx_evicted",
    "tx_age_mean",
    "timeline_start",
    "timeline_end",
    "phase_sim_times",
)

#: Wrapped entry points: span name -> attribute path on a ledger.
WRAP_TARGETS = {
    "net.run": ("net", "run"),
    "mempool.admit": ("mempool", "admit"),
    "mempool.settle": ("mempool", "settle"),
}


def network_model() -> dict[str, float]:
    """The injected message-delay model every workload runs under."""
    net = ProtocolParams().net
    return {
        "delta": net.delta,
        "gamma": net.gamma,
        "partial_base": net.partial_base,
        "jitter": net.jitter,
    }


def fault_scenario(m: int, first_round: int, rounds: int) -> Scenario:
    """The benchmark-owned fault timeline for rounds ``first_round`` ..
    ``first_round + rounds - 1``: a leader crash every 2nd round rotating
    over the committees, one halves partition window and one churn window.
    """
    last = first_round + rounds - 1
    events: list[Any] = [
        LeaderCrash(round=r, committees=((r // 2) % m,))
        for r in range(first_round, last + 1)
        if r % 2 == 0
    ]
    third = max(1, rounds // 3)
    window = max(0, min(2, third - 1))
    events.append(
        Partition(
            first_round + third,
            min(last, first_round + third + window),
            committees=HALVES,
        )
    )
    events.append(
        Churn(
            min(last, first_round + 2 * third),
            min(last, first_round + 2 * third + window),
            offline_fraction=0.1,
        )
    )
    return Scenario(name="perfbench-faults", events=tuple(events))


def build(workload: Workload, seed: int, rounds: int) -> list[Any]:
    """Fresh ledgers for one repeat (one per backend of the workload)."""
    params = ProtocolParams(seed=seed, **COMMON_PARAMS, **workload.params)
    ledgers = []
    for backend in workload.backends:
        adversary = (
            AdversaryConfig(fraction=workload.adversary_fraction)
            if workload.adversary_fraction
            else None
        )
        scenario = (
            fault_scenario(params.m, 1, workload.warmup + rounds)
            if workload.faults
            else None
        )
        ledger = create_backend(
            backend, params, adversary=adversary, scenario=scenario
        )
        configure(ledger, workload)
        ledgers.append(ledger)
    return ledgers


def configure(ledger: Any, workload: Workload) -> None:
    """Per-object settings a checkpoint restore does not carry over."""
    if workload.report_retention is not None:
        ledger.report_retention = workload.report_retention


def install_invariants(ledger: Any) -> Any:
    """A census-mode invariant checker on ``ledger`` (violations are
    collected, the run decides what to do with them)."""
    # Imported here: repro.analysis pulls in scipy (~0.3 s, ~65 MiB), which
    # only the workload that checks invariants should pay for.
    from repro.analysis.invariants import InvariantChecker

    checker = InvariantChecker(raise_on_violation=False)
    checker.install(ledger)
    return checker


def violations(checker: Any, ledger: Any) -> list[str]:
    """Every violation recorded so far plus the end-of-run chain sweep."""
    return [str(v) for v in checker.check_final(ledger)]


def phase_names(ledger: Any) -> tuple[str, ...]:
    """Names of the ledger's pipeline phases, in execution order."""
    return tuple(ledger.pipeline.names)


def add_phase_hooks(
    ledger: Any,
    pre: Callable[[Any, str], None],
    post: Callable[[Any, str], None],
) -> None:
    """``pre``/``post`` around every phase of the ledger's pipeline."""
    for name in phase_names(ledger):
        ledger.pipeline.add_phase_hook(name, "pre", pre)
        ledger.pipeline.add_phase_hook(name, "post", post)


def add_round_start_hook(ledger: Any, hook: Callable[[], None]) -> None:
    """``hook()`` once per round, before the first phase runs."""
    first = phase_names(ledger)[0]
    ledger.pipeline.add_phase_hook(first, "pre", lambda ctx, name: hook())


def wrap_entry_points(
    ledger: Any, wrapper: Callable[[str, Callable], Callable]
) -> list[str]:
    """Replace each entry point in WRAP_TARGETS by ``wrapper(name, fn)``
    on this ledger's own objects; returns the names that were missing."""
    missing = []
    for name, (owner_attr, method) in WRAP_TARGETS.items():
        owner = getattr(ledger, owner_attr, None)
        original = getattr(owner, method, None)
        if not callable(original):
            missing.append(name)
            continue
        setattr(owner, method, wrapper(name, original))
    return missing


def checkpoint_roundtrip(
    ledger: Any,
    workload: Workload,
    path: str,
    timed: Callable[[str, Callable[[], Any]], Any],
) -> tuple[Any, int]:
    """Save ``ledger`` to ``path``, load it back; returns the restored
    ledger and the checkpoint's size in bytes.  ``timed(name, fn)`` runs
    ``fn`` (the tracer's seam around the two calls)."""
    timed("checkpoint.save", lambda: save_checkpoint(ledger, path))
    size = os.path.getsize(path)
    restored = timed("checkpoint.load", lambda: load_checkpoint(path))
    os.unlink(path)
    configure(restored, workload)
    return restored, size


def report_row(report: Any) -> dict[str, Any]:
    """The flat fields of one round report (missing ones as ``None``)."""
    return {name: getattr(report, name, None) for name in REPORT_FIELDS}


def head_hash(ledger: Any) -> str:
    """Hex hash of the chain head ("" while nothing has been committed)."""
    try:
        return ledger.chain.head.hash.hex()
    except IndexError:
        return ""


def chain_ok(ledger: Any) -> bool:
    """Whether every retained hash link of the chain verifies."""
    return bool(ledger.chain.verify())


def phase_messages(ledgers: list[Any]) -> dict[str, int]:
    """Cumulative messages per phase, summed over roles and ledgers, from
    the ledgers' cumulative metrics."""
    totals: dict[str, int] = {}
    for ledger in ledgers:
        for phase, _role, messages, _bytes, _storage in ledger.metrics.summary_rows():
            totals[phase] = totals.get(phase, 0) + messages
    return totals
