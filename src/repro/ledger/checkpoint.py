"""Deterministic snapshot/restore of a running ledger (ISSUE 10).

A checkpoint captures *everything that survives a round boundary*: the
chain's retained suffix plus pruning frontier, the global and per-shard
UTXO sets, the reputation table, the persistent
:class:`~repro.ledger.workload.TxMempool` queue, the workload generator's
spendable/spent bookkeeping, the adversary's corruption state, scenario
driver state, the overlap scheduler's timeline frontier, cumulative
metrics, the staged next-round roles, and every RNG child generator's
exact position via ``bit_generator.state`` (protocol, workload, adversary,
network, scenario — the five-way fan-out of the
:class:`repro.core.backend.CommitteeSimBackend` constructor).

Round-local state is deliberately *not* captured: node role flags, the
network's event queue and per-round classifiers/partitions, and per-node
behaviours are all rebuilt from scratch by ``_assign_round``/``net.reset``
at the top of every round, so a checkpoint taken between ``run_round``
calls needs none of it.  That is the checkpoint contract: **capture and
restore only at round boundaries**.

A restored run is byte-identical to the uninterrupted run — same chain
head hash, same reputation table, same round-report stream — which the
checkpoint tests assert across all three backends, mid-partition and
mid-policy.

``capacity_fn`` is not picklable (arbitrary callables) and must be
re-supplied at load time; capacity draws happen during construction from
the protocol RNG whose state is overwritten afterwards, so supplying the
same function reproduces the same capacities.  The ``scenario`` is a
frozen dataclass and travels inside the checkpoint, so a restored run
resumes the timeline it was captured on.

On disk a checkpoint is a fixed header — magic, layout version, payload
length, SHA-256 of the payload — followed by the pickled capture.
:func:`load_checkpoint` checks all four before it unpickles anything, so
a truncated, corrupted, outdated or foreign file fails by name instead of
running whatever its pickle stream says.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any, Callable

import numpy as np

#: Bump when the capture layout changes incompatibly (2: the pickled
#: ``ProtocolParams`` lost a field; 3: one scenario-driver block, no
#: ``policy`` entries, and files carry the checked header; 4: transaction
#: inputs and outputs are plain tuples, so the stream names no record class
#: but ``Transaction``, rebuilt from its fields; 5: ``workload.effects``
#: holds ``(home, consumed, transaction)`` and ``metrics`` lost its per-node,
#: per-channel and event counters; 6: the pickled ``ProtocolParams`` lost
#: its vote-window field, now ``core.config.VOTE_WINDOW_DELTAS``, and its
#: ``NetworkParams`` lost the partial-channel stretch bound; 7: the
#: adversary block lost ``pending_corruptions``, the delayed-corruption
#: queue nothing filled; 8: ``mempool.queue`` holds the ``TaggedTx``s beside
#: ``mempool.stamps``, with no ``QueuedTx`` class left to name, and
#: ``workload.effects`` maps a txid to its consumed entry alone).
CHECKPOINT_VERSION = 8

#: What the current layout changed, named in a version mismatch.
_LAYOUT_CHANGE = (
    "layout 8 dropped 'QueuedTx' (mempool.queue + mempool.stamps) and "
    "'workload.effects' holds the consumed entry, not (home, consumed, tx)"
)

#: File header: magic, layout version, payload length, payload SHA-256.
MAGIC = b"CYCLCKPT"
_HEADER = struct.Struct(">8sIQ32s")

#: Pinned pickle protocol so checkpoint files are stable across the
#: Python versions the CI matrix spans (3.10–3.13).
PICKLE_PROTOCOL = 4


def _capture_metrics(metrics: Any) -> dict[str, Any]:
    return {
        "phase": metrics.phase,
        "cells": {
            key: (cell.messages, cell.bytes, cell.storage)
            for key, cell in metrics.cells.items()
        },
        "node_roles": dict(metrics.node_roles),
    }


def _restore_metrics(metrics: Any, state: dict[str, Any]) -> None:
    metrics.phase = state["phase"]
    metrics.cells.clear()
    for key, (messages, nbytes, storage) in state["cells"].items():
        cell = metrics.cells[key]
        cell.messages = messages
        cell.bytes = nbytes
        cell.storage = storage
    metrics.node_roles.clear()
    metrics.node_roles.update(state["node_roles"])


def capture_checkpoint(ledger: Any) -> dict[str, Any]:
    """Snapshot ``ledger`` at a round boundary into a picklable dict.

    Mutable containers are copied, so the ledger may keep running after
    the capture without disturbing the snapshot.
    """
    net = ledger.net
    chain = ledger.chain
    workload = ledger.workload
    mempool = ledger.mempool
    adversary = ledger.adversary
    scheduler = ledger.overlap_scheduler

    rng_states: dict[str, Any] = {
        "proto": ledger.rng.bit_generator.state,
        "workload": workload.draws.state,
        "adversary": adversary.rng.bit_generator.state,
        "net": net.rng.bit_generator.state,
    }
    driver = ledger.scenario_driver

    return {
        "version": CHECKPOINT_VERSION,
        "backend": ledger.backend_name,
        "params": ledger.params,
        "adversary_config": adversary.config,
        "scenario": ledger.scenario,
        "round_number": ledger.round_number,
        "randomness": ledger.randomness,
        # Staged roles are reassigned wholesale each round (never mutated
        # in place), so the references themselves are safe to retain and
        # their exact container types are preserved through the pickle.
        "next_referee": ledger._next_referee,
        "next_leaders": ledger._next_leaders,
        "next_partials": ledger._next_partials,
        "rng": rng_states,
        "net": {
            "epoch": net.epoch,
            "now": net.now,
            # A partially-consumed pre-drawn jitter block is live RNG
            # state: restoring generator position alone would replay the
            # wrong jitter values.  Stored as the array the generator drew.
            "jitter_block": (
                None if net._jitter_block is None else np.array(net._jitter_block)
            ),
            "jitter_idx": net._jitter_idx,
        },
        "chain": {
            "blocks": list(chain.blocks),
            "retention": chain.retention,
            "pruned_blocks": chain.pruned_blocks,
            "pruned_transactions": chain.pruned_transactions,
            "pruned_head_hash": chain.pruned_head_hash,
            "pruned_last_round": chain.pruned_last_round,
        },
        "global_utxos": ledger.global_utxos.snapshot(),
        "shard_utxos": [
            state.utxos.snapshot() for state in ledger.shard_states
        ],
        "reputation": {
            "pks": list(ledger.reputation),
            "values": list(ledger.reputation.values()),
        },
        "rewards": dict(ledger.rewards),
        "metrics": _capture_metrics(ledger.metrics),
        "mempool": {
            "queue": list(mempool.queue),
            "stamps": list(mempool.stamps),
            "total_admitted": mempool.total_admitted,
            "total_evicted": mempool.total_evicted,
            "last_arrivals": mempool._last_arrivals,
        },
        "workload": {
            "nonce": workload._nonce,
            "spendable": [list(bucket) for bucket in workload._spendable],
            "spent": list(workload._spent),
            "effects": dict(workload._effects),
        },
        "adversary": {
            "corruption_order": list(adversary._corruption_order),
            "corrupted": set(adversary.corrupted),
            "offline": set(adversary.offline),
            "forced_offline": set(adversary.forced_offline),
        },
        "scenario_driver": (
            None
            if driver is None
            else {
                "crashed_until": dict(driver._crashed_until),
                "baseline": (
                    None
                    if driver._baseline is None
                    else list(driver._baseline)
                ),
                "healed": driver._healed,
                "log": list(driver.log),
                "rng": driver.rng.bit_generator.state,
            }
        ),
        "overlap": {
            "prev_ends": dict(scheduler._prev_ends),
            "prev_round_end": scheduler._prev_round_end,
            "makespan": scheduler.makespan,
        },
        "reports_streamed": ledger.reports_streamed,
    }


def restore_checkpoint(
    state: dict[str, Any],
    capacity_fn: Callable[[int, np.random.Generator], int] | None = None,
) -> Any:
    """Rebuild a ledger from a :func:`capture_checkpoint` dict.

    The backend is constructed normally (same deterministic genesis,
    keys, capacities and scenario), then every mutable field is
    overwritten with the captured state.
    """
    from repro.backends import create_backend

    if state["version"] != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint field 'version': {state['version']} != supported "
            f"{CHECKPOINT_VERSION} ({_LAYOUT_CHANGE})"
        )
    ledger = create_backend(
        state["backend"],
        state["params"],
        adversary=state["adversary_config"],
        capacity_fn=capacity_fn,
        scenario=state["scenario"],
    )

    ledger.round_number = state["round_number"]
    ledger.randomness = state["randomness"]
    ledger._next_referee = state["next_referee"]
    ledger._next_leaders = state["next_leaders"]
    ledger._next_partials = state["next_partials"]

    ledger.rng.bit_generator.state = state["rng"]["proto"]
    ledger.workload.draws.state = state["rng"]["workload"]
    ledger.adversary.rng.bit_generator.state = state["rng"]["adversary"]
    net = ledger.net
    net.rng.bit_generator.state = state["rng"]["net"]
    net.epoch = state["net"]["epoch"]
    net.now = state["net"]["now"]
    jitter = state["net"]["jitter_block"]
    net._jitter_block = None if jitter is None else jitter.tolist()
    net._jitter_idx = state["net"]["jitter_idx"]

    chain = ledger.chain
    chain.blocks = list(state["chain"]["blocks"])
    chain.retention = state["chain"]["retention"]
    chain.pruned_blocks = state["chain"]["pruned_blocks"]
    chain.pruned_transactions = state["chain"]["pruned_transactions"]
    chain.pruned_head_hash = state["chain"]["pruned_head_hash"]
    chain.pruned_last_round = state["chain"]["pruned_last_round"]

    ledger.global_utxos.restore(state["global_utxos"])
    for shard_state, snapshot in zip(
        ledger.shard_states, state["shard_utxos"]
    ):
        shard_state.utxos.restore(snapshot)

    pks = state["reputation"]["pks"]
    if list(ledger.reputation) != pks:
        raise ValueError(
            "checkpoint reputation roster does not match the rebuilt "
            "ledger (seed or backend mismatch?)"
        )
    # Files written while the table was an array carry a float64 ndarray.
    ledger.reputation.update(zip(pks, map(float, state["reputation"]["values"])))

    ledger.rewards.clear()
    ledger.rewards.update(state["rewards"])
    _restore_metrics(ledger.metrics, state["metrics"])

    mempool = ledger.mempool
    mempool.queue = list(state["mempool"]["queue"])
    mempool.stamps = list(state["mempool"]["stamps"])
    mempool.total_admitted = state["mempool"]["total_admitted"]
    mempool.total_evicted = state["mempool"]["total_evicted"]
    mempool._last_arrivals = state["mempool"]["last_arrivals"]

    workload = ledger.workload
    workload._nonce = state["workload"]["nonce"]
    workload._spendable = [
        list(bucket) for bucket in state["workload"]["spendable"]
    ]
    workload._spent = list(state["workload"]["spent"])
    workload._effects = dict(state["workload"]["effects"])

    adversary = ledger.adversary
    adversary._corruption_order = list(state["adversary"]["corruption_order"])
    adversary.corrupted = set(state["adversary"]["corrupted"])
    adversary.offline = set(state["adversary"]["offline"])
    adversary.forced_offline = set(state["adversary"]["forced_offline"])

    captured = state["scenario_driver"]
    if captured is not None:
        driver = ledger.scenario_driver
        driver._crashed_until = dict(captured["crashed_until"])
        baseline = captured["baseline"]
        driver._baseline = None if baseline is None else list(baseline)
        driver._healed = captured["healed"]
        driver.log = list(captured["log"])
        driver.rng.bit_generator.state = captured["rng"]

    scheduler = ledger.overlap_scheduler
    scheduler._prev_ends = dict(state["overlap"]["prev_ends"])
    scheduler._prev_round_end = state["overlap"]["prev_round_end"]
    scheduler.makespan = state["overlap"]["makespan"]

    ledger.reports_streamed = state["reports_streamed"]
    return ledger


def save_checkpoint(ledger: Any, path: str) -> dict[str, Any]:
    """Capture ``ledger`` and write header + pickled snapshot to ``path``
    atomically (write-then-rename, so a crashed save never leaves a torn
    file).  Returns the captured state dict."""
    import os
    import tempfile

    state = capture_checkpoint(ledger)
    payload = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    header = _HEADER.pack(MAGIC, CHECKPOINT_VERSION, len(payload), digest)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return state


def load_checkpoint(
    path: str,
    capacity_fn: Callable[[int, np.random.Generator], int] | None = None,
) -> Any:
    """Check ``path``'s header, then unpickle it and rebuild the ledger it
    captured.  Nothing is unpickled unless magic, version, length and
    digest all match; the ``ValueError`` names the one that did not.  See
    :func:`restore_checkpoint` for ``capacity_fn``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size or not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a checkpoint file (magic mismatch)")
    _magic, version, length, digest = _HEADER.unpack_from(data)
    payload = memoryview(data)[_HEADER.size :]
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: header field 'version': checkpoint version {version} "
            f"!= {CHECKPOINT_VERSION} ({_LAYOUT_CHANGE})"
        )
    if len(payload) != length:
        raise ValueError(
            f"{path}: payload length {len(payload)} != {length} in the "
            "header (truncated file?)"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path}: payload digest mismatch (corrupted file?)")
    return restore_checkpoint(pickle.loads(payload), capacity_fn=capacity_fn)
