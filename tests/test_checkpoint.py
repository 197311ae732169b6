"""Checkpoint/resume byte-identity (repro.ledger.checkpoint).

The contract under test: a run resumed from a round-boundary checkpoint
is byte-identical to the uninterrupted run — same chain head hash, same
reputation table, same round-report stream — on every backend, including
mid-scenario and mid-policy captures where driver state (crash windows,
corruption baselines, spawned RNG positions) is live.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from config_cube import Cell, assert_same_run, check, reference, view_of

from repro.backends import BACKEND_REGISTRY
from repro.ledger.checkpoint import (
    _HEADER,
    CHECKPOINT_VERSION,
    MAGIC,
    capture_checkpoint,
    load_checkpoint,
    restore_checkpoint,
)


@pytest.mark.parametrize("backend", sorted(BACKEND_REGISTRY))
def test_roundtrip_byte_identity_all_backends(backend):
    check(Cell(backend, seed=7, rounds=8), split=4)


def test_save_load_roundtrip():
    check(Cell(seed=7, rounds=6), split=3, via="file")


def test_capture_is_isolated_from_further_running():
    """The snapshot must be a copy: the donor ledger keeps running after
    capture without disturbing what was captured."""
    check(Cell(seed=7, rounds=6), split=3, donor_runs_on=True)


def test_checkpoint_mid_draw_block_resumes_exactly():
    """Capture while the workload's draw stream is part way through its
    pre-drawn block with a 32-bit half-word buffered: the checkpoint holds
    the logical position, so a fresh ledger restored from it, and the
    original ledger set back to it after drawing further, both continue
    exactly as the uninterrupted run does."""
    from repro.ledger.draws import BLOCK

    def mixed_draws(stream) -> list:
        # Enough to cross into the next block, every width class the
        # generator uses, and 32-bit words that start on either half.
        return [
            stream.integers(0, k) if k % 5 else stream.random()
            for k in range(1, 2 * BLOCK)
        ]

    cell, split = Cell(seed=7, rounds=9), 6
    half = cell.build()
    half.run(split)
    draws = half.workload.draws
    assert draws._raw and 0 < draws._next < BLOCK and draws._has_half
    state = capture_checkpoint(half)
    assert state["rng"]["workload"]["has_uint32"] == 1

    resumed = restore_checkpoint(state)
    resumed_view = view_of(resumed, resumed.run(cell.rounds - split))
    assert_same_run(reference(cell), resumed_view, split)

    # Reading the state for the capture does not move the original either.
    assert_same_run(reference(cell), view_of(half, half.run(cell.rounds - split)), split)

    uninterrupted = cell.build()
    uninterrupted.run(split)
    want = mixed_draws(uninterrupted.workload.draws)
    assert mixed_draws(restore_checkpoint(state).workload.draws) == want
    half.workload.draws.state = state["rng"]["workload"]
    assert mixed_draws(half.workload.draws) == want


def test_mid_scenario_checkpoint():
    """Capture inside a partition-halves fault window: the scenario
    driver's crash bookkeeping and spawned RNG resume exactly."""
    cell = Cell(seed=7, scenario="partition-halves", fraction=0.1, rounds=5)
    check(cell, split=2, via="file")


def test_mid_policy_checkpoint():
    """Capture while an adaptive-corruption policy is mid-campaign: the
    policy's baseline/healed state (and the corrupted set) resume exactly."""
    cell = Cell(seed=7, scenario="adaptive-corruption", fraction=0.2, rounds=8)
    _, run = check(cell, split=3, via="file")
    assert run.ledger.scenario_driver._baseline is not None


def test_roundtrip_with_bounded_memory_knobs():
    """Pruned chain + trimmed spent-history + poisson mempool all travel
    through the checkpoint; the resumed bounded run matches the
    uninterrupted unbounded run."""
    arrival = (("arrival_process", "poisson"), ("arrival_rate", 16.0), ("mempool_max_age", 4))
    cell = Cell(seed=7, arrival=arrival, spent_retention=64, rounds=8)
    _, run = check(cell, split=4, chain_retention=3)
    assert run.ledger.chain.pruned_blocks == 5
    assert len(run.ledger.chain.blocks) == 3
    assert run.ledger.chain.verify()


def test_version_mismatch_rejected():
    half = Cell(seed=7).build()
    half.run(1)
    state = capture_checkpoint(half)
    # A newer layout, version 7 (its mempool queued one entry object per
    # transaction and its pending effects held the transaction), version 6
    # (its adversary block carried a delayed-corruption queue), version 5
    # (its params carried the vote window and the partial-channel stretch),
    # version 4 (its effects held pre-built output entries and its metrics
    # per-node counters), version 3 (its transactions held record objects)
    # and version 2 (it had a second driver block).
    for stale in (CHECKPOINT_VERSION + 1, 7, 6, 5, 4, 3, 2):
        state["version"] = stale
        with pytest.raises(ValueError, match="version"):
            restore_checkpoint(state)


def test_stale_defer_created_key_is_ignored():
    """A version-2 file written while the generator had two publish rules
    carries the flag that chose one; the state beside it is the same under
    the one rule left, so the run continues to the same head."""
    half = Cell(seed=7).build()
    half.run(2)
    state = capture_checkpoint(half)
    state["workload"]["defer_created"] = False
    resumed = restore_checkpoint(state)
    assert_same_run(reference(Cell(seed=7)), view_of(resumed, resumed.run(2)), 2)


def test_reputation_values_captured_as_an_array_still_restore():
    """Version-7 files written while the reputation table was an array
    carry its values as a float64 ndarray; they restore to the same table
    and the run continues to the same head."""
    half = Cell(seed=7).build()
    half.run(2)
    state = capture_checkpoint(half)
    state["reputation"]["values"] = np.array(state["reputation"]["values"])
    resumed = restore_checkpoint(state)
    assert resumed.reputation == half.reputation
    assert all(type(value) is float for value in resumed.reputation.values())
    assert_same_run(reference(Cell(seed=7)), view_of(resumed, resumed.run(2)), 2)


def test_roster_mismatch_rejected():
    """A checkpoint restored against a different deterministic roster
    (different seed ⇒ different keys) must fail loudly, not corrupt."""
    half = Cell(seed=7).build()
    half.run(2)
    state = capture_checkpoint(half)
    state["params"] = Cell(seed=8).params()
    with pytest.raises(ValueError, match="roster"):
        restore_checkpoint(state)


_FIRED: list[str] = []


def _trip() -> None:
    _FIRED.append("unpickled")


class _Tripwire:
    """Unpickling this records the call: a file that fails the header
    check must never get that far."""

    def __reduce__(self):
        return (_trip, ())


def _checkpoint_file(payload: bytes, version: int = CHECKPOINT_VERSION) -> bytes:
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(MAGIC, version, len(payload), digest) + payload


_TRIPWIRE = pickle.dumps(_Tripwire(), protocol=4)

#: What a version-7 file's queue entries name: a class the library no
#: longer has, so unpickling it would fail by ``AttributeError``.
_RETIRED_QUEUE_ENTRY = b"\x80\x02crepro.ledger.workload\nQueuedTx\n)\x81."


@pytest.mark.parametrize(
    "data, named",
    [
        (_checkpoint_file(_TRIPWIRE)[:-1], "length"),
        (_checkpoint_file(_TRIPWIRE)[:-1] + b"\x00", "digest"),
        (_checkpoint_file(_TRIPWIRE, version=7), "'version': checkpoint version 7 != 8"),
        (
            _checkpoint_file(_RETIRED_QUEUE_ENTRY, version=7),
            "'version': checkpoint version 7 != 8",
        ),
        # what the parent commit's save_checkpoint wrote: a bare pickle
        (_TRIPWIRE, "magic"),
        (b"not a checkpoint at all", "magic"),
        (b"", "magic"),
    ],
    ids=[
        "truncated", "flipped-byte", "old-version", "v7-queue-entry",
        "bare-pickle", "foreign", "empty",
    ],
)
def test_bad_file_fails_by_name_before_unpickling(tmp_path, data, named):
    path = tmp_path / "bad.pkl"
    path.write_bytes(data)
    _FIRED.clear()
    with pytest.raises(ValueError, match=named):
        load_checkpoint(str(path))
    assert _FIRED == []
    # The tripwire works: the same payload behind a good header is unpickled
    # (and then rejected as a capture, since it is not one).
    path.write_bytes(_checkpoint_file(_TRIPWIRE))
    with pytest.raises(TypeError):
        load_checkpoint(str(path))
    assert _FIRED == ["unpickled"]
