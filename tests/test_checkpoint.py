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

import pytest

from repro.backends import BACKEND_REGISTRY, create_backend
from repro.core.config import ProtocolParams
from repro.exp.results import round_row
from repro.exp.spec import canonical_json
from repro.ledger.checkpoint import (
    _HEADER,
    CHECKPOINT_VERSION,
    MAGIC,
    capture_checkpoint,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.nodes.adversary import AdversaryConfig
from repro.scenarios import SCENARIO_PRESETS


def _params(**overrides) -> ProtocolParams:
    base = dict(
        n=24,
        m=2,
        lam=2,
        referee_size=6,
        seed=7,
        users_per_shard=12,
        tx_per_committee=4,
    )
    base.update(overrides)
    return ProtocolParams(**base)


def _rows(reports) -> list[str]:
    return [canonical_json(round_row(r)) for r in reports]


def _assert_same_tail(full, resumed, split: int) -> None:
    """The resumed ledger's state and report stream must equal the
    uninterrupted run's from round ``split`` on, byte for byte."""
    assert resumed.chain.head.hash == full.chain.head.hash
    assert list(resumed.reputation.items()) == list(full.reputation.items())
    assert _rows(resumed.reports[-len(resumed.reports):]) == _rows(
        full.reports[split:]
    )


@pytest.mark.parametrize("backend", sorted(BACKEND_REGISTRY))
def test_roundtrip_byte_identity_all_backends(backend):
    full = create_backend(backend, _params())
    half = create_backend(backend, _params())
    full.run(8)
    half.run(4)
    resumed = restore_checkpoint(capture_checkpoint(half))
    resumed.run(4)
    _assert_same_tail(full, resumed, split=4)


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "ck.pkl")
    full = create_backend("cycledger", _params())
    half = create_backend("cycledger", _params())
    full.run(6)
    half.run(3)
    save_checkpoint(half, path)
    resumed = load_checkpoint(path)
    resumed.run(3)
    _assert_same_tail(full, resumed, split=3)


def test_capture_is_isolated_from_further_running():
    """The snapshot must be a copy: the donor ledger keeps running after
    capture without disturbing what was captured."""
    full = create_backend("cycledger", _params())
    half = create_backend("cycledger", _params())
    full.run(6)
    half.run(3)
    state = capture_checkpoint(half)
    half.run(3)  # mutate the donor after the capture
    resumed = restore_checkpoint(state)
    resumed.run(3)
    _assert_same_tail(full, resumed, split=3)
    assert half.chain.head.hash == full.chain.head.hash


def _mid_scenario_roundtrip(name: str, fraction: float, tmp_path):
    """Save inside ``name``'s fault window, resume from the file, and
    compare with the uninterrupted run (driver log included)."""
    scenario = SCENARIO_PRESETS[name]
    kwargs = dict(adversary=AdversaryConfig(fraction=fraction), scenario=scenario)
    split = max(2, scenario.last_event_round // 2)
    rounds = scenario.last_event_round + 2
    full = create_backend("cycledger", _params(), **kwargs)
    half = create_backend("cycledger", _params(), **kwargs)
    full.run(rounds)
    half.run(split)
    path = str(tmp_path / "scenario.pkl")
    save_checkpoint(half, path)
    resumed = load_checkpoint(path)
    resumed.run(rounds - split)
    _assert_same_tail(full, resumed, split=split)
    assert resumed.scenario_driver.log == full.scenario_driver.log
    return full, resumed


def test_mid_scenario_checkpoint(tmp_path):
    """Capture inside a partition-halves fault window: the scenario
    driver's crash bookkeeping and spawned RNG resume exactly."""
    _mid_scenario_roundtrip("partition-halves", 0.1, tmp_path)


def test_mid_policy_checkpoint(tmp_path):
    """Capture while an adaptive-corruption policy is mid-campaign: the
    driver's baseline/healed state resumes exactly."""
    full, resumed = _mid_scenario_roundtrip("adaptive-corruption", 0.2, tmp_path)
    assert resumed.scenario_driver._baseline is not None
    assert list(resumed.adversary.corrupted) == list(full.adversary.corrupted)


def test_roundtrip_with_bounded_memory_knobs():
    """Pruned chain + trimmed spent-history + poisson mempool all travel
    through the checkpoint; the resumed bounded run matches the
    uninterrupted bounded run."""
    params = _params(
        chain_retention=3,
        spent_retention=64,
        arrival_process="poisson",
        arrival_rate=16.0,
        mempool_max_age=4,
    )
    full = create_backend("cycledger", params)
    half = create_backend("cycledger", params)
    full.run(8)
    half.run(4)
    resumed = restore_checkpoint(capture_checkpoint(half))
    resumed.run(4)
    _assert_same_tail(full, resumed, split=4)
    assert resumed.chain.pruned_blocks == full.chain.pruned_blocks
    assert len(resumed.chain.blocks) == params.chain_retention
    assert resumed.chain.verify()


def test_warm_start_policy_override():
    """The warm-start hook: a policy-free prefix checkpoint resumed with
    a policy starts that policy's driver fresh (empty log), while
    resuming with the captured (absent) policy stays policy-free."""
    half = create_backend("cycledger", _params(), adversary=AdversaryConfig(fraction=0.2))
    half.run(3)
    state = capture_checkpoint(half)
    arm = restore_checkpoint(state, scenario=SCENARIO_PRESETS["adaptive-corruption"])
    assert arm.scenario_driver.log == []
    baseline = restore_checkpoint(state)
    assert baseline.scenario_driver is None
    arm.run(3)
    baseline.run(3)
    # The two arms share the prefix but diverge once the policy acts.
    assert arm.round_number == baseline.round_number


def test_version_mismatch_rejected():
    half = create_backend("cycledger", _params())
    half.run(1)
    state = capture_checkpoint(half)
    # A newer layout, and version 2 (it had a second driver block).
    for stale in (CHECKPOINT_VERSION + 1, 2):
        state["version"] = stale
        with pytest.raises(ValueError, match="version"):
            restore_checkpoint(state)


def test_stale_defer_created_key_is_ignored():
    """A version-2 file written while the generator had two publish rules
    carries the flag that chose one; the state beside it is the same under
    the one rule left, so the run continues to the same head."""
    full = create_backend("cycledger", _params())
    full.run(2)
    state = capture_checkpoint(full)
    state["workload"]["defer_created"] = False
    resumed = restore_checkpoint(state)
    full.run(2)
    resumed.run(2)
    assert resumed.chain.head.hash == full.chain.head.hash


def test_roster_mismatch_rejected():
    """A checkpoint restored against a different deterministic roster
    (different seed ⇒ different keys) must fail loudly, not corrupt."""
    half = create_backend("cycledger", _params())
    half.run(2)
    state = capture_checkpoint(half)
    state["params"] = _params(seed=8)
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


@pytest.mark.parametrize(
    "data, named",
    [
        (_checkpoint_file(_TRIPWIRE)[:-1], "length"),
        (_checkpoint_file(_TRIPWIRE)[:-1] + b"\x00", "digest"),
        (_checkpoint_file(_TRIPWIRE, version=2), "version 2 != 3"),
        # what the parent commit's save_checkpoint wrote: a bare pickle
        (_TRIPWIRE, "magic"),
        (b"not a checkpoint at all", "magic"),
        (b"", "magic"),
    ],
    ids=["truncated", "flipped-byte", "old-version", "bare-pickle", "foreign", "empty"],
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
