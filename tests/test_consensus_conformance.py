"""Stateful consensus conformance: machine-checked invariants on live runs.

Three layers:

* honest/faulty runs of every executable backend with an
  :class:`~repro.analysis.invariants.InvariantChecker` raising on the
  first violated round (the executable analogue of model-checking the
  paper's safety/liveness claims);
* unit checks that each invariant actually *can* fire (a checker that
  never trips proves nothing);
* a hypothesis ``RuleBasedStateMachine`` driving one pipeline through
  randomized sequences of policy activations, fault injections and
  mempool perturbations, re-checking every invariant after every round
  and, on CycLedger, the round's decisions against the reference model.
"""

from __future__ import annotations

import types

import config_cube
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)
from test_decision_reference import compare_every_round

from repro.analysis.invariants import (
    INVARIANTS,
    InvariantChecker,
    InvariantViolationError,
)
from repro.backends import backend_names, create_backend
from repro.core.config import ProtocolParams
from repro.ledger.checkpoint import capture_checkpoint, restore_checkpoint
from repro.nodes.adversary import AdversaryConfig
from repro.scenarios import SCENARIO_PRESETS, AdversaryPolicy

#: the presets whose one event is an adversary policy
POLICY_PRESETS = sorted(
    name
    for name, scenario in SCENARIO_PRESETS.items()
    if isinstance(scenario.events[0], AdversaryPolicy)
)

SMALL = {**config_cube.SMALL, "cross_shard_ratio": 0.25}


def _checked_run(rounds: int, **kwargs) -> InvariantChecker:
    """Run a backend with a raising checker installed; return the checker."""
    backend = kwargs.pop("backend", "cycledger")
    params = ProtocolParams(**{**SMALL, **kwargs.pop("params", {})})
    ledger = create_backend(backend, params, **kwargs)
    checker = InvariantChecker()
    checker.install(ledger)
    ledger.run(rounds=rounds)
    checker.check_final(ledger)
    return checker


# -- registry sanity ---------------------------------------------------------


def test_registry_names_kinds_and_prose():
    assert set(INVARIANTS) == {
        "chain-linkage",
        "no-double-spend",
        "utxo-conservation",
        "utxo-views-agree",
        "reputation-monotone-honest",
        "mempool-conservation",
        "recovery-terminates",
        "honest-majority-commit",
    }
    for inv in INVARIANTS.values():
        assert inv.kind in ("safety", "liveness")
        assert len(inv.description) > 40  # normative prose, not a stub


def test_invariant_catalog_documented():
    """Every registered invariant appears in the docs catalogue (and vice
    versa there is prose next to each checker name)."""
    import pathlib

    text = pathlib.Path(__file__).parent.parent.joinpath(
        "docs", "scenarios.md"
    ).read_text()
    for name, inv in INVARIANTS.items():
        assert f"`{name}`" in text, f"{name} missing from docs/scenarios.md"
        assert inv.kind in text


# -- honest runs hold every invariant, on every backend ----------------------


@pytest.mark.parametrize("backend", backend_names())
def test_honest_run_conforms(backend):
    checker = _checked_run(3, backend=backend)
    assert checker.rounds_checked == 3
    assert checker.violations == []


def test_poisson_mempool_run_conforms():
    checker = _checked_run(
        4,
        params=dict(
            seed=3,
            arrival_process="poisson",
            arrival_rate=20.0,
            mempool_max_age=2,
        ),
    )
    assert checker.violations == []


@pytest.mark.parametrize("backend", backend_names())
def test_byzantine_run_keeps_safety(backend):
    """A 30% adversary may stall commits, but safety invariants (and the
    guarded honest-only ones) still hold on every backend."""
    checker = _checked_run(
        3,
        backend=backend,
        params=dict(seed=5),
        adversary=AdversaryConfig(fraction=0.3),
    )
    assert checker.violations == []


@pytest.mark.parametrize("name", sorted(set(SCENARIO_PRESETS) - set(POLICY_PRESETS)))
def test_scenario_presets_keep_invariants(name):
    scenario = SCENARIO_PRESETS[name]
    checker = _checked_run(
        scenario.last_event_round + 1,
        params=dict(seed=9),
        scenario=scenario,
    )
    assert checker.violations == []


@pytest.mark.parametrize("name", POLICY_PRESETS)
@pytest.mark.parametrize("backend", backend_names())
def test_policy_presets_keep_invariants(backend, name):
    """Adaptive adversary policies can depress commits on any backend but
    must never violate safety."""
    scenario = SCENARIO_PRESETS[name]
    checker = _checked_run(
        scenario.last_event_round + 1,
        backend=backend,
        params=dict(seed=9),
        scenario=scenario,
    )
    assert checker.violations == []


# -- each invariant can actually fire ----------------------------------------


def test_checker_rejects_double_install():
    ledger = create_backend("cycledger", ProtocolParams(**SMALL))
    checker = InvariantChecker()
    checker.install(ledger)
    with pytest.raises(ValueError, match="one checker per ledger"):
        checker.install(ledger)


def test_a_checker_on_a_restored_ledger_starts_from_its_state():
    """A fresh checker on a restored, pruned poisson ledger reads its chain
    head, packed count, queue and spent inputs: the resumed run reports
    nothing, and a violation seeded after the restore still raises."""
    ledger = config_cube.Cell(arrival=config_cube.POISSON).build(chain_retention=2)
    ledger.run(rounds=2)
    restored = restore_checkpoint(capture_checkpoint(ledger))
    checker = InvariantChecker()
    checker.install(restored)
    restored.run(rounds=2)
    assert checker.check_final(restored) == [] and restored.chain.pruned_blocks == 2
    assert restored.mempool.depth > 0, "need a standing queue to corrupt"
    restored.mempool.queue.pop()
    with pytest.raises(InvariantViolationError, match="mempool-conservation"):
        restored.run(rounds=1)


def _mint(ledger, outpoint, output) -> None:
    """Forge value as a consistent write would: into the global view and the
    shard the owner's address maps to, so the views still agree."""
    ledger.global_utxos.add(outpoint, output)
    shard = ledger.workload.shard_of[output[0]]
    ledger.shard_states[shard].utxos.add(outpoint, output)


def test_utxo_inflation_detected():
    """Minting value out of thin air trips utxo-conservation."""
    ledger = create_backend("cycledger", ProtocolParams(**SMALL))
    checker = InvariantChecker()
    checker.install(ledger)
    ledger.run(rounds=1)
    _mint(ledger, (b"\xab" * 32, 0), ("forger", 10_000))
    with pytest.raises(InvariantViolationError, match="utxo-conservation"):
        ledger.run(rounds=1)


@pytest.mark.parametrize("view", ["global", "shard", "two shards"])
def test_utxo_views_disagreeing_detected(view):
    """An outpoint only the global view holds, one only a shard holds, or
    one two shards hold each trip utxo-views-agree."""
    ledger = create_backend("cycledger", ProtocolParams(**SMALL))
    checker = InvariantChecker(raise_on_violation=False)
    checker.install(ledger)
    ledger.run(rounds=1)
    stray, output = (b"\x5a" * 32, 0), ("forger", 1)
    if view == "global":
        ledger.global_utxos.add(stray, output)
    else:
        ledger.shard_states[0].utxos.add(stray, output)
    if view == "two shards":
        ledger.global_utxos.add(stray, output)
        ledger.shard_states[1].utxos.add(stray, output)
    ledger.run(rounds=1)
    assert "utxo-views-agree" in [v.invariant for v in checker.violations]


@pytest.mark.parametrize("arrival", ["legacy", "poisson"])
def test_a_void_block_commits_nothing_and_packs_nothing(arrival):
    """C_R's leader goes offline as round 2's block phase starts, so C_R
    agrees on no block: no UTXO view moves, the round packs nothing, and no
    invariant fires (under poisson arrivals the queue keeps the candidates).
    A plain phase hook takes the node offline, with no adversary behind it:
    a node offline at round end is what marks the round disturbed.
    """
    extra = {} if arrival == "legacy" else {
        "arrival_process": "poisson", "arrival_rate": 24.0, "mempool_max_age": 4,
    }
    params = ProtocolParams(
        n=48, m=4, lam=2, referee_size=8, tx_per_committee=6, seed=1, **extra
    )
    ledger = create_backend("cycledger", params)
    checker = InvariantChecker(raise_on_violation=False)
    checker.install(ledger)

    def crash_referee_leader(ctx, _phase):
        if ctx.round_number == 2:
            ctx.nodes[ctx.referee[0]].online = False

    ledger.pipeline.add_phase_hook("block", "pre", crash_referee_leader)

    def views():
        return [list(ledger.global_utxos.snapshot().items())] + [
            list(state.utxos.snapshot().items()) for state in ledger.shard_states
        ]

    ledger.run_round()
    before = views()
    report = ledger.run_round()
    assert report.block is None and report.blockgen.rejected_at_cr == 0
    assert report.packed == 0 and report.blockgen.total_fees == 0
    assert views() == before and len(ledger.chain) == 1
    assert ledger.run_round().block is not None
    assert checker.violations == []


def test_mempool_leak_detected():
    """Dropping a queued transaction behind the mempool's back breaks the
    conservation identity."""
    params = ProtocolParams(
        **SMALL, arrival_process="poisson", arrival_rate=30.0
    )
    ledger = create_backend("cycledger", params)
    checker = InvariantChecker()
    checker.install(ledger)
    ledger.run(rounds=2)
    assert ledger.mempool.depth > 0, "need a standing queue to corrupt"
    ledger.mempool.queue.pop()
    with pytest.raises(InvariantViolationError, match="mempool-conservation"):
        ledger.run(rounds=1)


def test_unfinished_recovery_detected():
    checker = InvariantChecker(raise_on_violation=False)
    report = types.SimpleNamespace(
        round_number=1,
        recoveries=2,
        recovery_times=(0.5,),
        sim_time=10.0,
    )
    checker._check_recovery(report)
    assert [v.invariant for v in checker.violations] == ["recovery-terminates"]


def test_late_recovery_detected():
    checker = InvariantChecker(raise_on_violation=False)
    report = types.SimpleNamespace(
        round_number=1,
        recoveries=1,
        recovery_times=(99.0,),
        sim_time=10.0,
    )
    checker._check_recovery(report)
    assert [v.invariant for v in checker.violations] == ["recovery-terminates"]


def test_census_mode_collects_instead_of_raising():
    ledger = create_backend("cycledger", ProtocolParams(**SMALL))
    checker = InvariantChecker(raise_on_violation=False)
    checker.install(ledger)
    ledger.run(rounds=1)
    # Mint more than one round's fees can destroy, or legitimate fee burn
    # would mask the inflation at the next round boundary.
    _mint(ledger, (b"\xcd" * 32, 0), ("forger", 10_000))
    ledger.run(rounds=1)
    assert [v.invariant for v in checker.violations] == ["utxo-conservation"]
    with pytest.raises(InvariantViolationError):
        checker.assert_clean()


def test_violation_string_names_round_and_invariant():
    ledger = create_backend("cycledger", ProtocolParams(**SMALL))
    checker = InvariantChecker(raise_on_violation=False)
    checker.install(ledger)
    ledger.run(rounds=1)
    _mint(ledger, (b"\xef" * 32, 0), ("forger", 10_000))
    ledger.run(rounds=1)
    text = str(checker.violations[0])
    assert "utxo-conservation" in text and "r2" in text


# -- stateful property-based conformance -------------------------------------


class ConsensusConformance(RuleBasedStateMachine):
    """Drive one backend through randomized adversity, checking every
    invariant after every round.

    Rules reconfigure the run the way scenarios and policies do — ramping
    corruption, crashing nodes, healing, perturbing mempool pressure — and
    ``advance_round`` executes a full protocol round with the installed
    checker raising on any violated invariant.  The backend and an
    optional adversary policy are themselves drawn per example.
    """

    @initialize(
        backend=st.sampled_from(sorted(backend_names())),
        policy=st.sampled_from([None, *POLICY_PRESETS]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def setup(self, backend, policy, seed):
        params = ProtocolParams(
            **SMALL,
            seed=seed,
            arrival_process="poisson",
            arrival_rate=16.0,
            mempool_max_age=3,
        )
        self.ledger = create_backend(
            backend,
            params,
            scenario=SCENARIO_PRESETS[policy] if policy else None,
        )
        self.checker = InvariantChecker()
        self.checker.install(self.ledger)
        if backend == "cycledger":
            compare_every_round(self.ledger)

    @rule()
    def advance_round(self):
        self.ledger.run(rounds=1)

    @precondition(lambda self: self.ledger.scenario is None)
    @rule(fraction=st.sampled_from([0.0, 0.1, 0.25]))
    def ramp_adversary(self, fraction):
        # Policies own the corruption set when installed (they would
        # overwrite this at the next round boundary anyway).
        self.ledger.adversary.retarget_fraction(fraction)

    @rule(data=st.data())
    def crash_nodes(self, data):
        ids = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=SMALL["n"] - 1),
                max_size=3,
            )
        )
        self.ledger.adversary.force_offline(ids)

    @rule()
    def heal(self):
        self.ledger.adversary.force_offline(())
        if self.ledger.scenario is None:
            self.ledger.adversary.retarget_fraction(0.0)

    @rule(max_age=st.integers(min_value=1, max_value=4))
    def perturb_mempool_ttl(self, max_age):
        self.ledger.mempool.max_age_rounds = max_age

    @rule(capacity=st.sampled_from([0, 8, 32]))
    def perturb_mempool_capacity(self, capacity):
        self.ledger.mempool.capacity = capacity

    def teardown(self):
        if hasattr(self, "ledger"):
            self.checker.check_final(self.ledger)


ConsensusConformance.TestCase.settings = settings(
    max_examples=5, stateful_step_count=6, deadline=None
)

TestConsensusConformance = ConsensusConformance.TestCase
