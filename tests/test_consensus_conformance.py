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
  mempool perturbations, re-checking every invariant after every round.
"""

from __future__ import annotations

import types

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.analysis.invariants import (
    INVARIANTS,
    InvariantChecker,
    InvariantViolationError,
)
from repro.backends import backend_names, create_backend
from repro.core.config import ProtocolParams
from repro.ledger.transaction import TxOutput
from repro.nodes.adversary import AdversaryConfig
from repro.scenarios import SCENARIO_PRESETS, AdversaryPolicy

#: the presets whose one event is an adversary policy
POLICY_PRESETS = sorted(
    name
    for name, scenario in SCENARIO_PRESETS.items()
    if isinstance(scenario.events[0], AdversaryPolicy)
)

SMALL = dict(
    n=24,
    m=2,
    lam=2,
    referee_size=6,
    users_per_shard=12,
    tx_per_committee=4,
    cross_shard_ratio=0.25,
)


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


def test_utxo_inflation_detected():
    """Minting value out of thin air trips utxo-conservation."""
    ledger = create_backend("cycledger", ProtocolParams(**SMALL))
    checker = InvariantChecker()
    checker.install(ledger)
    ledger.run(rounds=1)
    ledger.global_utxos.add((b"\xab" * 32, 0), TxOutput("forger", 10_000))
    with pytest.raises(InvariantViolationError, match="utxo-conservation"):
        ledger.run(rounds=1)


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
    ledger.global_utxos.add((b"\xcd" * 32, 0), TxOutput("forger", 10_000))
    ledger.run(rounds=1)
    assert [v.invariant for v in checker.violations] == ["utxo-conservation"]
    with pytest.raises(InvariantViolationError):
        checker.assert_clean()


def test_violation_string_names_round_and_invariant():
    ledger = create_backend("cycledger", ProtocolParams(**SMALL))
    checker = InvariantChecker(raise_on_violation=False)
    checker.install(ledger)
    ledger.run(rounds=1)
    ledger.global_utxos.add((b"\xef" * 32, 0), TxOutput("forger", 10_000))
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
