"""Phase pipeline: registry, hooks, timings, and orchestrator integration."""

import pytest

from repro import AdversaryConfig, CycLedger, ProtocolParams, create_backend
from repro.core.pipeline import POST, PRE, Phase, PhasePipeline
from repro.core.protocol import build_default_pipeline

PHASE_ORDER = (
    "config",
    "semicommit",
    "intra",
    "inter",
    "reputation",
    "selection",
    "block",
)


def small_params(seed=0, **overrides) -> ProtocolParams:
    defaults = dict(n=24, m=2, lam=2, referee_size=6, seed=seed,
                    users_per_shard=12, tx_per_committee=4)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


# -- registry ----------------------------------------------------------------
def test_default_pipeline_has_paper_phase_order():
    assert build_default_pipeline().names == PHASE_ORDER


def test_register_appends_and_inserts():
    pipeline = PhasePipeline((Phase("a", lambda ctx: None),))
    pipeline.register(Phase("c", lambda ctx: None))
    pipeline.register(Phase("b", lambda ctx: None), before="c")
    pipeline.register(Phase("d", lambda ctx: None), after="c")
    assert pipeline.names == ("a", "b", "c", "d")


def test_register_rejects_duplicates_and_bad_anchors():
    pipeline = PhasePipeline((Phase("a", lambda ctx: None),))
    with pytest.raises(ValueError):
        pipeline.register(Phase("a", lambda ctx: None))
    with pytest.raises(KeyError):
        pipeline.register(Phase("b", lambda ctx: None), before="nope")
    with pytest.raises(ValueError):
        pipeline.register(Phase("b", lambda ctx: None), before="a", after="a")


def test_hook_validation():
    pipeline = PhasePipeline((Phase("a", lambda ctx: None),))
    with pytest.raises(ValueError):
        pipeline.add_phase_hook("a", "sideways", lambda ctx, name: None)
    with pytest.raises(KeyError):
        pipeline.add_phase_hook("nope", PRE, lambda ctx, name: None)
    with pytest.raises(ValueError):
        pipeline.add_round_hook("sideways", lambda ledger: None)


# -- orchestrator integration ------------------------------------------------
def test_run_round_executes_all_phases_via_pipeline():
    ledger = CycLedger(small_params())
    seen = []
    for name in ledger.pipeline.names:
        ledger.pipeline.add_phase_hook(
            name, PRE, lambda ctx, phase: seen.append(phase)
        )
    report = ledger.run_round()
    assert tuple(seen) == PHASE_ORDER
    assert report.block is not None


def test_phase_reports_accumulate_in_context_order():
    ledger = CycLedger(small_params(seed=1))
    snapshots = {}
    for name in ledger.pipeline.names:
        ledger.pipeline.add_phase_hook(
            name,
            POST,
            lambda ctx, phase: snapshots.setdefault(
                phase, tuple(ctx.phase_reports)
            ),
        )
    ledger.run_round()
    for index, name in enumerate(PHASE_ORDER):
        assert snapshots[name] == PHASE_ORDER[: index + 1]


def test_phase_sim_times_recorded_per_round():
    ledger = CycLedger(small_params(seed=2))
    report = ledger.run_round()
    assert set(report.phase_sim_times) == set(PHASE_ORDER)
    assert all(t >= 0.0 for t in report.phase_sim_times.values())
    # Spans sum to the round's simulated duration: phases run back to back
    # on one clock.
    assert sum(report.phase_sim_times.values()) == pytest.approx(
        report.sim_time
    )


def test_round_hooks_fire_with_ledger_and_report():
    ledger = CycLedger(small_params(seed=3))
    calls = []
    ledger.pipeline.add_round_hook(
        PRE, lambda led: calls.append(("pre", led.round_number))
    )
    ledger.pipeline.add_round_hook(
        POST, lambda led, rep: calls.append(("post", rep.round_number))
    )
    ledger.run(2)
    assert calls == [("pre", 1), ("post", 1), ("pre", 2), ("post", 2)]


def test_custom_phase_observes_round():
    """A pipeline extension sees the same context the built-ins do."""
    ledger = CycLedger(small_params(seed=4))
    observed = []

    def audit(ctx):
        observed.append(len(ctx.phase_reports))
        return "audited"

    ledger.pipeline.register(Phase("audit", audit), after="inter")
    report = ledger.run_round()
    assert observed == [4]  # config, semicommit, intra, inter came before
    assert report.phase_sim_times["audit"] == 0.0
    assert report.block is not None


@pytest.mark.parametrize("backend", ["cycledger", "rapidchain", "omniledger_sim"])
def test_every_phase_ends_drained_with_empty_mailboxes(backend):
    """A phase returns with no event pending, and by then the mailbox of
    every node activated this round is empty: a session's handlers live
    until the drain that completes it, not until the next round."""
    ledger = create_backend(
        backend, small_params(seed=6), adversary=AdversaryConfig(fraction=0.25)
    )
    seen = []

    def drained(ctx, name):
        assert ctx.net.pending == 0, name
        assert ctx.net.activated, name
        for node_id in ctx.net.activated:
            assert not ctx.net.nodes[node_id].handlers, (name, node_id)
        seen.append(name)

    for name in ledger.pipeline.names:
        ledger.pipeline.add_phase_hook(name, POST, drained)
    ledger.run(2)
    assert seen == list(ledger.pipeline.names) * 2


def test_pipeline_refactor_preserves_determinism():
    a = CycLedger(small_params(seed=5)).run(2)
    b = CycLedger(small_params(seed=5)).run(2)
    assert [r.packed for r in a] == [r.packed for r in b]
    assert a[-1].block.hash == b[-1].block.hash
    assert [r.phase_sim_times for r in a] == [r.phase_sim_times for r in b]
