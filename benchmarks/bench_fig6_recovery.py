"""Fig. 6 — the reporting mechanism and leader re-selection trace.

Regenerates the figure as the measured event timeline of one impeachment:
the partial member's broadcast of the witness, the committee vote, the
escalation to C_R, the inside-consensus there, and the NEW-leader
announcement — against an equivocating leader caught in Algorithm 3.
"""


from conftest import print_table
from repro.core.consensus import InsideConsensus
from repro.core.recovery import Witness, attempt_recovery
from repro.core.sandbox import build_sandbox
from repro.nodes.behaviors import EquivocatingLeader


def run_recovery_trace():
    ctx = build_sandbox(committee_size=9, lam=3, behaviors={0: EquivocatingLeader()})
    timeline = []
    outcome = InsideConsensus(
        ctx, ctx.committees[0].members, leader=0, sn=1,
        payload="TXdecSET", session="fig6",
    ).run()
    timeline.append(("equivocation detected (Alg. 3 STOP)", ctx.net.now))
    witness = Witness(
        kind="equivocation", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=outcome.equivocation,
    )
    event = attempt_recovery(ctx, ctx.committees[0], accuser=1,
                             witness=witness, session="fig6rec")
    timeline.append(("impeachment + re-selection complete", event.sim_time))
    return ctx, event, timeline


def test_fig6_recovery_trace(benchmark):
    ctx, event, timeline = benchmark.pedantic(
        run_recovery_trace, rounds=1, iterations=1
    )
    rows = [(step, f"{t:.2f}") for step, t in timeline]
    rows.append(("old leader", event.old_leader))
    rows.append(("new leader (the prosecutor cp)", event.new_leader))
    rows.append(("witness kind", event.kind))
    print_table("Fig. 6: leader re-selection trace", ["event", "value"], rows)
    assert event.succeeded, "Fig. 6: the impeachment re-selected no leader"
    assert event.new_leader == 1, (
        f"Fig. 6: the new leader is {event.new_leader}, want the prosecutor cp = 1"
    )
    assert 0 in ctx.expelled_leaders, "Fig. 6: the equivocating leader 0 was not expelled"
    # the whole recovery fits within a bounded number of Γ exchanges
    gamma = ctx.params.net.gamma
    assert event.sim_time < 40 * gamma, (
        f"Fig. 6: the recovery took {event.sim_time:.2f} s of sim time, want "
        f"under 40 Γ = {40 * gamma:.2f} s"
    )


def test_recovery_latency_scales_with_committee(benchmark):
    """Recovery cost in messages grows ~ c² (the committee vote dominates)."""

    def measure(c):
        ctx = build_sandbox(committee_size=c, lam=2,
                            behaviors={0: EquivocatingLeader()})
        out = InsideConsensus(
            ctx, ctx.committees[0].members, leader=0, sn=1,
            payload="M", session="s",
        ).run()
        before = ctx.metrics.total_messages()
        witness = Witness(
            kind="equivocation", committee=0, leader_pk=ctx.pk_of(0),
            round_number=1, evidence=out.equivocation,
        )
        attempt_recovery(ctx, ctx.committees[0], 1, witness, session="r")
        return ctx.metrics.total_messages() - before

    counts = benchmark.pedantic(
        lambda: [measure(c) for c in (8, 16)], rounds=1, iterations=1
    )
    print(f"\nrecovery messages: c=8 -> {counts[0]}, c=16 -> {counts[1]}")
    assert counts[1] > counts[0], (
        f"Fig. 6: a recovery sent {counts[0]} messages at c=8 and {counts[1]} "
        "at c=16, want more at the larger committee"
    )
