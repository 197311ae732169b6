"""Fig. 3 — the inside-committee consensus message pattern (Algorithm 3).

Regenerates the figure as the measured message census of one consensus run:
one PROPOSE fan-out from the leader, an all-to-all ECHO step, and a CONFIRM
fan-in — and the resulting O(c²) scaling of total messages.
"""


from conftest import print_table
from repro.core.consensus import InsideConsensus
from repro.core.sandbox import build_sandbox
from repro.metrics.fitting import scaling_exponent


def run_with_tag_census(c: int):
    ctx = build_sandbox(committee_size=c, lam=2)
    census: dict[str, int] = {}

    def count_and_keep(message) -> bool:
        # The drop filter sees every envelope, unicast or fan-out, before
        # it is queued; returning False drops nothing.
        base = message.tag.split(":", 1)[0]
        census[base] = census.get(base, 0) + 1
        return False

    ctx.net.drop_filter = count_and_keep
    outcome = InsideConsensus(
        ctx, ctx.committees[0].members, leader=0, sn=1,
        payload=("M", list(range(8))), session="fig3",
    ).run()
    return census, outcome


def test_fig3_message_pattern(benchmark):
    census, outcome = benchmark.pedantic(
        lambda: run_with_tag_census(12), rounds=1, iterations=1
    )
    c = 12
    rows = [(step, census.get(step, 0), expected) for step, expected in [
        ("PROPOSE", f"{c - 1} (leader fan-out)"),
        ("ECHO", f"{c * (c - 1)} (all-to-all)"),
        ("CONFIRM", f"{c - 1} (fan-in to leader)"),
    ]]
    print_table("Fig. 3: Algorithm 3 message census, c=12",
                ["step", "measured", "expected"], rows)
    assert outcome.success, f"Fig. 3: Algorithm 3 reached no consensus at c={c}"
    assert census["PROPOSE"] == c - 1, (
        f"Fig. 3: {census['PROPOSE']} PROPOSEs at c={c}, want the leader's "
        f"fan-out c-1 = {c - 1}"
    )
    # A tallied ECHO is drawn, sent and counted like any other message.
    assert census["ECHO"] == c * (c - 1), (
        f"Fig. 3: {census['ECHO']} ECHOes at c={c}, want all-to-all "
        f"c(c-1) = {c * (c - 1)}"
    )
    assert census["CONFIRM"] == c - 1, (
        f"Fig. 3: {census['CONFIRM']} CONFIRMs at c={c}, want the fan-in "
        f"c-1 = {c - 1}"
    )


def test_fig3_scaling(benchmark):
    def sweep():
        cs, totals = [], []
        for c in (8, 16, 32):
            census, outcome = run_with_tag_census(c)
            assert outcome.success, f"Fig. 3: Algorithm 3 reached no consensus at c={c}"
            cs.append(c)
            totals.append(sum(census.values()))
        return cs, totals

    cs, totals = benchmark.pedantic(sweep, rounds=1, iterations=1)
    exponent = scaling_exponent(cs, totals)
    print(f"\nFig. 3 scaling: total Alg.3 messages ~ c^{exponent:.2f}")
    assert 1.7 < exponent < 2.2, (
        f"Fig. 3: total Algorithm 3 messages grow as c^{exponent:.2f} over "
        f"c = {cs}, want c^2 (an exponent in (1.7, 2.2))"
    )
