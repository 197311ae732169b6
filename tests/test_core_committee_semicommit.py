"""Algorithm 2 (committee configuration) and Algorithm 4 (semi-commitment)."""

from repro.core.committee import run_committee_configuration
from repro.core.sandbox import build_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.crypto.commitment import semi_commitment
from repro.nodes.behaviors import BadSemiCommitLeader, OfflineNode


def test_single_committee_full_agreement():
    ctx = build_sandbox(committee_size=10, lam=2)
    report = run_committee_configuration(ctx)
    assert report.full_agreement == {0: True}
    assert report.rejected_joins == 0
    expected = {ctx.node(i).identity() for i in ctx.committees[0].members}
    for mid in ctx.committees[0].members:
        assert ctx.node(mid).member_list == expected


def test_multi_committee_agreement_and_isolation():
    ctx = build_sandbox(m=3, committee_size=8, lam=2)
    report = run_committee_configuration(ctx)
    assert all(report.full_agreement.values())
    # member lists never leak across committees
    for committee in ctx.committees:
        expected = {ctx.node(i).identity() for i in committee.members}
        for mid in committee.members:
            assert ctx.node(mid).member_list == expected


def test_forged_ticket_rejected():
    """A node whose ticket belongs to another committee cannot join."""
    ctx = build_sandbox(m=2, committee_size=8, lam=2)
    # Give a common member of committee 0 the wrong ticket (committee 1's).
    intruder = ctx.committees[0].members[-1]
    donor = ctx.committees[1].members[-1]
    ctx.node(intruder).ticket = ctx.node(donor).ticket
    report = run_committee_configuration(ctx)
    assert report.rejected_joins > 0
    assert report.full_agreement[0] is False  # the intruder is missing


def test_offline_member_missing_from_lists():
    ctx = build_sandbox(committee_size=8, lam=2, behaviors={7: OfflineNode()})
    ctx.node(7).online = False
    report = run_committee_configuration(ctx)
    leader_list = ctx.node(0).member_list
    assert ctx.node(7).identity() not in leader_list
    assert report.full_agreement[0] is False


def test_config_storage_recorded():
    ctx = build_sandbox(committee_size=8, lam=2)
    run_committee_configuration(ctx)
    assert ctx.metrics.cells[("config", "key")].storage >= 8
    assert ctx.metrics.cells[("config", "common")].storage >= 8


# -- Algorithm 4 ----------------------------------------------------------------


def configured(m=3, c=8, behaviors=None, seed=0):
    ctx = build_sandbox(m=m, committee_size=c, lam=2, behaviors=behaviors, seed=seed)
    run_committee_configuration(ctx)
    return ctx


def test_honest_exchange_accepts_all():
    ctx = configured()
    report = run_semi_commitment_exchange(ctx)
    assert sorted(report.accepted) == [0, 1, 2]
    assert report.cheaters_detected == []
    assert report.recoveries == []
    # commitments match the actual member lists
    for committee in ctx.committees:
        expected = semi_commitment(
            ctx.node(committee.leader).member_list
        )
        assert report.accepted[committee.index] == expected
    assert set(ctx.semi_commitments) == {0, 1, 2}
    assert set(ctx.member_lists) == {0, 1, 2}


def test_cheating_leader_detected_and_replaced():
    ctx = configured(behaviors={8: BadSemiCommitLeader()}, seed=1)
    old_leader = ctx.committees[1].leader
    report = run_semi_commitment_exchange(ctx)
    assert 1 in report.cheaters_detected
    assert len(report.recoveries) == 1
    event = report.recoveries[0]
    assert event.succeeded and event.committee == 1
    assert ctx.committees[1].leader != old_leader
    assert old_leader in ctx.expelled_leaders
    # the new leader's commitment was accepted on retry
    assert 1 in report.accepted


def test_cheater_punished_cube_root():
    ctx = configured(behaviors={8: BadSemiCommitLeader()}, seed=1)
    pk = ctx.pk_of(8)
    ctx.reputation[pk] = 8.0
    run_semi_commitment_exchange(ctx)
    assert abs(ctx.reputation[pk] - 2.0) < 1e-12  # cbrt(8) = 2


def test_referee_storage_is_order_mc():
    ctx = configured()
    run_semi_commitment_exchange(ctx)
    # referees store all m member lists: ~ m*c entries
    assert ctx.metrics.cells[("semicommit", "referee")].storage >= 3 * 8
