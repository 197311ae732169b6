"""Inter-committee consensus: cross-shard flow, Lemma 6/7 attacks, prefilter."""

from test_decision_reference import staged

from repro.core.consensus import consensus_digest
from repro.core.inter import dest_shard, run_inter_consensus
from repro.core.intra import run_intra_consensus
from repro.core.tags import Tags
from repro.nodes.behaviors import CensoringLeader, InterSilentLeader


def setup(
    m=3, c=8, behaviors=None, seed=0, cross=0.5, invalid=0.1, prefilter=False,
    capacities=None,
):
    ctx = staged(m, c, behaviors, seed, 80, invalid, cross, capacities)
    if prefilter:
        object.__setattr__(ctx.params, "prefilter_cross_shard", True)
    return ctx


def tags_of(ctx):
    return {t.tx.txid: t for pool in ctx.mempools for t in pool}


def test_cross_shard_commits_only_valid():
    ctx = setup()
    run_intra_consensus(ctx)
    report = run_inter_consensus(ctx)
    tags = tags_of(ctx)
    assert report.accepted, "no cross-shard pairs committed"
    for txs in report.accepted.values():
        for tx in txs:
            assert tags[tx.txid].intended_valid
            assert tags[tx.txid].cross_shard
    assert report.forged_rejected == 0
    assert not report.recoveries


def test_both_sides_record_votes():
    ctx = setup()
    run_intra_consensus(ctx)
    report = run_inter_consensus(ctx)
    for (i, j), _ in report.accepted.items():
        assert any(True for _ in ctx.vote_records.get(i, []))
        assert any(True for _ in ctx.vote_records.get(j, []))


def test_dest_shard_helper():
    ctx = setup()
    tags = tags_of(ctx)
    for tagged in tags.values():
        dest = dest_shard(tagged.tx, tagged.home_shard, ctx.shard_of)
        if tagged.cross_shard:
            assert dest is not None and dest != tagged.home_shard


def test_inter_silent_leader_lemma7_recovery():
    # committee 1's leader (node 8) honest intra, silent on cross-shard
    ctx = setup(behaviors={8: InterSilentLeader()}, seed=3)
    run_intra_consensus(ctx)
    report = run_inter_consensus(ctx)
    assert report.lemma7_forwards, "partial members never forwarded"
    assert any(
        e.committee == 1 and e.kind == "silence" and e.succeeded
        for e in report.recoveries
    )
    assert ctx.committees[1].leader != 8
    # cross-shard txs INTO committee 1 still committed after recovery
    assert any(j == 1 for (_, j) in report.accepted)


def test_forged_certificate_rejected():
    """Lemma 6: a package without a valid committee-i certificate is dropped
    by both leader j and the partial set of j."""
    ctx = setup(seed=4)
    run_intra_consensus(ctx)
    report = run_inter_consensus(ctx)
    # Craft a forged INTER_SEND from committee 0's leader: self-signed cert.
    from repro.crypto.signatures import sign

    forger = ctx.node(ctx.committees[0].leader)
    fake_txs = tuple(t.tx for t in ctx.mempools[0][:2])
    payload = (tuple(tx.txid for tx in fake_txs), ((0,) * len(fake_txs),))
    fake_cert = tuple(
        sign(forger.keypair, ("CONFIRM", 1, ("VOTEROUND", "fake"), consensus_digest(payload)))
        for _ in range(9)
    )
    before = report.forged_rejected
    receiver = ctx.committees[1]
    forger.on  # noqa: B018 - forger keeps its handlers
    # re-run just the handler path by sending a forged package
    from repro.core.inter import run_inter_consensus as _  # noqa: F401

    # Re-register reception handlers via a fresh inter run is complex; send
    # directly against the live handlers from the finished run instead.
    forger.send(
        receiver.leader,
        Tags.INTER_SEND,
        (0, 1, fake_txs, payload, fake_cert, "fake"),
    )
    ctx.net.run()
    assert report.forged_rejected > before


def test_prefilter_drops_invalid_before_voting():
    ctx_plain = setup(seed=5, invalid=0.4)
    run_intra_consensus(ctx_plain)
    plain = run_inter_consensus(ctx_plain)

    ctx_pref = setup(seed=5, invalid=0.4, prefilter=True)
    run_intra_consensus(ctx_pref)
    pref = run_inter_consensus(ctx_pref)

    assert pref.prefilter_savings > 0
    # prefiltered send rounds vote on fewer transactions
    plain_voted = sum(len(r.txs) for r in plain.send_rounds.values())
    pref_voted = sum(len(r.txs) for r in pref.send_rounds.values())
    assert pref_voted < plain_voted
    # but the committed valid set is preserved
    tags = tags_of(ctx_pref)
    for txs in pref.accepted.values():
        for tx in txs:
            assert tags[tx.txid].intended_valid


def test_no_cross_txs_no_pairs():
    ctx = setup(cross=0.0, seed=6)
    run_intra_consensus(ctx)
    report = run_inter_consensus(ctx)
    assert report.send_rounds == {}
    assert report.accepted == {}


def test_result_txids_must_be_the_certified_ones():
    """Lemma 6 on the result leg: a receiving leader that lists txids its
    committee's certificate does not cover gets none of them committed."""
    # Committee 1 (ids 8..15) spends its one validation on its intra round,
    # so its output-side rounds decide nothing.
    ctx = setup(capacities=[10_000] * 8 + [1] * 8, invalid=0)
    run_intra_consensus(ctx)
    every_txid = tuple(tags_of(ctx))
    send = ctx.net.send

    def lying_send(sender, recipient, tag, payload, size=None):
        if tag == Tags.INTER_RESULT and payload[1] == 1:
            payload = (payload[0], 1, every_txid, *payload[3:])
        send(sender, recipient, tag, payload, size=size)

    ctx.net.send = lying_send
    report = run_inter_consensus(ctx)
    assert any(j == 1 for (_, j) in report.recv_rounds), "committee 1 never voted"
    for (i, j), txs in report.accepted.items():
        if j == 1:
            certified = set(report.recv_rounds[(i, 1)].reported_txids)
            assert {tx.txid for tx in txs} <= certified


def test_inter_detections_are_reported():
    """A leader caught censoring its cross-shard list shows up in the inter
    report, not only in the recoveries."""
    # All traffic is cross-shard, so the intra round has nothing to censor
    # and committee 0's censoring leader survives into the inter phase.
    ctx = setup(behaviors={0: CensoringLeader()}, cross=1.0, invalid=0)
    intra = run_intra_consensus(ctx)
    assert not intra.censorship_detected
    report = run_inter_consensus(ctx)
    assert 0 in report.censorship_detected
    assert 0 in report.retried
    assert any(e.committee == 0 and e.succeeded for e in report.recoveries)
