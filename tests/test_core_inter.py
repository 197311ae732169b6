"""Inter-committee consensus: cross-shard flow, Lemma 6/7 attacks, prefilter;
each decision test is one comparison with ``decision_reference.py``."""

import pytest
from test_decision_reference import decides_like_the_reference, staged

from repro.core.consensus import consensus_digest
from repro.core.inter import dest_shard, run_inter_consensus
from repro.core.intra import run_intra_consensus
from repro.core.tags import Tags
from repro.crypto.signatures import sign
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


def events(report):
    return [(e.committee, e.kind, e.succeeded) for e in report.recoveries]


def test_cross_shard_commits_only_valid():
    ctx = setup()
    report, decided = decides_like_the_reference(ctx, "intra", "inter")
    tags = tags_of(ctx)
    assert decided.accepted and not decided.impeachments
    assert all(tags[t].intended_valid for txids in decided.accepted.values() for t in txids)


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
    report, decided = decides_like_the_reference(ctx, "intra", "inter")
    assert report.lemma7_forwards, "partial members never forwarded"
    assert (1, "silence", True) in events(report)
    assert any(j == 1 for (_, j) in decided.accepted)


def test_forged_certificate_rejected():
    """Lemma 6: a package without a valid committee-0 certificate, sent next
    to the real one, is dropped by leader 1 and its partial set and changes
    no decision."""
    ctx = setup(seed=4)
    multicast = ctx.net.multicast

    def forging_multicast(sender, recipients, tag, payload, **kwargs):
        multicast(sender, recipients, tag, payload, **kwargs)
        if tag == Tags.INTER_SEND and payload[:2] == (0, 1):
            fake_txs = tuple(t.tx for t in ctx.mempools[0][:2])
            fake = (tuple(tx.txid for tx in fake_txs), ((0,) * len(fake_txs),))
            statement = ("CONFIRM", 1, ("VOTEROUND", "fake"), consensus_digest(fake))
            cert = (sign(ctx.node(sender).keypair, statement),) * 9
            forged = (0, 1, fake_txs, fake, cert, "fake")
            multicast(sender, recipients, tag, forged, **kwargs)

    ctx.net.multicast = forging_multicast
    report, decided = decides_like_the_reference(ctx, "intra", "inter")
    assert report.forged_rejected == 3 and (0, 1) in decided.accepted


def test_prefilter_drops_invalid_before_voting():
    ctx = setup(seed=5, invalid=0.4, prefilter=True)
    report, decided = decides_like_the_reference(ctx, "intra", "inter")
    assert report.prefilter_savings > 0 and decided.accepted


def test_no_cross_txs_no_pairs():
    report, decided = decides_like_the_reference(setup(cross=0.0, seed=6), "intra", "inter")
    assert report.send_rounds == {} and decided.accepted == {}


def test_result_txids_must_be_the_certified_ones():
    """Lemma 6 on the result leg: a receiving leader that lists txids its
    committee's certificate does not cover gets none of them committed."""
    # Committee 1 (ids 8..15) spends its one validation on its intra round,
    # so its output-side rounds decide nothing.
    ctx = setup(capacities=[10_000] * 8 + [1] * 8, invalid=0)
    every_txid = tuple(tags_of(ctx))
    send = ctx.net.send

    def lying_send(sender, recipient, tag, payload, size=None):
        if tag == Tags.INTER_RESULT and payload[1] == 1:
            payload = (payload[0], 1, every_txid, *payload[3:])
        send(sender, recipient, tag, payload, size=size)

    ctx.net.send = lying_send
    report, decided = decides_like_the_reference(ctx, "intra", "inter")
    assert any(j == 1 for (_, j) in report.recv_rounds), "committee 1 never voted"
    assert not any(j == 1 for (_, j) in decided.accepted)


@pytest.mark.parametrize("m", [3, 4])
def test_inter_detections_are_reported(m):
    """A leader caught censoring its cross-shard lists is impeached once and
    every list it was convicted on is re-run under the new leader."""
    # All traffic is cross-shard, so the intra round has nothing to censor
    # and committee 0's censoring leader survives into the inter phase.
    ctx = setup(m=m, behaviors={0: CensoringLeader()}, cross=1.0, invalid=0)
    report, decided = decides_like_the_reference(ctx, "intra", "inter")
    assert events(report) == [(0, "censor", True)]
    assert report.censorship_detected == report.retried == [0]
    assert {(0, j) for j in range(1, m)} <= set(report.accepted)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_receiving_leader_censoring_is_retried(seed):
    """§V-E on the receiving side: a leader that censors only the lists it
    receives is impeached once, and its rounds re-run with output-side
    votes under the new leader commit the valid transactions."""
    ctx = setup(behaviors={16: CensoringLeader()}, seed=seed)
    ctx.mempools[2] = []  # committee 2 only receives
    report, decided = decides_like_the_reference(ctx, "intra", "inter")
    assert events(report) == [(2, "censor", True)] and report.retried == [2]
    incoming = [key for key in report.recv_rounds if key[1] == 2]
    assert incoming and all(report.recv_rounds[key].session.endswith(":retry")
                            for key in incoming)
    assert all(decided.accepted.get(key) for key in incoming)
