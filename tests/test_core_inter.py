"""Inter-committee consensus: cross-shard flow, Lemma 6/7 attacks, prefilter."""

import numpy as np

from repro.core.committee import run_committee_configuration
from repro.core.consensus import consensus_digest
from repro.core.inter import dest_shard, run_inter_consensus
from repro.core.intra import run_intra_consensus
from repro.core.sandbox import build_multi_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.core.tags import Tags
from repro.ledger.state import apply_block
from repro.ledger.workload import WorkloadGenerator
from repro.nodes.behaviors import InterSilentLeader


def setup(m=3, c=8, behaviors=None, seed=0, cross=0.5, invalid=0.1, prefilter=False):
    ctx = build_multi_sandbox(m=m, committee_size=c, lam=2, behaviors=behaviors, seed=seed)
    if prefilter:
        object.__setattr__(ctx.params, "prefilter_cross_shard", True)
    wg = WorkloadGenerator(m=m, users_per_shard=24, rng=np.random.default_rng(seed))
    apply_block(ctx.shard_states, [wg.genesis_tx])
    batch = wg.generate_batch(80, cross_shard_ratio=cross, invalid_ratio=invalid)
    for k, pool in enumerate(wg.by_home_shard(batch)):
        ctx.mempools[k] = pool
    run_committee_configuration(ctx)
    run_semi_commitment_exchange(ctx)
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
        dest = dest_shard(tagged.tx, tagged.home_shard, 3)
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
