"""Vote-round machinery unit tests (direct, below the intra/inter phases)."""

import numpy as np
import pytest
from tx_builders import make_transfer

from repro.core.committee import run_committee_configuration
from repro.core.sandbox import build_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.core.voting import (
    VoteRoundSession,
    input_side_votes,
    output_side_votes,
    run_vote_rounds,
)
from repro.ledger.state import apply_block
from repro.ledger.transaction import make_coinbase


@pytest.fixture
def ctx_with_coins():
    ctx = build_sandbox(committee_size=8, lam=2)
    state = ctx.shard_states[0]
    genesis = make_coinbase([(f"user-{i}", 100) for i in range(12)])
    apply_block(ctx.shard_states, [genesis], ctx.shard_of, ctx.global_utxos)
    txs = []
    for nonce, op in enumerate(sorted(state.utxos, key=lambda o: (o[0], o[1]))[:5]):
        owner, _amount = state.utxos.get(op)
        txs.append(make_transfer(op, 100, "payee", 10, owner, nonce=nonce))
    run_committee_configuration(ctx)
    run_semi_commitment_exchange(ctx)
    return ctx, txs


def run_single(ctx, txs, session="vr", override=None):
    committee = ctx.committees[0]
    vote_session = VoteRoundSession(
        ctx, committee, txs, session, input_side_votes, "intra",
        leader_proposes_override=override,
    )
    vote_session.start()
    ctx.net.run()
    return vote_session.finish()


def test_matrix_rows_follow_member_order(ctx_with_coins):
    ctx, txs = ctx_with_coins
    result = run_single(ctx, txs)
    assert result.matrix.shape == (8, 5)
    # all honest, all valid -> every row all-Yes
    assert np.all(result.matrix == 1)
    assert np.all(result.decision == 1)
    assert result.consensus_success
    assert len(result.reported_txs) == 5


def test_artifacts_signed_by_leader(ctx_with_coins):
    ctx, txs = ctx_with_coins
    result = run_single(ctx, txs)
    from repro.crypto.signatures import signed_by

    leader_pk = ctx.pk_of(0)
    assert signed_by(
        ctx.pki, result.sig_dec,
        ("INTRA_DEC", 1, 0, result.reported_txids), leader_pk,
    )
    assert signed_by(
        ctx.pki, result.sig_votes,
        ("VLIST", 1, 0, result.txids, result.vlist), leader_pk,
    )
    # ... and a verifier holding the plain tuple-of-rows form checks the
    # same bytes.
    rows = tuple(map(tuple, result.matrix.tolist()))
    assert signed_by(
        ctx.pki, result.sig_votes, ("VLIST", 1, 0, result.txids, rows), leader_pk
    )


def test_nonrepliers_counted_unknown(ctx_with_coins):
    ctx, txs = ctx_with_coins
    # two members go fully offline
    ctx.nodes[6].online = False
    ctx.nodes[7].online = False
    result = run_single(ctx, txs)
    assert result.replies == 6
    assert np.all(result.matrix[6:] == 0)  # deemed Unknown
    # 6 of 8 Yes still clears the > c/2 bar
    assert np.all(result.decision == 1)


def test_timeout_without_proposal_collects_no_proposal_sigs(ctx_with_coins):
    ctx, txs = ctx_with_coins
    result = run_single(ctx, txs, override=False)
    assert result.timed_out
    # every honest partial member holds a > c/2 quorum of statements
    for pid in ctx.committees[0].partial:
        assert len(result.no_proposal_sigs.get(pid, [])) > 8 / 2


def test_duplicate_vote_ignored(ctx_with_coins):
    """A member's first valid VOTE stands: neither a replay of it nor a
    second, different, correctly signed VOTE overwrites the matrix row or
    counts as another reply."""
    from repro.crypto.signatures import sign

    ctx, txs = ctx_with_coins
    committee = ctx.committees[0]
    session = VoteRoundSession(ctx, committee, txs, "dup", input_side_votes, "intra")
    seen = {}
    on_vote = session._on_vote

    def recording(message):
        seen.setdefault(message.payload[0], message.payload)
        on_vote(message)

    session._on_vote = recording
    session.start()
    # Every genuine vote is in by 3 delta; the window closes at 6 delta.
    ctx.net.run(until=ctx.net.now + 3 * ctx.params.net.delta)
    assert session.result.replies == 8
    genuine = seen[3]
    assert genuine[1] == (1,) * 5
    node = ctx.nodes[3]
    contrary = (-1,) * 5
    statement = ("VOTE", 1, 0, "dup", contrary)
    node.send(0, "VOTE:dup", genuine)  # replay
    node.send(0, "VOTE:dup", (3, contrary, sign(node.keypair, statement)))
    ctx.net.run()
    result = session.finish()
    assert result.replies == 8  # replies count members, not messages
    assert np.all(result.matrix[committee.members.index(3)] == 1)


def test_vote_with_wrong_length_rejected(ctx_with_coins):
    ctx, txs = ctx_with_coins
    committee = ctx.committees[0]
    session = VoteRoundSession(ctx, committee, txs, "wl", input_side_votes, "intra")
    session.start()
    # forge a short vote from member 3 before the window closes
    from repro.crypto.signatures import sign

    node = ctx.nodes[3]
    bad_votes = (1,)
    statement = ("VOTE", 1, 0, "wl", bad_votes)
    node.send(0, "VOTE:wl", (3, bad_votes, sign(node.keypair, statement)))
    ctx.net.run()
    result = session.finish()
    assert result.matrix.shape == (8, 5)


def test_concurrent_vote_rounds(ctx_with_coins):
    ctx, txs = ctx_with_coins
    committee = ctx.committees[0]
    results = run_vote_rounds(
        ctx,
        [
            (committee, txs[:3], "c1", input_side_votes, "intra"),
            (committee, txs[3:], "c2", input_side_votes, "intra"),
        ],
    )
    assert all(r.consensus_success for r in results)
    assert len(results[0].txs) == 3 and len(results[1].txs) == 2


def test_run_vote_rounds_releases_its_sessions(ctx_with_coins, monkeypatch):
    """Once ``run_vote_rounds`` returns, nothing keeps its sessions alive:
    no member's mailbox holds one of their tags, so each
    ``VoteRoundSession`` and its Algorithm 3 session are garbage."""
    import gc
    import weakref

    from repro.core import voting

    ctx, txs = ctx_with_coins
    committee = ctx.committees[0]
    refs = []

    class Watched(VoteRoundSession):
        def finish(self):
            refs.extend([weakref.ref(self), weakref.ref(self._alg3)])
            return super().finish()

    monkeypatch.setattr(voting, "VoteRoundSession", Watched)
    results = voting.run_vote_rounds(
        ctx,
        [
            (committee, txs[:3], "c1", input_side_votes, "intra"),
            (committee, txs[3:], "c2", input_side_votes, "intra"),
        ],
    )
    assert all(r.consensus_success for r in results)
    gc.collect()
    assert len(refs) == 4 and all(ref() is None for ref in refs)
    tags = {
        f"{kind}:{session}"
        for session in ("c1", "c2")
        for kind in ("TX_LIST", "NO_PROPOSAL", "VOTE")
    } | {
        f"{kind}:{session}:alg3"
        for session in ("c1", "c2")
        for kind in ("PROPOSE", "ECHO", "STOP", "CONFIRM")
    }
    for mid in committee.members:
        assert not tags & set(ctx.node(mid).handlers), mid


def test_output_side_votes_check_wellformedness(ctx_with_coins):
    ctx, txs = ctx_with_coins
    result_session = VoteRoundSession(
        ctx, ctx.committees[0], txs, "out", output_side_votes, "inter-recv"
    )
    result_session.start()
    ctx.net.run()
    result = result_session.finish()
    # outputs are positive -> all Yes on the output side
    assert np.all(result.matrix == 1)


def test_empty_tx_list(ctx_with_coins):
    ctx, _ = ctx_with_coins
    result = run_single(ctx, [], session="empty")
    assert result.consensus_success
    assert result.reported_txs == []
    assert result.matrix.shape == (8, 0)
