"""Selection phase (beacon + PoW + role lotteries) and block generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import relevant
from test_decision_reference import staged

from repro.core.blockgen import parallel_subblocks, run_block_generation
from repro.core.inter import run_inter_consensus
from repro.core.intra import run_intra_consensus
from repro.core.selection import run_selection
from repro.ledger.transaction import Transaction, make_coinbase


def setup(seed=0, cross=0.3):
    ctx = staged(m=2, seed=seed, txs=40, invalid=0.1, cross=cross)
    run_intra_consensus(ctx)
    run_inter_consensus(ctx)
    return ctx


# -- selection ----------------------------------------------------------------


def test_selection_produces_all_roles():
    ctx = setup()
    report = run_selection(ctx)
    assert len(report.randomness) == 32
    assert len(report.next_referee) == ctx.params.referee_size
    assert len(report.next_leaders) == ctx.params.m
    assert all(len(p) == ctx.params.lam for p in report.next_partials)


def test_selection_roles_disjoint():
    ctx = setup()
    report = run_selection(ctx)
    referee = set(report.next_referee)
    leaders = set(report.next_leaders)
    partials = {pk for group in report.next_partials for pk in group}
    assert not (referee & leaders)
    assert not (referee & partials)
    assert not (leaders & partials)


def test_selection_participants_all_online():
    ctx = setup()
    report = run_selection(ctx)
    assert len(report.participants) == len(ctx.nodes)
    assert report.rejected_pow == 0


def test_leaders_are_top_reputation():
    ctx = setup()
    # plant distinctive reputations
    pks = sorted(ctx.reputation)
    for rank, pk in enumerate(pks):
        ctx.reputation[pk] = float(rank)
    report = run_selection(ctx)
    eligible = [pk for pk in pks if pk not in set(report.next_referee)]
    expected = set(
        sorted(eligible, key=lambda pk: -ctx.reputation[pk])[: ctx.params.m]
    )
    assert set(report.next_leaders) == expected


def test_beacon_unbiased_by_malicious_referee():
    ctx = setup()
    from repro.nodes.behaviors import ContraryVoter

    ctx.nodes[ctx.referee[0]].behavior = ContraryVoter()
    report = run_selection(ctx)
    assert report.beacon is not None
    assert report.beacon.disqualified  # the corrupt dealing was thrown out
    assert len(report.randomness) == 32


# -- block generation -----------------------------------------------------------


def test_block_packs_certified_txs():
    ctx = setup()
    selection = run_selection(ctx)
    report = run_block_generation(ctx, selection)
    assert report.block is not None
    assert report.packed == len(report.block.transactions) > 0
    assert report.rejected_at_cr == 0
    assert len(ctx.chain) == 1
    assert ctx.chain.verify()


def test_block_fees_distributed():
    ctx = setup()
    selection = run_selection(ctx)
    report = run_block_generation(ctx, selection)
    assert report.total_fees > 0
    assert sum(report.rewards.values()) == pytest.approx(report.total_fees)
    assert set(report.rewards) == {node.pk for node in ctx.nodes.values()}


def test_block_carries_next_round_roles():
    ctx = setup()
    selection = run_selection(ctx)
    report = run_block_generation(ctx, selection)
    block = report.block
    assert block.referee == tuple(selection.next_referee)
    assert block.leaders == tuple(selection.next_leaders)
    assert block.randomness == selection.randomness


def test_shard_states_updated():
    ctx = setup()
    sizes_before = [state.size() for state in ctx.shard_states]
    selection = run_selection(ctx)
    run_block_generation(ctx, selection)
    sizes_after = [state.size() for state in ctx.shard_states]
    assert sizes_after != sizes_before


def test_global_state_conservation():
    """Total UTXO value decreases exactly by the collected fees."""
    ctx = setup()
    value_before = ctx.global_utxos.total_value()
    selection = run_selection(ctx)
    report = run_block_generation(ctx, selection)
    assert ctx.global_utxos.total_value() == value_before - report.total_fees


# -- §VIII-B parallel sub-blocks ----------------------------------------------


def _chain_txs():
    genesis = make_coinbase([("a", 100), ("b", 100)])
    tx1 = Transaction(
        inputs=((genesis.txid, 0),), outputs=(("c", 99),), nonce=1
    )
    tx2 = Transaction(  # spends tx1's output: relevant to tx1
        inputs=((tx1.txid, 0),), outputs=(("d", 98),), nonce=2
    )
    tx3 = Transaction(  # same input as tx1: relevant (conflict)
        inputs=((genesis.txid, 0),), outputs=(("e", 99),), nonce=3
    )
    tx4 = Transaction(  # independent
        inputs=((genesis.txid, 1),), outputs=(("f", 99),), nonce=4
    )
    return tx1, tx2, tx3, tx4


def test_relevance_predicate():
    tx1, tx2, tx3, tx4 = _chain_txs()
    assert relevant(tx1, tx2)  # spends output
    assert relevant(tx1, tx3)  # same input
    assert not relevant(tx1, tx4)
    assert not relevant(tx2, tx4)


def test_parallel_subblocks_separate_relevant():
    tx1, tx2, tx3, tx4 = _chain_txs()
    groups = parallel_subblocks([tx1, tx2, tx3, tx4])
    index_of = {}
    for g_index, group in enumerate(groups):
        for tx in group:
            index_of[tx.txid] = g_index
    assert index_of[tx1.txid] != index_of[tx2.txid]
    assert index_of[tx1.txid] != index_of[tx3.txid]
    # every pair inside a group is irrelevant
    for group in groups:
        for a in group:
            for b in group:
                if a is not b:
                    assert not relevant(a, b)


def test_parallel_subblocks_empty():
    assert parallel_subblocks([]) == []


@st.composite
def _related_tx_lists(draw):
    """Transactions over a small coin pool, so inputs are often shared;
    later ones may spend earlier ones' outputs (spend chains), some entries
    repeat an earlier transaction, and the list is shuffled."""
    genesis = make_coinbase([(f"g{i}", 100) for i in range(4)])
    spendable = [(genesis.txid, i) for i in range(4)]
    txs: list[Transaction] = []
    for nonce in range(draw(st.integers(0, 10))):
        if txs and draw(st.integers(0, 3)) == 0:
            txs.append(draw(st.sampled_from(txs)))
            continue
        inputs = draw(st.lists(st.sampled_from(spendable), min_size=1, max_size=2))
        outputs = draw(st.integers(1, 2))
        tx = Transaction(
            inputs=tuple(inputs),
            outputs=tuple((f"o{nonce}.{k}", 1) for k in range(outputs)),
            nonce=nonce,
        )
        spendable += [(tx.txid, k) for k in range(outputs)]
        txs.append(tx)
    return draw(st.permutations(txs))


def test_parallel_subblocks_matches_networkx_largest_first():
    """The plain-Python colouring yields exactly networkx's largest-first
    groups, member order included (the sub-block counts and widths that
    ``tests/fixtures/pinned_runs.json`` pins depend on both)."""
    pytest.importorskip("networkx")
    from reference_impls import networkx_parallel_subblocks

    @settings(max_examples=200, deadline=None)
    @given(_related_tx_lists())
    def check(txs):
        groups = parallel_subblocks(txs)
        expected = networkx_parallel_subblocks(txs)
        assert [[tx.txid for tx in g] for g in groups] == [
            [tx.txid for tx in g] for g in expected
        ]

    check()


def test_parallel_block_generation_reports_width():
    ctx = setup(seed=3)
    object.__setattr__(ctx.params, "parallel_block_generation", True)
    selection = run_selection(ctx)
    report = run_block_generation(ctx, selection)
    assert report.parallel_subblocks >= 1
    assert report.parallel_width >= 1
