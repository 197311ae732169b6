"""Block generation and propagation (§IV-G), plus the §VIII-B parallel
block-generation extension.

"By the end of the round, the referee committee comes to an agreement using
Algorithm 3 on the set of valid TXdecSETs and pack them up, together with
all participants of next round S^{r+1}, their reputations W^{r+1}, the
elected referee committee C_R^{r+1}, leaders and partial sets as a block
B^r."

Propagation reuses the existing channel graph — C_R sends the block to the
committee leaders (referee channels) who relay it inside their committees
(intra channels); there is no extra all-to-all broadcast layer.  After the
block lands, every committee updates its shard UTXO view, reaches consensus
on the final UTXO list and Remaining TX List, and the leader ships both to
C_R, which forwards them to the corresponding *new* partial sets.

Fees: the round's total transaction fees are distributed proportionally to
``g(reputation)`` (§IV-G) into a protocol-level reward account per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.consensus import InsideConsensus
from repro.core.reputation import distribute_rewards
from repro.core.selection import SelectionReport
from repro.core.structures import RoundContext
from repro.core.tags import Tags
from repro.ledger.chain import GENESIS_PREV_HASH, Block
from repro.ledger.state import apply_block
from repro.ledger.transaction import Transaction
from repro.ledger.utxo import ValidationResult, transaction_fee, validate_transaction


@dataclass
class BlockReport:
    block: Block | None = None
    packed: int = 0
    rejected_at_cr: int = 0
    total_fees: int = 0
    remaining_by_committee: dict[int, int] = field(default_factory=dict)
    parallel_subblocks: int = 0
    parallel_width: int = 0
    rewards: dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0


def relevant(tx_a: Transaction, tx_b: Transaction) -> bool:
    """§VIII-B: two transactions are *relevant* if they share an input
    outpoint or one spends the other's output."""
    a_in = set(tx_a.outpoints())
    b_in = set(tx_b.outpoints())
    if a_in & b_in:
        return True
    a_out = {(tx_a.txid, i) for i in range(len(tx_a.outputs))}
    b_out = {(tx_b.txid, i) for i in range(len(tx_b.outputs))}
    return bool(a_in & b_out) or bool(b_in & a_out)


def parallel_subblocks(txs: list[Transaction]) -> list[list[Transaction]]:
    """Partition transactions into groups of pairwise-irrelevant ones.

    Builds the relevance graph and greedily colours it; each colour class is
    a sub-block whose members "can be processed in parallel" (§VIII-B).
    The colouring is largest-first greedy — highest degree first, ties in
    list order, each transaction takes the smallest colour no neighbour
    holds — and each group lists its members in colouring order, the groups
    ``networkx.greedy_color(strategy="largest_first")`` yields.
    """
    neighbours: list[set[int]] = [set() for _ in txs]
    # Index by outpoint so graph construction is O(total inputs), not O(n²).
    spenders: dict[tuple[bytes, int], list[int]] = {}
    producers: dict[tuple[bytes, int], int] = {}
    for idx, tx in enumerate(txs):
        for outpoint in tx.outpoints():
            spenders.setdefault(outpoint, []).append(idx)
        for out_index in range(len(tx.outputs)):
            producers[(tx.txid, out_index)] = idx
    for outpoint, ids in spenders.items():
        producer = producers.get(outpoint)
        for a in ids:
            neighbours[a].update(b for b in ids if b != a)  # same UTXO as input
            if producer is not None and a != producer:
                neighbours[a].add(producer)  # spends output
                neighbours[producer].add(a)
    colors: dict[int, int] = {}
    for idx in sorted(
        range(len(txs)), key=lambda i: len(neighbours[i]), reverse=True
    ):
        taken = {colors[j] for j in neighbours[idx] if j in colors}
        color = 0
        while color in taken:
            color += 1
        colors[idx] = color
    groups: list[list[Transaction]] = [
        [] for _ in range(max(colors.values(), default=-1) + 1)
    ]
    for idx, color in colors.items():
        groups[color].append(txs[idx])
    return groups


def run_block_generation(
    ctx: RoundContext, selection: SelectionReport
) -> BlockReport:
    ctx.metrics.set_phase("block")
    started = ctx.net.now
    report = BlockReport()

    # -- gather certified transaction sets -----------------------------------
    candidates: list[Transaction] = []
    seen: set[bytes] = set()
    for k in sorted(ctx.intra_results):
        for tx in ctx.intra_results[k]:
            if tx.txid not in seen:
                seen.add(tx.txid)
                candidates.append(tx)
    for key in sorted(ctx.inter_results):
        for tx in ctx.inter_results[key]:
            if tx.txid not in seen:
                seen.add(tx.txid)
                candidates.append(tx)

    # C_R holds the O(n) global view (Table II) and re-checks V before
    # packing; committee certificates should make rejections rare.
    packed: list[Transaction] = []
    for tx in candidates:
        if validate_transaction(tx, ctx.global_utxos) is ValidationResult.VALID:
            report.total_fees += transaction_fee(tx, ctx.global_utxos)
            ctx.global_utxos.apply_transaction(tx)
            packed.append(tx)
        else:
            report.rejected_at_cr += 1
    report.packed = len(packed)

    if ctx.params.parallel_block_generation:
        groups = parallel_subblocks(packed)
        report.parallel_subblocks = len(groups)
        report.parallel_width = max((len(g) for g in groups), default=0)

    # -- C_R consensus on the block ------------------------------------------
    prev_hash = ctx.chain.head.hash if len(ctx.chain) else GENESIS_PREV_HASH
    block = Block(
        round_number=ctx.round_number,
        prev_hash=prev_hash,
        transactions=tuple(packed),
        randomness=selection.randomness,
        participants=tuple(selection.participants),
        reputations=tuple(sorted(ctx.reputation.items())),
        referee=tuple(selection.next_referee),
        leaders=tuple(selection.next_leaders),
        partial_sets=tuple(tuple(p) for p in selection.next_partials),
    )
    consensus = InsideConsensus(
        ctx,
        ctx.referee,
        leader=ctx.referee[0],
        sn=("BLOCK", ctx.round_number),
        payload=block.hash,
        session=f"block:{ctx.round_number}",
    )
    consensus.start()
    ctx.net.run()
    if not consensus.outcome.success:
        report.elapsed = ctx.net.now - started
        return report  # void block this round (prob. bounded by §V-B)
    ctx.chain.append(block)
    report.block = block

    # -- propagation: C_R -> leaders -> members --------------------------------
    block_size = max(1, len(packed)) * 64 + len(block.participants) * 8
    delivered: set[int] = set()

    def on_block_member(message) -> None:
        delivered.add(message.recipient)

    def on_block_leader(message) -> None:
        delivered.add(message.recipient)
        leader_node = ctx.node(message.recipient)
        leader_node.multicast(
            ctx.committees[leader_node.committee_id].members,
            Tags.BLOCK,
            message.payload,
            size=block_size,
        )

    for committee in ctx.committees:
        ctx.node(committee.leader).on(Tags.BLOCK, on_block_leader)
        for mid in committee.members:
            if mid != committee.leader:
                ctx.node(mid).on(Tags.BLOCK, on_block_member)
    ctx.node(ctx.referee[0]).multicast(
        [committee.leader for committee in ctx.committees],
        Tags.BLOCK,
        block.hash,
        size=block_size,
    )
    ctx.net.run()

    # -- shard state updates + final UTXO / Remaining-TX consensus -------------
    apply_block(ctx.shard_states, packed)
    packed_ids = {tx.txid for tx in packed}
    final_sessions: list[tuple[int, InsideConsensus]] = []
    for k, state in enumerate(ctx.shard_states):
        remaining = [
            t.tx
            for t in ctx.mempools[k]
            if t.tx.txid not in packed_ids and t.intended_valid
        ]
        report.remaining_by_committee[k] = len(remaining)
        committee = ctx.committees[k]
        for mid in committee.members:
            ctx.metrics.record_storage(mid, state.size() + len(remaining))
        consensus_k = InsideConsensus(
            ctx,
            committee.members,
            leader=committee.leader,
            sn=("UTXO_FINAL", k),
            payload=(
                state.digest_items(),
                tuple(tx.txid for tx in remaining),
            ),
            session=f"utxofinal:{k}",
        )
        consensus_k.start()
        final_sessions.append((k, consensus_k))
    ctx.net.run()

    # Leaders ship the agreed lists to C_R, which binds them to committee
    # ids and forwards them to the corresponding new partial sets.
    def on_utxo_final(message) -> None:
        k, digest, cert = message.payload
        next_partial_pks = (
            selection.next_partials[k] if k < len(selection.next_partials) else []
        )
        for pk in next_partial_pks:
            try:
                target = ctx.node_by_pk(pk)
            except KeyError:
                continue
            ctx.node(ctx.referee[0]).send(
                target.node_id, f"{Tags.UTXO_FINAL}:fwd", (k, digest)
            )

    ctx.node(ctx.referee[0]).on(Tags.UTXO_FINAL, on_utxo_final)
    for k, consensus_k in final_sessions:
        if not consensus_k.outcome.success:
            continue
        committee = ctx.committees[k]
        ctx.node(committee.leader).send(
            ctx.referee[0],
            Tags.UTXO_FINAL,
            (k, consensus_k.outcome.digest, tuple(consensus_k.outcome.cert)),
        )
    ctx.net.run()

    # -- fee distribution ----------------------------------------------------
    round_rewards = distribute_rewards(float(report.total_fees), ctx.reputation)
    for pk, reward in round_rewards.items():
        ctx.rewards[pk] = ctx.rewards.get(pk, 0.0) + reward
    report.rewards = round_rewards
    for rid in ctx.referee:
        ctx.metrics.record_storage(rid, len(ctx.global_utxos))
    report.elapsed = ctx.net.now - started
    return report
