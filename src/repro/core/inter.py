"""Inter-committee consensus (§IV-D, Lemmas 6–8).

For transactions whose inputs live in shard *i* and (some) outputs in shard
*j*:

1. **Sending side** — committee *i* reaches inside-consensus on the list
   ``TXList_{i,j}`` (a vote round over the input-side validity, exactly like
   Algorithm 5), producing a certificate anchored to its semi-committed
   member list.
2. **Hand-off** — leader *i* sends the certified list to leader *j* *and*
   to the partial set of committee *j* ("the leader sends the consensus on
   TXList_{i,j} as well as the member list to l_j and C_j,partial").
3. **Receiving side** — committee *j* verifies the certificate against the
   member list whose hash C_R accepted for committee *i* (a forged
   consensus "concerning the semi-commitment" fails here, Lemma 6), then
   reaches agreement on the output side and leader *j* returns the result.
4. **Lemma 7 timeout** — a partial member of *j* that received the package
   from *i* but saw no proposal from its own leader within 2Γ forwards the
   package to the leader and keeps running; a still-silent leader is then
   impeached through the silence path.  The 2Γ wait is not a timer: the
   hand-off is drained to quiescence (``ctx.net.run()``), after which a
   package the leader has not acted on has outwaited any channel delay.

§VIII-A's pre-filter extension (``params.prefilter_cross_shard``): leader
*i* first asks leader *j* which transactions look valid and only packages
those, trading one leader-to-leader message for fewer wasted committee-wide
vote rounds under invalid-heavy (e.g. DoS) workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.consensus import consensus_digest, verify_certificate
from repro.core.intra import _audit_and_maybe_retry, first_honest_partial
from repro.core.recovery import Witness, attempt_recovery
from repro.core.structures import RecoveryEvent, RoundContext
from repro.core.tags import Tags
from repro.core.voting import (
    VoteRound,
    VoteRoundSession,
    input_side_votes,
    output_side_votes,
    run_vote_rounds,
)
from repro.ledger.transaction import Transaction, shard_of_address
from repro.ledger.utxo import ValidationResult
from repro.net.message import payload_size


@dataclass
class InterReport:
    send_rounds: dict[tuple[int, int], VoteRound] = field(default_factory=dict)
    recv_rounds: dict[tuple[int, int], VoteRound] = field(default_factory=dict)
    accepted: dict[tuple[int, int], list[Transaction]] = field(default_factory=dict)
    forged_rejected: int = 0
    lemma7_forwards: list[tuple[int, int]] = field(default_factory=list)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    prefilter_savings: int = 0  # txs dropped before committee-wide voting
    elapsed: float = 0.0


def dest_shard(tx: Transaction, home: int, m: int) -> int | None:
    """The receiving shard of a cross-shard tx (first non-home output)."""
    for output in tx.outputs:
        shard = shard_of_address(output.address, m)
        if shard != home:
            return shard
    return None


def run_inter_consensus(ctx: RoundContext) -> InterReport:
    ctx.metrics.set_phase("inter")
    started = ctx.net.now
    report = InterReport()
    m = ctx.params.m
    committees_by_index = {c.index: c for c in ctx.committees}

    # -- group cross-shard transactions by (home, dest) pair ----------------
    pair_txs: dict[tuple[int, int], list[Transaction]] = {}
    for k, mempool in enumerate(ctx.mempools):
        # Leader capacity caps the cross-shard list too (§VII-A).
        budget = min(
            ctx.params.tx_per_committee,
            ctx.node(ctx.committees[k].leader).capacity,
        )
        picked = 0
        for tagged in mempool:
            if not tagged.cross_shard or picked >= budget:
                continue
            dest = dest_shard(tagged.tx, tagged.home_shard, m)
            if dest is None or dest == k:
                continue
            pair_txs.setdefault((k, dest), []).append(tagged.tx)
            picked += 1

    # -- §VIII-A pre-filter -------------------------------------------------
    if ctx.params.prefilter_cross_shard:
        pair_txs = _prefilter(ctx, pair_txs, report)

    # -- stage 1: sending-side vote rounds -----------------------------------
    work = [
        (
            committees_by_index[i],
            txs,
            f"intersend:{i}:{j}",
            input_side_votes,
            "inter",
        )
        for (i, j), txs in sorted(pair_txs.items())
    ]
    rounds = run_vote_rounds(ctx, work)
    for ((i, j), _), round_result in zip(sorted(pair_txs.items()), rounds):
        committee = committees_by_index[i]
        final = _audit_and_maybe_retry(
            ctx, committee, round_result, _proxy(report), phase_name="inter"
        )
        report.send_rounds[(i, j)] = final
        if final.matrix is not None:
            ctx.vote_records.setdefault(i, []).append(
                (final.txids, final.matrix, final.decision)
            )

    # -- stage 2: hand-off to receiving committees -----------------------------
    packages: dict[tuple[int, int], tuple] = {}
    partial_received: dict[tuple[int, int], set[int]] = {}

    # Each package fans out to the receiving leader plus its partial set;
    # the certificate check (O(c) signature verifications over a
    # full-payload digest) is deterministic per package, so verify once per
    # payload object and share the verdict across recipients.  Holding the
    # payload reference keeps the identity key stable.
    valid_cache: dict[int, bool] = {}
    cache_refs: list = []

    def _package_valid(payload: tuple) -> bool:
        cached = valid_cache.get(id(payload))
        if cached is not None:
            return cached
        i, _j, txs, alg3_payload, cert, session = payload
        member_pks = [pk for pk, _ in ctx.member_lists.get(i, ())]
        digest = consensus_digest(alg3_payload)
        result = bool(
            member_pks
            and verify_certificate(
                ctx.pki,
                member_pks,
                ctx.round_number,
                ("VOTEROUND", session),
                digest,
                cert,
            )
            and tuple(tx.txid for tx in txs) == alg3_payload[0]
        )
        valid_cache[id(payload)] = result
        cache_refs.append(payload)
        return result

    # One handler for every key member; who is a leader is fixed here (a
    # recovery below replaces leaders but re-registers nothing).
    leaders = frozenset(committee.leader for committee in ctx.committees)

    def on_inter_send(message) -> None:
        i, j, txs, alg3_payload, cert, session = message.payload
        key = (i, j)
        if not _package_valid(message.payload):
            report.forged_rejected += 1
            return
        if message.recipient in leaders:
            packages[key] = (txs, alg3_payload, cert, session)
        else:
            partial_received.setdefault(key, set()).add(message.recipient)

    for committee in ctx.committees:
        for kid in committee.key_members:
            ctx.node(kid).on(Tags.INTER_SEND, on_inter_send)

    for (i, j), round_result in report.send_rounds.items():
        if not round_result.consensus_success or not round_result.reported_txs:
            continue
        sender = ctx.node(committees_by_index[i].leader)
        if not sender.behavior.forwards_inter(sender):
            continue
        receiver_committee = committees_by_index[j]
        payload = (
            i,
            j,
            round_result.reported_txs,
            round_result.alg3_payload,
            tuple(round_result.cert),
            round_result.session,
        )
        size = payload_size(payload)
        sender.multicast(
            receiver_committee.key_members, Tags.INTER_SEND, payload, size=size
        )
    ctx.net.run()

    # -- Lemma 7: partial members saw the package, the leader "didn't" -------
    for key, partial_ids in sorted(partial_received.items()):
        i, j = key
        receiver_committee = committees_by_index[j]
        leader_node = ctx.node(receiver_committee.leader)
        if key in packages and leader_node.behavior.forwards_inter(leader_node):
            continue
        forwarder = next(
            (
                pid
                for pid in receiver_committee.partial
                if pid in partial_ids
                and not ctx.node(pid).behavior.is_malicious
                and ctx.node(pid).online
            ),
            None,
        )
        if forwarder is None:
            continue
        report.lemma7_forwards.append(key)
        # "he/she can send the transactions set to his/her leader and
        # continues running consensus protocol" — forward, then if the
        # leader still will not run it, impeach for silence and let the new
        # leader (the forwarder) run the receiving-side round itself.
        if key not in packages:
            continue  # the package never reached the leader's mailbox
        txs, alg3_payload, cert, session = packages[key]
        if not leader_node.behavior.forwards_inter(leader_node):
            # The forwarded package is ignored by the leader: the probe vote
            # round runs with no proposal, producing exactly the
            # NO_PROPOSAL quorum the silence impeachment needs.
            probe = VoteRoundSession(
                ctx,
                receiver_committee,
                txs,
                f"interrecv:{i}:{j}:probe",
                output_side_votes,
                "inter-recv",
                leader_proposes_override=False,
            )
            probe.start()
            ctx.net.run()
            witness_round = probe.finish()
            witness = None
            if witness_round.timed_out:
                for pid in receiver_committee.partial:
                    sigs = witness_round.no_proposal_sigs.get(pid, [])
                    if len(sigs) > receiver_committee.size / 2:
                        witness = Witness(
                            kind="silence",
                            committee=j,
                            leader_pk=ctx.pk_of(receiver_committee.leader),
                            round_number=ctx.round_number,
                            evidence=("inter-recv", tuple(sigs)),
                        )
                        break
            if witness is not None:
                accuser = first_honest_partial(ctx, receiver_committee)
                if accuser is not None:
                    event = attempt_recovery(
                        ctx, receiver_committee, accuser, witness,
                        session=f"interrec:{i}:{j}",
                    )
                    report.recoveries.append(event)

    # -- stage 3: receiving-side vote rounds ------------------------------------
    recv_work = []
    for key, (txs, alg3_payload, cert, session) in sorted(packages.items()):
        i, j = key
        receiver_committee = committees_by_index[j]
        leader_node = ctx.node(receiver_committee.leader)
        if not leader_node.behavior.forwards_inter(leader_node):
            continue  # only reachable if recovery failed
        recv_work.append(
            (
                receiver_committee,
                txs,
                f"interrecv:{i}:{j}",
                output_side_votes,
                "inter-recv",
            )
        )
    recv_rounds = run_vote_rounds(ctx, recv_work)
    recv_keys = [
        key
        for key in sorted(packages)
        if ctx.node(committees_by_index[key[1]].leader).behavior.forwards_inter(
            ctx.node(committees_by_index[key[1]].leader)
        )
    ]

    # -- stage 4: results back to the sending leader ------------------------------
    results_received: dict[tuple[int, int], tuple] = {}

    def on_result(message) -> None:
        i, j, txids, alg3_payload, cert, session = message.payload
        member_pks = [pk for pk, _ in ctx.member_lists.get(j, ())]
        digest = consensus_digest(alg3_payload)
        if member_pks and verify_certificate(
            ctx.pki,
            member_pks,
            ctx.round_number,
            ("VOTEROUND", session),
            digest,
            cert,
        ):
            results_received[(i, j)] = (txids, cert)

    for committee in ctx.committees:
        ctx.node(committee.leader).on(Tags.INTER_RESULT, on_result)

    for key, round_result in zip(recv_keys, recv_rounds):
        i, j = key
        report.recv_rounds[key] = round_result
        if round_result.matrix is not None:
            ctx.vote_records.setdefault(j, []).append(
                (round_result.txids, round_result.matrix, round_result.decision)
            )
        if not round_result.consensus_success:
            continue
        receiver_leader = ctx.node(committees_by_index[j].leader)
        receiver_leader.send(
            committees_by_index[i].leader,
            Tags.INTER_RESULT,
            (
                i,
                j,
                round_result.reported_txids,
                round_result.alg3_payload,
                tuple(round_result.cert),
                round_result.session,
            ),
        )
    ctx.net.run()

    # -- finalize: both certificates in hand => transaction goes to C_R --------
    for key, (accepted_txids, _cert) in results_received.items():
        send_round = report.send_rounds.get(key)
        if send_round is None:
            continue
        accepted_set = set(accepted_txids)
        final_txs = [
            tx for tx in send_round.reported_txs if tx.txid in accepted_set
        ]
        report.accepted[key] = final_txs
        ctx.inter_results[key] = final_txs

    report.elapsed = ctx.net.now - started
    return report


def _prefilter(
    ctx: RoundContext,
    pair_txs: dict[tuple[int, int], list[Transaction]],
    report: InterReport,
) -> dict[tuple[int, int], list[Transaction]]:
    """§VIII-A: leader i asks leader j which transactions look valid before
    packaging, so obviously-invalid ones never reach a vote round.

    The *output-side* leader can spot malformed outputs cheaply; the
    sending leader additionally drops transactions its own shard state
    already rejects.  (If either leader lies it is punished by reputation —
    modelled at the bench level; here leaders answer honestly or not based
    on their behaviour's vote hooks.)
    """
    filtered: dict[tuple[int, int], list[Transaction]] = {}
    for (i, j), txs in sorted(pair_txs.items()):
        sender_leader = ctx.node(ctx.committees[i].leader)
        state = sender_leader.shard_state
        kept = []
        for tx in txs:
            input_ok = (
                state is not None
                and state.validate(tx) is ValidationResult.VALID
            )
            output_ok = bool(tx.outputs) and all(o.amount > 0 for o in tx.outputs)
            if input_ok and output_ok:
                kept.append(tx)
            else:
                report.prefilter_savings += 1
        # One leader-to-leader enquiry per pair: O(1) extra messages.
        sender_leader.send(
            ctx.committees[j].leader,
            Tags.PREFILTER_ASK,
            tuple(tx.txid for tx in txs),
        )
        if kept:
            filtered[(i, j)] = kept
    ctx.net.run()
    return filtered


class _proxy:
    """Adapter letting the intra-phase audit helper write into InterReport."""

    def __init__(self, report: InterReport) -> None:
        self._report = report
        self.censorship_detected: list[int] = []
        self.silence_detected: list[int] = []
        self.equivocation_detected: list[int] = []
        self.retried: list[int] = []

    @property
    def recoveries(self) -> list[RecoveryEvent]:
        return self._report.recoveries
