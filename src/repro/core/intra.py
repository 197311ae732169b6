"""Intra-committee consensus — Algorithm 5 (§IV-C), with auditing.

Each committee runs a vote round (:mod:`repro.core.voting`) over the
transactions whose inputs and outputs all live in its shard, then the leader
sends the certified TXdecSET to the referee committee.

Partial-set auditing (§V-E: "a faulty leader can always be detected,
meanwhile, malicious members can never calumniate a non-faulty leader"):

* **Censorship** — the leader-signed VList shows a Yes-majority transaction
  missing from the leader-signed TXdecSET → censor witness → impeachment →
  the phase re-runs for that committee under the new leader.
* **Silence** — no TXList by the 6Δ deadline → quorum of NO_PROPOSAL
  countersignatures → silence witness → impeachment → re-run.

One retry per committee per round suffices: the replacement leader is the
(honest, by the partial-set security argument §V-C) accusing partial member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.consensus import consensus_digest, verify_certificate
from repro.core.recovery import Witness, attempt_recovery
from repro.core.structures import CommitteeSpec, RecoveryEvent, RoundContext
from repro.core.tags import Tags
from repro.core.voting import VoteRound, input_side_votes, run_vote_rounds
from repro.ledger.transaction import Transaction


@dataclass
class IntraReport:
    rounds: dict[int, VoteRound] = field(default_factory=dict)
    accepted_by_cr: dict[int, list[Transaction]] = field(default_factory=dict)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    censorship_detected: list[int] = field(default_factory=list)
    silence_detected: list[int] = field(default_factory=list)
    equivocation_detected: list[int] = field(default_factory=list)
    retried: list[int] = field(default_factory=list)
    elapsed: float = 0.0


def audit_vote_round(
    ctx: RoundContext,
    committee: CommitteeSpec,
    round_result: VoteRound,
    phase_name: str,
) -> Witness | None:
    """What an honest partial-set member concludes from the artifacts."""
    honest_partials = [
        pid
        for pid in committee.partial
        if not ctx.node(pid).behavior.is_malicious and ctx.node(pid).online
    ]
    if not honest_partials:
        return None  # insecure partial set (prob. (1/3)^λ, §V-C)
    if round_result.timed_out:
        for pid in honest_partials:
            sigs = round_result.no_proposal_sigs.get(pid, [])
            if len(sigs) > committee.size / 2:
                return Witness(
                    kind="silence",
                    committee=committee.index,
                    leader_pk=ctx.pk_of(committee.leader),
                    round_number=ctx.round_number,
                    evidence=(phase_name, tuple(sigs)),
                )
        return None
    if round_result.equivocation is not None:
        return Witness(
            kind="equivocation",
            committee=committee.index,
            leader_pk=ctx.pk_of(committee.leader),
            round_number=ctx.round_number,
            evidence=round_result.equivocation,
        )
    if round_result.matrix is None or round_result.sig_dec is None:
        return None
    yes_counts = (round_result.matrix == 1).sum(axis=0)
    quorum = committee.size / 2
    reported = set(round_result.reported_txids)
    censored = any(
        yes_counts[i] > quorum and round_result.txids[i] not in reported
        for i in range(len(round_result.txids))
    )
    if censored:
        return Witness(
            kind="censor",
            committee=committee.index,
            leader_pk=ctx.pk_of(committee.leader),
            round_number=ctx.round_number,
            evidence=(
                round_result.sig_dec,
                round_result.reported_txids,
                round_result.sig_votes,
                round_result.txids,
                round_result.vlist,
            ),
        )
    return None


def first_honest_partial(ctx: RoundContext, committee: CommitteeSpec) -> int | None:
    for pid in committee.partial:
        node = ctx.node(pid)
        if not node.behavior.is_malicious and node.online:
            return pid
    return None


def run_intra_consensus(ctx: RoundContext) -> IntraReport:
    """Execute Algorithm 5 for all committees, audit, recover, report to C_R."""
    ctx.metrics.set_phase("intra")
    started = ctx.net.now
    report = IntraReport()

    def committee_txs(k: int) -> list[Transaction]:
        # §VII-A: "nodes with the best reputation are selected as leaders,
        # hoping they can use their abundant computational resources to
        # bring more transactions into a block" — the TXList a leader can
        # assemble within the round is capped by its own capacity.
        leader = ctx.node(ctx.committees[k].leader)
        budget = min(ctx.params.tx_per_committee, leader.capacity)
        return [
            t.tx for t in ctx.mempools[k] if not t.cross_shard
        ][:budget]

    work = [
        (
            committee,
            committee_txs(committee.index),
            f"intra:{committee.index}",
            input_side_votes,
            "intra",
        )
        for committee in ctx.committees
    ]
    rounds = run_vote_rounds(ctx, work)
    for committee, round_result in zip(list(ctx.committees), rounds):
        final = _audit_and_maybe_retry(ctx, committee, round_result, report)
        report.rounds[committee.index] = final
        _record_votes(ctx, committee.index, final)
    _send_to_referee(ctx, report)
    report.elapsed = ctx.net.now - started
    return report


def _audit_and_maybe_retry(
    ctx: RoundContext,
    committee: CommitteeSpec,
    round_result: VoteRound,
    report: IntraReport,
    phase_name: str = "intra",
) -> VoteRound:
    witness = audit_vote_round(ctx, committee, round_result, phase_name)
    if witness is None:
        return round_result
    if witness.kind == "censor":
        report.censorship_detected.append(committee.index)
    elif witness.kind == "equivocation":
        report.equivocation_detected.append(committee.index)
    else:
        report.silence_detected.append(committee.index)
    accuser = first_honest_partial(ctx, committee)
    if accuser is None:
        return round_result
    event = attempt_recovery(
        ctx,
        committee,
        accuser,
        witness,
        session=f"{phase_name}rec:{committee.index}",
    )
    report.recoveries.append(event)
    if not event.succeeded:
        return round_result
    report.retried.append(committee.index)
    retry = run_vote_rounds(
        ctx,
        [
            (
                committee,
                round_result.txs,
                f"{phase_name}:{committee.index}:retry",
                input_side_votes,
                phase_name,
            )
        ],
    )[0]
    return retry


def _record_votes(ctx: RoundContext, k: int, round_result: VoteRound) -> None:
    """Stash (txids, matrix, decision) for the reputation phase."""
    if round_result.matrix is not None:
        ctx.vote_records.setdefault(k, []).append(
            (round_result.txids, round_result.matrix, round_result.decision)
        )


def _send_to_referee(ctx: RoundContext, report: IntraReport) -> None:
    """Leaders send certified TXdecSETs to C_R; C_R verifies certificates
    against the semi-committed member lists (Lemma 6)."""
    received: dict[int, dict[int, tuple]] = {}

    def on_intra(message) -> None:
        k, txs, payload, cert = message.payload
        received.setdefault(message.recipient, {})[k] = (txs, payload, cert)

    for rid in ctx.referee:
        ctx.node(rid).on(Tags.INTRA, on_intra)
    for committee in ctx.committees:
        round_result = report.rounds.get(committee.index)
        if round_result is None or not round_result.consensus_success:
            continue
        ctx.node(committee.leader).multicast(
            ctx.referee,
            Tags.INTRA,
            (
                committee.index,
                round_result.reported_txs,
                round_result.alg3_payload,
                tuple(round_result.cert),
            ),
        )
    ctx.net.run()
    lead = ctx.referee[0]
    for k, (txs, payload, cert) in received.get(lead, {}).items():
        member_pks = [pk for pk, _addr in ctx.member_lists.get(k, ())]
        if not member_pks:
            continue
        digest = consensus_digest(payload)
        session = report.rounds[k].session
        ok = verify_certificate(
            ctx.pki,
            member_pks,
            ctx.round_number,
            ("VOTEROUND", session),
            digest,
            cert,
        )
        if ok and tuple(tx.txid for tx in txs) == payload[0]:
            report.accepted_by_cr[k] = list(txs)
            ctx.intra_results[k] = list(txs)
    for rid in ctx.referee:
        total = sum(len(v[0]) for v in received.get(rid, {}).values())
        ctx.metrics.record_storage(rid, total)
