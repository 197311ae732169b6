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

:func:`run_audited_rounds` runs every batch of vote rounds under the one
audit rule (here, and on both sides of :mod:`repro.core.inter`).  One
impeachment per committee per phase suffices: the replacement leader is the
(honest, by the partial-set security argument §V-C) accusing partial member,
and it re-runs every round the old leader was convicted on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.consensus import quorum
from repro.core.recovery import Witness, attempt_recovery, censored
from repro.core.structures import CommitteeSpec, RecoveryEvent, RoundContext
from repro.core.tags import Tags
from repro.core.voting import (
    VoteRound,
    certified,
    input_side_votes,
    record_votes,
    run_vote_rounds,
)
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


def silence_witness(
    ctx: RoundContext, committee: CommitteeSpec, round_result: VoteRound, phase: str
) -> Witness | None:
    """The silence witness of the first honest, online partial member whose
    mailbox holds a quorum of NO_PROPOSAL statements, if any."""
    for pid in committee.partial:
        node = ctx.node(pid)
        if node.behavior.is_malicious or not node.online:
            continue
        sigs = round_result.no_proposal_sigs.get(pid, [])
        if len(sigs) >= quorum(committee.size):
            return Witness(
                kind="silence",
                committee=committee.index,
                leader_pk=ctx.pk_of(committee.leader),
                round_number=ctx.round_number,
                evidence=(phase, tuple(sigs)),
            )
    return None


def audit_vote_round(
    ctx: RoundContext,
    committee: CommitteeSpec,
    round_result: VoteRound,
    phase_name: str,
) -> Witness | None:
    """What an honest partial-set member concludes from the artifacts."""
    if first_honest_partial(ctx, committee) is None:
        return None  # insecure partial set (prob. (1/3)^λ, §V-C)
    if round_result.timed_out:
        return silence_witness(ctx, committee, round_result, phase_name)
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
    if censored(
        round_result.matrix, round_result.txids, round_result.reported_txids
    ):
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


def accuse(
    ctx: RoundContext, committee: CommitteeSpec, witness: Witness, session: str, report
) -> RecoveryEvent | None:
    """Record the detection in ``report`` (an :class:`IntraReport` or an
    ``InterReport``) and have the first honest partial member prosecute."""
    detected = {
        "censor": report.censorship_detected,
        "equivocation": report.equivocation_detected,
    }.get(witness.kind, report.silence_detected)
    detected.append(committee.index)
    accuser = first_honest_partial(ctx, committee)
    if accuser is None:
        return None
    event = attempt_recovery(ctx, committee, accuser, witness, session=session)
    report.recoveries.append(event)
    return event


def run_intra_consensus(ctx: RoundContext) -> IntraReport:
    """Execute Algorithm 5 for all committees, audit, recover, report to C_R."""
    ctx.metrics.set_phase("intra")
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
    rounds = run_audited_rounds(ctx, work, report)
    for committee, final in zip(list(ctx.committees), rounds):
        report.rounds[committee.index] = final
        record_votes(ctx, committee.index, final)
    _send_to_referee(ctx, report)
    return report


def run_audited_rounds(ctx: RoundContext, work: list, report) -> list[VoteRound]:
    """:func:`run_vote_rounds` on ``work`` under §V-E's one audit rule: per
    committee, in batch order, every round is audited; the first witness is
    prosecuted, at most once per committee per phase (``report.recoveries``
    holds the phase's); on success every convicted round re-runs under the
    new leader, in one batch, as ``{session}:retry``.  Returns the final
    round per work item."""
    rounds = run_vote_rounds(ctx, work)
    batch: dict[int, list[int]] = {}
    for n, (committee, *_rest) in enumerate(work):
        batch.setdefault(committee.index, []).append(n)
    for k, items in batch.items():
        committee, phase = work[items[0]][0], work[items[0]][4]
        if any(e.committee == k for e in report.recoveries):
            continue
        witnesses = [audit_vote_round(ctx, committee, rounds[n], phase) for n in items]
        convicted = [(n, w) for n, w in zip(items, witnesses) if w is not None]
        if not convicted:
            continue
        event = accuse(ctx, committee, convicted[0][1], f"{phase}rec:{k}", report)
        if event is None or not event.succeeded:
            continue
        report.retried.append(k)
        retry = [
            (committee, rounds[n].txs, f"{rounds[n].session}:retry", *work[n][3:])
            for n, _w in convicted
        ]
        for (n, _w), retried in zip(convicted, run_vote_rounds(ctx, retry)):
            rounds[n] = retried
    return rounds


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
        session = report.rounds[k].session
        txids = tuple(tx.txid for tx in txs)
        if certified(ctx, k, session, payload, cert, txids):
            report.accepted_by_cr[k] = list(txs)
            ctx.intra_results[k] = list(txs)
    for rid in ctx.referee:
        total = sum(len(v[0]) for v in received.get(rid, {}).values())
        ctx.metrics.record_storage(rid, total)
