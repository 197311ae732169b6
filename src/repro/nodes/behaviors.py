"""Behaviour strategies.

Honest nodes "always follow the protocol and do nothing exceeding the
regulation"; corrupted nodes "may collude and act out arbitrary behaviors
like sending wrong messages or simply pretending to be offline" (§III-C).

Each strategy is a set of hooks the phase executors consult at the points
where a Byzantine node could deviate.  The default implementation is the
honest protocol; malicious classes override exactly the hook they attack,
so every attack is localized and testable.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.ledger.utxo import ValidationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import CycNode
    from repro.ledger.state import ShardState
    from repro.ledger.transaction import Transaction

YES, NO, UNKNOWN = 1, -1, 0


class Behavior:
    """Honest baseline; every hook implements the paper's prescribed action."""

    name = "honest"
    is_malicious = False

    # -- Algorithm 3 hooks ---------------------------------------------------
    def propose_payloads(
        self, node: "CycNode", recipients: Sequence[int], payload: Any
    ) -> dict[int, Any] | None:
        """What the node, as Alg. 3 leader, PROPOSEs to each member.

        ``None`` means "the honest thing": the same ``payload`` to everyone.
        Returning a dict (recipient → payload) enables equivocation; a
        recipient mapped to ``...`` (Ellipsis) receives nothing.
        """
        return None

    def echoes(self, node: "CycNode") -> bool:
        """Whether the node participates in ECHO/CONFIRM steps."""
        return True

    def proposes_txlist(self, node: "CycNode") -> bool:
        """Whether the node, as committee leader, broadcasts its TXList at
        the start of a voting round (Alg. 5 line 7)."""
        return True

    # -- voting hooks -------------------------------------------------------
    def vote(
        self,
        node: "CycNode",
        txs: Sequence["Transaction"],
        state: "ShardState",
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vote vector over ``txs``: +1 Yes, -1 No, 0 Unknown.

        Honest nodes run V up to their validation ``capacity`` (a model of
        per-node computing power, §VII-A: nodes with more resources judge
        more transactions within the round) and vote Unknown beyond it.
        """
        votes = np.zeros(len(txs), dtype=np.int8)
        budget = node.take_budget(len(txs))
        # Past the budget it "fails to judge within the given time": Unknown.
        validate, valid = state.validate, ValidationResult.VALID
        votes[:budget] = [
            YES if validate(tx) is valid else NO for tx in islice(txs, budget)
        ]
        return votes

    def vote_on_outputs(
        self,
        node: "CycNode",
        txs: Sequence["Transaction"],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Receiving-committee vote on cross-shard transactions.

        The input side was certified by the sending committee; the receiving
        committee checks the output side (well-formed, positive amounts).
        """
        votes = np.zeros(len(txs), dtype=np.int8)
        budget = node.take_budget(len(txs))
        votes[:budget] = [
            YES if tx.outputs and all(o.amount > 0 for o in tx.outputs) else NO
            for tx in islice(txs, budget)
        ]
        return votes

    # -- intra-committee leader hooks ---------------------------------------
    def assemble_txdec(
        self, node: "CycNode", majority_yes: list, vlist: Any
    ) -> list:
        """TXdecSET the leader reports, given the honest majority result."""
        return majority_yes

    # -- semi-commitment hooks -----------------------------------------------
    def semi_commitment_claim(
        self, node: "CycNode", commitment: bytes, member_list: tuple
    ) -> tuple[bytes, tuple]:
        """(commitment, member list) the leader sends to C_R and partials."""
        return commitment, member_list

    # -- inter-committee hooks -----------------------------------------------
    def forwards_inter(self, node: "CycNode") -> bool:
        """Whether leader forwards cross-shard packages (Lemma 7 attack)."""
        return True

    # -- recovery hooks -----------------------------------------------------
    def fabricate_accusation(self, node: "CycNode") -> bool:
        """Whether a partial member files a witness against an honest leader
        (Claim 4 attack)."""
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class HonestBehavior(Behavior):
    """Alias for readability at call sites."""


class EquivocatingLeader(Behavior):
    """Alg. 3 attack: PROPOSE different payloads to different members.

    §IV-B: "If any non-faulty node notices that the leader is malicious
    (e.g., proposed different messages to different nodes), he/she informs
    all members of the committee immediately."
    """

    name = "equivocating_leader"
    is_malicious = True

    def propose_payloads(
        self, node: "CycNode", recipients: Sequence[int], payload: Any
    ) -> dict[int, Any] | None:
        if not recipients:
            return None
        half = len(recipients) // 2
        forged = ("FORGED", payload)
        return {
            rid: (payload if k < half else forged)
            for k, rid in enumerate(recipients)
        }


class CensoringLeader(Behavior):
    """Omits Yes-majority transactions from TXdecSET (Lemma 6's "conceal").

    The omission is provable: the leader signs both the VList consensus and
    the TXdecSET, and any tx with > c/2 Yes in the former but missing from
    the latter is a witness.
    """

    name = "censoring_leader"
    is_malicious = True

    def __init__(self, keep_fraction: float = 0.0) -> None:
        self.keep_fraction = keep_fraction

    def assemble_txdec(
        self, node: "CycNode", majority_yes: list, vlist: Any
    ) -> list:
        keep = int(len(majority_yes) * self.keep_fraction)
        return majority_yes[:keep]


class SilentLeader(Behavior):
    """Sends nothing at all ("simply pretending to be offline", §III-C)."""

    name = "silent_leader"
    is_malicious = True

    def propose_payloads(
        self, node: "CycNode", recipients: Sequence[int], payload: Any
    ) -> dict[int, Any] | None:
        return {rid: ... for rid in recipients}  # ... = send nothing

    def proposes_txlist(self, node: "CycNode") -> bool:
        return False

    def forwards_inter(self, node: "CycNode") -> bool:
        return False


class InterSilentLeader(Behavior):
    """Participates honestly inside its committee but never forwards
    cross-shard packages — the precise attack Lemma 7 addresses."""

    name = "inter_silent_leader"
    is_malicious = True

    def forwards_inter(self, node: "CycNode") -> bool:
        return False


class BadSemiCommitLeader(Behavior):
    """Publishes a semi-commitment that does not hash the true member list
    (the attack Theorem 2 rules out)."""

    name = "bad_semicommit_leader"
    is_malicious = True

    def semi_commitment_claim(
        self, node: "CycNode", commitment: bytes, member_list: tuple
    ) -> tuple[bytes, tuple]:
        forged = bytes(b ^ 0xFF for b in commitment)
        return forged, member_list


class ContraryVoter(Behavior):
    """Votes the opposite of V on every transaction (maximal reputational
    damage per Eq. 1: cosine similarity -1 against a unanimous decision)."""

    name = "contrary_voter"
    is_malicious = True

    def vote(self, node, txs, state, rng):
        honest = Behavior().vote(node, txs, state, rng)
        return (-honest).astype(np.int8)

    def vote_on_outputs(self, node, txs, rng):
        honest = Behavior().vote_on_outputs(node, txs, rng)
        return (-honest).astype(np.int8)


class RandomVoter(Behavior):
    """Votes uniformly at random — no honest computation contributed."""

    name = "random_voter"
    is_malicious = True

    def vote(self, node, txs, state, rng):
        return rng.choice(
            np.array([YES, NO, UNKNOWN], dtype=np.int8), size=len(txs)
        )

    vote_on_outputs = lambda self, node, txs, rng: self.vote(  # noqa: E731
        node, txs, None, rng
    )


class LazyVoter(Behavior):
    """Always votes Unknown.  Not malicious — models a node with zero spare
    capacity.  §IV-G: such nodes keep reputation 0 and "could still get
    little rewards"."""

    name = "lazy_voter"
    is_malicious = False

    def vote(self, node, txs, state, rng):
        return np.zeros(len(txs), dtype=np.int8)

    def vote_on_outputs(self, node, txs, rng):
        return np.zeros(len(txs), dtype=np.int8)


class OfflineNode(Behavior):
    """Fully offline: transmits and hears nothing (handled by the node's
    ``online`` flag, set by the adversary controller)."""

    name = "offline"
    is_malicious = True

    def echoes(self, node):
        return False


class QuorumWithholder(Behavior):
    """Withholds every form of participation: no echoes, Unknown votes, no
    TXList proposal.

    The building block of the quorum-boundary policy
    (:class:`repro.scenarios.policies.QuorumWithholding`): a corrupted
    member acts honest while its committee has slack and switches to this
    behaviour exactly in rounds where the withheld votes are pivotal."""

    name = "quorum_withholder"
    is_malicious = True

    def echoes(self, node):
        return False

    def proposes_txlist(self, node):
        return False

    def vote(self, node, txs, state, rng):
        return np.zeros(len(txs), dtype=np.int8)

    def vote_on_outputs(self, node, txs, rng):
        return np.zeros(len(txs), dtype=np.int8)


class FramingPartialMember(Behavior):
    """Partial-set member that accuses an honest leader with a fabricated
    witness (the attack Claim 4 rules out)."""

    name = "framing_partial"
    is_malicious = True

    def fabricate_accusation(self, node: "CycNode") -> bool:
        return True


BEHAVIOR_REGISTRY: dict[str, type[Behavior]] = {
    cls.name: cls
    for cls in (
        HonestBehavior,
        EquivocatingLeader,
        CensoringLeader,
        SilentLeader,
        InterSilentLeader,
        BadSemiCommitLeader,
        ContraryVoter,
        RandomVoter,
        LazyVoter,
        QuorumWithholder,
        OfflineNode,
        FramingPartialMember,
    )
}
