"""What one CycLedger round decides, as a model with no network, crypto,
clock or caches.

Two decisions carry the safety argument: which transactions the referee
committee C_R accepts from each committee (Lemma 6), and which leaders the
intra-committee phase impeaches and replaces (Claims 3-4, Alg. 6).
:func:`decide` derives both from one round's inputs in the style of
rousseau-chain's ``consensus2.py``: namedtuple messages and set-valued
state.  It imports no decision code and spells the majority itself.

Inputs (:class:`World`): the committees as the intra phase starts (members,
leader, partial set, the member list C_R accepted), the referee committee,
each node's behaviour, online flag, capacity and partition group, the
transactions per committee, the offered mempools and the shard UTXO views.
A message reaches every addressee that is online and in its sender's
partition group; no compared configuration stretches a link past its
synchrony bound, so arrival order decides nothing modelled here.

``test_decision_reference.py`` compares it with the pipeline on 84 rounds in
about 4 s on a 2-core host (24 ``faults``-shape rounds, 60 sandbox worlds);
with the state machine and the retargeted tests, 113 rounds a tier-1 run.
"""

from collections import namedtuple

Node = namedtuple("Node", "behaviour keep online capacity group")
Committee = namedtuple("Committee", "index leader partial members listed")
World = namedtuple("World", "committees referee nodes tx_per_committee mempools views")
Impeachment = namedtuple("Impeachment", "committee kind old_leader new_leader succeeded")

# The messages whose senders the decisions count.
Vote = namedtuple("Vote", "member votes")  # the signed VList row
Echo = namedtuple("Echo", "member digest")  # Alg. 3 step 2
NoProposal = namedtuple("NoProposal", "member")  # silence countersignature
Approve = namedtuple("Approve", "member")  # an impeachment vote
Outcome = namedtuple("Outcome", "proposed decided reported equivocated signers")

YES, NO, UNKNOWN = 1, -1, 0

# What each behaviour does where a Byzantine node may deviate: whether it
# counts as malicious, how it votes (V's verdict times this sign; 0 always
# Unknown, spending no capacity), whether it echoes in Alg. 3, whether it
# proposes a TXList when it leads, and whether it equivocates when it leads.
Kind = namedtuple("Kind", "malicious sign echoes proposes equivocates")
KINDS = {
    "honest": Kind(False, 1, True, True, False),
    "lazy_voter": Kind(False, 0, True, True, False),
    "contrary_voter": Kind(True, -1, True, True, False),
    "quorum_withholder": Kind(True, 0, False, False, False),
    "censoring_leader": Kind(True, 1, True, True, False),
    "silent_leader": Kind(True, 1, True, False, False),
    "equivocating_leader": Kind(True, 1, True, True, True),
    "inter_silent_leader": Kind(True, 1, True, True, False),
}


def majority(count, size):
    """"More than half" of ``size``."""
    return 2 * count > size


def valid(tx, view):
    """V (§III-D): at least one output, every amount positive, no input
    twice, every input unspent in ``view`` (outpoint -> amount), and the
    inputs cover the outputs."""
    amounts = [amount for _address, amount in tx.outputs]
    if not amounts or min(amounts) <= 0 or len(set(tx.inputs)) < len(tx.inputs):
        return False
    if any(outpoint not in view for outpoint in tx.inputs):
        return False
    return sum(view[outpoint] for outpoint in tx.inputs) >= sum(amounts)


class Round:
    """One round's intra phase: every committee's vote round, its audit,
    the impeachment and the retry under the new leader, then C_R's check."""

    def __init__(self, world):
        self.world = world
        self.budget = {nid: node.capacity for nid, node in world.nodes.items()}
        self.accepted = {}
        self.impeachments = []

    def kind(self, nid):
        return KINDS[self.world.nodes[nid].behaviour]

    def honest(self, nid):
        return not self.kind(nid).malicious and self.world.nodes[nid].online

    def reach(self, sender, recipient):
        nodes = self.world.nodes
        a, b = nodes[sender], nodes[recipient]
        return a.online and b.online and a.group == b.group

    def heard(self, sender, recipients):
        """Who receives what ``sender`` multicasts to ``recipients``."""
        return {r for r in recipients if r != sender and self.reach(sender, r)}

    def vote(self, member, txs, view):
        """The member's VList row: V up to its remaining capacity, then
        Unknown."""
        sign = self.kind(member).sign
        if sign == UNKNOWN:
            return (UNKNOWN,) * len(txs)
        judged = min(len(txs), self.budget[member])
        self.budget[member] -= judged
        row = [sign * (YES if valid(tx, view) else NO) for tx in txs[:judged]]
        return tuple(row) + (UNKNOWN,) * (len(txs) - judged)

    def vote_round(self, c, leader, txs):
        """Alg. 5's vote round under ``leader``, with Alg. 3 on its result."""
        if not (self.kind(leader).proposes and self.world.nodes[leader].online):
            return Outcome(False, [], [], False, set())
        size, view = len(c.members), self.world.views[c.index]
        got = self.heard(leader, c.members)  # the TXList, then the PROPOSE
        votes = {Vote(m, self.vote(m, txs, view)) for m in {leader} | got}
        yes = [sum(v.votes[i] == YES for v in votes) for i in range(len(txs))]
        decided = [tx for tx, count in zip(txs, yes) if majority(count, size)]
        keep = self.world.nodes[leader].keep
        reported = decided if keep is None else decided[: int(len(decided) * keep)]
        # An equivocating leader PROPOSEs a forged message to the later half
        # of the others; one of them holding both headers is the witness.
        others = [m for m in c.members if m != leader]
        equivocates = self.kind(leader).equivocates
        forged = set(others[len(others) // 2 :] if equivocates else ())
        echoes = {Echo(leader, "M")} | {
            Echo(m, "F" if m in forged else "M") for m in got if self.kind(m).echoes
        }
        equivocated = bool(forged & got)
        signers = {e.member for e in echoes}
        if equivocated or not majority(len(signers), size):
            signers = set()  # no certificate
        return Outcome(True, decided, reported, equivocated, signers)

    def audit(self, c, outcome):
        """The witness kind an honest, online partial member holds, if any."""
        partial = [p for p in c.partial if self.honest(p)]
        if not partial:
            return None  # an insecure partial set (§V-C)
        if not outcome.proposed:
            signed = {NoProposal(m) for m in c.members if self.honest(m)}
            for p in partial:
                held = {s for s in signed if s.member == p or self.reach(s.member, p)}
                if majority(len(held), len(c.members)):
                    return "silence"
            return None
        if outcome.equivocated:
            return "equivocation"
        if set(outcome.decided) - set(outcome.reported):
            return "censor"
        return None

    def impeach(self, c, kind):
        """Alg. 6: the first honest partial member accuses; the committee
        approves, C_R agrees and names the accuser.  Colluders shield a
        malicious leader and approve against an honest one."""
        accuser = next(p for p in c.partial if self.honest(p))
        shielded = self.kind(c.leader).malicious
        approvals = {Approve(accuser)} | {
            Approve(m)
            for m in self.heard(accuser, c.members)
            if not (shielded and self.kind(m).malicious)
        }
        referee = self.world.referee
        agreeing = {r for r in self.heard(accuser, referee) if self.kind(r).echoes}
        succeeded = majority(len(approvals), len(c.members))
        succeeded = succeeded and majority(len(agreeing), len(referee))
        new_leader = accuser if succeeded else None
        impeachment = Impeachment(c.index, kind, c.leader, new_leader, succeeded)
        self.impeachments.append(impeachment)
        return new_leader

    def run(self, c):
        world = self.world
        leader = c.leader
        cap = min(world.tx_per_committee, world.nodes[leader].capacity)
        txs = [tx for tx, cross in world.mempools[c.index] if not cross][:cap]
        outcome = self.vote_round(c, leader, txs)
        kind = self.audit(c, outcome)
        new_leader = None if kind is None else self.impeach(c, kind)
        if new_leader is not None:
            leader, outcome = new_leader, self.vote_round(c, new_leader, txs)
        # Lemma 6: C_R's first member checks the certificate against the
        # member list it accepted for the committee.
        if (
            outcome.signers
            and c.listed
            and self.reach(leader, world.referee[0])
            and majority(len(outcome.signers & c.listed), len(c.listed))
        ):
            self.accepted[c.index] = tuple(tx.txid for tx in outcome.reported)


def decide(world):
    """C_R's accepted txids per committee index, and the impeachments in
    committee order."""
    round_ = Round(world)
    for c in world.committees:
        round_.run(c)
    return round_.accepted, round_.impeachments
