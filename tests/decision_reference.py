"""What one CycLedger round decides, as a model with no network, crypto,
clock or caches.

Three decisions carry the safety argument: which transactions the referee
committee C_R accepts from each committee (Lemma 6), which cross-shard
transactions each (sender, receiver) pair of committees commits (Lemmas
6-7), and which leaders each phase impeaches and replaces (Claims 3-4,
Alg. 6, §V-E: a faulty leader is always detected, an honest one never
accused).  :func:`decide` derives the intra phase's from the world as that
phase starts and :func:`decide_inter` the inter phase's from the world as
it starts, in the style of rousseau-chain's ``consensus2.py``: namedtuple
messages and set-valued state.  It imports no decision code and spells the
majority itself.

Inputs (:class:`World`): the committees (members, leader, partial set, the
member list C_R accepted), the referee committee, each node's behaviour,
online flag, capacity, remaining validation budget and partition group, the
transactions per committee, the offered mempools, the shard UTXO views, the
shard of each output address and whether §VIII-A's pre-filter is on.  A
message reaches every addressee that is online and in its sender's
partition group.  No compared configuration stretches a link past its
synchrony bound or lets a member's budget run out inside a batch of several
vote rounds, so arrival order decides nothing modelled here.

Every batch of vote rounds (intra, inter's sending side, inter's receiving
side) passes one audit rule, :meth:`Round.batch`: each committee's rounds
are audited, the first witness impeaches at most once per committee per
phase (Lemma 7's silence impeachment included), and on success every
convicted round re-runs under the new leader.

``test_decision_reference.py`` compares it with the pipeline on 24
``faults``-shape rounds and 80 cross-shard sandbox worlds (both phases) and
60 intra sandbox worlds: 268 phases in about 4 s on a 2-core host.  With the
state machine and the retargeted phase tests, a tier-1 run compares 349
phases (209 intra, 140 inter).
"""

from collections import namedtuple

Node = namedtuple("Node", "behaviour keep online capacity budget group")
Committee = namedtuple("Committee", "index leader partial members listed")
World = namedtuple(
    "World",
    "committees referee nodes tx_per_committee mempools views shard_of prefilter",
)
Impeachment = namedtuple("Impeachment", "committee kind old_leader new_leader succeeded")
Inter = namedtuple(
    "Inter",
    "accepted censorship_detected silence_detected equivocation_detected "
    "retried impeachments",
)

# The messages whose senders the decisions count.
Vote = namedtuple("Vote", "member votes")  # the signed VList row
Echo = namedtuple("Echo", "member digest")  # Alg. 3 step 2
NoProposal = namedtuple("NoProposal", "member")  # silence countersignature
Approve = namedtuple("Approve", "member")  # an impeachment vote
Outcome = namedtuple("Outcome", "proposed decided reported equivocated signers")
SILENT = Outcome(False, [], [], False, frozenset())

YES, NO, UNKNOWN = 1, -1, 0

# What each behaviour does where a Byzantine node may deviate: whether it
# counts as malicious, how it votes (V's verdict times this sign; 0 always
# Unknown, spending no capacity), whether it echoes in Alg. 3, whether it
# proposes a TXList when it leads, whether it equivocates when it leads, and
# whether it hands cross-shard packages on when it leads.
Kind = namedtuple("Kind", "malicious sign echoes proposes equivocates forwards")
KINDS = {
    "honest": Kind(False, 1, True, True, False, True),
    "lazy_voter": Kind(False, 0, True, True, False, True),
    "contrary_voter": Kind(True, -1, True, True, False, True),
    "quorum_withholder": Kind(True, 0, False, False, False, True),
    "censoring_leader": Kind(True, 1, True, True, False, True),
    "silent_leader": Kind(True, 1, True, False, False, False),
    "equivocating_leader": Kind(True, 1, True, True, True, True),
    "inter_silent_leader": Kind(True, 1, True, True, False, False),
}


def majority(count, size):
    """"More than half" of ``size``."""
    return 2 * count > size


def well_formed(tx):
    """The receiving side's V: at least one output, every amount positive."""
    amounts = [amount for _address, amount in tx.outputs]
    return bool(amounts) and min(amounts) > 0


def budgeted_row(txs, judged, judge, sign=YES):
    """A VList row: ``sign`` times ``judge``'s verdict on each of the first
    ``judged`` transactions, then Unknown ("fails to judge within the given
    time", §VII-A)."""
    row = [sign * (YES if judge(tx) else NO) for tx in txs[:judged]]
    return tuple(row) + (UNKNOWN,) * (len(txs) - judged)


def valid(tx, view):
    """V (§III-D): well formed, no input twice, every input unspent in
    ``view`` (outpoint -> amount), and the inputs cover the outputs."""
    if not well_formed(tx) or len(set(tx.inputs)) < len(tx.inputs):
        return False
    if any(outpoint not in view for outpoint in tx.inputs):
        return False
    return sum(view[op] for op in tx.inputs) >= sum(a for _, a in tx.outputs)


class Round:
    """One phase of one round: its batches of vote rounds under the audit
    rule, its impeachments, and what is accepted."""

    def __init__(self, world):
        self.world = world
        self.budget = {  # None until the node's first vote of the round
            nid: node.capacity if node.budget is None else node.budget
            for nid, node in world.nodes.items()
        }
        self.committees = {c.index: c for c in world.committees}
        self.accepted = {}
        self.impeachments = []
        self.detected = {"censor": [], "silence": [], "equivocation": []}
        self.retried = []

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

    def vote(self, member, txs, judge):
        """The member's VList row: ``judge`` up to its remaining budget,
        then Unknown."""
        sign = self.kind(member).sign
        if sign == UNKNOWN:
            return (UNKNOWN,) * len(txs)
        judged = min(len(txs), self.budget[member])
        self.budget[member] -= judged
        return budgeted_row(txs, judged, judge, sign)

    def vote_round(self, c, txs, judge):
        """Alg. 5's vote round under ``c``'s leader, with Alg. 3 on its
        result."""
        leader = c.leader
        if not (self.kind(leader).proposes and self.world.nodes[leader].online):
            return SILENT
        got = self.heard(leader, c.members)  # the TXList, then the PROPOSE
        votes = {Vote(m, self.vote(m, txs, judge)) for m in {leader} | got}
        yes = [sum(v.votes[i] == YES for v in votes) for i in range(len(txs))]
        decided = [tx for tx, n in zip(txs, yes) if majority(n, len(c.members))]
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
        if equivocated or not majority(len(signers), len(c.members)):
            signers = set()  # no certificate
        return Outcome(True, decided, reported, equivocated, signers)

    def certified(self, c, outcome):
        """Lemma 6: the certificate holds a majority of the member list C_R
        accepted for ``c``."""
        return majority(len(outcome.signers & c.listed), len(c.listed))

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

    def tried(self, k):
        return any(i.committee == k for i in self.impeachments)

    def impeach(self, c, kind):
        """Alg. 6: the first honest partial member accuses; the committee
        approves, C_R agrees and names the accuser.  Colluders shield a
        malicious leader and approve against an honest one."""
        self.detected[kind].append(c.index)
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
        self.impeachments.append(
            Impeachment(c.index, kind, c.leader, new_leader, succeeded)
        )
        if succeeded:
            partial = tuple(p for p in c.partial if p != accuser)
            self.committees[c.index] = c._replace(leader=accuser, partial=partial)
        return succeeded

    def batch(self, c, lists, judge):
        """The audit rule on committee ``c``'s vote rounds of one batch."""
        outcomes = [self.vote_round(c, txs, judge) for txs in lists]
        kinds = [] if self.tried(c.index) else [self.audit(c, o) for o in outcomes]
        convicted = [n for n, kind in enumerate(kinds) if kind]
        if convicted and self.impeach(c, kinds[convicted[0]]):
            self.retried.append(c.index)
            for n in convicted:
                outcomes[n] = self.vote_round(self.committees[c.index], lists[n], judge)
        return outcomes

    def by_pair(self, lists, side, judge):
        """One batch over (sender, receiver) pairs, each run by the
        committee at ``side`` of its pair, in order of first appearance."""
        outcomes = {}
        for k in dict.fromkeys(key[side] for key in lists):
            keys = [key for key in lists if key[side] == k]
            runs = self.batch(self.committees[k], [lists[key] for key in keys], judge(k))
            outcomes.update(zip(keys, runs))
        return outcomes

    def intra(self):
        world = self.world
        for c in world.committees:
            cap = min(world.tx_per_committee, world.nodes[c.leader].capacity)
            txs = [tx for tx, cross in world.mempools[c.index] if not cross][:cap]
            view = world.views[c.index]
            (outcome,) = self.batch(c, [txs], lambda tx: valid(tx, view))
            # Lemma 6: C_R's first member checks the certificate against the
            # member list it accepted for the committee.
            c = self.committees[c.index]
            if self.reach(c.leader, world.referee[0]) and self.certified(c, outcome):
                self.accepted[c.index] = tuple(tx.txid for tx in outcome.reported)
        return self.accepted, self.impeachments

    def dest(self, tx, home):
        shards = (self.world.shard_of[address] for address, _ in tx.outputs)
        return next((s for s in shards if s != home), None)

    def inter(self):
        world, cs = self.world, self.committees
        pairs = {}
        for c in world.committees:
            cap = min(world.tx_per_committee, world.nodes[c.leader].capacity)
            crossing = [
                (tx, self.dest(tx, c.index))
                for tx, cross in world.mempools[c.index] if cross
            ]
            for tx, j in [(tx, j) for tx, j in crossing if j is not None][:cap]:
                if not world.prefilter or valid(tx, world.views[c.index]):
                    pairs.setdefault((c.index, j), []).append(tx)
        pairs = dict(sorted(pairs.items()))
        send = self.by_pair(pairs, 0, lambda i: lambda tx: valid(tx, world.views[i]))
        # The certified list goes to the receiving leader and partial set.
        packages, holders = {}, {}
        for (i, j), outcome in send.items():
            sender, c = cs[i].leader, cs[j]
            if not (outcome.reported and self.kind(sender).forwards):
                continue
            if not self.certified(cs[i], outcome):
                continue
            for r in self.heard(sender, (c.leader, *c.partial)):
                if r == c.leader:
                    packages[(i, j)] = outcome.reported
                else:
                    holders.setdefault((i, j), set()).add(r)
        # Lemma 7: an honest partial holder whose leader sits on the package
        # forwards it; a leader that still proposes nothing is impeached.
        for key in sorted(holders):
            c = cs[key[1]]
            if key in packages and self.kind(c.leader).forwards:
                continue
            if not any(p in holders[key] and self.honest(p) for p in c.partial):
                continue
            if key in packages and not self.tried(c.index):
                if self.audit(c, SILENT) == "silence":
                    self.impeach(c, "silence")
        incoming = {
            key: txs for key, txs in sorted(packages.items())
            if self.kind(cs[key[1]].leader).forwards
        }
        recv = self.by_pair(incoming, 1, lambda j: well_formed)
        # The result goes back; both certificates in hand, the pair commits.
        for (i, j), outcome in recv.items():
            if not (outcome.reported and self.reach(cs[j].leader, cs[i].leader)):
                continue
            if self.certified(cs[j], outcome):
                self.accepted[(i, j)] = tuple(tx.txid for tx in outcome.reported)
        found = self.detected
        return Inter(
            self.accepted, found["censor"], found["silence"],
            found["equivocation"], self.retried, self.impeachments,
        )


def decide(world):
    """C_R's accepted txids per committee index, and the intra phase's
    impeachments in committee order."""
    return Round(world).intra()


def decide_inter(world):
    """The inter phase's :class:`Inter`: committed txids per (sender,
    receiver) pair (pairs that commit nothing left out), the committees
    detected per witness kind and retried, and the impeachments in order."""
    return Round(world).inter()
