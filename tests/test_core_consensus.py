"""Algorithm 3: inside-committee consensus, equivocation, certificates."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.consensus as consensus_module

from repro.core.consensus import (
    EquivocationWitness,
    InsideConsensus,
    consensus_digest,
    verify_certificate,
)
from functools import partial

from reference_impls import NaiveNetwork

from repro.core.sandbox import build_sandbox
from repro.crypto.signatures import sign
from repro.net.params import ChannelClass
from repro.net.simulator import Network
from repro.nodes.behaviors import (
    Behavior,
    EquivocatingLeader,
    OfflineNode,
    SilentLeader,
)


def run_consensus(ctx, payload="M", sn=1, session="t"):
    committee = ctx.committees[0]
    session_obj = InsideConsensus(
        ctx, committee.members, leader=committee.leader, sn=sn,
        payload=payload, session=session,
    )
    return session_obj.run()


def test_honest_leader_reaches_consensus():
    ctx = build_sandbox(committee_size=9, lam=2)
    out = run_consensus(ctx, payload=("TXSET", 1, 2, 3))
    assert out.success
    assert out.payload == ("TXSET", 1, 2, 3)
    assert out.confirms == 9
    assert out.equivocation is None


def test_certificate_verifies_and_binds():
    ctx = build_sandbox(committee_size=9, lam=2)
    out = run_consensus(ctx, payload="X", sn=("a", 1))
    pks = [ctx.pk_of(i) for i in ctx.committees[0].members]
    assert verify_certificate(ctx.pki, pks, 1, ("a", 1), out.digest, out.cert)
    # wrong sn / digest / member set must fail
    assert not verify_certificate(ctx.pki, pks, 1, ("a", 2), out.digest, out.cert)
    assert not verify_certificate(
        ctx.pki, pks, 1, ("a", 1), consensus_digest("Y"), out.cert
    )
    outsiders = [ctx.pki.generate(("outsider", i)).pk for i in range(9)]
    assert not verify_certificate(
        ctx.pki, pks + outsiders, 1, ("a", 1), out.digest, out.cert
    )


def test_certificate_discards_foreign_and_duplicate_sigs():
    ctx = build_sandbox(committee_size=5, lam=2)
    out = run_consensus(ctx)
    pks = [ctx.pk_of(i) for i in ctx.committees[0].members]
    # padding with duplicates cannot inflate the count
    padded = list(out.cert) + list(out.cert)
    assert verify_certificate(ctx.pki, pks, 1, 1, out.digest, padded)
    # a single signature repeated is insufficient
    one = [out.cert[0]] * 10
    assert not verify_certificate(ctx.pki, pks, 1, 1, out.digest, one)


def test_minority_nonparticipants_tolerated():
    behaviors = {i: OfflineNode() for i in (5, 6, 7, 8)}
    ctx = build_sandbox(committee_size=9, lam=2, behaviors=behaviors)
    out = run_consensus(ctx)
    assert out.success
    assert out.confirms == 5


def test_majority_nonparticipants_blocks():
    behaviors = {i: OfflineNode() for i in (4, 5, 6, 7, 8)}
    ctx = build_sandbox(committee_size=9, lam=2, behaviors=behaviors)
    out = run_consensus(ctx)
    assert not out.success


def test_equivocating_leader_detected_not_agreed():
    ctx = build_sandbox(committee_size=9, lam=2, behaviors={0: EquivocatingLeader()})
    out = run_consensus(ctx)
    assert not out.success
    assert out.equivocation is not None
    assert out.equivocation.is_valid(ctx.pki)
    assert out.equivocation.leader_pk == ctx.pk_of(0)


def test_silent_leader_produces_nothing():
    ctx = build_sandbox(committee_size=9, lam=2, behaviors={0: SilentLeader()})
    out = run_consensus(ctx)
    assert not out.success
    assert out.confirms == 0


def test_leader_must_be_member():
    ctx = build_sandbox(committee_size=5, lam=2)
    with pytest.raises(ValueError):
        InsideConsensus(ctx, [0, 1, 2], leader=4, sn=1, payload="x", session="s")


def test_concurrent_sessions_do_not_interfere():
    ctx = build_sandbox(committee_size=7, lam=2)
    committee = ctx.committees[0]
    a = InsideConsensus(ctx, committee.members, 0, sn=1, payload="A", session="sa")
    b = InsideConsensus(ctx, committee.members, 1, sn=2, payload="B", session="sb")
    a.start()
    b.start()
    ctx.net.run()
    assert a.outcome.success and a.outcome.payload == "A"
    assert b.outcome.success and b.outcome.payload == "B"


def test_witness_validation_rules(pki):
    leader = pki.generate("leader")
    other = pki.generate("other")
    d1, d2 = consensus_digest("a"), consensus_digest("b")
    good = EquivocationWitness(
        leader_pk=leader.pk, round_number=1, sn=1,
        digest_a=d1, sig_a=sign(leader, ("PROPOSE", 1, 1, d1)),
        digest_b=d2, sig_b=sign(leader, ("PROPOSE", 1, 1, d2)),
    )
    assert good.is_valid(pki)
    # same digest twice is not equivocation
    same = EquivocationWitness(
        leader_pk=leader.pk, round_number=1, sn=1,
        digest_a=d1, sig_a=sign(leader, ("PROPOSE", 1, 1, d1)),
        digest_b=d1, sig_b=sign(leader, ("PROPOSE", 1, 1, d1)),
    )
    assert not same.is_valid(pki)
    # signatures by someone else cannot frame the leader
    framed = EquivocationWitness(
        leader_pk=leader.pk, round_number=1, sn=1,
        digest_a=d1, sig_a=sign(other, ("PROPOSE", 1, 1, d1)),
        digest_b=d2, sig_b=sign(other, ("PROPOSE", 1, 1, d2)),
    )
    assert not framed.is_valid(pki)


def test_message_complexity_order_c_squared():
    """Alg. 3 is an all-to-all echo: total messages grow ~ c²."""
    counts = []
    for c in (6, 12, 24):
        ctx = build_sandbox(committee_size=c, lam=2)
        before = ctx.metrics.total_messages()
        run_consensus(ctx)
        counts.append(ctx.metrics.total_messages() - before)
    ratio1 = counts[1] / counts[0]
    ratio2 = counts[2] / counts[1]
    assert 3.0 < ratio1 < 5.0  # doubling c ~ 4x messages
    assert 3.0 < ratio2 < 5.0


# -- verify-once ECHO: a shared packet is checked once, never trusted --------
def _started_session(monkeypatch=None, behaviors=None, size=7):
    """A session whose leader has proposed; returns (ctx, session, digest,
    leader-signed header signature) plus — with ``monkeypatch`` — a list
    that collects the signature of every verification the session runs."""
    import repro.core.consensus as consensus_module

    ctx = build_sandbox(committee_size=size, lam=2, behaviors=behaviors)
    committee = ctx.committees[0]
    session = InsideConsensus(
        ctx, committee.members, leader=committee.leader, sn=1, payload="M",
        session="t",
    )
    calls = []
    if monkeypatch is not None:
        for name in ("verify_encoded", "signed_by_encoded"):
            def counting(pki, signature, *rest, real=getattr(consensus_module, name)):
                calls.append(signature)
                return real(pki, signature, *rest)

            monkeypatch.setattr(consensus_module, name, counting)
    session.start()
    digest, header_sig = session._proposed[committee.leader]
    return ctx, session, digest, header_sig, calls


def _echo_sig(ctx, signer, digest, claimed_sender, sn=1):
    statement = ("ECHO", ctx.round_number, sn, digest, claimed_sender)
    return sign(ctx.node(signer).keypair, statement)


def _recorded_echo_sigs(session, holder):
    return [
        sig
        for by_pk in session._echoes[holder].values()
        for sig in by_pk.values()
    ]


def test_forged_echo_signature_rejected_at_every_recipient():
    from repro.crypto.signatures import Signature

    ctx, session, digest, header_sig, _ = _started_session()
    forged = Signature(pk=ctx.pk_of(3), tag=b"\x00" * 32)
    packet = (forged, digest, 3, header_sig)
    ctx.node(3).multicast(session.members, "ECHO:t", packet)
    ctx.net.run()
    for mid in session.members:
        assert forged not in _recorded_echo_sigs(session, mid)
    assert session._echo_verdict(packet) == (False, False)
    assert session.outcome.success  # the honest echoes still carry the run


def test_echo_naming_a_sender_who_does_not_own_the_key_rejected_everywhere():
    ctx, session, digest, header_sig, _ = _started_session()
    # Node 3 signs (validly, with its own key) an ECHO that claims to come
    # from node 4: the signature verifies, the identity pin must not.
    impersonating = _echo_sig(ctx, signer=3, digest=digest, claimed_sender=4)
    packet = (impersonating, digest, 4, header_sig)
    ctx.node(3).multicast(session.members, "ECHO:t", packet)
    ctx.net.run()
    for mid in session.members:
        assert impersonating not in _recorded_echo_sigs(session, mid)
    assert session._echo_verdict(packet) == (False, False)


def test_relayed_header_not_signed_by_leader_is_noted_nowhere():
    ctx, session, _digest, _header_sig, _ = _started_session()
    other = consensus_digest("not what the leader proposed")
    # A valid ECHO by node 3 over another digest, relaying a "PROPOSE
    # header" that node 3 signed itself: were it noted, every member would
    # hold two headers and raise a false equivocation alarm.
    fake_header = sign(ctx.node(3).keypair, ("PROPOSE", ctx.round_number, 1, other))
    echo = _echo_sig(ctx, signer=3, digest=other, claimed_sender=3)
    packet = (echo, other, 3, fake_header)
    ctx.node(3).multicast(session.members, "ECHO:t", packet)
    ctx.net.run()
    assert session._echo_verdict(packet) == (True, False)
    for mid in session.members:
        assert other not in session._seen_headers[mid]
        if mid != 3:  # the ECHO itself is authentic and is recorded
            assert echo in _recorded_echo_sigs(session, mid)
    assert session.outcome.equivocation is None
    assert not session._stopped
    assert session.outcome.success


def test_shared_echo_packet_verified_once_distinct_equal_packet_again(monkeypatch):
    ctx, session, digest, header_sig, calls = _started_session(monkeypatch)
    ctx.net.run()
    # C-1 PROPOSEs and every ECHO relay the leader's one header signature:
    # it was checked once for the whole session.
    assert calls.count(header_sig) == 1
    calls.clear()
    echo = _echo_sig(ctx, signer=3, digest=digest, claimed_sender=3)
    first = (echo, digest, 3, header_sig)
    twin = (echo, digest, 3, header_sig)
    assert first == twin and first is not twin
    ctx.node(3).multicast(session.members, "ECHO:t", first)
    ctx.net.run()
    # C-1 deliveries of one object: the ECHO signature was verified exactly
    # once, and the relayed header's verdict is the session's.
    assert calls == [echo]
    ctx.node(3).multicast(session.members, "ECHO:t", twin)
    ctx.net.run()
    assert calls == [echo, echo]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["genuine", "twin", "forged", "member", "other"]),
            st.booleans(),  # over the proposed digest, or another one
        ),
        min_size=1,
        max_size=12,
    )
)
def test_header_verdict_is_signed_by_encoded(asks):
    """The session's header verdict equals ``signed_by_encoded`` over the
    PROPOSE header for the leader's signature, an equal-but-distinct copy
    of it, a forged tag, a member's signature and the leader's signature
    over another digest — each asked over either digest, in any order —
    and a signature object is checked once per digest."""
    from repro.crypto.signatures import Signature, encode_statement, signed_by_encoded

    ctx, session, digest, header_sig, _ = _started_session()
    session._header_memo.clear()
    other = consensus_digest("another payload")
    leader = ctx.node(session.leader)
    sigs = {
        "genuine": header_sig,
        "twin": Signature(pk=header_sig.pk, tag=header_sig.tag),
        "forged": Signature(pk=header_sig.pk, tag=b"\x00" * 32),
        "member": sign(ctx.node(3).keypair, ("PROPOSE", ctx.round_number, 1, digest)),
        "other": sign(leader.keypair, ("PROPOSE", ctx.round_number, 1, other)),
    }
    checked = []
    real = consensus_module.signed_by_encoded
    consensus_module.signed_by_encoded = lambda *a: checked.append(a[1]) or real(*a)
    try:
        for name, proposed in asks:
            sig, over = sigs[name], digest if proposed else other
            want = signed_by_encoded(
                ctx.pki,
                sig,
                encode_statement(("PROPOSE", ctx.round_number, 1, over)),
                ctx.pk_of(session.leader),
            )
            assert session._header_verdict(sig, over) is want
    finally:
        consensus_module.signed_by_encoded = real
    asked = {(name, proposed) for name, proposed in asks}
    assert len(checked) == len(asked)
    for key, (sig, _ok) in session._header_memo.items():
        assert key[0] == id(sig)


def test_echo_verdict_memo_holds_the_packet_so_ids_cannot_be_recycled():
    from repro.crypto.signatures import Signature

    ctx, session, digest, header_sig, _ = _started_session()
    good_sig = _echo_sig(ctx, signer=3, digest=digest, claimed_sender=3)
    forged = Signature(pk=ctx.pk_of(3), tag=b"\x00" * 32)
    seen_ids = set()
    for _ in range(5):
        # A transient accepted packet, dropped by its sender right away:
        # without a held reference CPython hands its address — its id() —
        # to the next 4-tuple, which here is a forgery.
        good = (good_sig, digest, 3, header_sig)
        assert session._echo_verdict(good) == (True, True)
        seen_ids.add(id(good))
        del good
        bad = (forged, digest, 3, header_sig)
        assert id(bad) not in seen_ids
        assert session._echo_verdict(bad) == (False, False)
        seen_ids.add(id(bad))
        del bad
    for key, (packet, _verdict) in session._echo_memo.items():
        assert id(packet) == key
    # Past the cap packets are simply verified on every delivery.
    for _ in range(4 * session.C):
        assert session._echo_verdict((forged, digest, 3, header_sig)) == (False, False)
        assert session._echo_verdict((good_sig, digest, 3, header_sig)) == (True, True)
    assert len(session._echo_memo) <= 2 * session.C


def test_equivocation_still_yields_witness_and_stop():
    _ctx, session, _digest, _sig, _ = _started_session(
        behaviors={0: EquivocatingLeader()}, size=9
    )
    ctx = session.ctx
    stops = []
    for mid in session.members:
        node = ctx.node(mid)
        inner = node.handlers["STOP:t"]

        def counting(msg, inner=inner):
            stops.append(msg.recipient)
            inner(msg)

        node.on("STOP:t", counting)
    ctx.net.run()
    out = session.outcome
    assert not out.success
    assert out.equivocation is not None and out.equivocation.is_valid(ctx.pki)
    assert out.equivocation.leader_pk == ctx.pk_of(0)
    # One member raised the alarm and multicast STOP to all the others.
    assert len(stops) == session.C - 1 and len(set(stops)) == session.C - 1
    assert session._stopped == set(session.members)


# -- the ECHO handler: one closure, every check where it was -----------------
def _second_header_echo(ctx, session, relayer):
    """A valid ECHO by ``relayer`` over a digest the leader also signed a
    PROPOSE header for — the other half of an equivocation witness."""
    other = consensus_digest("what the leader told someone else")
    second_header = sign(
        ctx.node(session.leader).keypair, ("PROPOSE", ctx.round_number, 1, other)
    )
    echo = _echo_sig(ctx, signer=relayer, digest=other, claimed_sender=relayer)
    return other, (echo, other, relayer, second_header)


def test_confirmed_member_still_audits_a_late_second_header():
    ctx, session, digest, _header_sig, _ = _started_session()
    ctx.net.run()
    assert session.outcome.success and 5 in session._confirmed
    assert session.outcome.equivocation is None
    stops = []
    for mid in session.members:
        node = ctx.node(mid)
        node.on("STOP:t", lambda msg, inner=node.handlers["STOP:t"]: (
            stops.append((msg.sender, msg.recipient)), inner(msg)
        ))
    other, packet = _second_header_echo(ctx, session, relayer=3)
    ctx.node(3).send(5, "ECHO:t", packet)
    ctx.net.run()
    witness = session.outcome.equivocation
    assert witness is not None and witness.is_valid(ctx.pki)
    assert {witness.digest_a, witness.digest_b} == {digest, other}
    assert set(session._seen_headers[5]) == {digest, other}
    assert sorted(stops) == [(5, mid) for mid in session.members if mid != 5]
    assert session._stopped == set(session.members)


def test_withholding_member_records_nothing_and_never_confirms():
    ctx, session, digest, _header_sig, _ = _started_session(
        behaviors={5: OfflineNode()}
    )
    confirms = []
    ctx.net.drop_filter = lambda msg: (
        confirms.append(msg.sender) if msg.tag == "CONFIRM:t" else None
    )
    ctx.net.run()
    assert session.outcome.success
    assert session._echoes[5] == {}
    assert 5 not in session._confirmed and 5 not in confirms
    assert len(confirms) == session.C - 2  # everyone but the leader and 5
    # It withholds, but it still hears: the leader's header was audited.
    assert set(session._seen_headers[5]) == {digest}
    # ... and a second header finds it holding the witness, silently.
    _other, packet = _second_header_echo(ctx, session, relayer=3)
    ctx.node(3).send(5, "ECHO:t", packet)
    ctx.net.run()
    assert session.outcome.equivocation is not None
    assert not session._stopped and session._echoes[5] == {}


def test_quorum_before_propose_confirms_at_the_propose_delivery():
    ctx = build_sandbox(committee_size=7, lam=2)
    committee = ctx.committees[0]
    session = InsideConsensus(
        ctx, committee.members, leader=committee.leader, sn=1, payload="M",
        session="t",
    )
    held = []

    def hold_the_propose_to_5(msg):
        if msg.tag == "PROPOSE:t" and msg.recipient == 5:
            held.append(msg.payload)
            return True
        return False

    ctx.net.drop_filter = hold_the_propose_to_5
    session.start()
    ctx.net.run()
    # Every other member echoed: node 5 holds a quorum of ECHOes for a
    # digest nobody proposed to it, and must not have confirmed on them.
    assert 5 not in session._proposed and 5 not in session._confirmed
    assert session.outcome.confirms == session.C - 1
    echo_lists = []
    ctx.net.drop_filter = lambda msg: echo_lists.append(len(msg.payload[2])) if (
        msg.tag == "CONFIRM:t"
    ) else None
    ctx.node(committee.leader).send(5, "PROPOSE:t", held[0])
    ctx.net.run(until=ctx.net.now + ctx.net.params.delta)
    # The PROPOSE delivery itself confirms (the CONFIRM is already in
    # flight to the leader one intra-committee hop later), on all C - 1
    # ECHOes that reached it before, and its own.
    assert 5 in session._confirmed
    assert echo_lists == [session.C]
    digest, _ = session._proposed[committee.leader]
    assert len(session._echoes[5][digest]) == session.C > session.C / 2
    ctx.net.run()
    assert session.outcome.confirms == session.C


def test_echo_memo_entry_holding_another_packet_is_a_miss():
    from repro.crypto.signatures import Signature

    ctx, session, digest, header_sig, _ = _started_session()
    good = (
        _echo_sig(ctx, signer=3, digest=digest, claimed_sender=3),
        digest, 3, header_sig,
    )
    forged_sig = Signature(pk=ctx.pk_of(4), tag=b"\x00" * 32)
    forged = (forged_sig, digest, 4, header_sig)
    # The worst a recycled id could do: the forged packet's id maps to an
    # accepted verdict that belongs to another object.
    session._echo_memo[id(forged)] = (good, (True, True))
    ctx.node(4).multicast(session.members, "ECHO:t", forged)
    ctx.net.run()
    for mid in session.members:
        assert forged_sig not in _recorded_echo_sigs(session, mid)


@pytest.mark.parametrize("size", [4, 9, 22, 32])
def test_confirm_closed_form_size_is_the_payload_size(size):
    from repro.net.message import payload_size

    ctx = build_sandbox(committee_size=size, lam=2)
    sizes = []
    ctx.net.drop_filter = lambda msg: (
        sizes.append((msg.size, payload_size(msg.payload), len(msg.payload[2])))
        if msg.tag == "CONFIRM:t"
        else None
    )
    assert run_consensus(ctx).success
    assert len(sizes) == size - 1
    for sent, actual, echo_count in sizes:
        assert sent == actual
        assert echo_count > size / 2


@pytest.mark.parametrize("n", [0, 1, 17])
def test_sig_list_size_is_the_size_of_a_signature_list(pki, n):
    from repro.net.message import payload_size, sig_list_size

    sig = sign(pki.generate("signer"), "statement")
    assert sig_list_size(n) == payload_size([sig] * n)


def test_start_allocates_per_session_not_per_member():
    """One PROPOSE / ECHO / STOP handler for the whole session: what
    ``start`` adds to the collector's books per extra member is the
    member's mailbox, not a set of closures (about 25 objects before)."""
    import gc

    def added_by_start(size):
        ctx = build_sandbox(committee_size=size, lam=2)
        committee = ctx.committees[0]
        session = InsideConsensus(
            ctx, committee.members, committee.leader, sn=1, payload="M", session="t"
        )
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            session.start()
            return len(gc.get_objects()) - before, session, ctx
        finally:
            gc.enable()

    small, _, _ = added_by_start(8)
    large, session, ctx = added_by_start(32)
    assert (large - small) / (32 - 8) <= 3
    handlers = [ctx.node(mid).handlers for mid in session.members]
    for tag in ("PROPOSE:t", "ECHO:t", "STOP:t"):
        assert len({id(mailbox[tag]) for mailbox in handlers}) == 1
    ctx.net.run()
    assert session.outcome.success and session.outcome.confirms == 32


def _config_session(ctx):
    from repro.core.committee import _ConfigSession

    committee = ctx.committees[0]
    roles = {
        "CONFIG:cfg:0": [committee.key_members],
        "MEM_LIST:cfg:0": [committee.members],
        "MEMBER:cfg:0": [committee.members],
    }
    return _ConfigSession(ctx, 0), roles


def _vote_session(proposes):
    def build(ctx):
        from repro.core.voting import VoteRoundSession, input_side_votes

        committee = ctx.committees[0]
        session = VoteRoundSession(
            ctx, committee, [], "v", input_side_votes, "intra",
            leader_proposes_override=proposes,
        )
        return session, {
            "TX_LIST:v": [committee.members],
            "NO_PROPOSAL:v": [committee.partial],
        }

    return build


def _semicommit_session(ctx):
    from repro.core.semicommit import _SemiCommitSession

    partial = ctx.committees[0].partial
    # SEMI_COM's handler differs by role: referees validate, partial
    # members only note what their leader claimed.
    return _SemiCommitSession(ctx), {
        "SEMI_COM": [ctx.referee, partial],
        "SEMI_COM_SET": [partial],
    }


def _impeachment_session(ctx):
    from repro.core.recovery import Witness, _ImpeachmentSession

    committee = ctx.committees[0]
    witness = Witness(
        kind="silence", committee=0, leader_pk=ctx.pk_of(committee.leader),
        round_number=1, evidence=("intra", ()),
    )
    session = _ImpeachmentSession(ctx, committee, committee.partial[0], witness, "i")
    return session, {
        "IMPEACH:i": [committee.members],
        "NEW:i": [committee.members],
        "ACCUSE:i": [ctx.referee],
    }


@pytest.mark.parametrize(
    "build",
    [
        _config_session,
        _vote_session(True),
        _vote_session(False),
        _semicommit_session,
        _impeachment_session,
    ],
    ids=["config", "vote-proposing", "vote-silent", "semicommit", "impeachment"],
)
def test_every_session_registers_one_handler_per_tag_and_role(build):
    """The envelope names the member: for each tag, all members of one role
    hold the *same* handler object, and ``start`` creates as many functions,
    cells and bound methods for 32 members as for 8 (a closure factory per
    member creates a function and its cells per member per tag)."""
    import gc
    from collections import Counter

    def started(size):
        ctx = build_sandbox(committee_size=size, lam=2)
        session, roles = build(ctx)
        gc.collect()
        gc.disable()
        try:
            before = Counter(type(o).__name__ for o in gc.get_objects())
            session.start()
            after = Counter(type(o).__name__ for o in gc.get_objects())
        finally:
            gc.enable()
        created = {
            kind: after[kind] - before[kind] for kind in ("function", "cell", "method")
        }
        return created, ctx, roles

    started(8)  # first use of a type fills process-wide tables; not counted
    small, _, _ = started(8)
    large, ctx, roles = started(32)
    assert large == small
    for tag, groups in roles.items():
        for group in groups:
            assert len(group) > 1
            assert len({id(ctx.node(mid).handlers[tag]) for mid in group}) == 1, tag
    ctx.net.run()  # the session still runs to quiescence on shared handlers


# -- the ECHO tally: a session on Network is the session on the oracle ------
# ``reference_impls.NaiveNetwork`` ignores ``tally`` and calls the ECHO
# handler for every delivery.  ``Network`` calls it for a member's quorum
# crossing alone, at the completing ECHO's own (time, seq), and files the
# ECHOes before it lazily; everything a run shows must be the same.
class _PartlySilentLeader(Behavior):
    """Proposes to the first half of the others, nothing to the rest."""

    def propose_payloads(self, node, recipients, payload):
        half = len(recipients) // 2
        return {rid: payload if i < half else ... for i, rid in enumerate(recipients)}


def _late_propose(ctx, committee):
    # The leader's PROPOSE to its last member takes a key-member hop (4
    # delta): that member's quorum of ECHOes is in before it.
    slow = (committee.leader, committee.members[-1])
    ctx.net.channel_classifier = lambda s, d: (
        ChannelClass.KEY if (s, d) == slow else ChannelClass.INTRA
    )


def _offline_member(ctx, committee):
    ctx.node(committee.members[-1]).online = False


def _partition(ctx, committee):
    cut = len(committee.members) // 3
    ctx.net.set_partitions([committee.members[:cut]])


def _no_jitter(ctx, _committee):
    # Every hop of a class takes the same time: ties in time go by seq.
    ctx.net.params = dataclasses.replace(ctx.net.params, jitter=0.0)


def _counting_filter(ctx, _committee):
    received = []
    ctx.net.drop_filter = lambda msg: received.append(msg.size) and False


_CASES = {
    "honest": (None, None),
    "propose-after-quorum": (None, _late_propose),
    "withholding-member": ({-1: OfflineNode()}, None),
    "leader-silent-to-some": ({0: _PartlySilentLeader()}, None),
    "offline-member": (None, _offline_member),
    "partition": (None, _partition),
    "counting-drop-filter": (None, _counting_filter),
    "no-jitter": (None, _no_jitter),
    "equivocating-leader": ({0: EquivocatingLeader()}, None),
}


def _session_story(factory, size, case, probe_at=()):
    """One session on ``factory``: what it produced, what a same-instant
    timer at each of ``probe_at`` saw, and how many ECHO handler calls it
    made.  The probes are scheduled at 1.2 delta, after every ECHO was sent
    and before the first one arrives: at its instant, a probe comes after
    an ECHO delivered at its own (time, seq)."""
    from unittest import mock

    import repro.core.sandbox as sandbox_module

    behaviors, setup = _CASES[case]
    if behaviors is not None:
        behaviors = {i % size: b for i, b in behaviors.items()}
    with mock.patch.object(sandbox_module, "Network", factory):
        ctx = build_sandbox(committee_size=size, lam=2, behaviors=behaviors)
    committee = ctx.committees[0]
    if setup is not None:
        setup(ctx, committee)
    confirms = []
    inner = ctx.net.drop_filter

    def watch(msg):
        if msg.tag == "CONFIRM:t":
            confirms.append((msg.sender, msg.send_time, len(msg.payload[2]), msg.size))
        return inner(msg) if inner is not None else False

    ctx.net.drop_filter = watch
    session = InsideConsensus(
        ctx, committee.members, leader=committee.leader, sn=1, payload="M",
        session="t",
    )
    seen = []

    def probe(when):
        seen.append((when, ctx.net.now, len(confirms), ctx.net.pending))

    ctx.net.call_at(
        1.2 * ctx.net.params.delta,
        lambda: [ctx.net.call_at(when, partial(probe, when)) for when in probe_at],
    )
    session.start()
    calls = []
    for mid in session.members:
        node = ctx.node(mid)
        node.on("ECHO:t", lambda msg, inner=node.handlers["ECHO:t"]: (
            calls.append(msg.recipient), inner(msg)
        ))
    ctx.net.run()
    out = session.outcome
    story = (
        out.success, out.digest, out.cert, out.confirms, out.equivocation,
        ctx.net.now, ctx.net.delivered_messages, ctx.net.pending,
        ctx.metrics.summary_rows(), confirms, seen,
    )
    return story, len(calls)


@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("size", [4, 5, 8, 9, 32])
def test_a_tallied_session_is_the_session_on_the_per_message_oracle(size, case):
    """Equal outcome, clock, deliveries, per-phase traffic and every
    CONFIRM (sender, send time, echo-list length, size); and a timer at
    each CONFIRM's instant sees the same CONFIRMs sent before it."""
    oracle, oracle_calls = _session_story(NaiveNetwork, size, case)
    instants = sorted({sent for _, sent, _, _ in oracle[9]})
    want, _ = _session_story(NaiveNetwork, size, case, probe_at=instants)
    got, calls = _session_story(Network, size, case, probe_at=instants)
    assert got == want
    assert oracle[:10] == want[:10]
    if case == "equivocating-leader":
        assert calls == oracle_calls  # two digests: every ECHO is delivered
    else:
        assert calls <= size


@pytest.mark.parametrize("size", [4, 5, 8, 9, 32])
def test_an_honest_member_is_handed_only_the_echoes_it_counts(size):
    """Each member acts on one ECHO from the others, the ``quorum(C) - 1``-th
    (its own is counted where it is sent): the fabric calls the handler
    for that one alone, C calls a session instead of C(C-1).  Nothing else
    moves."""
    got, calls = _session_story(Network, size, "honest")
    want, oracle_calls = _session_story(NaiveNetwork, size, "honest")
    assert got == want and got[0]
    assert oracle_calls == size * (size - 1)
    assert calls == size
    echo_lists = [listed for _, _, listed, _ in got[9]]
    assert echo_lists == [consensus_module.quorum(size)] * (size - 1)


# -- STOP binds to its session (Claim 4) -------------------------------------
def _witness(ctx, signer, round_number, sn):
    keypair = ctx.node(signer).keypair
    digests = [consensus_digest(("one", sn)), consensus_digest(("two", sn))]
    sigs = [sign(keypair, ("PROPOSE", round_number, sn, d)) for d in digests]
    return EquivocationWitness(
        leader_pk=keypair.pk, round_number=round_number, sn=sn,
        digest_a=digests[0], sig_a=sigs[0], digest_b=digests[1], sig_b=sigs[1],
    )


@pytest.mark.parametrize(
    "replayed",
    [
        pytest.param(dict(signer=3, round_number=99, sn=("other", 7)), id="all"),
        pytest.param(dict(signer=3, round_number=1, sn=1), id="another-key"),
        pytest.param(dict(signer=0, round_number=99, sn=1), id="another-round"),
        pytest.param(dict(signer=0, round_number=1, sn=2), id="another-sn"),
    ],
)
def test_a_valid_witness_from_another_session_stops_nobody(replayed):
    ctx, session, _digest, _header_sig, _ = _started_session()
    assert session.leader == 0 and ctx.round_number == 1
    foreign = _witness(ctx, **replayed)
    assert foreign.is_valid(ctx.pki)
    ctx.node(3).multicast(session.members, "STOP:t", foreign)
    ctx.net.run()
    assert session._stopped == set()
    assert session.outcome.success and session.outcome.equivocation is None


def test_a_genuine_witness_still_stops_the_session():
    ctx, session, _digest, _header_sig, _ = _started_session()
    genuine = _witness(ctx, signer=0, round_number=1, sn=1)
    ctx.node(3).multicast(session.members, "STOP:t", genuine)
    ctx.net.run()
    assert session._stopped == set(session.members) - {3}
    assert not session.outcome.success
    assert session.outcome.equivocation == genuine
