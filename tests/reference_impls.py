"""One oracle per claim: the forms the equivalence tests hold ``src/repro`` to.

A *spec* states the rule one item at a time, as the paper or the encoder
writes it; a *snapshot* is the code a rewrite replaced, kept where no plainer
statement of the claim exists.  Nothing under ``src/`` imports this module.

* :func:`naive_payload_size` — spec of ``net.message.payload_size``.
* :class:`NaiveNetwork` — spec of ``net.simulator.Network``: one message per event.
* :class:`EagerPublishWorkloadGenerator` — snapshot of ``WorkloadGenerator`` settling.
* :func:`method_validate_transaction` — spec of V, ``utxo.validate_transaction``.
* :func:`method_apply_block` — spec of ``ledger.state.apply_block``.
* :func:`scratch_copy_validate_batch` — snapshot of ``utxo.validate_batch``.
* :func:`tuple_digest_items` — spec of ``ShardState.digest_items``, the sorted tuple.
* :func:`by_home_shard` — spec of the persistent mempool's ``offered()`` routing.
* :func:`networkx_parallel_subblocks` — snapshot of ``blockgen.parallel_subblocks``.
* :func:`fermat_inv` — spec of ``PrimeField.inv``.
* :func:`pow_commit` — spec of ``SchnorrGroup.commit``.
* :func:`feldman_check` — spec of the Feldman check on ``crypto.pvss`` shares.
* :func:`role_hash` — spec of ``core.sortition.role_digests`` (§IV-F).
* :func:`partial_committee_of` — spec of ``core.sortition.assign_partial_sets``.
* :func:`relevant` — spec of §VIII-B relevance in ``parallel_subblocks``.
* :func:`element_walk_txid` — spec of ``Transaction.txid``.
* :func:`element_walk_vote_statement` — spec of a VOTE's signing bytes.
* :func:`element_walk_vote_message_size` — spec of ``message.vote_message_size``.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Any

from repro.core.sortition import PARTIAL_ROLE
from repro.crypto.field import GROUP
from repro.crypto.hashing import H, H_int
from repro.crypto.pvss import PVSSDealing
from repro.crypto.signatures import Signature, encode_statement
from repro.ledger.state import ShardState
from repro.ledger.transaction import ShardMap, Transaction, shard_of_address
from repro.ledger.utxo import UTXOSet, ValidationResult
from repro.ledger.workload import TaggedTx, WorkloadGenerator
from repro.net.message import Message, payload_size
from repro.net.simulator import Network, SimulationError

_SIG_SIZE = 64
_HASH_SIZE = 32
_INT_SIZE = 8


# -- wire sizing -------------------------------------------------------------
def naive_payload_size(obj: Any) -> int:
    """The pre-optimization ``payload_size``: isinstance chain per element
    and ``dataclasses.fields`` introspection per dataclass instance."""
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return _INT_SIZE
    if isinstance(obj, float):
        return _INT_SIZE
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 2 + sum(naive_payload_size(x) for x in obj)
    if isinstance(obj, dict):
        return 2 + sum(
            naive_payload_size(k) + naive_payload_size(v) for k, v in obj.items()
        )
    type_name = type(obj).__name__
    if type_name == "Signature":
        return _SIG_SIZE
    if type_name == "VRFOutput":
        return _SIG_SIZE + _HASH_SIZE
    if dataclasses.is_dataclass(obj):
        return 2 + sum(
            naive_payload_size(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, _np_scalar_types()):
        return _INT_SIZE
    raise TypeError(f"naive_payload_size cannot size {type_name}")


def _np_scalar_types() -> tuple[type, ...]:
    import numpy as np  # the old deferred-import behaviour, per call

    return (np.integer, np.floating)


# -- network -----------------------------------------------------------------
class NaiveNetwork(Network):
    """The simulator, one message at a time: the oracle for the fabric.

    The send path is the pre-optimization one — a :class:`Message` per
    send, a scalar ``Generator.random()`` per jitter draw, payloads sized
    with :func:`naive_payload_size` — and a multicast is the loop of sends.
    Every message is its own entry of this class's own heap, and the event
    loop hands each to :meth:`_receive` and retires its
    envelope afterwards.  It shares no queue, run or dispatch code with
    :class:`Network`; given the same RNG seed it must produce the identical
    schedule, deliveries and counters (the jitter block is stream-exact).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._events: list[tuple] = []  # (time, seq, message | None, callback | None)
        self._event_seq = itertools.count()
        self._spikes: list[tuple[float, set[str] | None]] = []

    def reset(self, metrics=None) -> None:
        super().reset(metrics)
        self._events.clear()
        self._event_seq = itertools.count()
        self._spikes.clear()

    def add_link_degradation(self, factor: float, channels=None) -> None:
        """Kept as given; :meth:`_sample_delay` multiplies the ones that
        hold a send's channel class."""
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self._spikes.append((float(factor), set(channels) if channels else None))

    def _next_jitter(self) -> float:
        return float(self.rng.random())

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(src, -1) != self._partition.get(dst, -1)

    def _sample_delay(self, channel_class: str) -> float:
        base = self._base_delays.get(channel_class)
        if base is None:
            base = self.params.base_delay(channel_class)  # raises for unknown
        if base == 0.0:
            return 0.0
        jitter = self.params.jitter
        delay = base * (1.0 - jitter * self._next_jitter())
        factor = 1.0
        for multiplier, channels in self._spikes:
            if channels is None or channel_class in channels:
                factor *= multiplier
        return delay * factor

    def send(
        self,
        sender: int,
        recipient: int,
        tag: str,
        payload: Any,
        size: "int | None" = None,
    ) -> None:
        """The pre-multicast send path (a retired envelope is reused, so the
        pool's size can be compared too)."""
        if recipient not in self.nodes:
            raise SimulationError(f"unknown recipient {recipient}")
        channel = self.channel_classifier(sender, recipient)
        if channel is None:
            raise SimulationError(
                f"no channel from {sender} to {recipient}: the topology "
                "does not provide this link (see §III-B)"
            )
        if self._crosses_partition(sender, recipient):
            self.dropped_messages += 1
            self.partition_dropped += 1
            return
        nbytes = size if size is not None else naive_payload_size(payload)
        message = self._pool.pop() if self._pool else Message.__new__(Message)
        message.__init__(
            sender=sender,
            recipient=recipient,
            tag=tag,
            payload=payload,
            size=nbytes,
            channel=channel,
            send_time=self.now,
            deliver_time=0.0,
        )
        if self.drop_filter is not None and self.drop_filter(message):
            self.dropped_messages += 1
            self._retire(message)
            return
        message.deliver_time = self.now + self._sample_delay(channel)
        self.metrics.record_sends(sender, 1, nbytes)
        heapq.heappush(
            self._events,
            (message.deliver_time, next(self._event_seq), message, None),
        )

    @staticmethod
    def _receive(node: Any, message: Message) -> None:
        """The former ``ProtocolNode.receive``: one message to one node."""
        if not node.online:
            return  # offline nodes hear nothing
        handlers = node.handlers
        handler = handlers.get(message.tag) if handlers is not None else None
        if handler is not None:
            handler(message)
        else:
            node.on_default(message)

    def _retire(self, message: Message) -> None:
        """A finished envelope is kept for a later send, with its payload
        let go and its tag poisoned."""
        if len(self._pool) < self._POOL_MAX:
            message.payload = None
            message.tag = "<pooled>"
            self._pool.append(message)

    def multicast(
        self, sender, recipients, tag, payload, size=None, tally=None
    ) -> None:
        """The loop of sends; a ``tally`` changes nothing here (every
        recipient's handler is called, the silent ones too)."""
        for recipient in recipients:
            if recipient != sender:
                self.send(sender, recipient, tag, payload, size)

    def call_at(self, time: float, callback) -> None:
        if time < self.now:
            raise SimulationError("cannot schedule in the past")
        heapq.heappush(
            self._events, (time, next(self._event_seq), None, callback)
        )

    def run(self, until: "float | None" = None) -> float:
        if until is not None and until < self.now:
            raise SimulationError("cannot run to a time in the past")
        processed = 0
        while self._events:
            deliver_time, _, message, callback = self._events[0]
            if until is not None and deliver_time > until:
                self.now = until
                return until
            heapq.heappop(self._events)
            self.now = deliver_time
            if message is not None:
                node = self.nodes.get(message.recipient)
                if node is not None:
                    self._receive(node, message)
                    self.delivered_messages += 1
                self._retire(message)
            elif callback is not None:
                callback()
            processed += 1
            if processed > self.params.max_events:
                raise SimulationError(
                    f"event budget exceeded ({self.params.max_events}); "
                    "likely a message loop"
                )
        return self.now

    @property
    def pending(self) -> int:
        return len(self._events)

    def in_flight(self):
        return iter(sorted(
            (time, seq, m.sender, m.recipient, m.tag, m.size, m.channel, m.send_time)
            for time, seq, m, _ in self._events
            if m is not None
        ))


# -- workload ----------------------------------------------------------------
class EagerPublishWorkloadGenerator(WorkloadGenerator):
    """The generator's former fixed-batch publish rule: the oracle for
    settlement.

    A batch publishes its created outputs and spent records when it ends
    and ``confirm_round`` strikes the unpacked transactions' share back
    out, one ``list.remove`` at a time; only the latest batch is ever
    outstanding.  The single rule in :mod:`repro.ledger.workload`
    (publish when the transaction packs) must leave the same pools, in the
    same order, at every round boundary.
    """

    def generate_batch(self, count, cross_shard_ratio=0.0, invalid_ratio=0.0):
        self._effects = {}
        batch = super().generate_batch(count, cross_shard_ratio, invalid_ratio)
        # Home shard and transaction of each pending one, from the batch's
        # ground truth: ``_effects`` keeps only the consumed entries.
        self._pending = {t.tx.txid: (t.home_shard, t.tx) for t in batch}
        for txid, consumed in self._effects.items():
            for shard, entry in self._created(*self._pending[txid]):
                self._spendable[shard].append(entry)
            self._spent.append(consumed)
        self._trim_spent()
        return batch

    def _created(self, home, tx):
        """A transaction's output entries as the generator once built them
        up front: the change (output 1, back to the owner's home shard)
        first, then the payee's (output 0)."""
        created = []
        if len(tx.outputs) > 1:
            owner, change = tx.outputs[1]
            created.append((home, ((tx.txid, 1), owner, change)))
        payee, spend = tx.outputs[0]
        created.append(
            (shard_of_address(payee, self.m), ((tx.txid, 0), payee, spend))
        )
        return created

    def rollback_txids(self, txids) -> int:
        rolled = 0
        for txid in txids:
            consumed = self._effects.pop(txid, None)
            if consumed is None:
                continue
            home, tx = self._pending[txid]
            for shard, entry in self._created(home, tx):
                try:
                    self._spendable[shard].remove(entry)
                except ValueError:
                    pass
            self._spendable[home].append(consumed)
            try:
                self._spent.remove(consumed)
            except ValueError:
                pass
            rolled += 1
        return rolled

    def confirm_round(self, packed_txids: set[bytes]) -> int:
        rolled = self.rollback_txids(
            [t for t in list(self._effects) if t not in packed_txids]
        )
        self._effects = {}
        return rolled


# -- V, UTXO application and the listing through the set's methods -------------
def method_validate_transaction(tx: Transaction, utxos: UTXOSet) -> ValidationResult:
    """The authentication function V as it read through ``UTXOSet.get``."""
    if not tx.outputs:
        return ValidationResult.EMPTY
    if any(amount <= 0 for _address, amount in tx.outputs):
        return ValidationResult.NONPOSITIVE_OUTPUT
    outpoints = tx.outpoints()
    if len(set(outpoints)) != len(outpoints):
        return ValidationResult.DUPLICATE_INPUT
    total_in = 0
    for outpoint in outpoints:
        output = utxos.get(outpoint)
        if output is None:
            return ValidationResult.MISSING_INPUT
        total_in += output[1]
    if total_in < tx.output_total():
        return ValidationResult.OVERSPEND
    return ValidationResult.VALID


def method_apply_block(
    states, txs, shard_of: ShardMap, global_utxos: UTXOSet
) -> tuple[int, int, int]:
    """``apply_block``'s walk through ``spend`` / ``add``: each input spent
    from the global view, then from the shard its output's address maps to;
    each output added to the global view, then to its address's shard."""
    sets = [state.utxos for state in states]
    spent = created = fees = 0
    for tx in txs:
        for outpoint in tx.outpoints():
            address, amount = global_utxos.spend(outpoint)
            sets[shard_of[address]].spend(outpoint)
            spent += 1
            fees += amount
        for index, output in enumerate(tx.outputs):
            global_utxos.add((tx.txid, index), output)
            sets[shard_of[output[0]]].add((tx.txid, index), output)
            created += 1
            fees -= output[1]
    return spent, created, fees


def scratch_copy_validate_batch(txs, utxos: UTXOSet) -> list[ValidationResult]:
    """The ``validate_batch`` the overlay replaced: V against a scratch copy
    of the whole set, each accepted transaction applied to the copy through
    ``spend`` / ``add`` before the next is judged."""
    scratch = UTXOSet()
    scratch._utxos = utxos.snapshot()
    results = []
    for tx in txs:
        result = method_validate_transaction(tx, scratch)
        results.append(result)
        if result:
            for outpoint in tx.outpoints():
                scratch.spend(outpoint)
            for index, output in enumerate(tx.outputs):
                scratch.add((tx.txid, index), output)
    return results


def tuple_digest_items(state: ShardState) -> tuple:
    """The pre-optimization ``ShardState.digest_items``: the whole listing
    as a freshly sorted tuple of plain tuples."""
    return tuple(
        sorted(
            (txid.hex(), index, address, amount)
            for (txid, index), (address, amount) in (
                ((op, state.utxos.get(op)) for op in state.utxos)
            )
        )
    )


# -- routing a batch to its committees ----------------------------------------
def by_home_shard(batch: "list[TaggedTx]", m: int) -> list[list[TaggedTx]]:
    """Route a batch to committees by input ownership (Fig. 2 step 2)."""
    routed: list[list[TaggedTx]] = [[] for _ in range(m)]
    for tagged in batch:
        routed[tagged.home_shard].append(tagged)
    return routed


# -- §VIII-B sub-blocks ---------------------------------------------------------
def networkx_parallel_subblocks(txs: list[Transaction]) -> list[list[Transaction]]:
    """The networkx ``parallel_subblocks``: the relevance graph as an
    ``nx.Graph`` coloured by ``greedy_color(strategy="largest_first")``.
    networkx is a test-only dependency, imported on call."""
    import networkx as nx

    if not txs:
        return []
    graph = nx.Graph()
    graph.add_nodes_from(range(len(txs)))
    # Index by outpoint so graph construction is O(total inputs), not O(n²).
    spenders: dict[tuple[bytes, int], list[int]] = {}
    producers: dict[tuple[bytes, int], int] = {}
    for idx, tx in enumerate(txs):
        for outpoint in tx.outpoints():
            spenders.setdefault(outpoint, []).append(idx)
        for out_index in range(len(tx.outputs)):
            producers[(tx.txid, out_index)] = idx
    for outpoint, ids in spenders.items():
        for a in ids:
            for b in ids:
                if a < b:
                    graph.add_edge(a, b)  # same UTXO as input
        if outpoint in producers:
            for a in ids:
                if a != producers[outpoint]:
                    graph.add_edge(a, producers[outpoint])  # spends output
    colors = nx.coloring.greedy_color(graph, strategy="largest_first")
    n_colors = max(colors.values()) + 1 if colors else 0
    groups: list[list[Transaction]] = [[] for _ in range(n_colors)]
    for idx, color in colors.items():
        groups[color].append(txs[idx])
    return groups


# -- field inverses, Feldman commitments and share checks -----------------------
def fermat_inv(a: int, p: int) -> int:
    """``PrimeField.inv`` by Fermat's little theorem: ``a^(p-2) mod p``."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in a field")
    return pow(a, p - 2, p)


def pow_commit(group, e: int) -> int:
    """``SchnorrGroup.commit`` as one modular exponentiation of ``g``."""
    return pow(group.g, e % group.p, group.q)


def feldman_check(dealing: PVSSDealing, index: int, share: int, group=GROUP) -> bool:
    """Participant ``index`` (1-based) verifies its private share against the
    coefficient commitments: ``g^{σ_i} == Π_j C_j^{i^j}`` (Feldman).  The
    beacon verifies dealings through SCRAPE's ``scrape_check``; this is the
    independent check the PVSS tests hold real shares to."""
    if not (1 <= index <= dealing.n):
        return False
    expected = 1
    power = 1  # i^j mod p
    for c_j in dealing.coeff_commitments:
        expected = group.mul(expected, group.exp(c_j, power))
        power = (power * index) % group.p
    return group.commit(share) == expected


# -- the paper's rules one item at a time ---------------------------------------
def role_hash(round_number: int, randomness: bytes, pk: str, role: str) -> int:
    """``H(r+1 || R_r || PK_i || role)`` as a 256-bit integer, one node at a
    time (§IV-F as written; replaced by the batched
    :func:`repro.core.sortition.role_digests`)."""
    return H_int("ROLE", round_number, randomness, pk, role)


def partial_committee_of(round_number: int, randomness: bytes, pk: str, m: int) -> int:
    """The committee a selected partial member joins (§IV-F):
    ``H(r+1 || R_r || PK_i || PARTIAL_SET_MEMBER) mod m`` (replaced by the
    one digest pass of :func:`repro.core.sortition.assign_partial_sets`)."""
    return role_hash(round_number, randomness, pk, PARTIAL_ROLE) % m


def relevant(tx_a: Transaction, tx_b: Transaction) -> bool:
    """§VIII-B: two transactions are *relevant* if they share an input
    outpoint or one spends the other's output (replaced by the outpoint
    index of :func:`repro.core.blockgen.parallel_subblocks`)."""
    a_in = set(tx_a.outpoints())
    b_in = set(tx_b.outpoints())
    if a_in & b_in:
        return True
    a_out = {(tx_a.txid, i) for i in range(len(tx_a.outputs))}
    b_out = {(tx_b.txid, i) for i in range(len(tx_b.outputs))}
    return bool(a_in & b_out) or bool(b_in & a_out)


# -- the per-transaction path, element by element -------------------------------
def element_walk_txid(tx: Transaction) -> bytes:
    """The pre-optimization ``Transaction.txid``: ``H`` over the input and
    output pairs rebuilt as tuples, encoded by the recursive walk."""
    return H(
        "TX",
        tuple((txid, index) for txid, index in tx.inputs),
        tuple((address, amount) for address, amount in tx.outputs),
        tx.nonce,
    )


def element_walk_vote_statement(r: int, k: int, session: str, votes) -> bytes:
    """The pre-optimization VOTE signing bytes: the whole statement through
    ``encode_statement``, one generic encode per vote."""
    return encode_statement(("VOTE", r, k, session, tuple(votes)))


def element_walk_vote_message_size(mid: int, votes, sig: Signature) -> int:
    """The pre-optimization VOTE size: ``payload_size`` of the payload, one
    sizer call per vote."""
    return payload_size((mid, votes, sig))
