"""Frozen pre-optimization implementations the equivalence tests compare against.

Each hot-path optimization ships in its real module; the code it replaced
is preserved here — verbatim, not simplified — so a test can run both on
the same seed and require equal results.  Nothing under ``src/`` imports
this module; the classes subclass the real ones and override exactly
the methods an optimization replaced.

* :func:`naive_payload_size` — wire-size estimation with per-call
  ``dataclasses.fields`` introspection and isinstance chains (replaced by
  the exact-type dispatch in :mod:`repro.net.message`);
* :class:`NaiveNetwork` — the simulator one message at a time: an envelope
  and a heap push per recipient, scalar jitter draws, every delivery
  through its own ``_receive`` (replaced by block-buffered jitter, one
  time-sorted run and one envelope per fan-out, and the inlined dispatch
  of :mod:`repro.net.simulator`);
* :class:`NaiveWorkloadGenerator` — transaction generation with
  ``Generator.choice`` defect draws and an any()-scan address bucket fill
  (replaced by tuple-indexed bounded-integer draws and a slot countdown in
  :mod:`repro.ledger.workload`);
* :class:`EagerPublishWorkloadGenerator` — created outputs and spent
  records published at batch end and struck back out of the pools for
  every unpacked transaction (replaced by the one publish-at-pack rule of
  :mod:`repro.ledger.workload`);
* :func:`per_shard_apply_block`, :func:`per_shard_add_genesis`,
  :func:`tuple_digest_items` — the ``ShardState`` methods that filtered a
  whole block through one shard's ownership test and rebuilt the whole
  UTXO listing per call (replaced by the route-once
  :func:`repro.ledger.state.apply_block` and the entry-caching
  ``ShardState.digest_items``);
* :func:`networkx_parallel_subblocks` — §VIII-B sub-blocks coloured by
  networkx (replaced by the plain-Python largest-first colouring of
  :func:`repro.core.blockgen.parallel_subblocks`, so that the simulation
  path imports no networkx);
* :func:`element_walk_txid`, :func:`element_walk_vote_statement`,
  :func:`element_walk_vote_message_size`, :class:`PerItemBehavior` — the
  per-transaction path one Python call per element: the txid and the VOTE
  statement through the recursive ``canonical_bytes``, the VOTE payload
  through ``payload_size``, the honest votes one item write at a time
  (replaced by the formatted txid of :mod:`repro.ledger.transaction`, the
  table-encoded vote vector of :mod:`repro.crypto.hashing`, the closed form
  ``repro.net.message.vote_message_size`` and the prefix assignment of
  :mod:`repro.nodes.behaviors`).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Any

import numpy as np

from repro.crypto.hashing import H
from repro.crypto.signatures import Signature, encode_statement
from repro.ledger.state import ShardState
from repro.ledger.transaction import Transaction, TxInput, TxOutput, shard_of_address
from repro.ledger.utxo import ValidationResult
from repro.ledger.workload import TaggedTx, WorkloadGenerator
from repro.net.message import Message, payload_size
from repro.net.params import ChannelClass
from repro.net.simulator import Network, SimulationError
from repro.nodes.behaviors import NO, YES, Behavior

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

    def reset(self, metrics=None) -> None:
        super().reset(metrics)
        self._events.clear()
        self._event_seq = itertools.count()

    def _next_jitter(self) -> float:
        return float(self.rng.random())

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(src, -1) != self._partition.get(dst, -1)

    def _sample_delay(
        self, channel_class: str, message: "Message | None" = None
    ) -> float:
        base = self._base_delays.get(channel_class)
        if base is None:
            base = self.params.base_delay(channel_class)  # raises for unknown
        if base == 0.0:
            return 0.0
        jitter = self.params.jitter
        delay = base * (1.0 - jitter * self._next_jitter())
        if self._degradations:
            delay *= self._degradation_factor(channel_class)
        if (
            channel_class == ChannelClass.PARTIAL
            and self.adversarial_scheduler is not None
            and message is not None
        ):
            stretch = self.adversarial_scheduler(message)
            stretch = min(max(stretch, 1.0), self.params.partial_max_stretch)
            delay *= stretch
        return delay

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
        message.deliver_time = self.now + self._sample_delay(channel, message)
        self.metrics.record_send(sender, nbytes)
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

    def multicast(self, sender, recipients, tag, payload, size=None) -> None:
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
                raise SimulationError("event budget exceeded")
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
class NaiveWorkloadGenerator(WorkloadGenerator):
    """The workload generator with its pre-optimization draw paths.

    Overrides exactly the two methods the optimization touched: the
    address bucket fill (any()-scan per candidate address) and the defect
    draw (``Generator.choice`` over a Python string list).  Both are
    RNG-stream-identical to the optimized versions, so same-seed instances
    generate byte-identical transaction batches.
    """

    def __init__(
        self,
        m: int,
        users_per_shard: int,
        rng: np.random.Generator,
        endowment: int = 1_000,
        fee: int = 1,
    ) -> None:
        super().__init__(m, users_per_shard, rng, endowment=endowment, fee=fee)
        # Rebuild the address buckets the old way (no RNG involved, so
        # redoing the work changes nothing).
        self.addresses_by_shard = [[] for _ in range(m)]
        serial = 0
        while any(
            len(bucket) < users_per_shard for bucket in self.addresses_by_shard
        ):
            address = f"user-{serial:08d}"
            serial += 1
            shard = shard_of_address(address, m)
            if len(self.addresses_by_shard[shard]) < users_per_shard:
                self.addresses_by_shard[shard].append(address)

    def _build_invalid(self, home: int, cross: bool) -> TaggedTx:
        defect = str(
            self.rng.choice(["double_spend", "overspend", "phantom_input"])
        )
        payee = self._pick_payee(home, cross)
        if defect == "double_spend" and self._spent:
            outpoint, owner, amount = self._spent[
                int(self.rng.integers(0, len(self._spent)))
            ]
            tx = Transaction(
                inputs=(TxInput(*outpoint),),
                outputs=(TxOutput(payee, max(1, amount - self.fee)),),
                nonce=self._next_nonce(),
            )
        elif defect == "overspend" and self._spendable[home]:
            outpoint, owner, amount = self._spendable[home][
                int(self.rng.integers(0, len(self._spendable[home])))
            ]
            tx = Transaction(
                inputs=(TxInput(*outpoint),),
                outputs=(TxOutput(payee, amount * 2 + 1),),
                nonce=self._next_nonce(),
            )
        else:
            defect = "phantom_input"
            phantom = (
                Transaction(
                    inputs=(),
                    outputs=(TxOutput("nobody", 1),),
                    nonce=self._next_nonce(),
                ).txid,
                0,
            )
            tx = Transaction(
                inputs=(TxInput(*phantom),),
                outputs=(TxOutput(payee, 10),),
                nonce=self._next_nonce(),
            )
        out_shard = shard_of_address(payee, self.m)
        return TaggedTx(
            tx=tx,
            home_shard=home,
            cross_shard=out_shard != home,
            intended_valid=False,
            defect=defect,
        )


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
        for _home, consumed, created in self._effects.values():
            for shard, entry in created:
                self._spendable[shard].append(entry)
            self._spent.append(consumed)
        self._trim_spent()
        return batch

    def rollback_txids(self, txids) -> int:
        rolled = 0
        for txid in txids:
            effects = self._effects.pop(txid, None)
            if effects is None:
                continue
            home, consumed, created = effects
            for shard, entry in created:
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


# -- per-shard ledger application ----------------------------------------------
def per_shard_apply_block(state: ShardState, txs) -> tuple[int, int]:
    """The pre-optimization ``ShardState.apply_block``: spends every
    referenced outpoint present locally and adds every output this shard
    owns; every shard ran it over the whole block."""
    spent = created = 0
    for tx in txs:
        for outpoint in tx.outpoints():
            if outpoint in state.utxos:
                state.utxos.spend(outpoint)
                spent += 1
        for index, output in enumerate(tx.outputs):
            if shard_of_address(output.address, state.m) == state.shard:
                state.utxos.add((tx.txid, index), output)
                created += 1
    return spent, created


def per_shard_add_genesis(state: ShardState, tx: Transaction) -> None:
    """The pre-optimization ``ShardState.add_genesis``."""
    for index, output in enumerate(tx.outputs):
        if shard_of_address(output.address, state.m) == state.shard:
            state.utxos.add((tx.txid, index), output)


def tuple_digest_items(state: ShardState) -> tuple:
    """The pre-optimization ``ShardState.digest_items``: the whole listing
    as a freshly sorted tuple of plain tuples."""
    return tuple(
        sorted(
            (txid.hex(), index, out.address, out.amount)
            for (txid, index), out in (
                ((op, state.utxos.get(op)) for op in state.utxos)
            )
        )
    )


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


# -- the per-transaction path, element by element -------------------------------
def element_walk_txid(tx: Transaction) -> bytes:
    """The pre-optimization ``Transaction.txid``: ``H`` over the input and
    output pairs rebuilt as tuples, encoded by the recursive walk."""
    return H(
        "TX",
        tuple((i.txid, i.index) for i in tx.inputs),
        tuple((o.address, o.amount) for o in tx.outputs),
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


class PerItemBehavior(Behavior):
    """The honest votes as first written: one numpy item write per judged
    transaction (replaced by one list assigned to the array's judged
    prefix in :mod:`repro.nodes.behaviors`)."""

    def vote(self, node, txs, state, rng):
        votes = np.zeros(len(txs), dtype=np.int8)
        budget = node.take_budget(len(txs))
        for index, tx in enumerate(txs):
            if index >= budget:
                break  # "fails to judge within the given time" -> Unknown
            result = state.validate(tx)
            votes[index] = YES if result is ValidationResult.VALID else NO
        return votes

    def vote_on_outputs(self, node, txs, rng):
        votes = np.zeros(len(txs), dtype=np.int8)
        budget = node.take_budget(len(txs))
        for index, tx in enumerate(txs):
            if index >= budget:
                break
            well_formed = bool(tx.outputs) and all(
                o.amount > 0 for o in tx.outputs
            )
            votes[index] = YES if well_formed else NO
        return votes
