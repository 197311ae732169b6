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
* :func:`role_hash`, :func:`partial_committee_of`, :func:`relevant` — the
  §IV-F role lottery and partial-set committee draw one node at a time, and
  §VIII-B relevance one pair at a time, as the paper writes them (replaced
  by the batched digests of :mod:`repro.core.sortition` and the outpoint
  index of :func:`repro.core.blockgen.parallel_subblocks`);
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
  :mod:`repro.nodes.behaviors`);
* :class:`TxInput`, :class:`TxOutput`, :class:`DataclassTransaction`,
  :func:`record_validate_transaction`, :func:`record_apply_block`,
  :func:`record_digest_items` — the ledger records as frozen dataclasses
  read by attribute, with a ``cached_property`` txid and size, and V,
  ``apply_block`` and the UTXO listing over them (replaced by the exact
  ``(txid, index)`` / ``(address, amount)`` tuples and the slotted
  ``Transaction`` of :mod:`repro.ledger.transaction`, which the collector
  stops tracking);
* :func:`method_validate_transaction`, :func:`method_apply_transaction`,
  :func:`method_apply_block` — V, ``UTXOSet.apply_transaction`` and
  ``apply_block`` through the set's methods (``outpoints()``,
  ``output_total()``, ``get``, ``spend``, ``add``, ``__contains__``), one
  Python call per outpoint (replaced by the dict probes and the one pass
  over the outputs of :mod:`repro.ledger.utxo` / :mod:`repro.ledger.state`);
* :func:`per_chunk_unicast` — IDA-style dissemination as one unicast per
  recipient per chunk, each chunk carrying its index (replaced by the one
  recipient-major fan-out of ``RivalBackend._chunked_multicast``).

Two oracles here replaced nothing: :func:`feldman_check`, the per-share
Feldman verification, which the beacon does not need (it verifies a dealing
through SCRAPE's ``scrape_check``); and :func:`by_home_shard`, a batch routed
straight to its home committees, which the persistent mempool's
``offered()`` is checked against.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256
from typing import Any

import numpy as np

from repro.core.sortition import PARTIAL_ROLE
from repro.crypto.field import GROUP
from repro.crypto.hashing import H, H_int
from repro.crypto.pvss import PVSSDealing
from repro.crypto.signatures import Signature, encode_statement
from repro.ledger.state import ShardState
from repro.ledger.transaction import ShardMap, Transaction, shard_of_address
from repro.ledger.utxo import UTXOSet, ValidationResult
from repro.ledger.workload import TaggedTx, WorkloadGenerator
from repro.net.message import Message, fields_size, payload_size
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
class NumpyDraws:
    """The draws :class:`repro.ledger.draws.DrawStream` transcribes, made by
    numpy itself, one ``Generator`` call per value."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def integers(self, low: int, high: int) -> int:
        return int(self.rng.integers(low, high))

    def random(self) -> float:
        return float(self.rng.random())

    def poisson(self, lam: float) -> int:
        return int(self.rng.poisson(lam))

    @property
    def state(self) -> dict:
        return self.rng.bit_generator.state

    @state.setter
    def state(self, value: dict) -> None:
        self.rng.bit_generator.state = value


class NaiveWorkloadGenerator(WorkloadGenerator):
    """The workload generator with its pre-optimization draw paths.

    Every value is drawn by numpy directly (:class:`NumpyDraws`, no
    pre-drawn block), the address buckets are filled by an any()-scan per
    candidate address, and the defect is drawn by ``Generator.choice`` over
    a Python string list.  All of it is RNG-stream-identical to the
    optimized generator, so same-seed instances generate byte-identical
    transaction batches.
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
        self.rng = rng
        self.draws = NumpyDraws(rng)
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
                inputs=(outpoint,),
                outputs=((payee, max(1, amount - self.fee)),),
                nonce=self._next_nonce(),
            )
        elif defect == "overspend" and self._spendable[home]:
            outpoint, owner, amount = self._spendable[home][
                int(self.rng.integers(0, len(self._spendable[home])))
            ]
            tx = Transaction(
                inputs=(outpoint,),
                outputs=((payee, amount * 2 + 1),),
                nonce=self._next_nonce(),
            )
        else:
            defect = "phantom_input"
            phantom = (
                Transaction(
                    inputs=(),
                    outputs=(("nobody", 1),),
                    nonce=self._next_nonce(),
                ).txid,
                0,
            )
            tx = Transaction(
                inputs=(phantom,),
                outputs=((payee, 10),),
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
        for home, consumed, tx in self._effects.values():
            for shard, entry in self._created(home, tx):
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
            effects = self._effects.pop(txid, None)
            if effects is None:
                continue
            home, consumed, tx = effects
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


# -- V and UTXO application through the set's methods ---------------------------
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


def method_apply_transaction(utxos: UTXOSet, tx: Transaction) -> None:
    """``UTXOSet.apply_transaction`` as ``spend`` then ``add`` calls."""
    for outpoint in tx.outpoints():
        utxos.spend(outpoint)
    for index, output in enumerate(tx.outputs):
        utxos.add((tx.txid, index), output)


def method_apply_block(states, txs, shard_of: ShardMap) -> tuple[int, int]:
    """``apply_block``'s walk through ``__contains__`` / ``spend`` / ``add``."""
    sets = [state.utxos for state in states]
    spent = created = 0
    for tx in txs:
        for outpoint in tx.outpoints():
            for utxos in sets:
                if outpoint in utxos:
                    utxos.spend(outpoint)
                    spent += 1
        txid = tx.txid
        for index, output in enumerate(tx.outputs):
            sets[shard_of[output[0]]].add((txid, index), output)
            created += 1
    return spent, created


# -- routing a batch to its committees ----------------------------------------
def by_home_shard(batch: "list[TaggedTx]", m: int) -> list[list[TaggedTx]]:
    """Route a batch to committees by input ownership (Fig. 2 step 2)."""
    routed: list[list[TaggedTx]] = [[] for _ in range(m)]
    for tagged in batch:
        routed[tagged.home_shard].append(tagged)
    return routed


# -- IDA-style dissemination ---------------------------------------------------
def per_chunk_unicast(sender, recipients, tag, payload, total_bytes, chunks) -> None:
    """``chunks`` indexed fragments per recipient, one unicast each."""
    chunk_bytes = max(1, total_bytes // max(1, chunks))
    for recipient in recipients:
        if recipient == sender.node_id:
            continue
        for index in range(chunks):
            sender.send(recipient, tag, (index, payload), size=chunk_bytes)


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
            if shard_of_address(output[0], state.m) == state.shard:
                state.utxos.add((tx.txid, index), output)
                created += 1
    return spent, created


def per_shard_add_genesis(state: ShardState, tx: Transaction) -> None:
    """The pre-optimization ``ShardState.add_genesis``."""
    for index, output in enumerate(tx.outputs):
        if shard_of_address(output[0], state.m) == state.shard:
            state.utxos.add((tx.txid, index), output)


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
                amount > 0 for _address, amount in tx.outputs
            )
            votes[index] = YES if well_formed else NO
        return votes


# -- the ledger records as dataclasses -------------------------------------------
# ``TxInput`` / ``TxOutput`` / ``Transaction`` as they were (the last one
# renamed), with the written-out ``__init__``s a ``pstats``-keyed profile
# needed: every generated one has the code identity ``('<string>', 2,
# '__init__')``.
@dataclass(frozen=True, slots=True)
class TxInput:
    """Reference to an unspent output: ``(txid, index)``."""

    txid: bytes
    index: int

    def __init__(self, txid: bytes, index: int) -> None:
        object.__setattr__(self, "txid", txid)
        object.__setattr__(self, "index", index)


@dataclass(frozen=True, slots=True)
class TxOutput:
    """A spendable coin: owner address and amount."""

    address: str
    amount: int

    def __init__(self, address: str, amount: int) -> None:
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "amount", amount)


@dataclass(frozen=True)
class DataclassTransaction:
    """An immutable transaction over :class:`TxInput` / :class:`TxOutput`."""

    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    nonce: int = 0

    def __init__(self, inputs: tuple, outputs: tuple, nonce: int = 0) -> None:
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "nonce", nonce)

    @cached_property
    def txid(self) -> bytes:
        ins = []
        for i in self.inputs:
            txid, index = i.txid, i.index
            if type(txid) is not bytes or type(index) is not int:
                return self._generic_txid()
            digits = b"%d" % index
            pair = b"b%d:%b\x1fi%d:%b" % (len(txid), txid, len(digits), digits)
            ins.append(b"t%d:%b" % (len(pair), pair))
        outs = []
        for o in self.outputs:
            address, amount = o.address, o.amount
            if type(address) is not str or type(amount) is not int:
                return self._generic_txid()
            name, digits = address.encode("utf-8"), b"%d" % amount
            pair = b"s%d:%b\x1fi%d:%b" % (len(name), name, len(digits), digits)
            outs.append(b"t%d:%b" % (len(pair), pair))
        if type(self.nonce) is not int:
            return self._generic_txid()
        ins_b, outs_b = b"\x1f".join(ins), b"\x1f".join(outs)
        nonce = b"%d" % self.nonce
        return sha256(
            b"s2:TXt%d:%bt%d:%bi%d:%b"
            % (len(ins_b), ins_b, len(outs_b), outs_b, len(nonce), nonce)
        ).digest()

    def _generic_txid(self) -> bytes:
        return H(
            "TX",
            tuple((i.txid, i.index) for i in self.inputs),
            tuple((o.address, o.amount) for o in self.outputs),
            self.nonce,
        )

    @cached_property
    def wire_size(self) -> int:
        return fields_size(self)

    def output_total(self) -> int:
        return sum(o.amount for o in self.outputs)

    def outpoints(self) -> tuple[tuple[bytes, int], ...]:
        return tuple((i.txid, i.index) for i in self.inputs)


def record_validate_transaction(
    tx: DataclassTransaction, utxos: UTXOSet
) -> ValidationResult:
    """V over the dataclass records, read by attribute."""
    if not tx.outputs:
        return ValidationResult.EMPTY
    if any(o.amount <= 0 for o in tx.outputs):
        return ValidationResult.NONPOSITIVE_OUTPUT
    outpoints = tx.outpoints()
    if len(set(outpoints)) != len(outpoints):
        return ValidationResult.DUPLICATE_INPUT
    total_in = 0
    for outpoint in outpoints:
        output = utxos.get(outpoint)
        if output is None:
            return ValidationResult.MISSING_INPUT
        total_in += output.amount
    if total_in < tx.output_total():
        return ValidationResult.OVERSPEND
    return ValidationResult.VALID


def record_apply_block(
    states: list[ShardState], txs, shard_of: ShardMap
) -> tuple[int, int]:
    """``apply_block`` over the dataclass records."""
    sets = [state.utxos for state in states]
    spent = created = 0
    for tx in txs:
        for outpoint in tx.outpoints():
            for utxos in sets:
                if outpoint in utxos:
                    utxos.spend(outpoint)
                    spent += 1
        txid = tx.txid
        for index, output in enumerate(tx.outputs):
            sets[shard_of[output.address]].add((txid, index), output)
            created += 1
    return spent, created


def record_digest_items(state: ShardState) -> tuple:
    """The UTXO listing over dataclass outputs, as the sorted tuple."""
    return tuple(
        sorted(
            (txid.hex(), index, out.address, out.amount)
            for (txid, index), out in (
                (op, state.utxos.get(op)) for op in state.utxos
            )
        )
    )
