"""Synthetic transaction workload generator and the mempool that feeds rounds.

The paper assumes "a large set of transactions are continuously sent to our
network by external users" (§III-D).  This generator plays those users:

* a population of addresses pre-bucketed by shard;
* a genesis coinbase endowing every address;
* batches with a configurable cross-shard ratio (output shard differs from
  the input's home shard) and an invalid ratio (double spends, overspends,
  phantom inputs) to exercise V and the No votes;
* its own spend tracking so *intended-valid* transactions never collide,
  while injected double spends are deliberate.  A generated transaction
  takes its input out of the spendable pool at once and publishes nothing
  until it is settled: packed (``forget_txids`` — its outputs become
  spendable, its input a double-spend target) or not (``rollback_txids`` —
  its input is spendable again).

Every generated transaction is wrapped in :class:`TaggedTx`, carrying ground
truth (home shard, output shards, intended validity and the injected defect)
so tests and benchmarks can score committee decisions exactly.  Admission
keeps two tracked records per transaction, the ``Transaction`` and its
``TaggedTx``: the mempool queues the ``TaggedTx`` itself beside one arrival
stamp shared by its whole batch, and the generator's pending effect is the
spendable entry the transaction consumed (see docs/perf.md, "What the
generator leaves for the collector").

:class:`TxMempool` is the one feed between the generator and the round
loop: admit, offer FIFO per shard, settle.  ``arrival_process`` names its
arrival rule.  ``legacy`` admits a fixed batch a round (no RNG draw of its
own) and carries nothing over, so the remainder a block leaves is withdrawn
at settlement.  ``poisson`` admits a rate-process draw a round on the
continuous simulation clock and carries every unpacked transaction over in
FIFO order, ageing, until it packs or TTL / capacity backpressure evicts it
— the sustained-load model the round-overlap engine measures latency
against.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.ledger.draws import DrawStream
from repro.ledger.transaction import (
    ShardMap,
    Transaction,
    make_coinbase,
    shard_of_address,
)


@dataclass(frozen=True)
class TaggedTx:
    """A generated transaction plus generator-side ground truth."""

    tx: Transaction
    home_shard: int  # shard owning all inputs
    cross_shard: bool  # any output in a different shard
    intended_valid: bool
    defect: str | None = None  # 'double_spend' | 'overspend' | 'phantom_input'

    # Spelled out like ``Transaction``'s (see ``repro.ledger.transaction``):
    # one is built per generated transaction.  Attribute writes, not one
    # ``__dict__`` update: touching ``__dict__`` materialises a dict per
    # instance, a second object for the collector to track.
    def __init__(
        self,
        tx: Transaction,
        home_shard: int,
        cross_shard: bool,
        intended_valid: bool,
        defect: str | None = None,
    ) -> None:
        object.__setattr__(self, "tx", tx)
        object.__setattr__(self, "home_shard", home_shard)
        object.__setattr__(self, "cross_shard", cross_shard)
        object.__setattr__(self, "intended_valid", intended_valid)
        object.__setattr__(self, "defect", defect)


class WorkloadGenerator:
    """Deterministic transaction stream for ``m`` shards."""

    def __init__(
        self,
        m: int,
        users_per_shard: int,
        rng: np.random.Generator,
        endowment: int = 1_000,
        fee: int = 1,
        spent_retention: int = 0,
    ) -> None:
        if m <= 0 or users_per_shard <= 0:
            raise ValueError("m and users_per_shard must be positive")
        if spent_retention < 0:
            raise ValueError("spent_retention must be >= 0")
        self.m = m
        # Every draw goes through the stream (its ``state`` is the
        # logical position; there is no ``rng`` to read ahead of it).
        self.draws = DrawStream(rng)
        self.fee = fee
        self.endowment = endowment
        # Bound on the confirmed-spent history the double-spend injector
        # draws from (0 = unbounded).  Trimming changes which historical
        # outputs get re-spent, so bounded runs are NOT byte-comparable to
        # unbounded ones — the bound is opt-in for long soaks only.
        self.spent_retention = spent_retention
        self._nonce = 0
        # Bucket addresses by their hash-derived shard until each bucket is
        # full; the address space is dense enough that this terminates fast.
        # A single countdown of remaining open slots replaces the previous
        # any()-scan over all buckets per candidate address, which made
        # generator construction O(addresses x m).
        self.addresses_by_shard: list[list[str]] = [[] for _ in range(m)]
        # The ledger's address -> shard map, seeded with the roster.
        self.shard_of = ShardMap(m)
        open_slots = m * users_per_shard
        serial = 0
        while open_slots:
            address = f"user-{serial:08d}"
            serial += 1
            shard = shard_of_address(address, m)
            bucket = self.addresses_by_shard[shard]
            if len(bucket) < users_per_shard:
                bucket.append(address)
                self.shard_of[address] = shard
                open_slots -= 1
        self.genesis_tx = make_coinbase(
            [
                (address, endowment)
                for bucket in self.addresses_by_shard
                for address in bucket
            ]
        )
        # Generator-side view of what is spendable, per shard.  Every entry
        # of ``_spendable[s]`` is owned by an address of shard ``s`` (the
        # genesis, change and payee entries all follow their owner), so an
        # entry's shard is ``shard_of[owner]``.
        self._spendable: list[list[tuple[tuple[bytes, int], str, int]]] = [
            [] for _ in range(m)
        ]
        for index, (address, amount) in enumerate(self.genesis_tx.outputs):
            self._spendable[self.shard_of[address]].append(
                ((self.genesis_tx.txid, index), address, amount)
            )
        # Confirmed spends only: what the double-spend injector draws from.
        self._spent: list[tuple[tuple[bytes, int], str, int]] = []
        # txid -> consumed entry for every generated-but-unsettled
        # transaction: the very tuple popped from the spendable pool, whose
        # owner names the shard it goes back to.  Nothing here is published:
        # the outputs' entries are built and enter the spendable pool, and
        # the consumed input enters ``_spent``, only when the transaction
        # packs (forget_txids, handed the packed transactions), so an
        # intended-valid draw never chain-spends an off-chain output, a
        # double spend never names an input that is still live on chain,
        # and undoing a transaction (rollback_txids) only has to hand its
        # input back.
        self._effects: dict[bytes, tuple[tuple[bytes, int], str, int]] = {}

    # -- helpers ----------------------------------------------------------
    def _next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce

    def _pick_payee(self, home: int, cross: bool) -> str:
        if cross and self.m > 1:
            other = self.draws.integers(0, self.m - 1)
            if other >= home:
                other += 1
            shard = other
        else:
            shard = home
        bucket = self.addresses_by_shard[shard]
        return bucket[self.draws.integers(0, len(bucket))]

    def _build_valid(self, home: int, cross: bool) -> TaggedTx | None:
        spendable = self._spendable[home]
        if not spendable:
            return None
        draws = self.draws
        # The popped entry itself is what settlement hands back or records
        # as spent: nothing else of the input is built here.
        consumed = spendable.pop(draws.integers(0, len(spendable)))
        outpoint, owner, amount = consumed
        payee = self._pick_payee(home, cross)
        spend = max(1, draws.integers(1, max(2, amount - self.fee)))
        change = amount - spend - self.fee
        pay = (payee, spend)
        outputs = (pay, (owner, change)) if change > 0 else (pay,)
        tx = Transaction(inputs=(outpoint,), outputs=outputs, nonce=self._next_nonce())
        self._effects[tx.txid] = consumed
        return TaggedTx(tx, home, self.shard_of[payee] != home, True)

    _DEFECTS = ("double_spend", "overspend", "phantom_input")

    def _build_invalid(self, home: int, cross: bool) -> TaggedTx:
        # Indexing the tuple with one bounded-integer draw is
        # stream-identical to ``rng.choice(list)`` — Generator.choice is
        # itself ``integers(0, len)`` under the hood, but wrapped in an
        # ndarray conversion of the whole option list that dominated this
        # function's profile (asserted identical in tests).
        draws = self.draws
        defect = self._DEFECTS[draws.integers(0, 3)]
        payee = self._pick_payee(home, cross)
        if defect == "double_spend" and self._spent:
            outpoint, owner, amount = self._spent[
                draws.integers(0, len(self._spent))
            ]
            tx = Transaction(
                inputs=(outpoint,),
                outputs=((payee, max(1, amount - self.fee)),),
                nonce=self._next_nonce(),
            )
        elif defect == "overspend" and self._spendable[home]:
            # Spend a real UTXO but emit more value than it holds.  The
            # outpoint is NOT consumed from the spendable pool: V rejects the
            # transaction, so the coin remains live.
            outpoint, owner, amount = self._spendable[home][
                draws.integers(0, len(self._spendable[home]))
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
        out_shard = self.shard_of[payee]
        return TaggedTx(
            tx=tx,
            home_shard=home,
            cross_shard=out_shard != home,
            intended_valid=False,
            defect=defect,
        )

    # -- public API ------------------------------------------------------------
    def generate_batch(
        self,
        count: int,
        cross_shard_ratio: float = 0.0,
        invalid_ratio: float = 0.0,
    ) -> list[TaggedTx]:
        """Generate ``count`` transactions (fewer only if shards run dry)."""
        if not (0.0 <= cross_shard_ratio <= 1.0):
            raise ValueError("cross_shard_ratio must be in [0, 1]")
        if not (0.0 <= invalid_ratio <= 1.0):
            raise ValueError("invalid_ratio must be in [0, 1]")
        batch: list[TaggedTx] = []
        draws = self.draws
        for _ in range(count):
            home = draws.integers(0, self.m)
            cross = draws.random() < cross_shard_ratio
            invalid = draws.random() < invalid_ratio
            tagged = (
                self._build_invalid(home, cross)
                if invalid
                else self._build_valid(home, cross)
            )
            if tagged is not None:
                batch.append(tagged)
        return batch

    def rollback_txids(self, txids: Iterable[bytes]) -> int:
        """Undo the listed transactions (withdrawn by their submitters,
        evicted from the mempool, expired): they never happened on-chain,
        so each consumed input returns to the spendable pool, in ``txids``
        order.  Returns how many had pending effects (injected-invalid
        transactions never do; an unknown or repeated txid is ignored).
        """
        undone = 0
        for txid in txids:
            consumed = self._effects.pop(txid, None)
            if consumed is not None:
                self._spendable[self.shard_of[consumed[1]]].append(consumed)
                undone += 1
        return undone

    def forget_txids(self, txs: Iterable[Transaction]) -> None:
        """Settle the listed transactions as packed: their spends and
        outputs are now real.  Each one's created outputs enter the
        spendable pool and its input the confirmed-spent history, in
        ``txs`` order — that order feeds later index draws, so callers
        pass a sequence, never a set.
        """
        effects_of = self._effects.pop
        spendable = self._spendable
        shard_of = self.shard_of
        spent = self._spent
        for tx in txs:
            txid = tx.txid
            consumed = effects_of(txid, None)
            if consumed is not None:
                # Output 0 pays the payee, output 1 (if any) is the change
                # back to the owner: the change entry is published first.
                outputs = tx.outputs
                if len(outputs) > 1:
                    owner, change = outputs[1]
                    spendable[shard_of[owner]].append(((txid, 1), owner, change))
                payee, spend = outputs[0]
                spendable[shard_of[payee]].append(((txid, 0), payee, spend))
                spent.append(consumed)
        self._trim_spent()

    def _trim_spent(self) -> None:
        bound = self.spent_retention
        if bound and len(self._spent) > bound:
            del self._spent[: len(self._spent) - bound]


# -- the persistent mempool ---------------------------------------------------
#: Arrival-process names accepted by :class:`TxMempool` (and by
#: ``ProtocolParams.arrival_process``).
ARRIVAL_LEGACY = "legacy"
ARRIVAL_POISSON = "poisson"
ARRIVAL_PROCESSES = (ARRIVAL_LEGACY, ARRIVAL_POISSON)


@dataclass(frozen=True)
class MempoolStats:
    """Queue health at one round's settlement (RoundReport material)."""

    arrivals: int  # transactions admitted this round
    evicted: int  # TTL/capacity evictions this round
    depth: int  # transactions still queued after settlement
    age_mean: float  # mean queue age of survivors, in sim time
    age_max: float  # oldest survivor's queue age, in sim time


class TxMempool:
    """The transaction queue between the generator and the rounds: one
    feed, two arrival rules.

    Every round admits its arrivals, offers the queue FIFO per shard and, at
    settlement, confirms in the generator what the block packed
    (``forget_txids``) and undoes whatever leaves the queue unpacked
    (``rollback_txids``).  The arrival rule only sets how many arrive and
    how many unpacked transactions are carried into the next round:

    ``legacy`` — a fixed ``batch`` arrives every round (no RNG draw of its
    own; the poisson rule ignores ``batch``) and nothing is carried over:
    the submitters withdraw whatever the block left out.  A withdrawal is
    not an eviction, and the queue is empty between rounds.

    ``poisson`` — ``Generator.poisson(rate)`` transactions arrive, stamped
    with their arrival time on the continuous clock, and every unpacked one
    is carried over in FIFO order to be offered again; a transaction leaves
    the queue only by being packed, by exceeding ``max_age_rounds``, or by
    capacity backpressure (the oldest entries beyond ``capacity`` are
    evicted first — they have had the most chances).

    ``queue`` holds the ``TaggedTx``s themselves and ``stamps`` runs
    parallel to it: entry ``i`` arrived at ``stamps[i]`` =
    ``(arrived_at, arrived_round)``, one tuple shared by a whole admitted
    batch, so an entry costs a list slot and no object.  Arrival rounds
    never decrease along the queue, so the expired entries are its front.
    """

    def __init__(
        self,
        generator: WorkloadGenerator,
        process: str = ARRIVAL_LEGACY,
        rate: float = 0.0,
        capacity: int = 0,
        max_age_rounds: int = 0,
        batch: int = 0,
    ) -> None:
        if process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {process!r} "
                f"(known: {', '.join(ARRIVAL_PROCESSES)})"
            )
        if process == ARRIVAL_POISSON and rate <= 0.0:
            raise ValueError("poisson arrivals need a positive rate")
        if capacity < 0 or max_age_rounds < 0 or batch < 0:
            raise ValueError("capacity, max_age_rounds and batch must be >= 0")
        if process == ARRIVAL_LEGACY and (rate or capacity or max_age_rounds):
            # Nothing is carried over, so these knobs would be silent
            # no-ops (mirrors ProtocolParams).
            raise ValueError(
                "rate/capacity/max_age_rounds require the poisson arrival "
                "process (legacy mode clears the queue every round)"
            )
        self.generator = generator
        self.process = process
        self.rate = rate
        self.capacity = capacity
        self.max_age_rounds = max_age_rounds
        if process == ARRIVAL_LEGACY:
            self._arrivals: Callable[[], int] = lambda: batch
            self.carry_over = 0
        else:
            self._arrivals = lambda: generator.draws.poisson(self.rate)
            self.carry_over = sys.maxsize
        self.queue: list[TaggedTx] = []
        self.stamps: list[tuple[float, int]] = []
        self.total_admitted = 0
        self.total_evicted = 0
        self._last_arrivals = 0

    @property
    def depth(self) -> int:
        """Transactions currently queued."""
        return len(self.queue)

    @property
    def persistent(self) -> bool:
        """Whether unpacked transactions survive between rounds."""
        return self.carry_over > 0

    # -- round interface ---------------------------------------------------
    def admit(
        self,
        round_number: int,
        now: float,
        cross_shard_ratio: float,
        invalid_ratio: float,
    ) -> int:
        """Admit this round's arrivals; returns how many arrived."""
        batch = self.generator.generate_batch(
            self._arrivals(),
            cross_shard_ratio=cross_shard_ratio,
            invalid_ratio=invalid_ratio,
        )
        self.queue += batch
        self.stamps += [(now, round_number)] * len(batch)
        self.total_admitted += len(batch)
        self._last_arrivals = len(batch)
        return len(batch)

    def offered(self) -> list[list[TaggedTx]]:
        """The round's per-shard mempools, oldest-arrival first.

        FIFO order is the packing fairness rule: a leader's budget always
        goes to the longest-waiting transactions of its shard.
        """
        routed: list[list[TaggedTx]] = [[] for _ in range(self.generator.m)]
        for tagged in self.queue:
            routed[tagged.home_shard].append(tagged)
        return routed

    def settle(
        self, packed_txids: set[bytes], round_number: int, now: float
    ) -> MempoolStats:
        """Reconcile the queue with what the round's block packed."""
        # Forget in queue (FIFO) order, never in set-iteration order:
        # forgetting publishes created outputs into the spendable pool, and
        # that order feeds later index draws — a hash-ordered set here
        # would make blocks PYTHONHASHSEED-dependent.
        packed: list[Transaction] = []
        survivors: list[TaggedTx] = []
        stamps: list[tuple[float, int]] = []
        for tagged, stamp in zip(self.queue, self.stamps):
            tx = tagged.tx
            if tx.txid in packed_txids:
                packed.append(tx)
            else:
                survivors.append(tagged)
                stamps.append(stamp)
        self.generator.forget_txids(packed)
        leaving = survivors[self.carry_over :]  # withdrawn by their submitters
        del survivors[self.carry_over :], stamps[self.carry_over :]
        # Evicted: the front that reached the TTL, then as many more of the
        # oldest as the capacity bound needs.
        evicted = 0
        if self.max_age_rounds > 0:
            expired_by = round_number - self.max_age_rounds
            while evicted < len(stamps) and stamps[evicted][1] <= expired_by:
                evicted += 1
        if self.capacity > 0:
            evicted = max(evicted, len(survivors) - self.capacity)
        if evicted:
            leaving += survivors[:evicted]
            del survivors[:evicted], stamps[:evicted]
        self.generator.rollback_txids(t.tx.txid for t in leaving)
        self.total_evicted += evicted
        self.queue = survivors
        self.stamps = stamps
        ages = [now - arrived_at for arrived_at, _round in stamps]
        return MempoolStats(
            arrivals=self._last_arrivals,
            evicted=evicted,
            depth=len(survivors),
            age_mean=sum(ages) / len(ages) if ages else 0.0,
            age_max=max(ages, default=0.0),
        )
