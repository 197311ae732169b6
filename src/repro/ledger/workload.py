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
so tests and benchmarks can score committee decisions exactly.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.ledger.transaction import (
    ShardMap,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
    shard_of_address,
)
from repro.ledger.utxo import UTXOSet


@dataclass(frozen=True)
class TaggedTx:
    """A generated transaction plus generator-side ground truth."""

    tx: Transaction
    home_shard: int  # shard owning all inputs
    cross_shard: bool  # any output in a different shard
    intended_valid: bool
    defect: str | None = None  # 'double_spend' | 'overspend' | 'phantom_input'

    # Spelled out like ``TxInput``'s (see ``repro.ledger.transaction``): one
    # is built per generated transaction.
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
        self.rng = rng
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
                TxOutput(address, endowment)
                for bucket in self.addresses_by_shard
                for address in bucket
            ]
        )
        # Generator-side view of what is spendable, per shard.
        self._spendable: list[list[tuple[tuple[bytes, int], str, int]]] = [
            [] for _ in range(m)
        ]
        for index, output in enumerate(self.genesis_tx.outputs):
            shard = self.shard_of[output.address]
            self._spendable[shard].append(
                ((self.genesis_tx.txid, index), output.address, output.amount)
            )
        # Confirmed spends only: what the double-spend injector draws from.
        self._spent: list[tuple[tuple[bytes, int], str, int]] = []
        # txid -> (home, consumed entry, [(shard, created entry), ...]) for
        # every generated-but-unsettled transaction.  Nothing here is
        # published: the created outputs enter the spendable pool and the
        # consumed input enters ``_spent`` only when the transaction packs
        # (forget_txids), so an intended-valid draw never chain-spends an
        # off-chain output, a double spend never names an input that is
        # still live on chain, and undoing a transaction (rollback_txids)
        # only has to hand its input back.
        self._effects: dict[
            bytes,
            tuple[int, tuple, list[tuple[int, tuple]]],
        ] = {}

    # -- helpers ----------------------------------------------------------
    def genesis_utxos(self) -> UTXOSet:
        utxos = UTXOSet()
        for index, output in enumerate(self.genesis_tx.outputs):
            utxos.add((self.genesis_tx.txid, index), output)
        return utxos

    def _next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce

    def _pick_payee(self, home: int, cross: bool) -> str:
        if cross and self.m > 1:
            other = int(self.rng.integers(0, self.m - 1))
            if other >= home:
                other += 1
            shard = other
        else:
            shard = home
        bucket = self.addresses_by_shard[shard]
        return bucket[int(self.rng.integers(0, len(bucket)))]

    def _build_valid(self, home: int, cross: bool) -> TaggedTx | None:
        if not self._spendable[home]:
            return None
        idx = int(self.rng.integers(0, len(self._spendable[home])))
        outpoint, owner, amount = self._spendable[home].pop(idx)
        payee = self._pick_payee(home, cross)
        spend = max(1, int(self.rng.integers(1, max(2, amount - self.fee))))
        change = amount - spend - self.fee
        outputs = [TxOutput(payee, spend)]
        if change > 0:
            outputs.append(TxOutput(owner, change))
        tx = Transaction(
            inputs=(TxInput(*outpoint),),
            outputs=tuple(outputs),
            nonce=self._next_nonce(),
        )
        created: list[tuple[int, tuple]] = []
        if change > 0:
            created.append((home, ((tx.txid, 1), owner, change)))
        out_shard = self.shard_of[payee]
        created.append((out_shard, ((tx.txid, 0), payee, spend)))
        self._effects[tx.txid] = (
            home,
            (outpoint, owner, amount),
            created,
        )
        return TaggedTx(
            tx=tx,
            home_shard=home,
            cross_shard=out_shard != home,
            intended_valid=True,
        )

    _DEFECTS = ("double_spend", "overspend", "phantom_input")

    def _build_invalid(self, home: int, cross: bool) -> TaggedTx:
        # Indexing the tuple with one bounded-integer draw is
        # stream-identical to ``rng.choice(list)`` — Generator.choice is
        # itself ``integers(0, len)`` under the hood, but wrapped in an
        # ndarray conversion of the whole option list that dominated this
        # function's profile (asserted identical in tests).
        defect = self._DEFECTS[int(self.rng.integers(0, 3))]
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
            # Spend a real UTXO but emit more value than it holds.  The
            # outpoint is NOT consumed from the spendable pool: V rejects the
            # transaction, so the coin remains live.
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
        for _ in range(count):
            home = int(self.rng.integers(0, self.m))
            cross = bool(self.rng.random() < cross_shard_ratio)
            invalid = bool(self.rng.random() < invalid_ratio)
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
            effects = self._effects.pop(txid, None)
            if effects is not None:
                home, consumed, _created = effects
                self._spendable[home].append(consumed)
                undone += 1
        return undone

    def forget_txids(self, txids: Iterable[bytes]) -> None:
        """Settle the listed transactions as packed: their spends and
        outputs are now real.  Each one's created outputs enter the
        spendable pool and its input the confirmed-spent history, in
        ``txids`` order — that order feeds later index draws, so callers
        pass a sequence, never a set.
        """
        for txid in txids:
            effects = self._effects.pop(txid, None)
            if effects is not None:
                _home, consumed, created = effects
                for shard, entry in created:
                    self._spendable[shard].append(entry)
                self._spent.append(consumed)
        self._trim_spent()

    def _trim_spent(self) -> None:
        bound = self.spent_retention
        if bound and len(self._spent) > bound:
            del self._spent[: len(self._spent) - bound]

    def by_home_shard(self, batch: Sequence[TaggedTx]) -> list[list[TaggedTx]]:
        """Route a batch to committees by input ownership (Fig. 2 step 2)."""
        routed: list[list[TaggedTx]] = [[] for _ in range(self.m)]
        for tagged in batch:
            routed[tagged.home_shard].append(tagged)
        return routed


# -- the persistent mempool ---------------------------------------------------
#: Arrival-process names accepted by :class:`TxMempool` (and by
#: ``ProtocolParams.arrival_process``).
ARRIVAL_LEGACY = "legacy"
ARRIVAL_POISSON = "poisson"
ARRIVAL_PROCESSES = (ARRIVAL_LEGACY, ARRIVAL_POISSON)


@dataclass
class QueuedTx:
    """One mempool entry: a generated transaction plus queue metadata."""

    tagged: TaggedTx
    arrived_at: float  # continuous sim time (Network.global_now)
    arrived_round: int

    def age(self, now: float) -> float:
        """Sim-time this transaction has waited in the queue."""
        return now - self.arrived_at

    def age_rounds(self, round_number: int) -> int:
        """Full rounds this transaction has waited without being packed."""
        return round_number - self.arrived_round


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
            self._arrivals = lambda: int(generator.rng.poisson(self.rate))
            self.carry_over = sys.maxsize
        self.queue: list[QueuedTx] = []
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
        self.queue.extend(
            QueuedTx(tagged=t, arrived_at=now, arrived_round=round_number)
            for t in batch
        )
        self.total_admitted += len(batch)
        self._last_arrivals = len(batch)
        return len(batch)

    def offered(self) -> list[list[TaggedTx]]:
        """The round's per-shard mempools, oldest-arrival first.

        FIFO order is the packing fairness rule: a leader's budget always
        goes to the longest-waiting transactions of its shard.
        """
        routed: list[list[TaggedTx]] = [[] for _ in range(self.generator.m)]
        for entry in self.queue:
            routed[entry.tagged.home_shard].append(entry.tagged)
        return routed

    def settle(
        self, packed_txids: set[bytes], round_number: int, now: float
    ) -> MempoolStats:
        """Reconcile the queue with what the round's block packed."""
        # Forget in queue (FIFO) order, never in set-iteration order:
        # forgetting publishes created outputs into the spendable pool, and
        # that order feeds later index draws — a hash-ordered set here
        # would make blocks PYTHONHASHSEED-dependent.
        packed: list[bytes] = []
        unpacked: list[QueuedTx] = []
        for entry in self.queue:
            txid = entry.tagged.tx.txid
            if txid in packed_txids:
                packed.append(txid)
            else:
                unpacked.append(entry)
        self.generator.forget_txids(packed)
        survivors = unpacked[: self.carry_over]
        withdrawn = unpacked[self.carry_over :]  # by their submitters
        evicted: list[QueuedTx] = []
        if self.max_age_rounds > 0:
            expired = [
                e
                for e in survivors
                if e.age_rounds(round_number) >= self.max_age_rounds
            ]
            if expired:
                evicted.extend(expired)
                survivors = [
                    e
                    for e in survivors
                    if e.age_rounds(round_number) < self.max_age_rounds
                ]
        if self.capacity > 0 and len(survivors) > self.capacity:
            overflow = len(survivors) - self.capacity
            evicted.extend(survivors[:overflow])
            survivors = survivors[overflow:]
        self.generator.rollback_txids(
            e.tagged.tx.txid for e in withdrawn + evicted
        )
        self.total_evicted += len(evicted)
        self.queue = survivors
        ages = [e.age(now) for e in survivors]
        return MempoolStats(
            arrivals=self._last_arrivals,
            evicted=len(evicted),
            depth=len(survivors),
            age_mean=sum(ages) / len(ages) if ages else 0.0,
            age_max=max(ages, default=0.0),
        )
