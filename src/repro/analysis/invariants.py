"""Machine-checked consensus invariants (TLA+-style conformance layer).

The paper argues safety and liveness in prose (Theorems 1–3, Claims 1–5);
this module turns the arguments into executable checks evaluated on every
round boundary, in the spirit of consensus implementations written against
an explicit TLA+/PlusCal spec.  An :class:`InvariantChecker` installs a
round post-hook on any executable backend's pipeline and asserts, after
every :class:`~repro.core.protocol.RoundReport`:

Safety
    * ``chain-linkage`` — committed blocks form one hash-linked chain with
      strictly increasing round numbers: at most one commit per round, so
      no two conflicting blocks for the same (round, shard) slot.
    * ``no-double-spend`` — no outpoint is spent twice, within a block or
      across the whole committed history.
    * ``utxo-conservation`` — committed transactions never create value:
      the UTXO set's total value is non-increasing (fees are destroyed and
      redistributed off-ledger by the reward mechanism).
    * ``reputation-monotone-honest`` — in clean rounds (no corrupted,
      offline or policy/scenario-disturbed nodes) no node's reputation
      decreases: honest participation can only be rewarded (§IV-E).
    * ``mempool-conservation`` — with the persistent mempool, every
      admitted transaction is accounted for exactly once:
      ``admitted == packed + queued + evicted``.

Liveness
    * ``recovery-terminates`` — every leader re-selection (Alg. 6)
      completes within the round that started it, with a finite sim-time.
    * ``honest-majority-commit`` — a clean round with work available
      commits a non-empty block (the paper's "rounds with honest majority
      make progress").

Checks read only the public run surface (chain, UTXO set, reputation,
mempool counters, round reports), so one checker works across CycLedger
and the rival backends unchanged.  The invariant registry
(:data:`INVARIANTS`) carries each invariant's prose statement; the docs
catalogue (``docs/scenarios.md``) and the parametrised conformance tests
are generated against it, so adding a checker without prose (or prose
without a checker) fails a test.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.pipeline import POST

#: Tolerance for float comparisons on reputation/sim-time values: IEEE
#: accumulation order may differ between a fresh sum and incremental
#: updates, never by more than a few ulps at these magnitudes.
_EPS = 1e-9


@dataclass(frozen=True)
class Invariant:
    """Registry entry: one named invariant and its prose statement."""

    name: str
    kind: str  # "safety" | "liveness"
    description: str


#: Every machine-checked invariant, keyed by name.  The prose here is the
#: normative statement; checker methods implement it.
INVARIANTS: dict[str, Invariant] = {
    inv.name: inv
    for inv in (
        Invariant(
            "chain-linkage",
            "safety",
            "Committed blocks form one hash-linked chain with strictly "
            "increasing round numbers — at most one commit per round, so "
            "there are no conflicting blocks for any (round, shard) slot.",
        ),
        Invariant(
            "no-double-spend",
            "safety",
            "No outpoint is spent by two committed transactions, whether "
            "they share a block or sit anywhere in the committed history.",
        ),
        Invariant(
            "utxo-conservation",
            "safety",
            "Committed transactions never create value: the UTXO set's "
            "total value is non-increasing round over round (transaction "
            "fees are destroyed on-ledger and redistributed off-ledger).",
        ),
        Invariant(
            "reputation-monotone-honest",
            "safety",
            "In a clean round — no corrupted nodes, nobody offline, no "
            "scenario or policy active — no node's reputation decreases: "
            "honest participation is never punished.",
        ),
        Invariant(
            "mempool-conservation",
            "safety",
            "With the persistent mempool, every admitted transaction is "
            "accounted for exactly once: total admitted equals cumulative "
            "packed plus still-queued plus evicted.",
        ),
        Invariant(
            "recovery-terminates",
            "liveness",
            "Every leader re-selection (Alg. 6) that starts in a round "
            "finishes in that round at a finite sim-time no later than "
            "the round's end.",
        ),
        Invariant(
            "honest-majority-commit",
            "liveness",
            "A clean round with work available commits a non-empty "
            "block: honest-majority rounds make progress.",
        ),
    )
}


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation: which invariant, when, and what happened."""

    invariant: str
    round_number: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[r{self.round_number}] {self.invariant}: {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised by a checker in ``raise_on_violation`` mode.

    Subclasses :class:`AssertionError` so hypothesis shrinks stateful
    failures instead of treating them as test-harness errors.
    """

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = violations
        super().__init__(
            "; ".join(str(v) for v in violations) or "invariant violation"
        )


@dataclass
class _RoundSnapshot:
    """Carry-over state between round checks."""

    utxo_total: int = 0
    reputation: dict[str, float] = field(default_factory=dict)
    packed_cumulative: int = 0
    blocks_seen: int = 0
    last_round: int = 0
    queue_depth: int = 0
    # Hash of the newest block already checked: the expected prev_hash of
    # the next commit.  Carried explicitly (rather than re-read from the
    # blocks list) so linkage checking survives chain body pruning.
    last_hash: bytes = b"\x00" * 32


class InvariantChecker:
    """Evaluates the invariant set on every round of one ledger.

    Install on any executable backend before running::

        ledger = create_backend("cycledger", params)
        checker = InvariantChecker()
        checker.install(ledger)
        ledger.run(rounds=5)        # raises on the first violated round
        checker.assert_clean()

    With ``raise_on_violation=False`` violations accumulate in
    :attr:`violations` instead (useful to census a deliberately faulty
    run).

    ``spent_retention`` bounds the incremental spent-outpoint set to the
    last N rounds' spends (a *compacted frontier*), keeping double-spend
    detection O(window) in memory for epoch-scale soaks.  Double-spends of
    outpoints older than the window escape detection — acceptable because
    the workload's double-spend injector draws from a similarly bounded
    history (``ProtocolParams.spent_retention``); 0 keeps the full history.
    """

    def __init__(
        self, raise_on_violation: bool = True, spent_retention: int = 0
    ) -> None:
        self.raise_on_violation = raise_on_violation
        self.spent_retention = spent_retention
        self.violations: list[InvariantViolation] = []
        self.rounds_checked = 0
        self._ledger: Any = None
        self._snap = _RoundSnapshot()
        self._spent: set[tuple[bytes, int]] = set()
        # (round_number, outpoints spent that round) — the compaction
        # frontier when spent_retention > 0.
        self._spent_window: deque[tuple[int, set[tuple[bytes, int]]]] = deque()

    # -- wiring ------------------------------------------------------------
    def install(self, ledger: Any) -> None:
        """Subscribe to ``ledger``'s round post-hook and snapshot genesis
        state (a checker watches exactly one ledger)."""
        if self._ledger is not None:
            raise ValueError(
                "checker is already installed; build one checker per ledger"
            )
        self._ledger = ledger
        self._snap.utxo_total = ledger.global_utxos.total_value()
        self._snap.reputation = dict(ledger.reputation.items())
        ledger.pipeline.add_round_hook(POST, self._on_round_end)

    # -- helpers -----------------------------------------------------------
    def _clean_round(self, ledger: Any, round_number: int) -> bool:
        """Whether this round ran with no adversarial or injected
        disturbance — the precondition of the honest-behaviour invariants.

        Conservative by design: any round inside a scenario event's
        window (policies included) counts as disturbed even if the event
        did not fire, because
        a partition's message loss (for example) can depress commits and
        reputations without any corrupted node existing.
        """
        adversary = ledger.adversary
        if adversary.count or adversary.offline or adversary.forced_offline:
            return False
        scenario = ledger.scenario
        return scenario is None or round_number > scenario.last_event_round

    def _record(self, name: str, round_number: int, detail: str) -> None:
        self.violations.append(InvariantViolation(name, round_number, detail))

    # -- the hook ----------------------------------------------------------
    def _on_round_end(self, ledger: Any, report: Any) -> None:
        before = len(self.violations)
        round_number = report.round_number
        self._check_chain(ledger, round_number)
        self._check_utxo_conservation(ledger, round_number)
        self._check_reputation(ledger, round_number)
        self._check_mempool(ledger, report)
        self._check_recovery(report)
        self._check_commit(ledger, report)
        self._snap.queue_depth = report.queue_depth
        self.rounds_checked += 1
        if self.raise_on_violation and len(self.violations) > before:
            raise InvariantViolationError(self.violations[before:])

    # -- safety checks -----------------------------------------------------
    def _check_chain(self, ledger: Any, round_number: int) -> None:
        """chain-linkage + no-double-spend over this round's new blocks.

        ``blocks_seen`` counts every block ever checked; under chain body
        pruning the retained list is indexed with the pruned-prefix offset,
        and the expected predecessor hash is carried in the snapshot (so
        the boundary block of the retained suffix still links correctly).
        """
        chain = ledger.chain
        blocks = chain.blocks
        start = max(0, self._snap.blocks_seen - getattr(chain, "pruned_blocks", 0))
        round_spent: set[tuple[bytes, int]] = set()
        for block in blocks[start:]:
            if block.prev_hash != self._snap.last_hash:
                self._record(
                    "chain-linkage",
                    round_number,
                    f"block r={block.round_number} does not link to the "
                    f"previous head",
                )
            if block.round_number <= self._snap.last_round:
                self._record(
                    "chain-linkage",
                    round_number,
                    f"block round {block.round_number} not strictly after "
                    f"{self._snap.last_round} (conflicting commit for one "
                    f"round slot)",
                )
            self._snap.last_round = block.round_number
            self._snap.last_hash = block.hash
            self._snap.blocks_seen += 1
            in_block: set[tuple[bytes, int]] = set()
            for tx in block.transactions:
                for outpoint in tx.outpoints():
                    if outpoint in in_block or outpoint in self._spent:
                        self._record(
                            "no-double-spend",
                            round_number,
                            f"outpoint {outpoint[0].hex()[:8]}:{outpoint[1]} "
                            f"spent twice (block r={block.round_number})",
                        )
                    in_block.add(outpoint)
            self._spent |= in_block
            round_spent |= in_block
        if self.spent_retention:
            self._spent_window.append((round_number, round_spent))
            cutoff = round_number - self.spent_retention
            while self._spent_window and self._spent_window[0][0] <= cutoff:
                _, expired = self._spent_window.popleft()
                self._spent -= expired

    def _check_utxo_conservation(self, ledger: Any, round_number: int) -> None:
        total = ledger.global_utxos.total_value()
        if total > self._snap.utxo_total:
            self._record(
                "utxo-conservation",
                round_number,
                f"UTXO total value grew {self._snap.utxo_total} -> {total}",
            )
        self._snap.utxo_total = total

    def _check_reputation(self, ledger: Any, round_number: int) -> None:
        current = dict(ledger.reputation.items())
        if self._clean_round(ledger, round_number):
            for pk, previous in self._snap.reputation.items():
                now = current.get(pk, 0.0)
                if now < previous - _EPS:
                    self._record(
                        "reputation-monotone-honest",
                        round_number,
                        f"clean round decreased reputation of {pk[:12]}… "
                        f"{previous:.6f} -> {now:.6f}",
                    )
        self._snap.reputation = current

    def _check_mempool(self, ledger: Any, report: Any) -> None:
        self._snap.packed_cumulative += report.packed
        mempool = ledger.mempool
        if not mempool.persistent:
            # Legacy settlement clears the queue every round and reports
            # no evictions, so the identity is undefined there.
            return
        accounted = (
            self._snap.packed_cumulative + mempool.depth + mempool.total_evicted
        )
        if mempool.total_admitted != accounted:
            self._record(
                "mempool-conservation",
                report.round_number,
                f"admitted {mempool.total_admitted} != packed "
                f"{self._snap.packed_cumulative} + queued {mempool.depth} "
                f"+ evicted {mempool.total_evicted}",
            )

    # -- liveness checks ---------------------------------------------------
    def _check_recovery(self, report: Any) -> None:
        times = getattr(report, "recovery_times", ())
        if len(times) != report.recoveries:
            self._record(
                "recovery-terminates",
                report.round_number,
                f"{report.recoveries} recoveries but {len(times)} "
                f"completion times",
            )
        for when in times:
            if not math.isfinite(when) or when < 0.0:
                self._record(
                    "recovery-terminates",
                    report.round_number,
                    f"non-terminating recovery (sim time {when!r})",
                )
            elif when > report.sim_time + _EPS:
                self._record(
                    "recovery-terminates",
                    report.round_number,
                    f"recovery at t={when:.3f} after the round's end "
                    f"t={report.sim_time:.3f}",
                )

    def _check_commit(self, ledger: Any, report: Any) -> None:
        """honest-majority-commit.

        Guarded on a clean round with work available and a workload whose
        invalid fraction cannot plausibly consume every submitted
        transaction (at ``invalid_ratio <= 0.2`` a fully-invalid round has
        probability <= 0.2^submitted — negligible against the suite's
        example counts).
        """
        if not self._clean_round(ledger, report.round_number):
            return
        available = report.submitted + self._snap.queue_depth
        if available == 0 or ledger.params.invalid_ratio > 0.2:
            return
        if report.packed <= 0:
            self._record(
                "honest-majority-commit",
                report.round_number,
                f"clean round with {available} transactions available "
                f"committed nothing",
            )

    # -- final sweep -------------------------------------------------------
    def check_final(self, ledger: Any) -> list[InvariantViolation]:
        """End-of-run sweep: full chain verification (and the accumulated
        violations list, for censusing runs)."""
        if not ledger.chain.verify():
            violation = InvariantViolation(
                "chain-linkage",
                ledger.round_number,
                "Chain.verify() failed on the final chain",
            )
            self.violations.append(violation)
            if self.raise_on_violation:
                raise InvariantViolationError([violation])
        return self.violations

    def assert_clean(self) -> None:
        """Raise if any violation was recorded (census mode helper)."""
        if self.violations:
            raise InvariantViolationError(self.violations)
