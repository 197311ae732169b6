"""Protocol parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import OVERLAP_MODES
from repro.ledger.workload import ARRIVAL_PROCESSES
from repro.net.params import NetworkParams


@dataclass(frozen=True)
class ProtocolParams:
    """All knobs of a CycLedger deployment.

    Notation follows the paper: ``n`` nodes total, ``m`` committees of
    expected size ``c`` (here exact: ``c = (n - referee_size) / m``), partial
    sets of size ``lam`` (λ, "usually no less than 40" — defaults are
    test-scale), referee committee of ``referee_size``.
    """

    n: int = 64
    m: int = 4
    lam: int = 3
    referee_size: int = 8
    seed: int = 0

    # Workload
    users_per_shard: int = 32
    tx_per_committee: int = 12
    cross_shard_ratio: float = 0.2
    invalid_ratio: float = 0.05

    # The one timing rule that is a timer, in units of the network's Δ
    # (the 8Δ semi-commitment delay and Lemma 7's 2Γ rule are drain
    # barriers: see core/semicommit.py and core/inter.py):
    vote_window_deltas: float = 6.0  # "within a certain time, e.g. 6Δ" (§IV-C)

    # PoW admission (tiny by default so tests stay fast)
    pow_difficulty_bits: int = 4

    # Future-work extensions (§VIII), off by default
    prefilter_cross_shard: bool = False
    parallel_block_generation: bool = False

    # Continuous-time execution core (§III-E / §V pipelining):
    # ``overlap`` selects how the end-to-end timeline composes round
    # phases — "none" serializes rounds (the historical model), while
    # "semicommit" schedules round r+1's committee-configuration +
    # semi-commitment prefix concurrently (in sim time) with round r's
    # block-generation suffix.  Execution and final state are identical
    # in both modes; only the reported timeline differs.
    overlap: str = "none"
    # ``arrival_process`` is the arrival rule of the one mempool feed:
    # "legacy" admits a fixed 2·m·tx_per_committee a round (no RNG draw)
    # and carries nothing over — what the block left out is withdrawn;
    # "poisson" admits Generator.poisson(arrival_rate) a round and carries
    # every unpacked transaction over, FIFO, until packed or evicted by
    # TTL/capacity.
    arrival_process: str = "legacy"
    arrival_rate: float = 0.0  # mean arrivals per round (poisson mode)
    mempool_capacity: int = 0  # max queued txs, 0 = unbounded
    mempool_max_age: int = 0  # rounds a tx may wait, 0 = never expire

    # Epoch-scale memory bounds (ISSUE 10).  ``chain_retention`` keeps only
    # the last N block bodies in RAM (0 = keep everything); hash linkage
    # survives pruning via the chain's stored predecessor hash, so head /
    # verify / length semantics are unchanged.  ``spent_retention`` bounds
    # the workload generator's spent-output history to the last N entries
    # (0 = unbounded legacy history).  Bounding it changes which historical
    # outputs the double-spend injector picks, so it is opt-in and runs
    # using it are not byte-comparable to unbounded runs.  ``sample_rss``
    # stamps each round report with the process RSS (rss_peak_kb); it is
    # off by default because RSS is host-dependent and would break the
    # byte-identity gates on sweep artifacts.
    chain_retention: int = 0
    spent_retention: int = 0
    sample_rss: bool = False

    net: NetworkParams = field(default_factory=NetworkParams)

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0:
            raise ValueError("n and m must be positive")
        if self.overlap not in OVERLAP_MODES:
            raise ValueError(
                f"unknown overlap mode {self.overlap!r} "
                f"(known: {', '.join(OVERLAP_MODES)})"
            )
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival_process!r} "
                f"(known: {', '.join(ARRIVAL_PROCESSES)})"
            )
        if self.arrival_process == "poisson" and self.arrival_rate <= 0.0:
            raise ValueError("poisson arrivals need a positive arrival_rate")
        if self.mempool_capacity < 0 or self.mempool_max_age < 0:
            raise ValueError(
                "mempool_capacity and mempool_max_age must be >= 0"
            )
        if self.arrival_process == "legacy" and (
            self.mempool_capacity or self.mempool_max_age or self.arrival_rate
        ):
            # Legacy settlement clears the queue every round, so these
            # knobs would be silent no-ops — reject rather than mislead.
            raise ValueError(
                "arrival_rate/mempool_capacity/mempool_max_age require "
                "arrival_process='poisson' (legacy mode clears the queue "
                "every round)"
            )
        if self.referee_size < 3:
            raise ValueError("referee committee needs at least 3 members")
        if (self.n - self.referee_size) % self.m != 0:
            raise ValueError(
                "n - referee_size must be divisible by m so committees have "
                "a well-defined exact size"
            )
        if self.chain_retention < 0 or self.spent_retention < 0:
            raise ValueError(
                "chain_retention and spent_retention must be >= 0 "
                "(0 = unbounded)"
            )
        if self.committee_size < self.lam + 2:
            raise ValueError(
                f"committee size {self.committee_size} cannot host a leader, "
                f"{self.lam} partial members and at least one common member"
            )

    @property
    def committee_size(self) -> int:
        """c: exact committee size (paper: expectation O(log² n))."""
        return (self.n - self.referee_size) // self.m

    @property
    def vote_window(self) -> float:
        return self.vote_window_deltas * self.net.delta
