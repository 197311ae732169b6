"""The six workloads: pure data, no simulator imports.

Shapes (n, m, transaction regime, fault schedule) are fixed; only round
counts scale.  ``rounds`` is the number of timed rounds in one repeat at
scale 1.0, sized so a repeat's timed section is about ``REPEAT_SECONDS``
on the 2-core reference box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Nominal timed seconds of one repeat at scale 1.0.
REPEAT_SECONDS = 4.0

#: ProtocolParams fields shared by every workload.
COMMON_PARAMS = {
    "lam": 2,
    "referee_size": 8,
    "cross_shard_ratio": 0.3,
    "invalid_ratio": 0.1,
}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs the benchmark runs."""

    name: str
    why: str
    backends: tuple[str, ...]
    params: dict = field(default_factory=dict)
    warmup: int = 2
    rounds: int = 10
    smoke_rounds: int = 3
    adversary_fraction: float = 0.0
    faults: bool = False
    #: checkpoint save -> load -> continue this many times per repeat
    checkpoints: int = 0
    #: bound on ledger.reports (None = the ledger's default, unbounded)
    report_retention: int | None = None

    def timed_rounds(self, scale: float) -> int:
        """Timed rounds of one repeat at ``scale`` (1.0 = REPEAT_SECONDS)."""
        return max(1, round(self.rounds * scale))

    def checkpoint_rounds(self, rounds: int) -> tuple[int, ...]:
        """After how many of ``rounds`` timed rounds each checkpoint is
        taken: ``checkpoints`` of them, evenly spaced, none after the last
        round (fewer only when there are not enough rounds)."""
        marks = {k * rounds // (self.checkpoints + 1) for k in range(1, self.checkpoints + 1)}
        return tuple(sorted(marks - {0, rounds}))


_ROSTER_96 = {"n": 96, "m": 4}

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="msg_bound",
        why="n=96 m=4, 6 tx/committee: ~19k tiny messages a round, fabric "
        "and handlers own the round; unbounded state, so RSS climbs here",
        backends=("cycledger",),
        params={**_ROSTER_96, "tx_per_committee": 6, "users_per_shard": 24},
        rounds=16,
        smoke_rounds=2,
    ),
    Workload(
        name="tx_heavy",
        why="same roster, 256 tx/committee: sizing, hashing and ledger work "
        "per transaction dominate; a per-message fabric win predicts no change",
        backends=("cycledger",),
        params={**_ROSTER_96, "tx_per_committee": 256, "users_per_shard": 1024},
        warmup=1,
        rounds=4,
        smoke_rounds=1,
    ),
    Workload(
        name="wide",
        why="n=520 m=16 (committees of 32): inter-committee phase and set-up "
        "are largest; where a super-linear-in-m or sortition cost shows",
        backends=("cycledger",),
        params={"n": 520, "m": 16, "tx_per_committee": 6},
        warmup=1,
        rounds=2,
        smoke_rounds=1,
    ),
    Workload(
        name="faults",
        why="msg_bound roster, 30% adversary, leader crashes, a partition and "
        "churn: the only workload where recovery and impeachment do real work",
        backends=("cycledger",),
        params={**_ROSTER_96, "tx_per_committee": 6, "users_per_shard": 24},
        rounds=18,
        smoke_rounds=2,
        adversary_fraction=0.3,
        faults=True,
    ),
    Workload(
        name="soak",
        why="n=64 poisson arrivals, persistent mempool, pruning, streaming "
        "reports, checkpoint restore: the bounded-memory path; RSS must stay flat",
        backends=("cycledger",),
        params={
            "n": 64,
            "m": 4,
            "overlap": "semicommit",
            "arrival_process": "poisson",
            "arrival_rate": 48,
            "mempool_max_age": 4,
            "chain_retention": 8,
            "spent_retention": 4096,
        },
        rounds=32,
        checkpoints=2,
        report_retention=1,
    ),
    Workload(
        name="rivals",
        why="rapidchain + omniledger_sim at n=520 m=16, 48 tx/committee: few "
        "messages, ledger/hash heavy; catches a tax on the shared layers",
        backends=("rapidchain", "omniledger_sim"),
        params={"n": 520, "m": 16, "tx_per_committee": 48, "users_per_shard": 192},
        rounds=9,
        smoke_rounds=2,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
