"""Named capacity presets and canned sweep specs.

Capacity functions cannot travel through a JSON spec (workers re-resolve
them by name), so heterogeneous-capacity experiments register a preset
here and name it with the sweep key ``capacity_preset``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.security import (
    committee_failure_simple_bound,
    round_failure_cycledger,
    union_bound,
)
from repro.core.config import ProtocolParams
from repro.exp.spec import ExperimentSpec
from repro.metrics.counters import PhaseStats, Roles
from repro.net.params import ChannelClass

if TYPE_CHECKING:
    from repro.core.protocol import RoundReport

CapacityFn = Callable[[int, np.random.Generator], int]


def tiered_capacity(node_id: int, rng: np.random.Generator) -> int:
    """§VII-A's heterogeneous population: a strong majority (which keeps the
    committee decision vector reliable), plus mid and weak minorities."""
    tier = node_id % 10
    if tier < 6:
        return 10_000
    if tier < 8:
        return 5
    return 2


def weak_heavy_capacity(node_id: int, rng: np.random.Generator) -> int:
    """Strong majority with a very weak tail — uniform leader lotteries
    often land on a weak node whose capacity caps the TXList."""
    return 10_000 if node_id % 10 < 6 else 3


CAPACITY_PRESETS: dict[str, CapacityFn] = {
    "uniform": lambda node_id, rng: 10_000,
    "tiered": tiered_capacity,
    "weak_heavy": weak_heavy_capacity,
}


def policy_compare_spec() -> ExperimentSpec:
    """Adaptive-adversary behaviour, seed-paired across backends: every
    backend runs its policy-free arm and a leaderboard-targeting
    corruption arm on the same protocol seed, so the per-backend packed
    ratio (policy ÷ policy-free) isolates how much damage the *same*
    adaptive adversary does to each protocol.  CycLedger's leader
    recovery (Alg. 6) keeps committing through corrupted leaders; the
    rivals model no recovery, so their ratios fall well below
    CycLedger's — the executable version of the paper's robustness
    claim."""
    return ExperimentSpec(
        name="policy-compare",
        rounds=5,
        seeds=(0,),
        base={
            "n": 48,
            "m": 4,
            "lam": 2,
            "referee_size": 8,
            "users_per_shard": 24,
            "tx_per_committee": 6,
            "cross_shard_ratio": 0.3,
        },
        grid={
            "scenario": (None, "adaptive-corruption"),
            "backend": ("cycledger", "rapidchain", "omniledger_sim"),
        },
    )


def policies_artifact(outcome, seed: int | None = None) -> dict:
    """The dict ``BENCH_policies.json`` holds, from a finished
    ``policy-compare`` sweep: per backend, packed transactions in the
    policy-free arm and under the adaptive-corruption preset (seed-paired).
    ``seed`` picks one seed of a multi-seed sweep (default: the spec's
    first).  The one source of the measured dishonest-leader ratio: the
    bench, its tier-1 value gate, ``repro table1`` and the Table I bench
    all read it here."""
    spec, policy = outcome.spec, "adaptive-corruption"
    seed = spec.seeds[0] if seed is None else seed
    arms = {}
    for backend in spec.grid["backend"]:
        plain = outcome.one(backend=backend, scenario=None, seed=seed)
        attacked = outcome.one(backend=backend, scenario=policy, seed=seed)
        # Seed-paired: both arms of one backend run the same protocol seed.
        assert plain.point["derived_seed"] == attacked.point["derived_seed"]
        base, hit = plain.totals["packed"], attacked.totals["packed"]
        arms[backend] = {
            "packed_baseline": base,
            "packed_under_policy": hit,
            "packed_ratio": hit / base if base else 0.0,
            "recoveries_under_policy": attacked.totals["recoveries"],
        }
    return {
        "spec": spec.name,
        "policy": policy,
        "rounds": spec.rounds,
        "backends": arms,
    }


@dataclass(frozen=True)
class Table1Row:
    """One protocol's column of Table I as its paper states it.  The
    Complexity, Storage and Burden cells of a protocol with an executable
    ``backend`` are measured instead (:func:`table1_cells`); the stated
    class is what a cell prints where nothing runs."""

    name: str
    #: Executable backend registry name, ``None`` when analytic only.
    backend: str | None
    #: Max tolerated malicious fraction ("Resiliency").
    resiliency: float
    #: Per-node communication and storage, the stated classes.
    complexity: str
    storage: str
    decentralization: str
    has_incentives: bool
    #: Channel classes the protocol assumes synchronous; ``None``: "a good
    #: connection between any pair of truthful nodes", n − 1 per node.
    synchronous: tuple[str, ...] | None
    #: ``(m, c, lam) ->`` per-round failure probability ("Fail Probability");
    #: scalars or numpy arrays for ``c`` / ``lam``.
    fail_probability: Callable


def _failure_c40(m, c, lam):
    """Elastico's Ω(m·e^{-c/40}) and OmniLedger's O(m·e^{-c/40}), at the
    lower-order constant Table I compares."""
    return union_bound(np.exp(-np.asarray(c, dtype=float) / 40.0), m)


def _failure_rapidchain(m, c, lam):
    """m·e^{-c/12} + (1/2)^27, the additive term from RapidChain's
    reference-committee bootstrap."""
    return np.minimum(union_bound(committee_failure_simple_bound(c), m) + 0.5**27, 1.0)


#: Table I's four columns, in the paper's order.
TABLE1 = (
    # Elastico [Luu et al., CCS'16]: every node keeps the full ledger, and
    # committees of c ≈ 100 fail "97% over only 6 epochs" at 16 shards (§II-A).
    Table1Row("Elastico", None, 1 / 4, "Ω(n)", "O(n)", "no always-honest party",
              False, None, _failure_c40),
    # OmniLedger [Kokoris-Kogias et al., S&P'18]: state blocks plus the epoch
    # chain; Atomix needs "a never-absent trusty client" (§II-A).
    Table1Row("OmniLedger", "omniledger_sim", 1 / 4, "O(n)", "O(c + log m)",
              "an honest client", False, None, _failure_c40),
    # RapidChain [Zamani et al., CCS'18]: efficient "only when leaders of each
    # committee are honest" (§II-A).
    Table1Row("RapidChain", "rapidchain", 1 / 3, "O(n)", "O(c)",
              "an honest reference committee", False, None, _failure_rapidchain),
    # §III-B: reliable channels inside committees (and C_R), among key
    # members, and between key members and C_R; the rest is partial.
    Table1Row("CycLedger", "cycledger", 1 / 3, "O(n)", "O(m²/n + c)",
              "no always-honest party", True,
              (ChannelClass.INTRA, ChannelClass.KEY, ChannelClass.REFEREE),
              round_failure_cycledger),
)


def role_cells(params: ProtocolParams) -> tuple[dict, RoundReport]:
    """Table II's cells measured on round 2 of CycLedger at ``params``
    (round 1 has no partial sets), with that round's report, which says
    what the round carried.

    Per ``(phase, role)``: ``messages`` and ``bytes``, what the role's nodes
    sent and received in the phase (a node's communication: a referee
    member mostly receives); ``storage``, the busiest node's high-water mark
    of retained items; and ``nodes``, how many nodes the round gave the role
    at its start, which both counts are divided by.  Roles are
    start-of-round: recovery demotes an impeached leader to common, and its
    traffic stays key.
    """
    _ledger, report, cells = _round_two("cycledger", params)
    return cells, report


def _round_two(backend: str, params: ProtocolParams):
    """A fresh ``backend`` ledger at ``params`` after two rounds, the second
    round's report and its per-role cells (:func:`role_cells`);
    ``ledger.net.metrics`` is that round's collector, which counts what was
    sent, and a ``drop_filter`` that drops nothing counts what was received."""
    from repro.backends import create_backend

    ledger = create_backend(backend, params)
    received: defaultdict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])

    def count_received(ctx, _phase) -> None:
        # The fabric asks ``drop_filter`` once per recipient it is about to
        # queue a message for; ``reset`` clears it every round.
        received.clear()
        metrics = ctx.metrics

        def note(message) -> bool:
            cell = received[(metrics.phase, metrics.role_of(message.recipient))]
            cell[0] += 1
            cell[1] += message.size
            return False

        ctx.net.drop_filter = note

    ledger.pipeline.add_phase_hook(ledger.pipeline.names[0], "pre", count_received)
    report = ledger.run(2)[-1]
    metrics = ledger.net.metrics
    nodes = Counter(metrics.node_roles.values())
    cells = {}
    for key in metrics.cells.keys() | received.keys():
        role, stats = key[1], metrics.cells.get(key, PhaseStats())
        got, got_bytes = received.get(key, (0, 0))
        cells[key] = {
            "nodes": nodes[role],
            "messages": (stats.messages + got) / nodes[role],
            "bytes": (stats.bytes + got_bytes) / nodes[role],
            "storage": stats.storage,
        }
    return ledger, report, cells


def table1_cells(params: ProtocolParams) -> dict[str, dict]:
    """Table I's Complexity, Storage and Burden cells per protocol name,
    measured on round 2 of each executable backend at ``params`` (round 1
    has no partial sets); a protocol with no backend prints its stated
    classes.

    ``complexity`` is the round's messages per node and ``storage`` each
    role's high-water mark of retained items over the round's per-role
    cells (:func:`role_cells`).  ``burden``, where the protocol assumes
    synchrony on some channel classes only (``Table1Row.synchronous``), is
    each node's distinct partners on them, mean/max per role
    (``partners``, role -> ``(mean, max)``), read from the fabric's channel
    rows after the round.  Roles are those the round assigned at its
    start, as in the cells.
    """
    cells = {}
    for row in TABLE1:
        cells[row.name] = cell = {
            "complexity": row.complexity,
            "storage": row.storage,
            "burden": f"n − 1 = {params.n - 1} (every pair)",
        }
        if row.backend is None:
            continue
        ledger, report, per_role = _round_two(row.backend, params)
        metrics = ledger.net.metrics
        cell["complexity"] = f"{report.messages / params.n:.1f}"
        storage = dict.fromkeys(Roles.ALL, 0)
        for (_phase, role), counts in per_role.items():
            storage[role] = max(storage[role], counts["storage"])
        cell["storage"] = " / ".join(f"{r} {s:,}" for r, s in storage.items())
        if row.synchronous is None:
            continue
        partners: dict[int, set[int]] = {node: set() for node in metrics.node_roles}
        # sender -> {recipient -> channel class}: every pair the round used.
        for sender, channels in ledger.net._channel_rows.items():
            for recipient, channel in channels.items():
                if channel in row.synchronous:
                    partners[sender].add(recipient)
                    partners[recipient].add(sender)
        by_role: dict[str, list[int]] = {role: [] for role in Roles.ALL}
        for node, peers in partners.items():
            by_role[metrics.role_of(node)].append(len(peers))
        cell["partners"] = {
            role: (sum(c) / len(c), max(c)) for role, c in by_role.items() if c
        }
        cell["burden"] = ", ".join(
            f"{role} {mean:.1f}/{top}" for role, (mean, top) in cell["partners"].items()
        )
    return cells


def overlap_compare_spec() -> ExperimentSpec:
    """Sequential vs pipelined execution, seed-paired: both arms run the
    identical protocol (byte-identical final chain/UTXO/reputation state)
    and differ only in how the end-to-end timeline composes — the
    ``semicommit`` arm overlaps round r+1's config + semi-commit prefix
    with round r's block suffix (§III-E/§V), so its ``e2e_sim_time``
    total lands ≥ 10% below the ``none`` arm's.  Eight rounds amortize
    the un-overlappable first round; the poisson mempool keeps a standing
    queue so the latency story includes sustained load."""
    return ExperimentSpec(
        name="overlap-compare",
        rounds=8,
        seeds=(0,),
        base={
            "n": 48,
            "m": 4,
            "lam": 2,
            "referee_size": 8,
            "users_per_shard": 24,
            "tx_per_committee": 6,
            "cross_shard_ratio": 0.3,
            "arrival_process": "poisson",
            "arrival_rate": 50.0,
            "mempool_max_age": 4,
        },
        grid={"overlap": ("none", "semicommit")},
    )


def smoke_spec() -> ExperimentSpec:
    """The CI smoke sweep: a tiny 2×2 grid (shard count × adversary
    fraction) that exercises the full protocol, the process pool, and the
    deterministic aggregation in a few seconds."""
    return ExperimentSpec(
        name="ci-smoke",
        rounds=2,
        seeds=(0,),
        base={
            "n": 24,
            "lam": 2,
            "referee_size": 6,
            "users_per_shard": 12,
            "tx_per_committee": 4,
            "cross_shard_ratio": 0.25,
            "invalid_ratio": 0.1,
        },
        grid={"m": (2, 3), "adversary.fraction": (0.0, 0.2)},
    )
