"""The registered perf cases.

Four families:

* ``micro:*`` — A/B cases pitting an optimized hot path against its frozen
  baseline from :mod:`repro.perf.baselines`.  Each carries an equivalence
  ``check`` proving the two paths compute the same thing, so the measured
  speedup can never come from computing less.
* ``round:*`` — end-to-end cases driving one executable backend for whole
  rounds (one per registry entry), timed across node scales by the CLI's
  ``--scales`` axis.  These are the regression tripwires: a slowdown that
  hides from every micro case still shows up here.
* ``scale:*`` — the wall-clock-vs-n scalability curve under paper-mode
  sizing (m grows with n, committee size bounded).
* ``soak:*`` — long-horizon bounded-memory endurance runs: thousands of
  poisson-fed rounds with chain pruning, spent-set compaction, and
  streamed reports, gated on an RSS plateau (docs/perf.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.perf import baselines
from repro.perf.harness import PerfCase, PerfSettings, register_perf_case


# -- micro: batched MAC creation/verification --------------------------------
def _mac_statement(settings: PerfSettings) -> tuple:
    """A realistic certificate statement: a txid tuple the size of a
    committee's TXList inside a CONFIRM frame."""
    txids = tuple(
        bytes([i % 256]) * 32 for i in range(settings.tx_per_committee * 4)
    )
    return ("CONFIRM", 7, ("VOTEROUND", "intra:0"), txids)


@dataclass
class _MacState:
    pki: Any
    keypairs: list
    sigs: list
    statement: tuple
    members: set = field(default_factory=set)


def _mac_setup(settings: PerfSettings) -> _MacState:
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import sign

    pki = PKI()
    keypairs = [pki.generate(("perf", i)) for i in range(settings.committee)]
    statement = _mac_statement(settings)
    sigs = [sign(kp, statement) for kp in keypairs]
    return _MacState(
        pki=pki,
        keypairs=keypairs,
        sigs=sigs,
        statement=statement,
        members={kp.pk for kp in keypairs},
    )


def _mac_verify_run(state: _MacState) -> None:
    from repro.crypto.signatures import signers_of

    signers = signers_of(
        state.pki, state.sigs, state.statement, members=state.members
    )
    assert len(signers) == len(state.sigs)


def _mac_verify_baseline(state: _MacState) -> None:
    signers = baselines.naive_verify_loop(
        state.pki, state.sigs, state.statement, members=state.members
    )
    assert len(signers) == len(state.sigs)


def _mac_verify_check(settings: PerfSettings) -> None:
    from repro.crypto.signatures import signers_of

    state = _mac_setup(settings)
    batched = signers_of(
        state.pki, state.sigs, state.statement, members=state.members
    )
    naive = baselines.naive_verify_loop(
        state.pki, state.sigs, state.statement, members=state.members
    )
    if batched != naive:
        raise AssertionError("signers_of disagrees with the scalar verify loop")


register_perf_case(
    PerfCase(
        name="micro:mac_verify",
        description=(
            "certificate check: one statement against a committee-sized "
            "signer set (signers_of vs per-signature verify loop)"
        ),
        category="micro",
        setup=_mac_setup,
        run=_mac_verify_run,
        baseline=_mac_verify_baseline,
        check=_mac_verify_check,
        ops=lambda s: s.committee,
    )
)


def _mac_sign_run(state: _MacState) -> None:
    from repro.crypto.signatures import sign_many

    sigs = sign_many(state.keypairs, state.statement)
    assert len(sigs) == len(state.keypairs)


def _mac_sign_baseline(state: _MacState) -> None:
    sigs = baselines.naive_sign_loop(state.keypairs, state.statement)
    assert len(sigs) == len(state.keypairs)


def _mac_sign_check(settings: PerfSettings) -> None:
    from repro.crypto.signatures import sign_many

    state = _mac_setup(settings)
    if sign_many(state.keypairs, state.statement) != baselines.naive_sign_loop(
        state.keypairs, state.statement
    ):
        raise AssertionError("sign_many disagrees with the scalar sign loop")


register_perf_case(
    PerfCase(
        name="micro:mac_sign",
        description=(
            "recipient-set signing: one statement under a committee of "
            "keys (sign_many vs per-recipient sign loop)"
        ),
        category="micro",
        setup=_mac_setup,
        run=_mac_sign_run,
        baseline=_mac_sign_baseline,
        check=_mac_sign_check,
        ops=lambda s: s.committee,
    )
)


# -- micro: workload generation ----------------------------------------------
@dataclass
class _WorkloadState:
    generator: Any
    batch: int


def _make_workload(settings: PerfSettings, naive: bool) -> Any:
    from repro.ledger.workload import WorkloadGenerator

    factory = baselines.NaiveWorkloadGenerator if naive else WorkloadGenerator
    return factory(
        m=settings.m,
        users_per_shard=max(settings.users_per_shard, 48),
        rng=np.random.default_rng(settings.seed),
    )


def _workload_setup(settings: PerfSettings) -> _WorkloadState:
    return _WorkloadState(
        generator=_make_workload(settings, naive=False), batch=settings.batch
    )


def _workload_setup_naive(settings: PerfSettings) -> _WorkloadState:
    return _WorkloadState(
        generator=_make_workload(settings, naive=True), batch=settings.batch
    )


def _workload_run(state: _WorkloadState) -> None:
    batch = state.generator.generate_batch(
        state.batch, cross_shard_ratio=0.3, invalid_ratio=0.5
    )
    state.generator.confirm_round({t.tx.txid for t in batch})


def _workload_check(settings: PerfSettings) -> None:
    fast = _make_workload(settings, naive=False)
    naive = _make_workload(settings, naive=True)
    for _ in range(3):
        a = fast.generate_batch(64, cross_shard_ratio=0.3, invalid_ratio=0.5)
        b = naive.generate_batch(64, cross_shard_ratio=0.3, invalid_ratio=0.5)
        if [t.tx.txid for t in a] != [t.tx.txid for t in b] or [
            t.defect for t in a
        ] != [t.defect for t in b]:
            raise AssertionError(
                "optimized workload diverged from the naive generator"
            )
        fast.confirm_round({t.tx.txid for t in a})
        naive.confirm_round({t.tx.txid for t in b})


register_perf_case(
    PerfCase(
        name="micro:workload_gen",
        description=(
            "transaction batch generation with defect injection "
            "(tuple-indexed defect draws vs Generator.choice)"
        ),
        category="micro",
        setup=_workload_setup,
        run=_workload_run,
        baseline=_workload_run,
        baseline_setup=_workload_setup_naive,
        check=_workload_check,
        ops=lambda s: s.batch,
    )
)


# -- micro: message fabric ---------------------------------------------------
@dataclass
class _PumpState:
    net: Any
    nodes: list
    payload: Any
    messages: int
    counter: dict = field(default_factory=dict)


def _pump_payload() -> tuple:
    """A protocol-shaped payload: signature + transaction + framing, so
    ``payload_size`` recursion is exercised like a real TX_LIST send."""
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import sign
    from repro.ledger.transaction import Transaction, TxInput, TxOutput

    pki = PKI()
    kp = pki.generate("pump")
    txs = tuple(
        Transaction(
            inputs=(TxInput(bytes([i]) * 32, 0),),
            outputs=(
                TxOutput("user-00000001", 5),
                TxOutput("user-00000002", 3),
            ),
            nonce=i,
        )
        for i in range(8)
    )
    sig = sign(kp, ("PUMP", txs[0].txid))
    return ("TX_LIST", txs, sig, 42)


def _pump_state(
    settings: PerfSettings, naive: bool, node_count: int = 8
) -> _PumpState:
    from repro.crypto.pki import PKI
    from repro.net.node import ProtocolNode
    from repro.net.params import NetworkParams
    from repro.net.simulator import Network

    factory = baselines.NaiveNetwork if naive else Network
    kwargs = {} if naive else {"pool_envelopes": True}
    net = factory(
        NetworkParams(), np.random.default_rng(settings.seed), **kwargs
    )
    pki = PKI()
    nodes = [
        ProtocolNode(i, pki.generate(("pump", i))) for i in range(node_count)
    ]
    counter = {"received": 0}

    def on_msg(message: Any) -> None:
        """Count a delivery (the pump only measures fabric overhead)."""
        counter["received"] += 1

    for node in nodes:
        node.on("PUMP", on_msg)
        net.add_node(node)
    return _PumpState(
        net=net,
        nodes=nodes,
        payload=_pump_payload(),
        messages=settings.messages,
        counter=counter,
    )


def _pump_setup(settings: PerfSettings) -> _PumpState:
    return _pump_state(settings, naive=False)


def _pump_setup_naive(settings: PerfSettings) -> _PumpState:
    return _pump_state(settings, naive=True)


def _pump_run(state: _PumpState) -> None:
    net = state.net
    fanout = len(state.nodes)
    payload = state.payload
    for i in range(state.messages):
        net.send(i % fanout, (i + 1) % fanout, "PUMP", payload)
        if net.pending >= 256:
            net.run()
    net.run()


def _pump_check(settings: PerfSettings) -> None:
    fast = _pump_state(settings, naive=False)
    naive = _pump_state(settings, naive=True)
    _pump_run(fast)
    _pump_run(naive)
    same_count = fast.counter["received"] == naive.counter["received"]
    same_clock = abs(fast.net.now - naive.net.now) < 1e-12
    same_bytes = (
        fast.net.metrics.total_bytes() == naive.net.metrics.total_bytes()
    )
    if not (same_count and same_clock and same_bytes):
        raise AssertionError(
            "pooled/buffered fabric diverged from the naive fabric: "
            f"count {fast.counter['received']} vs {naive.counter['received']}, "
            f"clock {fast.net.now} vs {naive.net.now}"
        )


register_perf_case(
    PerfCase(
        name="micro:message_pump",
        description=(
            "message fabric throughput: envelope pooling + block-buffered "
            "jitter + type-dispatched payload sizing vs per-message "
            "allocation, scalar draws and introspective sizing"
        ),
        category="micro",
        setup=_pump_setup,
        run=_pump_run,
        baseline=_pump_run,
        baseline_setup=_pump_setup_naive,
        check=_pump_check,
        ops=lambda s: s.messages,
    )
)


#: Fan-out width of ``micro:multicast_pump``: a committee of 25.
_FANOUT_RECIPIENTS = 24


def _fanout_setup(settings: PerfSettings) -> _PumpState:
    return _pump_state(settings, naive=False, node_count=_FANOUT_RECIPIENTS + 1)


def _fanout_pump(state: _PumpState, multicast: bool) -> None:
    """Every node in turn sends the shared payload to all the others, as one
    ``multicast`` or as the loop of ``send`` calls it stands for."""
    from repro.net.message import payload_size

    net = state.net
    nodes = state.nodes
    members = range(len(nodes))
    payload = state.payload
    # Pre-sized in both arms, like the protocol's ECHO loops were: the case
    # times the fabric, not one recursive sizing against twenty-four.
    size = payload_size(payload)
    for i in range(max(1, state.messages // _FANOUT_RECIPIENTS)):
        sender = nodes[i % len(nodes)]
        if multicast:
            sender.multicast(members, "PUMP", payload, size=size)
        else:
            for recipient in members:
                if recipient != sender.node_id:
                    sender.send(recipient, "PUMP", payload, size=size)
        net.run()


def _fanout_run(state: _PumpState) -> None:
    _fanout_pump(state, multicast=True)


def _fanout_run_send_loop(state: _PumpState) -> None:
    _fanout_pump(state, multicast=False)


def _fanout_check(settings: PerfSettings) -> None:
    fan = _fanout_setup(settings)
    loop = _fanout_setup(settings)
    _fanout_run(fan)
    _fanout_run_send_loop(loop)
    same = (
        fan.counter == loop.counter
        and fan.net.now == loop.net.now
        and fan.net.metrics.summary_rows() == loop.net.metrics.summary_rows()
        and fan.net.rng.bit_generator.state == loop.net.rng.bit_generator.state
    )
    if not same:
        raise AssertionError(
            "multicast diverged from the loop of sends: "
            f"count {fan.counter} vs {loop.counter}, "
            f"clock {fan.net.now} vs {loop.net.now}"
        )


register_perf_case(
    PerfCase(
        name="micro:multicast_pump",
        description=(
            "fan-out throughput: one Network.multicast of a shared payload "
            f"to {_FANOUT_RECIPIENTS} recipients (sized and recorded once, "
            "loop invariants hoisted) vs the loop of per-recipient sends on "
            "the same fabric"
        ),
        category="micro",
        setup=_fanout_setup,
        run=_fanout_run,
        baseline=_fanout_run_send_loop,
        check=_fanout_check,
        ops=lambda s: max(1, s.messages // _FANOUT_RECIPIENTS)
        * _FANOUT_RECIPIENTS,
    )
)


# -- round: end-to-end backend rounds ----------------------------------------
def _round_setup_for(backend: str):
    """Setup-factory for ``round:*`` cases: builds the named backend."""

    def setup(settings: PerfSettings) -> Any:
        """Construct the backend sized by the harness settings."""
        from repro.backends import create_backend
        from repro.core.config import ProtocolParams

        params = ProtocolParams(
            n=settings.n,
            m=settings.m,
            lam=settings.lam,
            referee_size=settings.referee_size,
            seed=settings.seed,
            users_per_shard=settings.users_per_shard,
            tx_per_committee=settings.tx_per_committee,
            cross_shard_ratio=settings.cross_shard_ratio,
            invalid_ratio=settings.invalid_ratio,
        )
        return create_backend(backend, params)

    return setup


def _round_run(ledger: Any) -> float:
    report = ledger.run_round()
    return float(report.sim_time)


def _register_round_cases() -> None:
    from repro.backends import BACKEND_REGISTRY

    for backend in sorted(BACKEND_REGISTRY):
        register_perf_case(
            PerfCase(
                name=f"round:{backend}",
                description=(
                    f"one full {backend} round: sortition, committees, "
                    "consensus phases, packing (end-to-end tripwire)"
                ),
                category="round",
                setup=_round_setup_for(backend),
                run=_round_run,
                ops=lambda s: 2 * s.m * s.tx_per_committee,
                backend=backend,
            )
        )


_register_round_cases()


# -- scale: the scalability curve to n=4096 -----------------------------------
#: The n-axis of the scalability curve.  Sizing is paper-mode
#: (``PerfSettings.scale_sized``): m grows with n so the committee size
#: stays ≈ 30 and the per-round cost is dominated by committee *count*,
#: not by O(c²) consensus blow-up inside ever-larger committees.
SCALE_CURVE = (128, 256, 512, 1024, 2048, 4096)

#: Per-backend ceilings on the curve.  All three currently ride it to the
#: top (a CycLedger round at n=4096 is ~10⁶ messages and finishes well
#: inside the bench budget; the rivals are far cheaper); lower a backend's
#: cap here if it ever grows a superlinear phase instead of timing out
#: the whole bench.
SCALE_CAPS = {"cycledger": 4096, "rapidchain": 4096, "omniledger_sim": 4096}


def _register_scale_cases() -> None:
    from repro.backends import BACKEND_REGISTRY

    for backend in sorted(BACKEND_REGISTRY):
        register_perf_case(
            PerfCase(
                name=f"scale:{backend}",
                description=(
                    f"wall-clock-vs-n scalability curve for {backend}: one "
                    "full round per curve point under paper-mode sizing "
                    "(m grows with n, committee size bounded)"
                ),
                category="scale",
                setup=_round_setup_for(backend),
                run=_round_run,
                ops=lambda s: 2 * s.m * s.tx_per_committee,
                backend=backend,
                scales=SCALE_CURVE,
                max_scale=SCALE_CAPS.get(backend),
                max_repeats=2,
            )
        )


_register_scale_cases()


# -- round: continuous-time overlap engine ------------------------------------
def _overlap_setup(settings: PerfSettings) -> Any:
    """CycLedger on the round-overlap engine: semicommit-pipelined
    timeline plus a persistent poisson mempool, so the case times the
    continuous-clock machinery (queue settlement, overlap scheduling) on
    top of the plain round."""
    from repro.backends import create_backend
    from repro.core.config import ProtocolParams

    params = ProtocolParams(
        n=settings.n,
        m=settings.m,
        lam=settings.lam,
        referee_size=settings.referee_size,
        seed=settings.seed,
        users_per_shard=settings.users_per_shard,
        tx_per_committee=settings.tx_per_committee,
        cross_shard_ratio=settings.cross_shard_ratio,
        invalid_ratio=settings.invalid_ratio,
        overlap="semicommit",
        arrival_process="poisson",
        arrival_rate=float(2 * settings.m * settings.tx_per_committee),
        mempool_max_age=4,
    )
    return create_backend("cycledger", params)


register_perf_case(
    PerfCase(
        name="round:cycledger_overlap",
        description=(
            "one CycLedger round on the continuous-time overlap engine: "
            "poisson mempool feed, FIFO settlement, semicommit-pipelined "
            "timeline scheduling"
        ),
        category="round",
        setup=_overlap_setup,
        run=_round_run,
        ops=lambda s: 2 * s.m * s.tx_per_committee,
        backend="cycledger",
    )
)


# -- soak: long-horizon bounded-memory endurance run ---------------------------
#: Rounds per soak repeat in the committed artifact.  Long enough that an
#: unbounded structure (report list, chain bodies, spent-set) would grow
#: visibly past the warmup point, short enough for the bench budget; the
#: 10k-round acceptance run uses the same state via ``soak_state``.
SOAK_ROUNDS = 2000

#: Round at which the RSS reference sample is taken.  The plateau gate
#: asserts peak RSS after this point stays within ``SOAK_RSS_FACTOR`` of
#: it — the memory-boundedness contract from docs/perf.md.
SOAK_WARMUP_ROUND = 500
SOAK_RSS_FACTOR = 1.5

#: How often (in rounds) the soak loop samples RSS and compacts the
#: ledger's UTXO dicts.
SOAK_SAMPLE_EVERY = 50
SOAK_COMPACT_EVERY = 500


@dataclass
class _SoakState:
    """Mutable carrier threaded from soak setup through run to extras."""

    ledger: Any
    rounds: int
    warmup_round: int
    rss_warmup_kb: int = 0
    rss_peak_kb: int = 0
    rounds_done: int = 0


def soak_state(settings: PerfSettings, rounds: int = SOAK_ROUNDS) -> _SoakState:
    """A bounded-memory CycLedger soak deployment: poisson arrivals into a
    persistent mempool, chain bodies pruned behind a retention window,
    the workload's spent-history trimmed, round reports dropped after
    emission, and RSS sampling on.  Tests and the 10k acceptance run
    reuse this with their own round budgets."""
    from repro.backends import create_backend
    from repro.core.config import ProtocolParams

    params = ProtocolParams(
        n=settings.n,
        m=settings.m,
        lam=settings.lam,
        referee_size=settings.referee_size,
        seed=settings.seed,
        users_per_shard=settings.users_per_shard,
        tx_per_committee=settings.tx_per_committee,
        cross_shard_ratio=settings.cross_shard_ratio,
        invalid_ratio=settings.invalid_ratio,
        arrival_process="poisson",
        arrival_rate=float(2 * settings.m * settings.tx_per_committee),
        mempool_max_age=4,
        chain_retention=8,
        spent_retention=4096,
        sample_rss=True,
    )
    ledger = create_backend("cycledger", params)
    ledger.report_retention = 1  # stream-and-drop; totals come from extras
    return _SoakState(
        ledger=ledger, rounds=rounds, warmup_round=SOAK_WARMUP_ROUND
    )


def _soak_setup(settings: PerfSettings) -> _SoakState:
    return soak_state(settings)


def run_soak(state: _SoakState) -> float:
    """Drive the soak loop; returns accumulated simulated time.

    Samples RSS every ``SOAK_SAMPLE_EVERY`` rounds, records the warmup
    reference at ``state.warmup_round``, and asserts the plateau gate at
    the end (skipped when RSS is unreadable, e.g. no procfs)."""
    from repro.core.reporting import rss_kb
    from repro.ledger.checkpoint import compact_ledger

    ledger = state.ledger
    sim_time = 0.0
    for _ in range(state.rounds):
        report = ledger.run_round()
        sim_time += float(report.sim_time)
        state.rounds_done += 1
        done = state.rounds_done
        if done % SOAK_COMPACT_EVERY == 0:
            compact_ledger(ledger)
        if done == state.warmup_round:
            state.rss_warmup_kb = rss_kb()
        elif done > state.warmup_round and done % SOAK_SAMPLE_EVERY == 0:
            state.rss_peak_kb = max(state.rss_peak_kb, rss_kb())
    state.rss_peak_kb = max(state.rss_peak_kb, rss_kb())
    if state.rss_warmup_kb > 0 and state.rss_peak_kb > 0:
        if state.rss_peak_kb > SOAK_RSS_FACTOR * state.rss_warmup_kb:
            raise AssertionError(
                "soak RSS plateau violated: peak "
                f"{state.rss_peak_kb} KiB > {SOAK_RSS_FACTOR}x warmup "
                f"{state.rss_warmup_kb} KiB at round {state.warmup_round}"
            )
    return sim_time


def soak_extras(state: _SoakState) -> dict[str, Any]:
    """The artifact row's ``soak`` block (see ``PerfCase.extras``)."""
    warmup = state.rss_warmup_kb
    return {
        "rounds": state.rounds_done,
        "rss_warmup_kb": warmup,
        "rss_peak_kb": state.rss_peak_kb,
        "plateau_ratio": (
            state.rss_peak_kb / warmup if warmup > 0 else None
        ),
        "reports_streamed": state.ledger.reports_streamed,
        "total_transactions": state.ledger.chain.total_transactions(),
        "chain_retention": state.ledger.params.chain_retention,
    }


register_perf_case(
    PerfCase(
        name="soak:cycledger",
        description=(
            f"{SOAK_ROUNDS}-round bounded-memory CycLedger endurance run: "
            "poisson mempool feed, chain-body pruning, spent-set "
            "compaction, streamed round reports; asserts peak RSS stays "
            f"within {SOAK_RSS_FACTOR}x the round-{SOAK_WARMUP_ROUND} "
            "plateau"
        ),
        category="soak",
        setup=_soak_setup,
        run=run_soak,
        ops=lambda s: SOAK_ROUNDS * 2 * s.m * s.tx_per_committee,
        backend="cycledger",
        scales=(64,),
        max_repeats=1,
        extras=soak_extras,
    )
)
