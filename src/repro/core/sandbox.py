"""Committee sandboxes for tests, examples and micro-benchmarks.

This is the supported harness ``bench_fig3_consensus``,
``bench_fig6_recovery`` and docs/experiments.md ("Not ported") run single
sessions on, and the phase tests stage several committees on.  Building a
full :class:`~repro.core.protocol.CycLedger` deployment to test one phase
is overkill; :func:`build_sandbox` wires up a minimal
:class:`~repro.core.structures.RoundContext` with ``m`` committees plus a
referee committee on a real network simulator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import ProtocolParams
from repro.core.node import CycNode
from repro.core.sortition import crypto_sort
from repro.core.structures import CommitteeSpec, RoundContext
from repro.crypto.pki import PKI
from repro.ledger.chain import Chain
from repro.ledger.state import ShardState
from repro.ledger.transaction import ShardMap
from repro.metrics.counters import MetricsCollector, Roles
from repro.net.params import NetworkParams
from repro.net.simulator import Network
from repro.net.topology import build_cycledger_topology
from repro.nodes.behaviors import Behavior


def build_sandbox(
    committee_size: int = 8,
    lam: int = 2,
    referee_size: int = 4,
    seed: int = 0,
    behaviors: dict[int, Behavior] | None = None,
    net_params: NetworkParams | None = None,
    capacities: Sequence[int] | None = None,
    m: int = 1,
) -> RoundContext:
    """``m`` committees of ``committee_size`` plus a referee committee.

    Ids: committee k occupies ``[k·c, (k+1)·c)`` with its leader first and
    its ``lam`` partial members right after; the ``referee_size`` referee
    ids come last.  ``behaviors`` overrides specific nodes' strategies and
    ``capacities`` their capacities, by id (10 000 past its end).
    """
    rng = np.random.default_rng(seed)
    pki = PKI()
    metrics = MetricsCollector()
    net = Network(
        net_params if net_params is not None else NetworkParams(),
        rng,
        metrics=metrics,
    )
    n_total = m * committee_size + referee_size
    params = ProtocolParams(
        n=n_total, m=m, lam=lam, referee_size=referee_size, seed=seed
    )
    randomness = b"multi-sandbox-randomness"
    nodes: dict[int, CycNode] = {}
    for node_id in range(n_total):
        # Rejection-sample a key pair whose sortition ticket lands in the
        # committee this sandbox places the node in (identities are
        # arbitrary, so this is just picking a consistent identity).
        wanted = node_id // committee_size
        salt = 0
        while True:
            keypair = pki.generate(("msandbox", seed, node_id, salt))
            ticket = crypto_sort(keypair, 1, randomness, m)
            if ticket.committee_id == wanted or wanted >= m:
                break
            salt += 1
        capacity = (
            capacities[node_id]
            if capacities is not None and node_id < len(capacities)
            else 10_000
        )
        node = CycNode(node_id, keypair, capacity)
        node.ticket = ticket
        if behaviors and node_id in behaviors:
            node.behavior = behaviors[node_id]
        nodes[node_id] = node
        net.add_node(node)

    committees: list[CommitteeSpec] = []
    shard_states: list[ShardState] = []
    for k in range(m):
        base = k * committee_size
        members = list(range(base, base + committee_size))
        spec = CommitteeSpec(
            index=k,
            leader=base,
            partial=tuple(range(base + 1, base + 1 + lam)),
            members=members,
        )
        committees.append(spec)
        state = ShardState(k, m)
        shard_states.append(state)
        for mid in members:
            node = nodes[mid]
            node.committee_id = k
            node.is_leader = mid == spec.leader
            node.is_partial = mid in spec.partial
            node.shard_state = state
            metrics.set_role(
                mid, Roles.KEY if node.is_key_member else Roles.COMMON
            )
    referee = list(range(m * committee_size, n_total))
    for rid in referee:
        nodes[rid].is_referee = True
        metrics.set_role(rid, Roles.REFEREE)

    topology = build_cycledger_topology(
        [(spec.members, spec.key_members) for spec in committees], referee
    )
    net.channel_classifier = topology.classify

    return RoundContext(
        params=params,
        pki=pki,
        net=net,
        metrics=metrics,
        rng=rng,
        round_number=1,
        randomness=randomness,
        nodes=nodes,
        committees=committees,
        referee=referee,
        reputation={node.pk: 0.0 for node in nodes.values()},
        mempools=[[] for _ in range(m)],
        shard_states=shard_states,
        chain=Chain(),
        shard_of=ShardMap(m),
    )
