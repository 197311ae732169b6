"""CycLedger reproduction.

A full executable reproduction of *CycLedger: A Scalable and Secure Parallel
Protocol for Distributed Ledger via Sharding* (Zhang, Li, Chen, Chen, Deng —
IPDPS 2020, arXiv:2001.06778), including every substrate the paper assumes:

* :mod:`repro.crypto` — PKI, signatures, VRF, semi-commitments, a real
  SCRAPE-style PVSS random beacon, PoW admission puzzles;
* :mod:`repro.net` — discrete-event network simulator with the paper's
  Δ/Γ/partial-synchrony channel classes and strict topology enforcement;
* :mod:`repro.ledger` — UTXO transactions, the authentication function V,
  shard states, blocks/chain (with an optional body-pruning retention
  window), a synthetic workload generator, and deterministic
  checkpoint/resume of whole running ledgers;
* :mod:`repro.core` — the protocol itself: sortition, committee
  configuration, inside-committee consensus (Alg. 3), semi-commitment
  exchange, intra-/inter-committee consensus, reputation + rewards, leader
  re-selection (Alg. 6), selection, block generation;
* :mod:`repro.nodes` — honest and Byzantine behaviour strategies plus the
  mildly-adaptive adversary controller;
* :mod:`repro.baselines` — Elastico/OmniLedger/RapidChain analytic models
  for the Table I comparison;
* :mod:`repro.backends` — the executable multi-protocol layer: CycLedger
  plus simplified RapidChain/OmniLedger backends behind one
  ``LedgerBackend`` registry, so sweeps, scenarios and benchmarks run any
  protocol head-to-head;
* :mod:`repro.analysis` — the closed-form security/complexity/incentive
  math (Eq. 1–4, Fig. 4–5, Tables I–II);
* :mod:`repro.exp` — the parallel experiment engine: declarative
  parameter sweeps fanned out over worker processes with deterministic
  per-point seeding and resume-from-cache;
* :mod:`repro.scenarios` — declarative, seed-deterministic fault
  timelines attached to the round's phase pipeline: scheduled events
  (partitions, latency spikes, leader crashes, adversary ramps, churn)
  and adaptive adversary policies that retarget corruption from observed
  round state, all events of one ``Scenario``.

``docs/architecture.md`` maps the packages and the data flow of one
round through the phase pipeline.

Quickstart::

    from repro import CycLedger, ProtocolParams
    ledger = CycLedger(ProtocolParams(n=64, m=4, lam=3, referee_size=8))
    reports = ledger.run(rounds=5)
    print(len(ledger.chain), "blocks,", ledger.total_packed(), "transactions")
"""

from repro.core.config import ProtocolParams
from repro.core.pipeline import OverlapScheduler, Phase, PhasePipeline
from repro.backends import BACKEND_REGISTRY, LedgerBackend, create_backend
from repro.core.protocol import CycLedger, RoundReport, build_default_pipeline
from repro.ledger.checkpoint import (
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.ledger.workload import TxMempool
from repro.nodes.adversary import AdversaryConfig, AdversaryController
from repro.scenarios import SCENARIO_PRESETS, Scenario

__version__ = "2.0.0"

__all__ = [
    "BACKEND_REGISTRY",
    "CycLedger",
    "LedgerBackend",
    "create_backend",
    "load_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
    "OverlapScheduler",
    "Phase",
    "PhasePipeline",
    "ProtocolParams",
    "RoundReport",
    "SCENARIO_PRESETS",
    "Scenario",
    "TxMempool",
    "AdversaryConfig",
    "AdversaryController",
    "build_default_pipeline",
    "__version__",
]
