"""Executable multi-protocol backend layer.

Table I compares CycLedger against Elastico, OmniLedger and RapidChain;
``repro.exp.TABLE1`` states each protocol's classes.  This package
makes the comparison *executable*: every protocol that can run a round is a
:class:`~repro.core.backend.LedgerBackend` registered here by name, so the
experiment engine, scenarios, CLI and benchmarks drive any of them through
one interface — the same fault timelines, sweeps and determinism gates
apply to all.

Workers resolve backends by name (factories cannot travel through a JSON
spec), exactly like capacity and scenario presets::

    from repro.backends import create_backend
    ledger = create_backend("rapidchain", ProtocolParams(n=48, m=4, lam=2,
                                                         referee_size=8))
    reports = ledger.run(rounds=3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.backends.omniledger import OmniLedgerBackend
from repro.backends.rapidchain import RapidChainBackend
from repro.core.backend import (
    CommitteeSimBackend,
    LedgerBackend,
    PackReport,
    SimRoundReport,
)
from repro.core.protocol import CycLedger

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ProtocolParams


@dataclass(frozen=True)
class BackendInfo:
    """Registry entry: the factory plus a one-line description for CLIs."""

    name: str
    factory: Callable[..., Any]
    description: str


#: name -> registered backend.  Keys are the names sweeps and CLIs use.
BACKEND_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str, factory: Callable[..., Any], description: str
) -> None:
    """Register an executable backend under ``name``.

    ``factory(params, adversary=..., capacity_fn=..., scenario=...)`` must
    return a :class:`~repro.core.backend.LedgerBackend`.
    """
    if name in BACKEND_REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    BACKEND_REGISTRY[name] = BackendInfo(
        name=name, factory=factory, description=description
    )


def backend_names() -> list[str]:
    """Sorted names of every registered executable backend."""
    return sorted(BACKEND_REGISTRY)


def create_backend(
    name: str,
    params: "ProtocolParams",
    adversary: Any = None,
    capacity_fn: Any = None,
    scenario: Any = None,
) -> Any:
    """Instantiate the named backend; unknown names fail with the roster."""
    info = BACKEND_REGISTRY.get(name)
    if info is None:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown backend {name!r} (known: {known})")
    return info.factory(
        params,
        adversary=adversary,
        capacity_fn=capacity_fn,
        scenario=scenario,
    )


register_backend(
    "cycledger",
    CycLedger,
    "the paper's protocol: 7-phase pipeline, reputation, leader recovery",
)
register_backend(
    "rapidchain",
    RapidChainBackend,
    "RapidChain-style: IDA-gossip dissemination, 1/2-resilient shards, "
    "reference-committee packing, no recovery",
)
register_backend(
    "omniledger_sim",
    OmniLedgerBackend,
    "OmniLedger-style: 2/3 shard BFT, client-driven Atomix lock/unlock "
    "cross-shard commit, no recovery",
)

__all__ = [
    "BACKEND_REGISTRY",
    "BackendInfo",
    "CommitteeSimBackend",
    "CycLedger",
    "LedgerBackend",
    "OmniLedgerBackend",
    "PackReport",
    "RapidChainBackend",
    "SimRoundReport",
    "backend_names",
    "create_backend",
    "register_backend",
]
