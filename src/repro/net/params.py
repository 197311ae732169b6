"""Network model parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass


class ChannelClass:
    """Latency classes from §III-B."""

    INTRA = "intra"  # within a committee: synchronous, delay <= delta
    KEY = "key"  # key member <-> key member: synchronous, delay <= gamma
    REFEREE = "referee"  # key member <-> referee member: delay <= gamma
    PARTIAL = "partial"  # everything else: partially synchronous
    LOCAL = "local"  # node to itself (zero-cost bookkeeping)

    ALL = (INTRA, KEY, REFEREE, PARTIAL, LOCAL)


@dataclass(frozen=True)
class NetworkParams:
    """Delay bounds and the event budget.

    ``delta`` and ``gamma`` are the paper's Δ and Γ, the bounds of the
    synchronous channels; ``partial_base`` is the delay of partially-
    synchronous channels.  ``jitter`` is the random variation applied to
    every channel: delays are sampled in ``[base·(1-jitter), base]``, so
    deliveries are reordered but the synchrony bounds are never exceeded
    (the §III-C adversary's reordering).  ``max_events`` bounds the events
    one :meth:`repro.net.simulator.Network.run` call may process.
    """

    delta: float = 1.0
    gamma: float = 4.0
    partial_base: float = 10.0
    jitter: float = 0.25
    max_events: int = 5_000_000

    def __post_init__(self) -> None:
        # Each rule names its field: a NaN or infinite delay runs a round to
        # a NaN or infinite clock, and a budget below one fails at the first
        # event instead of here.
        for name in ("delta", "gamma", "partial_base"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")

    def base_delay(self, channel_class: str) -> float:
        if channel_class == ChannelClass.INTRA:
            return self.delta
        if channel_class in (ChannelClass.KEY, ChannelClass.REFEREE):
            return self.gamma
        if channel_class == ChannelClass.PARTIAL:
            return self.partial_base
        if channel_class == ChannelClass.LOCAL:
            return 0.0
        raise ValueError(f"unknown channel class {channel_class!r}")
