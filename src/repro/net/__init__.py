"""Discrete-event network substrate.

The paper's network model (§III-B):

* good connection *within* a committee, synchronous with delay ≤ Δ;
* all leaders and partial-set members (key members) synchronously linked
  with a larger delay ≤ Γ, and each key member linked to the whole referee
  committee;
* all other connections only partially synchronous.

The simulator delivers messages along *declared channels only* — sending on
a channel the topology does not provide raises, so the implementation cannot
quietly assume the full honest-clique connectivity the paper criticises in
prior work.  The pairs a round used, with their class, are what Table I's
"burden on connection" row counts (``repro.exp.table1_cells``).
"""

from repro.net.params import NetworkParams
from repro.net.message import Message, payload_size
from repro.net.simulator import Network, SimulationError
from repro.net.node import ProtocolNode
from repro.net.topology import Channels, build_cycledger_topology

__all__ = [
    "NetworkParams",
    "Message",
    "payload_size",
    "Network",
    "SimulationError",
    "ProtocolNode",
    "Channels",
    "build_cycledger_topology",
]
