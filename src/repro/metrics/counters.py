"""Phase- and role-tagged counters for messages, bytes, and storage."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


class Roles:
    """Role labels matching Table II's columns."""

    COMMON = "common"
    KEY = "key"  # leaders & partial set members
    REFEREE = "referee"

    ALL = (COMMON, KEY, REFEREE)


@dataclass
class PhaseStats:
    """Aggregated traffic for one ``(phase, role)`` cell."""

    messages: int = 0
    bytes: int = 0
    storage: int = 0  # high-water mark of items retained


class MetricsCollector:
    """Central sink for simulator and protocol instrumentation.

    * ``phase`` is a mutable context set by the round orchestrator; all
      traffic recorded while a phase is active lands in that phase's row.
    * ``node_roles`` maps node id → role so per-role *averages* (what the
      complexity table is about) can be computed from totals.
    """

    def __init__(self) -> None:
        self.phase: str = "setup"
        self.cells: dict[tuple[str, str], PhaseStats] = defaultdict(PhaseStats)
        self.node_roles: dict[int, str] = {}

    # -- context -----------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def set_role(self, node_id: int, role: str) -> None:
        if role not in Roles.ALL:
            raise ValueError(f"unknown role {role!r}")
        self.node_roles[node_id] = role

    def role_of(self, node_id: int) -> str:
        return self.node_roles.get(node_id, Roles.COMMON)

    # -- recording -----------------------------------------------------------
    def record_sends(self, sender: int, count: int, nbytes: int) -> None:
        """Record ``count`` messages of ``nbytes`` each from ``sender``: one
        fan-out's traffic in one call (``Network.multicast``).  ``count``
        must be positive — a zero-message fan-out records nothing, so it
        never materialises an empty cell."""
        cell = self.cells[(self.phase, self.node_roles.get(sender, Roles.COMMON))]
        cell.messages += count
        cell.bytes += count * nbytes

    def record_storage(self, node_id: int, items: int) -> None:
        """Report a storage high-water mark (items retained) for a node in
        the current phase; cells keep the max over nodes of that role."""
        role = self.role_of(node_id)
        cell = self.cells[(self.phase, role)]
        cell.storage = max(cell.storage, items)

    # -- queries ---------------------------------------------------------------
    def total_messages(self) -> int:
        return sum(cell.messages for cell in self.cells.values())

    def total_bytes(self) -> int:
        return sum(cell.bytes for cell in self.cells.values())

    def phases(self) -> list[str]:
        seen: list[str] = []
        for phase, _ in self.cells:
            if phase not in seen:
                seen.append(phase)
        return seen

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's counts into this one (multi-round runs)."""
        for key, cell in other.cells.items():
            mine = self.cells[key]
            mine.messages += cell.messages
            mine.bytes += cell.bytes
            mine.storage = max(mine.storage, cell.storage)

    def summary_rows(self) -> list[tuple[str, str, int, int, int]]:
        """(phase, role, messages, bytes, storage) rows for reports."""
        return [
            (phase, role, cell.messages, cell.bytes, cell.storage)
            for (phase, role), cell in sorted(self.cells.items())
        ]
