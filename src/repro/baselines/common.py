"""Shared interface of the Table I protocol models."""

from __future__ import annotations


class ProtocolModel:
    """Stated profile of one sharding protocol (one Table I column): the
    classes its paper states, and its per-round failure formula.  The
    Complexity, Storage and Burden cells of a protocol with an executable
    backend are measured instead (``repro.exp.table1_cells``); the stated
    class is what a cell prints where nothing runs."""

    name: str = "abstract"
    #: Max tolerated malicious fraction (Table I "Resiliency" row).
    resiliency: float = 0.0
    #: "Complexity" row: per-node communication, the stated class.
    complexity: str = ""
    #: "Storage" row: per-node storage, the stated class.
    storage: str = ""
    #: "Decentralization" row.
    decentralization: str = ""
    #: "High Efficiency w.r.t Dishonest Leaders" row (qualitative; the
    #: measured ratio is ``repro.exp.policies_artifact``'s).
    leader_robust: bool = False
    #: Executable backend registry name, ``None`` when analytic only.
    backend: str | None = None
    #: "Incentives" row.
    has_incentives: bool = False
    #: "Burden on Connection" row, the stated class.
    connection_burden: str = "heavy"
    #: Channel classes the protocol assumes synchronous; ``None``: "a good
    #: connection between any pair of truthful nodes", n − 1 per node.
    synchronous: tuple[str, ...] | None = None

    def fail_probability(self, m: int, c: int, lam: int) -> float:
        """Per-round failure probability ("Fail Probability" row); scalars
        or numpy arrays for ``c`` / ``lam``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
