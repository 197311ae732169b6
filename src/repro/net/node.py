"""Base class for protocol participants."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.crypto.pki import KeyPair

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.message import Message
    from repro.net.simulator import Network


class ProtocolNode:
    """A participant: identity, key pair, and a tag-dispatched inbox.

    Subclasses register handlers with :meth:`on`; unhandled tags go to
    :meth:`on_default` (a no-op for honest nodes — unknown messages from
    Byzantine peers are simply ignored, as in classical BFT practice).

    The class is slotted and the handler mailbox is allocated lazily on
    the first :meth:`on` call: at large n most nodes are idle in any given
    phase, and an idle node must cost a few pointers, not a dict.  The
    first registration in a round also reports the node to its network's
    activation ledger (see ``Network.activated``), which the phase pipeline
    reads to empty the mailboxes of the nodes that did anything once each
    phase has drained.  (The round orchestrators reset every node at the
    start of a round, mailbox included.)
    """

    __slots__ = ("node_id", "keypair", "network", "handlers", "online")

    def __init__(self, node_id: int, keypair: KeyPair) -> None:
        self.node_id = node_id
        self.keypair = keypair
        self.network: "Network | None" = None
        self.handlers: dict[str, Callable[["Message"], None]] | None = None
        self.online = True

    # -- wiring ------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        self.network = network

    def on(self, tag: str, handler: Callable[["Message"], None]) -> None:
        handlers = self.handlers
        if handlers is None:
            self.handlers = handlers = {}
            if self.network is not None:
                self.network.note_activation(self.node_id)
        handlers[tag] = handler

    def off(self, tags: tuple[str, ...]) -> None:
        """Unregister the handlers of ``tags`` (tags without one are
        skipped): a finished session drops its entries this way."""
        handlers = self.handlers
        if handlers is not None:
            for tag in tags:
                handlers.pop(tag, None)

    # -- I/O ------------------------------------------------------------------
    def send(self, recipient: int, tag: str, payload: Any, size: int | None = None) -> None:
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        if not self.online:
            return  # offline nodes transmit nothing
        self.network.send(self.node_id, recipient, tag, payload, size=size)

    def multicast(
        self, recipients: Any, tag: str, payload: Any, size: int | None = None
    ) -> None:
        """Paper's BROADCAST: one payload to all known members of a group
        (the sender itself is skipped); see ``Network.multicast``."""
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        if not self.online:
            return  # offline nodes transmit nothing
        self.network.multicast(self.node_id, recipients, tag, payload, size=size)

    def on_default(self, message: "Message") -> None:
        """Unknown tags are ignored (Byzantine noise tolerance)."""

    @property
    def pk(self) -> str:
        return self.keypair.pk

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.node_id}, pk={self.pk[:8]}…)"
