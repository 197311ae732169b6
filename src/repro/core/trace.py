"""Wall-clock trace of a run: one JSONL record per span.

The library times nothing on its own: a :class:`SimRoundReport` carries
simulated time only, so it stays byte-identical between runs of one seed.
Where a round's *wall* time goes is this module's business, and only when a
:class:`TraceSink` is installed on a ledger (``repro run --trace FILE`` is
the one place that does).  A ledger's ``trace_sink`` is ``None`` by default,
and installing one adds no code to the round loop: the sink attaches from
outside, through seams the ledger already has —

* the pipeline's round hooks (``pre`` before role assignment, ``post``
  after the report is assembled) bound the ``round`` span;
* its per-phase ``pre``/``post`` hooks bound each ``phase:<name>`` span;
* instance-attribute wrappers on ``mempool.admit`` / ``mempool.settle``
  bound the ``admit`` and ``settle`` spans.

With no sink there are no hooks and no wrappers, so a run without
``--trace`` executes exactly the code it executed before this module
existed.  A sink reads the clock and ``gc.get_stats()`` and nothing else,
so a traced run makes the same draws and decisions as an untraced one.

Each span, as it closes, is one line::

    {"round": 3, "span": "phase:consensus", "wall_ms": 12.5, "gc": [4, 0, 0]}

``round`` is the round number, ``wall_ms`` the span's wall time on
``time.perf_counter``, and ``gc`` the collector passes per generation that
ran inside the span (``gc.get_stats()`` deltas, read-only).
"""

from __future__ import annotations

import gc
import json
import time
from typing import IO, Any, Callable

ROUND = "round"
ADMIT = "admit"
SETTLE = "settle"
PHASE_PREFIX = "phase:"


def _gc_passes() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


class TraceSink:
    """Writes one JSON object per closed span to ``out`` (a text stream)."""

    def __init__(self, out: IO[str]) -> None:
        self._out = out
        self.round = 0
        self._open: dict[str, tuple[float, list[int]]] = {}

    # -- installation -------------------------------------------------------
    def install(self, ledger: Any) -> None:
        """Attach to ``ledger``: round and phase hooks on its pipeline, and
        timed wrappers on its mempool's ``admit`` and ``settle``.  Installs
        once per ledger (a restored ledger is a new one)."""
        if ledger.trace_sink is not None:
            raise ValueError("a trace sink is already installed on this ledger")
        ledger.trace_sink = self
        pipeline = ledger.pipeline
        pipeline.add_round_hook("pre", self._round_started)
        pipeline.add_round_hook("post", self._round_ended)
        for name in pipeline.names:
            pipeline.add_phase_hook(name, "pre", self._phase_started)
            pipeline.add_phase_hook(name, "post", self._phase_ended)
        mempool = ledger.mempool
        mempool.admit = self._timed(ADMIT, mempool.admit)
        mempool.settle = self._timed(SETTLE, mempool.settle)

    # -- spans --------------------------------------------------------------
    def start(self, span: str) -> None:
        """Open ``span`` (spans of one name do not nest)."""
        self._open[span] = (time.perf_counter(), _gc_passes())

    def end(self, span: str) -> None:
        """Close ``span`` and write its record."""
        ended = time.perf_counter()
        passes = _gc_passes()
        started, before = self._open.pop(span)
        record = {
            "round": self.round,
            "span": span,
            "wall_ms": (ended - started) * 1e3,
            "gc": [after - then for after, then in zip(passes, before)],
        }
        self._out.write(json.dumps(record) + "\n")

    def _timed(self, span: str, fn: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            self.start(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return timed

    def _round_started(self, ledger: Any) -> None:
        self.round = ledger.round_number
        self.start(ROUND)

    def _round_ended(self, ledger: Any, report: Any) -> None:
        self.end(ROUND)

    def _phase_started(self, ctx: Any, name: str) -> None:
        self.start(PHASE_PREFIX + name)

    def _phase_ended(self, ctx: Any, name: str) -> None:
        self.end(PHASE_PREFIX + name)
