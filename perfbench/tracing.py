"""Outside-in tracing: coarse spans and a profile folded by module.

Spans are recorded from the benchmark's own files, around the calls into
each layer (round, phase, ``Network.run``, mempool admit/settle,
checkpoint save/load, setup).  They stay in memory and are written out
when the measured process ends.  Hot functions are never wrapped per
call; their cost comes from the profile pass.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from typing import Any, Callable

from perfbench import adapter


class SpanRecorder:
    """In-memory span log with a parent stack.

    A span is ``[name, start, end, parent, round]``: times in seconds on
    ``time.perf_counter``, ``parent`` the index of the enclosing span (or
    -1), ``round`` the timed-round index (-1 during setup and warm-up).
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.round = -1
        self._stack: list[int] = []
        self.missing: list[str] = []

    def start(self, name: str, at: float | None = None) -> None:
        """Open a span (``at`` backdates its start, for the setup span)."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(
            [name, time.perf_counter() if at is None else at, None, parent, self.round]
        )

    def end(self) -> None:
        """Close the innermost open span."""
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            self.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapped

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)()

    def instrument(self, ledger: Any) -> None:
        """Install the phase hooks and entry-point wrappers on one ledger
        object (call again on every ledger a checkpoint restore creates)."""
        adapter.add_phase_hooks(
            ledger,
            lambda ctx, name: self.start("phase." + name),
            lambda ctx, name: self.end(),
        )
        for name in adapter.wrap_entry_points(ledger, self.wrap):
            if name not in self.missing:
                self.missing.append(name)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed seconds, count) over the timed rounds."""
        out: dict[str, tuple[float, int]] = {}
        for name, start, end, _parent, round_index in self.spans:
            if round_index < 0 or end is None:
                continue
            seconds, count = out.get(name, (0.0, 0))
            out[name] = (seconds + (end - start), count + 1)
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, round_index) in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "round": round_index,
                }
                fh.write(json.dumps(row) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one span through a wrapper, in seconds."""
    noop = SpanRecorder().wrap("x", lambda: None)
    began = time.perf_counter()
    for _ in range(samples):
        noop()
    return (time.perf_counter() - began) / samples


def _owner(filename: str) -> str | None:
    """``layer.module`` for a file under the simulator's layer packages."""
    if not filename.startswith(adapter.SOURCE_ROOT + os.sep):
        return None
    parts = filename[len(adapter.SOURCE_ROOT) + 1 :].split(os.sep)
    if len(parts) != 2 or not parts[1].endswith(".py"):
        return None
    return f"{parts[0]}.{parts[1][:-3]}"


def fold_profile(profile: cProfile.Profile) -> dict[str, Any]:
    """Self time by ``layer.module``, in seconds.

    A function defined in a layer module is charged there.  Built-in,
    stdlib and numpy self time is charged to the calling module through
    the profile's ``callers`` table (followed upwards until a layer
    module is found); what has no layer ancestor lands in ``other``.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    owners = {func: _owner(func[0]) for func in stats}
    shares: dict[Any, dict[str, float]] = {}

    def share_of(func: Any, seen: frozenset) -> dict[str, float]:
        """Fractions of a foreign function's time owed to each module,
        split over its callers by cumulative time spent under each."""
        if func in shares:
            return shares[func]
        if func in seen or func not in stats:
            return {"other": 1.0}
        callers = stats[func][4]
        weight = sum(c[3] for c in callers.values())
        if not callers or weight <= 0.0:
            return {"other": 1.0}
        out: dict[str, float] = {}
        for caller, (_cc, _nc, _tt, ct) in callers.items():
            owner = owners.get(caller)
            parts = {owner: 1.0} if owner else share_of(caller, seen | {func})
            for name, fraction in parts.items():
                out[name] = out.get(name, 0.0) + fraction * ct / weight
        shares[func] = out
        return out

    by_module: dict[str, float] = {}
    hotspots = []
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        hotspots.append((tottime, ncalls, func))
        owner = owners[func]
        if owner:
            by_module[owner] = by_module.get(owner, 0.0) + tottime
            continue
        weight = sum(c[2] for c in callers.values())
        if not callers or weight <= 0.0:
            by_module["other"] = by_module.get("other", 0.0) + tottime
            continue
        for caller, (_c, _n, tt, _ct2) in callers.items():
            caller_owner = owners.get(caller)
            parts = (
                {caller_owner: 1.0}
                if caller_owner
                else share_of(caller, frozenset({func}))
            )
            for name, fraction in parts.items():
                by_module[name] = (
                    by_module.get(name, 0.0) + tottime * fraction * tt / weight
                )
    hotspots.sort(reverse=True)
    return {
        "self_s": by_module,
        "total_s": sum(entry[2] for entry in stats.values()),
        "hotspots": [
            {
                "function": f"{_owner(func[0]) or os.path.basename(func[0])}:{func[2]}",
                "self_s": tottime,
                "calls": ncalls,
            }
            for tottime, ncalls, func in hotspots[:15]
        ],
    }
