"""Benchmark helpers: compact table printing, committed-artefact checks."""

from __future__ import annotations

import json
from pathlib import Path

from repro.exp.results import atomic_write_json

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _leaves(value, path=""):
    """``(path, leaf)`` pairs of a JSON value, e.g. ``backends.cycledger.packed``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def assert_matches_committed(name: str, fresh: dict, tmp_path: Path) -> None:
    """Write ``fresh`` under ``tmp_path`` (never over a tracked file) and
    compare it with the committed artefact ``name`` at the repo root,
    naming the first differing field."""
    atomic_write_json(str(tmp_path / name), fresh)
    ours = dict(_leaves(json.loads((tmp_path / name).read_text())))
    theirs = dict(_leaves(json.loads((_REPO_ROOT / name).read_text())))
    absent = "<absent>"
    differing = sorted(
        field for field in ours.keys() | theirs.keys()
        if ours.get(field, absent) != theirs.get(field, absent)
    )
    assert not differing, (
        f"{name}: {differing[0]} is {ours.get(differing[0], absent)!r} in a "
        f"fresh run, {theirs.get(differing[0], absent)!r} in the committed "
        f"artefact (fresh copy: {tmp_path / name})"
    )


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Render a small fixed-width table to stdout (visible with -s; also
    captured into the bench logs)."""
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
