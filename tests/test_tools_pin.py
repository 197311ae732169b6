"""tools/pin.py: the pinned runs are rewritten byte for byte, and --check
names the entry and field that moved."""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import pin  # noqa: E402


@pytest.fixture
def pins(tmp_path, monkeypatch):
    """A copy of the pinned-runs file, which the tool writes and checks."""
    path = tmp_path / "pinned_runs.json"
    shutil.copy(pin.FIXTURE, path)
    monkeypatch.setattr(pin, "FIXTURE", str(path))
    return path


def test_rewrite_is_byte_identical(pins, capsys):
    pins.write_text("{}")
    assert pin.main([]) == 0
    with open(pin.config_cube.PINNED, "rb") as fh:
        assert pins.read_bytes() == fh.read()
    assert pin.main(["--check"]) == 0
    assert "16 runs and the sweep are as pinned" in capsys.readouterr().out


@pytest.mark.parametrize("change, named", [
    (lambda runs: runs["cycledger_n96"]["rows"][1].update(bytes=1),
     "runs.cycledger_n96.rows[1].bytes: "),
    (lambda runs: runs.pop("rapidchain-two-spikes"),
     "runs.rapidchain-two-spikes: produced, but not pinned"),
    (lambda runs: runs.update(stray=runs["cycledger_small"]),
     "runs.stray: pinned, but not produced"),
], ids=["changed-row-value", "deleted-entry", "extra-entry"])
def test_check_names_what_moved(pins, capsys, change, named):
    fixture = json.loads(pins.read_text())
    change(fixture["runs"])
    pins.write_text(json.dumps(fixture))
    assert pin.main(["--check"]) == 1
    assert f"pin moved: {named}" in capsys.readouterr().out
