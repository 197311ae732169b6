"""Test helper: one soak repeat whose round hook retains 1 MiB a round.

Run as a script (``python leaky_child.py ROUNDS OUT_DIR``) so the leak
lives in a process of its own, like every measured repeat.
"""

import json
import sys

from perfbench import adapter, child
from perfbench.workloads import BY_NAME

LEAK_BYTES = 1 << 20
#: The leak: lives as long as the process, across checkpoint restores.
RETAINED: list[bytearray] = []


def install_leak(ledger):
    """Retain LEAK_BYTES more on every round of ``ledger``."""
    adapter.add_round_start_hook(ledger, lambda: RETAINED.append(bytearray(LEAK_BYTES)))


if __name__ == "__main__":
    soak = BY_NAME["soak"]
    result = child.measure(
        soak, 0, int(sys.argv[1]), soak.warmup, out_dir=sys.argv[2],
        instrument=install_leak,
    )
    json.dump(result, sys.stdout)
