#!/usr/bin/env python
"""Write or check every pinned artifact: one command per artifact.

    python tools/pin.py                    # rewrite tests/fixtures/pinned_runs.json
    python tools/pin.py --check            # exit 1 naming the first entry and field that moved
    python tools/pin.py perfbench          # rewrite tests/fixtures/perfbench_sim_lines.txt
    python tools/pin.py --check perfbench  # exit 1 naming each workload whose line moved

``pinned_runs.json`` has two sections.  Each entry of ``runs`` holds its
inputs (``backend``, ``params``, ``adversary``, ``scenario``, ``rounds``)
beside what a run of them gives (``rows``, ``log``, ``final``); ``sweep``
holds a sweep spec beside the digests of its JSON and CSV artifacts.  The
inputs are stated only there: to pin a new run, add its inputs and run the
tool.  Building and comparing are ``tests/config_cube.py``'s ``repin`` and
``first_difference``, which the tier-1 pin tests call too.

``perfbench_sim_lines.txt`` holds the ``perfbench: sim`` line of each
workload run with ``--seed 0 --seconds 3 --trace 0`` (``faults`` with
``--seconds 8``).  ``perfbench/run.py`` exits non-zero on a ``sim_digest``
mismatch between its repeats, a chain-verify failure or an invariant
violation, and so does this tool.  ``soak`` restores from checkpoints,
``rivals`` runs the two rival backends through the shared round loop, and
``wide`` is the only one with committees of 32: the largest ECHO quorum,
the longest fan-outs and the only channel rows over 10k pairs.
``--seconds`` scales the round count, and ``faults`` is correct only with a
recovery per three rounds: 3 s is 4 rounds and passes, 2 s is 3 rounds and
fails with none, so it runs 12 rounds (8 s) rather than one round clear of
red.

Re-pin only for a change that moves simulated behaviour on purpose, and say
why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import config_cube  # noqa: E402

#: The pinned-runs file written and checked; its entries' inputs are always
#: read from ``config_cube.PINNED``.
FIXTURE = config_cube.PINNED
LINES = os.path.join(ROOT, "tests", "fixtures", "perfbench_sim_lines.txt")
WORKLOADS = (
    ("msg_bound", 3), ("tx_heavy", 3), ("wide", 3),
    ("faults", 8), ("soak", 3), ("rivals", 3),
)


def pin_runs(check: bool) -> int:
    """Rebuild every pinned run and the sweep; write them, or compare."""
    rebuilt = config_cube.repin(config_cube.load_pinned())
    if not check:
        with open(FIXTURE, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(rebuilt, indent=1, sort_keys=True) + "\n")
        print(f"wrote {os.path.relpath(FIXTURE, ROOT)}")
        return 0
    difference = config_cube.first_difference(
        config_cube.load_pinned(FIXTURE), rebuilt, ""
    )
    if difference:
        print(f"pin moved: {difference}")
        return 1
    print(f"{len(rebuilt['runs'])} runs and the sweep are as pinned")
    return 0


def sim_lines() -> dict[str, str] | None:
    """Each workload's ``perfbench: sim`` line, or ``None`` if a run fails."""
    lines = {}
    for workload, seconds in WORKLOADS:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(run.stdout)
        sys.stderr.write(run.stderr)
        if run.returncode:
            print(f"perfbench/run.py failed on workload {workload}")
            return None
        lines[workload] = "".join(
            ln + "\n" for ln in run.stdout.splitlines() if ln.startswith("perfbench: sim ")
        )
    return lines


def pin_perfbench(check: bool) -> int:
    """Rerun the six workloads; write their sim lines, or compare."""
    got = sim_lines()
    if got is None:
        return 1
    if not check:
        with open(LINES, "w", encoding="utf-8") as fh:
            fh.write("".join(got.values()))
        print(f"wrote {os.path.relpath(LINES, ROOT)}")
        return 0
    with open(LINES, encoding="utf-8") as fh:
        pinned = {ln.split()[2].removeprefix("workload="): ln for ln in fh}
    moved = [w for w in got if pinned.get(w) != got[w]] + sorted(pinned.keys() - got.keys())
    for workload in moved:
        print(f"perfbench sim line moved on workload {workload}")
        print(f"pinned: {pinned.get(workload, '(none)').rstrip()}")
        print(f"   now: {got.get(workload, '').rstrip() or '(none)'}")
    if not moved:
        print(f"the {len(got)} perfbench sim lines are as pinned")
    return 1 if moved else 0


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and run the one command it names."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", nargs="?", choices=("perfbench",))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.artifact == "perfbench":
        return pin_perfbench(args.check)
    return pin_runs(args.check)


if __name__ == "__main__":
    sys.exit(main())
