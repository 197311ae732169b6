"""``python -m perfbench run | aa | compare`` (PYTHONPATH=src).

``run`` is the whole protocol in one command: every workload, untraced
repeats round-robin, then the span pass and the profile pass; it prints
every metric by name with its unit, writes ``<out>/perfbench.json`` and
exits non-zero on any failed check.  ``aa`` runs the untraced protocol
twice on the same code and checks that the two agree within each metric's
bound.  ``compare A B`` reads two result files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from perfbench import bench, report
from perfbench.workloads import WORKLOADS

#: Untraced repeats per workload of ``run`` and ``aa``.
REPEATS = 5


def _protocol_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=bench.DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="1 repeat, no warm-up, a few rounds (the tests' mode)")


def _run(args: argparse.Namespace, traced: bool) -> dict:
    return bench.run_protocol(
        [w.name for w in WORKLOADS],
        seed=args.seed,
        repeats=1 if args.smoke else REPEATS,
        traced=traced,
        smoke=args.smoke,
        out_dir=args.out,
    )


def _failures(result: dict) -> list[str]:
    return [f for w in result["workloads"].values() for f in w["failures"]]


def main(argv: list[str] | None = None) -> int:
    """Dispatch the three subcommands."""
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    _protocol_args(commands.add_parser("run"))
    _protocol_args(commands.add_parser("aa"))
    cmp_parser = commands.add_parser("compare")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
            a, b = json.load(fa), json.load(fb)
        for key in report.SETTINGS:
            if a[key] != b[key]:
                print(f"cannot compare: {key} is {a[key]} in A and {b[key]} in B")
                return 2
        rows = report.compare(a, b)
        return 1 if any(o in ("worse", "different") for _, _, o in rows) else 0

    # Imported here so `compare` works on result files without the simulator.
    from perfbench import adapter

    if args.command == "run":
        result = _run(args, traced=True)
        report.print_result(result, adapter.network_model())
        problems = _failures(result) + report.trace_checks(result)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "perfbench.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        print(f"\nwrote {path}")
    else:
        first, second = _run(args, traced=False), _run(args, traced=False)
        rows = report.compare(first, second)
        problems = _failures(first) + _failures(second) + [
            f"{w}: {name} {outcome}" for w, name, outcome in rows
        ]
    for problem in problems:
        print("FAILED " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
