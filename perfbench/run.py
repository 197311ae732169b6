"""Entry point of the benchmark contract (see BENCHMARK.json).

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload and prints one JSON object as the last line of its
standard output.  ``--seconds`` is the nominal timed length of the run on
the reference box; it scales the workload's fixed round counts, so the
same (seed, seconds) always simulates exactly the same rounds.  Untraced,
a run is 3 repeats; traced, it is one untraced repeat (the base for the
overhead shares), the span pass and the profile pass, each at half the
round count so that a traced run costs about what an untraced one does.

The JSON line cannot show that simulated behaviour is unchanged: its keys
are fixed, ``failed`` is 0 whenever the checks pass, and the bounds of the
simulated metrics are as wide as their seed-to-seed variation.  The line
before it (``perfbench: sim ... submitted= packed= sim_digest=``) can: at
the same ``--seed`` and ``--seconds`` it must be identical on both commits,
as must every ``sim_digest`` in ``python -m perfbench compare A B``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import bench, metrics  # noqa: E402
from perfbench.workloads import BY_NAME  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    """Run one workload as the contract's driver does."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=list(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(bench.ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    scale = args.seconds / metrics.RUN_SECONDS
    result = bench.run_protocol(
        [args.workload],
        seed=args.seed,
        scale=scale / 2 if traced else scale,
        repeats=1 if traced else metrics.RUN_REPEATS,
        traced=traced,
    )
    for failure in result["workloads"][args.workload]["failures"]:
        print("perfbench: FAILED " + failure, file=sys.stderr)
    print(bench.sim_line(result, args.workload))
    line = bench.driver_line(result, args.workload, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
