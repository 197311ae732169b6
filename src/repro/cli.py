"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        simulate CycLedger rounds and print per-round results
scenario   run a fault-injection scenario preset (or list presets)
sweep      run a parameter sweep on the parallel experiment engine
backends   list the executable protocol backends (or run one directly)
failure    print the Fig. 5 failure-probability table/plot
table1     print the Table I protocol comparison
gx         print the Fig. 4 g(x) curve
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import AdversaryConfig, CycLedger, ProtocolParams

    if args.resume_from:
        # The checkpoint pins ProtocolParams/AdversaryConfig; sizing and
        # adversary flags are ignored so the resumed run is byte-identical
        # to the uninterrupted one.
        from repro.ledger.checkpoint import load_checkpoint

        try:
            ledger = load_checkpoint(args.resume_from)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: {error}")
        params = ledger.params
        print(f"resumed '{args.resume_from}' at round "
              f"{ledger.round_number} (sizing flags ignored; the "
              f"checkpoint pins the parameters)")
    else:
        try:
            params = ProtocolParams(
                n=args.n, m=args.m, lam=args.lam, referee_size=args.referee,
                seed=args.seed, users_per_shard=args.users,
                tx_per_committee=args.txs, cross_shard_ratio=args.cross,
                invalid_ratio=args.invalid, overlap=args.overlap,
                arrival_process=(
                    "poisson" if args.arrival_rate is not None else "legacy"
                ),
                arrival_rate=args.arrival_rate or 0.0,
                mempool_capacity=args.mempool_cap,
                mempool_max_age=args.mempool_age,
                chain_retention=args.chain_retention,
            )
        except ValueError as error:
            raise SystemExit(f"error: {error}")
        adversary = AdversaryConfig(
            fraction=args.adversary, leader_strategy=args.leader_strategy,
            voter_strategy=args.voter_strategy,
        )
        ledger = CycLedger(params, adversary=adversary)
    checkpoint_every = args.checkpoint_every
    if checkpoint_every:
        import os

        from repro.ledger.checkpoint import save_checkpoint

        os.makedirs(args.checkpoint_dir, exist_ok=True)
    print(f"{'round':>5} {'packed':>6} {'cross':>5} {'recov':>5} "
          f"{'msgs':>8} {'time':>7} {'queue':>5} {'evict':>5}")
    reports = []
    for _ in range(args.rounds):
        report = ledger.run_round()
        reports.append(report)
        if checkpoint_every and report.round_number % checkpoint_every == 0:
            path = os.path.join(
                args.checkpoint_dir,
                f"checkpoint-r{report.round_number:06d}.pkl",
            )
            save_checkpoint(ledger, path)
            print(f"checkpoint -> {path}")
    for report in reports:
        print(f"{report.round_number:>5} {report.packed:>6} "
              f"{report.cross_packed:>5} {report.recoveries:>5} "
              f"{report.messages:>8} {report.sim_time:>7.1f} "
              f"{report.queue_depth:>5} {report.tx_evicted:>5}")
    print(f"chain {len(ledger.chain)} blocks, valid={ledger.chain.verify()}, "
          f"{ledger.total_packed()} transactions")
    sequential = sum(r.sim_time for r in reports)
    e2e = max((r.timeline_end for r in reports), default=0.0)
    gain = (1.0 - e2e / sequential) if sequential else 0.0
    print(f"end-to-end sim latency {e2e:.1f} "
          f"(overlap={params.overlap}, sequential {sequential:.1f}, "
          f"pipelining gain {gain:.1%})")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro import AdversaryConfig, CycLedger, ProtocolParams
    from repro.scenarios import SCENARIO_PRESETS, Scenario

    if args.list:
        for name, scenario in sorted(SCENARIO_PRESETS.items()):
            kinds = ", ".join(type(e).kind for e in scenario.events)
            print(f"{name:<18} last event round {scenario.last_event_round}: "
                  f"{kinds}")
        return 0
    if not args.preset:
        raise SystemExit("error: give --preset NAME or --list")
    try:
        # Repeated --preset: one timeline holding every preset's events, in
        # the order given (a single preset comes out equal to itself).
        scenario = Scenario(
            "+".join(args.preset),
            tuple(
                event
                for name in args.preset
                for event in SCENARIO_PRESETS[name].events
            ),
        )
    except KeyError as error:
        known = ", ".join(sorted(SCENARIO_PRESETS))
        raise SystemExit(
            f"error: unknown preset {error.args[0]!r} (known: {known})"
        )
    except ValueError as error:  # e.g. two policy presets
        raise SystemExit(f"error: {error}")

    params = ProtocolParams(
        n=args.n, m=args.m, lam=args.lam, referee_size=args.referee,
        seed=args.seed, users_per_shard=args.users,
        tx_per_committee=args.txs, cross_shard_ratio=args.cross,
        invalid_ratio=args.invalid,
    )
    adversary = AdversaryConfig(fraction=args.adversary)
    rounds = args.rounds
    if rounds is None:
        # Default: run one clean round past the last fault so the output
        # shows both degradation and recovery.
        rounds = scenario.last_event_round + 1
    ledger = CycLedger(params, adversary=adversary, scenario=scenario)
    print(f"scenario '{scenario.name}', {rounds} rounds, seed {args.seed}")
    print(f"{'round':>5} {'packed':>6} {'cross':>5} {'dropped':>7} "
          f"{'recov':>5} {'msgs':>8} {'time':>7}")
    reports = ledger.run(rounds)
    for report in reports:
        print(f"{report.round_number:>5} {report.packed:>6} "
              f"{report.cross_packed:>5} {report.dropped:>7} "
              f"{report.recoveries:>5} {report.messages:>8} "
              f"{report.sim_time:>7.1f}")
    if args.verbose:
        for line in ledger.scenario_driver.log:
            print(f"  · {line}")
    print(f"chain {len(ledger.chain)} blocks, valid={ledger.chain.verify()}, "
          f"{ledger.total_packed()} transactions")
    if args.json:
        _write_scenario_json(args.json, scenario, params, rounds, reports)
        print(f"rows -> {args.json}")
    return 0


def _write_scenario_json(
    path: str, scenario, params, rounds: int, reports
) -> None:
    """Canonical, deterministic run record (the CI byte-identity gate
    compares two of these from identical seeds)."""
    import dataclasses

    from repro.exp.results import atomic_write_bytes, round_row
    from repro.exp.spec import canonical_json

    params_dict = dataclasses.asdict(params)  # recurses into nested net
    payload = {
        "scenario": scenario.to_dict(),
        "params": params_dict,
        "rounds": rounds,
        "rows": [round_row(r) for r in reports],
    }
    atomic_write_bytes(path, (canonical_json(payload) + "\n").encode())


def _parse_grid_value(raw: str):
    """Parse one grid literal: bool, then int, then float, then bare string.

    Booleans must be recognised explicitly — falling through to the bare
    string would make both arms of ``--grid some_flag=false,true`` truthy.
    """
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_grid_args(grid_args: list[str]) -> tuple[dict, dict]:
    """Split ``key=v1,v2`` specs into ProtocolParams and AdversaryConfig
    axes (``adversary.`` prefix selects the latter)."""
    grid: dict[str, tuple] = {}
    adversary_grid: dict[str, tuple] = {}
    for spec in grid_args:
        key, sep, values = spec.partition("=")
        if not sep or not values:
            raise SystemExit(f"--grid expects key=v1,v2,...  (got {spec!r})")
        parsed = tuple(_parse_grid_value(v) for v in values.split(","))
        if key.startswith("adversary."):
            adversary_grid[key[len("adversary."):]] = parsed
        else:
            grid[key] = parsed
    return grid, adversary_grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exp import Runner

    try:
        spec = _build_sweep_spec(args)
    except ValueError as error:
        raise SystemExit(f"error: {error}")

    workers = 1 if args.serial else args.workers
    runner = Runner(spec, workers=workers, cache_dir=args.cache_dir)

    def progress(done: int, total: int, result) -> None:
        point = result.point
        print(
            f"[{done:>3}/{total}] {result.key[:12]}  "
            f"backend={point.get('backend', 'cycledger'):<14} "
            f"packed={result.totals['packed']:<5} "
            f"recoveries={result.totals['recoveries']:<3} "
            f"params={point['params']} adversary={point['adversary']}",
            flush=True,
        )

    try:
        outcome = runner.run(progress=progress)
    except ValueError as error:
        # Per-point construction errors (e.g. an n/m combination with no
        # well-defined committee size) are user input, not crashes.
        raise SystemExit(f"error: {error}")
    print(
        f"sweep '{spec.name}' ({outcome.spec_hash}): "
        f"{len(outcome.results)} points, {outcome.executed} executed, "
        f"{outcome.from_cache} from cache, "
        f"{outcome.wall_time:.2f}s wall on {outcome.workers} workers"
    )
    if args.out:
        outcome.write_json(args.out)
        print(f"results -> {args.out}")
    if args.csv:
        outcome.write_csv(args.csv)
        print(f"csv     -> {args.csv}")
    if args.bench_out:
        outcome.write_bench(args.bench_out)
        print(f"perf    -> {args.bench_out}")
    return 0


def _build_sweep_spec(args: argparse.Namespace):
    from repro.exp import ExperimentSpec, smoke_spec

    if args.smoke:
        spec = smoke_spec()
    else:
        grid, adversary_grid = _parse_grid_args(args.grid or [])
        base = {
            "n": args.n,
            "m": args.m,
            "lam": args.lam,
            "referee_size": args.referee,
            "users_per_shard": args.users,
            "tx_per_committee": args.txs,
            "cross_shard_ratio": args.cross,
            "invalid_ratio": args.invalid,
        }
        if args.overlap is not None:
            base["overlap"] = args.overlap
        if args.arrival_rate is not None:
            base["arrival_process"] = "poisson"
            base["arrival_rate"] = args.arrival_rate
        if args.mempool_age:
            base["mempool_max_age"] = args.mempool_age
        if args.mempool_cap:
            base["mempool_capacity"] = args.mempool_cap
        base = {k: v for k, v in base.items() if k not in grid}
        scenario_grid: tuple = ()
        if args.scenarios:
            scenario_grid = tuple(
                None if s in ("none", "") else s
                for s in args.scenarios.split(",")
            )
        backend_grid: tuple = ()
        if args.backends:
            backend_grid = tuple(args.backends.split(","))
        spec = ExperimentSpec(
            name=args.name,
            rounds=args.rounds,
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            base=base,
            grid=grid,
            adversary_grid=adversary_grid,
            capacity_preset=args.capacity_preset,
            scenario=args.scenario,
            scenario_grid=scenario_grid,
            backend=args.backend,
            backend_grid=backend_grid,
        )
    # Construct every point's ProtocolParams/AdversaryConfig up front so bad
    # combinations (e.g. n - referee_size not divisible by m, or an
    # out-of-range adversary fraction) fail before any work runs.
    from repro.core.config import ProtocolParams
    from repro.nodes.adversary import AdversaryConfig

    for point in spec.expand():
        ProtocolParams(**dict(point.params), seed=point.derived_seed)
        if point.adversary is not None:
            AdversaryConfig(**dict(point.adversary))
    return spec


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.backends import BACKEND_REGISTRY, create_backend

    if args.run is None:
        for name, info in sorted(BACKEND_REGISTRY.items()):
            print(f"{name:<16} {info.description}")
        return 0
    from repro.core.config import ProtocolParams

    try:
        params = ProtocolParams(
            n=args.n, m=args.m, lam=args.lam, referee_size=args.referee,
            seed=args.seed, users_per_shard=args.users,
            tx_per_committee=args.txs, cross_shard_ratio=args.cross,
            invalid_ratio=args.invalid,
        )
        ledger = create_backend(args.run, params)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    print(f"backend '{args.run}', {args.rounds} rounds, seed {args.seed}")
    print(f"{'round':>5} {'packed':>6} {'cross':>5} {'msgs':>8} {'time':>7}")
    for report in ledger.run(args.rounds):
        print(f"{report.round_number:>5} {report.packed:>6} "
              f"{report.cross_packed:>5} {report.messages:>8} "
              f"{report.sim_time:>7.1f}")
    print(f"chain {len(ledger.chain)} blocks, valid={ledger.chain.verify()}, "
          f"{ledger.total_packed()} transactions")
    return 0


def _cmd_failure(args: argparse.Namespace) -> int:
    from repro.analysis.plotting import ascii_plot
    from repro.analysis.security import (
        committee_failure_exact,
        committee_failure_kl_bound,
        committee_failure_simple_bound,
    )

    cs = np.arange(args.cmin, args.cmax + 1, args.step)
    exact = committee_failure_exact(args.n, args.t, cs)
    kl = committee_failure_kl_bound(args.n, args.t, cs)
    simple = committee_failure_simple_bound(cs)
    print(ascii_plot(
        cs,
        {"exact": exact, "KL bound": kl, "e^{-c/12}": simple},
        logy=True,
        title=f"Fig. 5: committee failure probability, n={args.n}, t={args.t}",
    ))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.baselines import ALL_MODELS, simulate_leader_stalls

    rng = np.random.default_rng(0)
    print(f"{'protocol':<12} {'resil':>6} {'storage':>9} {'fail/round':>11} "
          f"{'x-shard@1/3':>12} {'incentives':>10}")
    for model in ALL_MODELS:
        stall = simulate_leader_stalls(model, 1 / 3, 200, 20, rng)
        print(f"{model.name:<12} {model.resiliency:>6.2f} "
              f"{model.storage(args.n, args.m, args.c):>9.1f} "
              f"{model.fail_probability(args.m, args.c, args.lam):>11.2e} "
              f"{stall.committed_fraction:>12.2f} "
              f"{'yes' if model.has_incentives else 'no':>10}")
    return 0


def _cmd_gx(args: argparse.Namespace) -> int:
    from repro.analysis.plotting import ascii_plot
    from repro.core.reputation import g

    xs = np.linspace(args.xmin, args.xmax, 81)
    print(ascii_plot(xs, {"g(x)": g(xs)}, title="Fig. 4: g(x)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CycLedger reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate CycLedger rounds")
    run.add_argument("--n", type=int, default=64)
    run.add_argument("--m", type=int, default=4)
    run.add_argument("--lam", type=int, default=3)
    run.add_argument("--referee", type=int, default=8)
    run.add_argument("--rounds", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--users", type=int, default=32)
    run.add_argument("--txs", type=int, default=10)
    run.add_argument("--cross", type=float, default=0.25)
    run.add_argument("--invalid", type=float, default=0.1)
    run.add_argument("--adversary", type=float, default=0.0)
    run.add_argument("--leader-strategy", default="equivocating_leader")
    run.add_argument("--voter-strategy", default="contrary_voter")
    run.add_argument("--overlap", default="none",
                     choices=("none", "semicommit"),
                     help="timeline composition: serialize rounds, or "
                          "overlap round r+1's config+semicommit prefix "
                          "with round r's block suffix")
    run.add_argument("--arrival-rate", type=float, default=None,
                     help="mean tx arrivals per round; enables the "
                          "persistent poisson mempool (default: legacy "
                          "one-batch-per-round workload)")
    run.add_argument("--mempool-age", type=int, default=0,
                     help="rounds a queued tx may wait before TTL "
                          "eviction (0 = never)")
    run.add_argument("--mempool-cap", type=int, default=0,
                     help="max queued txs before capacity backpressure "
                          "evicts the oldest (0 = unbounded)")
    run.add_argument("--chain-retention", type=int, default=0,
                     help="retain only the last N block bodies, pruning "
                          "older ones behind the hash-linked frontier "
                          "(0 = keep everything)")
    run.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                     help="save a resumable checkpoint every N rounds "
                          "(0 = off)")
    run.add_argument("--checkpoint-dir", default="checkpoints",
                     help="directory for --checkpoint-every snapshots")
    run.add_argument("--resume-from", default=None, metavar="PATH",
                     help="resume from a saved checkpoint; runs --rounds "
                          "further rounds, byte-identical to the "
                          "uninterrupted run (sizing/adversary flags are "
                          "ignored — the checkpoint pins them)")
    run.set_defaults(func=_cmd_run)

    scenario = sub.add_parser(
        "scenario", help="run a fault-injection scenario preset"
    )
    scenario.add_argument("--list", action="store_true",
                          help="list available scenario presets")
    scenario.add_argument("--preset", action="append",
                          help="scenario preset name (see --list); repeat "
                               "to run several presets' events as one "
                               "timeline")
    scenario.add_argument("--rounds", type=int, default=None,
                          help="rounds to run (default: one past the last "
                               "fault, so recovery is visible)")
    scenario.add_argument("--n", type=int, default=48)
    scenario.add_argument("--m", type=int, default=4)
    scenario.add_argument("--lam", type=int, default=2)
    scenario.add_argument("--referee", type=int, default=8)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--users", type=int, default=24)
    scenario.add_argument("--txs", type=int, default=6)
    scenario.add_argument("--cross", type=float, default=0.3)
    scenario.add_argument("--invalid", type=float, default=0.1)
    scenario.add_argument("--adversary", type=float, default=0.0)
    scenario.add_argument("--verbose", action="store_true",
                          help="print the applied fault timeline")
    scenario.add_argument("--json", default=None,
                          help="write the canonical per-round record here")
    scenario.set_defaults(func=_cmd_scenario)

    sweep = sub.add_parser(
        "sweep", help="parameter sweep on the parallel experiment engine"
    )
    sweep.add_argument("--name", default="cli-sweep")
    sweep.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2",
        help="sweep axis; repeatable; 'adversary.' prefix for adversary "
             "fields (e.g. --grid m=2,4 --grid adversary.fraction=0.0,0.2)",
    )
    sweep.add_argument("--rounds", type=int, default=2)
    sweep.add_argument("--seeds", default="0", help="comma-separated seed axis")
    sweep.add_argument("--n", type=int, default=48)
    sweep.add_argument("--m", type=int, default=2)
    sweep.add_argument("--lam", type=int, default=2)
    sweep.add_argument("--referee", type=int, default=6)
    sweep.add_argument("--users", type=int, default=16)
    sweep.add_argument("--txs", type=int, default=6)
    sweep.add_argument("--cross", type=float, default=0.25)
    sweep.add_argument("--invalid", type=float, default=0.1)
    sweep.add_argument("--overlap", default=None,
                       choices=("none", "semicommit"),
                       help="timeline composition for every point "
                            "(default: the ProtocolParams default, none)")
    sweep.add_argument("--arrival-rate", type=float, default=None,
                       help="mean tx arrivals per round; switches every "
                            "point to the persistent poisson mempool")
    sweep.add_argument("--mempool-age", type=int, default=0,
                       help="mempool TTL in rounds (0 = never evict)")
    sweep.add_argument("--mempool-cap", type=int, default=0,
                       help="mempool capacity before backpressure "
                            "eviction (0 = unbounded)")
    sweep.add_argument("--capacity-preset", default=None,
                       help="named capacity function (uniform/tiered/weak_heavy)")
    sweep.add_argument("--scenario", default=None,
                       help="fault-injection preset applied to every point "
                            "(see 'repro scenario --list')")
    sweep.add_argument("--scenarios", default=None,
                       help="comma-separated scenario axis; 'none' for the "
                            "fault-free arm (e.g. none,partition-halves,churn)")
    sweep.add_argument("--backend", default="cycledger",
                       help="executable protocol backend for every point "
                            "(see 'repro backends')")
    sweep.add_argument("--backends", default=None,
                       help="comma-separated backend axis for head-to-head "
                            "protocol comparison (e.g. "
                            "cycledger,rapidchain,omniledger_sim)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: cpu count)")
    sweep.add_argument("--serial", action="store_true",
                       help="force in-process serial execution")
    sweep.add_argument("--cache-dir", default=None,
                       help="resume-from-partial-results cache directory")
    sweep.add_argument("--out", default=None, help="aggregated JSON path")
    sweep.add_argument("--csv", default=None, help="flat CSV path")
    sweep.add_argument("--bench-out", default=None,
                       help="perf trajectory sidecar (BENCH_sweep.json)")
    sweep.add_argument("--smoke", action="store_true",
                       help="run the canned CI smoke spec (ignores grid args)")
    sweep.set_defaults(func=_cmd_sweep)

    backends = sub.add_parser(
        "backends", help="list executable protocol backends (or run one)"
    )
    backends.add_argument("--run", default=None, metavar="NAME",
                          help="run this backend instead of listing")
    backends.add_argument("--rounds", type=int, default=3)
    backends.add_argument("--n", type=int, default=48)
    backends.add_argument("--m", type=int, default=4)
    backends.add_argument("--lam", type=int, default=2)
    backends.add_argument("--referee", type=int, default=8)
    backends.add_argument("--seed", type=int, default=0)
    backends.add_argument("--users", type=int, default=24)
    backends.add_argument("--txs", type=int, default=6)
    backends.add_argument("--cross", type=float, default=0.3)
    backends.add_argument("--invalid", type=float, default=0.1)
    backends.set_defaults(func=_cmd_backends)

    failure = sub.add_parser("failure", help="Fig. 5 failure probabilities")
    failure.add_argument("--n", type=int, default=2000)
    failure.add_argument("--t", type=int, default=666)
    failure.add_argument("--cmin", type=int, default=20)
    failure.add_argument("--cmax", type=int, default=300)
    failure.add_argument("--step", type=int, default=10)
    failure.set_defaults(func=_cmd_failure)

    table1 = sub.add_parser("table1", help="Table I comparison")
    table1.add_argument("--n", type=int, default=2000)
    table1.add_argument("--m", type=int, default=10)
    table1.add_argument("--c", type=int, default=200)
    table1.add_argument("--lam", type=int, default=40)
    table1.set_defaults(func=_cmd_table1)

    gx = sub.add_parser("gx", help="Fig. 4 g(x) curve")
    gx.add_argument("--xmin", type=float, default=-5.0)
    gx.add_argument("--xmax", type=float, default=5.0)
    gx.set_defaults(func=_cmd_gx)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
