"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        simulate rounds of any backend under any scenario, print them
scenario   list the fault-injection scenario presets
sweep      run a parameter sweep on the parallel experiment engine
backends   list the executable protocol backends
failure    print the Fig. 5 failure-probability table/plot
table1     print the Table I protocol comparison
gx         print the Fig. 4 g(x) curve
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from repro import AdversaryConfig, ProtocolParams
from repro.backends import BACKEND_REGISTRY, create_backend
from repro.core.trace import TraceSink
from repro.exp.results import atomic_write_bytes, collect_result
from repro.exp.spec import canonical_json, point_key
from repro.ledger.checkpoint import load_checkpoint, save_checkpoint
from repro.scenarios import SCENARIO_PRESETS, Scenario

#: The sizing flags ``run`` and ``sweep`` share: flag, type, and the
#: ProtocolParams field it sets (which is also its dest).
_SIZING_FLAGS = (
    ("--n", int, "n"),
    ("--m", int, "m"),
    ("--lam", int, "lam"),
    ("--referee", int, "referee_size"),
    ("--users", int, "users_per_shard"),
    ("--txs", int, "tx_per_committee"),
    ("--cross", float, "cross_shard_ratio"),
    ("--invalid", float, "invalid_ratio"),
)


def _param_fields(args: argparse.Namespace) -> dict:
    """The ProtocolParams fields the flags set.  An unset flag (``None``)
    keeps the field's default, so a flagless ``repro run`` runs
    ``ProtocolParams()``; ``--seed`` and ``--chain-retention`` are run's."""
    names = [field for _, _, field in _SIZING_FLAGS]
    fields = {
        name: getattr(args, name)
        for name in (*names, "overlap", "seed", "chain_retention")
        if getattr(args, name, None) is not None
    }
    if args.arrival_rate is not None:
        fields.update(arrival_process="poisson", arrival_rate=args.arrival_rate)
    # 0 is the bounds' own "off" default: leaving it out keeps a sweep's
    # spec, and the seeds hashed from it, the same with or without it.
    if args.mempool_age:
        fields["mempool_max_age"] = args.mempool_age
    if args.mempool_cap:
        fields["mempool_capacity"] = args.mempool_cap
    return fields


def _cmd_run(args: argparse.Namespace) -> int:
    """The one run driver: any backend, any scenario, checkpoint/resume."""
    try:
        if args.resume_from:
            # The checkpoint pins backend, scenario, params and adversary;
            # their flags are ignored so the resumed run is byte-identical
            # to the uninterrupted one.
            ledger = load_checkpoint(args.resume_from)
            print(f"resumed '{args.resume_from}' at round "
                  f"{ledger.round_number} (the checkpoint pins backend, "
                  f"scenario, parameters and adversary)")
        else:
            # Repeated --scenario: one timeline holding every preset's
            # events, in the order given (a single preset equals itself).
            scenario = Scenario(
                "+".join(args.scenario),
                tuple(e for name in args.scenario
                      for e in SCENARIO_PRESETS[name].events),
            ) if args.scenario else None
            ledger = create_backend(
                args.backend,
                ProtocolParams(**_param_fields(args)),
                adversary=AdversaryConfig(
                    fraction=args.adversary,
                    leader_strategy=args.leader_strategy,
                    voter_strategy=args.voter_strategy,
                ),
                scenario=scenario,
            )
        trace = open(args.trace, "w", encoding="utf-8") if args.trace else None
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {error}")
    scenario = ledger.scenario
    rounds = args.rounds
    if rounds is None:
        # Under a scenario: one clean round past the last fault, so the
        # output shows both degradation and recovery.
        rounds = 3 if scenario is None else scenario.last_event_round + 1
    if args.checkpoint_every:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
    print(f"backend '{ledger.backend_name}', scenario "
          f"'{scenario.name if scenario else 'none'}', {rounds} rounds, "
          f"seed {ledger.params.seed}")
    print(f"{'round':>5} {'packed':>6} {'cross':>5} {'dropped':>7} "
          f"{'recov':>5} {'msgs':>8} {'time':>7} {'queue':>5} {'evict':>5}")
    # The trace file, when asked for, is open for the rounds only.
    with trace or contextlib.nullcontext():
        if trace is not None:
            TraceSink(trace).install(ledger)
        reports = []
        for _ in range(rounds):
            report = ledger.run_round()
            reports.append(report)
            print(f"{report.round_number:>5} {report.packed:>6} "
                  f"{report.cross_packed:>5} {report.dropped:>7} "
                  f"{report.recoveries:>5} {report.messages:>8} "
                  f"{report.sim_time:>7.1f} {report.queue_depth:>5} "
                  f"{report.tx_evicted:>5}")
            if args.checkpoint_every and (
                report.round_number % args.checkpoint_every == 0
            ):
                path = os.path.join(
                    args.checkpoint_dir,
                    f"checkpoint-r{report.round_number:06d}.pkl",
                )
                save_checkpoint(ledger, path)
                print(f"checkpoint -> {path}")
    if trace is not None:
        print(f"trace -> {args.trace}")
    if args.verbose and ledger.scenario_driver is not None:
        for line in ledger.scenario_driver.log:
            print(f"  · {line}")
    print(f"chain {len(ledger.chain)} blocks, valid={ledger.chain.verify()}, "
          f"{ledger.total_packed()} transactions")
    sequential = sum(r.sim_time for r in reports)
    # Measured from this run's first round, which need not be round 1.
    e2e = max(r.timeline_end for r in reports) - reports[0].timeline_start
    gain = (1.0 - e2e / sequential) if sequential else 0.0
    print(f"end-to-end sim latency {e2e:.1f} "
          f"(overlap={ledger.params.overlap}, sequential {sequential:.1f}, "
          f"pipelining gain {gain:.1%})")
    if args.json:
        # The record a sweep point writes, keyed by this run's identity
        # (the CI byte-identity gate compares two from identical seeds).
        point = {
            "backend": ledger.backend_name,
            "scenario": None if scenario is None else scenario.to_dict(),
            "params": dataclasses.asdict(ledger.params),  # recurses into net
            "adversary": dataclasses.asdict(ledger.adversary.config),
            "rounds": rounds,
        }
        record = collect_result(ledger, reports, point, point_key(point))
        atomic_write_bytes(
            args.json, (canonical_json(record.to_dict()) + "\n").encode()
        )
        print(f"record -> {args.json}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    for name, scenario in sorted(SCENARIO_PRESETS.items()):
        kinds = ", ".join(type(e).kind for e in scenario.events)
        print(f"{name:<18} last event round {scenario.last_event_round}: "
              f"{kinds}")
    return 0


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


def _parse_grid_args(grid_args: list[str]) -> dict:
    """``KEY=V1,V2`` specs to sweep axes; ``none`` is the fault-free arm of
    the ``scenario`` axis (and only there: ``overlap=none`` is a string)."""
    grid: dict[str, tuple] = {}
    for spec in grid_args:
        key, sep, values = spec.partition("=")
        if not sep or not values:
            raise SystemExit(f"--grid expects key=v1,v2,...  (got {spec!r})")
        grid[key] = tuple(
            None if key == "scenario" and v == "none" else _parse_grid_value(v)
            for v in values.split(",")
        )
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exp import run_sweep

    try:
        spec = _build_sweep_spec(args)
    except ValueError as error:
        raise SystemExit(f"error: {error}")

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
        outcome = run_sweep(
            spec,
            workers=1 if args.serial else args.workers,
            cache_dir=args.cache_dir,
            progress=progress,
        )
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
    return 0


def _build_sweep_spec(args: argparse.Namespace):
    from repro.exp import ExperimentSpec, smoke_spec

    if args.smoke:
        spec = smoke_spec()
    else:
        grid = _parse_grid_args(args.grid or [])
        spec = ExperimentSpec(
            name=args.name,
            rounds=args.rounds,
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            base={
                k: v for k, v in _param_fields(args).items() if k not in grid
            },
            grid=grid,
        )
    # Construct every point's ProtocolParams/AdversaryConfig up front so bad
    # combinations (e.g. n - referee_size not divisible by m, or an
    # out-of-range adversary fraction) fail before any work runs.
    for point in spec.expand():
        ProtocolParams(**dict(point.params), seed=point.derived_seed)
        if point.adversary is not None:
            AdversaryConfig(**dict(point.adversary))
    return spec


def _cmd_backends(args: argparse.Namespace) -> int:
    for name, info in sorted(BACKEND_REGISTRY.items()):
        print(f"{name:<16} {info.description}")
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
    from repro.baselines import ALL_MODELS
    from repro.exp import policies_artifact, policy_compare_spec, run_sweep
    from repro.exp import table1_cells

    # Every quantitative cell a backend can produce is measured: the
    # dishonest-leader column is each executable backend's packed ratio in
    # the seed-paired policy sweep BENCH_policies.json pins, and the
    # complexity, storage and burden cells come from a run at its shape.
    spec = policy_compare_spec()
    measured = policies_artifact(run_sweep(spec, workers=1))
    cells = table1_cells(ProtocolParams(**spec.base))
    policy = measured["policy"]
    budget = SCENARIO_PRESETS[policy].events[0].budget_fraction
    base = spec.base
    print(f"fail/round: m={args.m}, c={args.c}, lam={args.lam}")
    print(f"msgs/node, storage (items), burden (reliable partners per node, "
          f"mean/max per role): round 2 at n={base['n']}, m={base['m']}, "
          f"lam={base['lam']}, referee={base['referee_size']}, seed 0; a cell "
          f"no run measures prints the stated class")
    print(f"leader-attack: packed ratio under {policy} (f = {budget} budget), "
          f"{spec.rounds} rounds, seed {spec.seeds[0]}")
    print(f"{'protocol':<12} {'resil':>6} {'msgs/node':>9} {'fail/round':>11}  "
          f"{'storage':<34}{'burden':<44} {'leader-attack':>19} {'incentives':>10}")
    for model in ALL_MODELS:
        arm, cell = measured["backends"].get(model.backend), cells[model.name]
        ratio = "n/a (analytic only)" if arm is None else f"{arm['packed_ratio']:.2f}"
        print(f"{model.name:<12} {model.resiliency:>6.2f} {cell['complexity']:>9} "
              f"{model.fail_probability(args.m, args.c, args.lam):>11.2e}  "
              f"{cell['storage']:<34}{cell['burden']:<44} {ratio:>19} "
              f"{'yes' if model.has_incentives else 'no':>10}")
    return 0


def _cmd_gx(args: argparse.Namespace) -> int:
    from repro.analysis.plotting import ascii_plot
    from repro.core.reputation import g

    xs = np.linspace(args.xmin, args.xmax, 81)
    print(ascii_plot(xs, {"g(x)": g(xs)}, title="Fig. 4: g(x)"))
    return 0


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the sizing and mempool flags ``run`` and ``sweep`` share.
    Each defaults to ``None`` (keep the ProtocolParams default); sweep sets
    its own defaults over the sizing ones."""
    for flag, kind, field in _SIZING_FLAGS:
        parser.add_argument(flag, type=kind, dest=field,
                            metavar=flag[2:].upper(),
                            help=f"ProtocolParams.{field}")
    parser.add_argument("--overlap", choices=("none", "semicommit"),
                        help="timeline composition: serialize rounds, or "
                             "overlap round r+1's config+semicommit prefix "
                             "with round r's block suffix")
    parser.add_argument("--arrival-rate", type=float,
                        help="mean tx arrivals per round; enables the "
                             "persistent poisson mempool (default: legacy "
                             "one-batch-per-round workload)")
    parser.add_argument("--mempool-age", type=int,
                        help="rounds a queued tx may wait before TTL "
                             "eviction (0 = never)")
    parser.add_argument("--mempool-cap", type=int,
                        help="max queued txs before capacity backpressure "
                             "evicts the oldest (0 = unbounded)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CycLedger reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="simulate rounds of any backend under any scenario"
    )
    run.add_argument("--backend", default="cycledger",
                     choices=sorted(BACKEND_REGISTRY), metavar="NAME",
                     help="executable protocol backend (see 'repro "
                          "backends'; default: cycledger)")
    run.add_argument("--scenario", action="append",
                     choices=sorted(SCENARIO_PRESETS), metavar="PRESET",
                     help="fault-injection preset (see 'repro scenario'); "
                          "repeat to run several presets' events as one "
                          "timeline")
    run.add_argument("--rounds", type=_positive_int, default=None,
                     help="rounds to run (default: 3, or one past the "
                          "scenario's last fault, so recovery is visible)")
    run.add_argument("--seed", type=int, default=None,
                     help="ProtocolParams.seed")
    _add_param_flags(run)
    run.add_argument("--adversary", type=float, default=0.0)
    run.add_argument("--leader-strategy", default="equivocating_leader")
    run.add_argument("--voter-strategy", default="contrary_voter")
    run.add_argument("--chain-retention", type=int, default=None,
                     help="retain only the last N block bodies, pruning "
                          "older ones behind the hash-linked frontier "
                          "(0 = keep everything)")
    run.add_argument("--checkpoint-every", type=_positive_int, default=None,
                     metavar="N",
                     help="save a resumable checkpoint every N rounds")
    run.add_argument("--checkpoint-dir", default="checkpoints",
                     help="directory for --checkpoint-every snapshots")
    run.add_argument("--resume-from", default=None, metavar="PATH",
                     help="resume from a saved checkpoint; runs --rounds "
                          "further rounds, byte-identical to the "
                          "uninterrupted run (backend, scenario, sizing "
                          "and adversary flags are ignored — the "
                          "checkpoint pins them)")
    run.add_argument("--verbose", action="store_true",
                     help="print the scenario driver's log")
    run.add_argument("--json", default=None,
                     help="write the run's canonical SweepResult record "
                          "here")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="write one JSONL wall-clock record per round, "
                          "phase, mempool admit and settle here (the run "
                          "and its --json record are unchanged)")
    run.set_defaults(func=_cmd_run)

    scenario = sub.add_parser(
        "scenario", help="list the fault-injection scenario presets"
    )
    scenario.set_defaults(func=_cmd_scenario)

    sweep = sub.add_parser(
        "sweep", help="parameter sweep on the parallel experiment engine"
    )
    sweep.add_argument("--name", default="cli-sweep")
    sweep.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2",
        help="sweep axis; repeatable; one value fixes the key.  KEY is a "
             "ProtocolParams field, adversary.FIELD, scenario (a preset, "
             "'none' = fault-free), backend or capacity_preset (e.g. "
             "--grid m=2,4 --grid adversary.fraction=0.0,0.2 "
             "--grid backend=cycledger,rapidchain)",
    )
    sweep.add_argument("--rounds", type=int, default=2)
    sweep.add_argument("--seeds", default="0", help="comma-separated seed axis")
    _add_param_flags(sweep)
    sweep.set_defaults(
        n=48, m=2, lam=2, referee_size=6, users_per_shard=16,
        tx_per_committee=6, cross_shard_ratio=0.25, invalid_ratio=0.1,
    )
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: cpu count)")
    sweep.add_argument("--serial", action="store_true",
                       help="force in-process serial execution")
    sweep.add_argument("--cache-dir", default=None,
                       help="resume-from-partial-results cache directory")
    sweep.add_argument("--out", default=None, help="aggregated JSON path")
    sweep.add_argument("--csv", default=None, help="flat CSV path")
    sweep.add_argument("--smoke", action="store_true",
                       help="run the canned CI smoke spec (ignores grid args)")
    sweep.set_defaults(func=_cmd_sweep)

    backends = sub.add_parser(
        "backends", help="list the executable protocol backends"
    )
    backends.set_defaults(func=_cmd_backends)

    failure = sub.add_parser("failure", help="Fig. 5 failure probabilities")
    failure.add_argument("--n", type=int, default=2000)
    failure.add_argument("--t", type=int, default=666)
    failure.add_argument("--cmin", type=int, default=20)
    failure.add_argument("--cmax", type=int, default=300)
    failure.add_argument("--step", type=int, default=10)
    failure.set_defaults(func=_cmd_failure)

    table1 = sub.add_parser("table1", help="Table I comparison")
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
