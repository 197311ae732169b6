"""Table II — measured per-phase, per-role complexity scaling.

Runs full protocol rounds at several network sizes through the parallel
experiment engine, collects the phase/role-tagged message counters from
the sweep records, fits power-law exponents, and compares them with
Table II's claimed classes.

Two sweeps isolate the two variables:
* **c-sweep** (m fixed, committee size growing): validates the O(c)/O(c²)
  claims for common and key members;
* **m-sweep** (c fixed, more committees): validates the O(m²) referee
  traffic in semi-commitment exchange.
"""

from conftest import print_table
from repro.core.config import ProtocolParams
from repro.exp import ExperimentSpec, run_sweep
from repro.metrics.counters import Roles
from repro.metrics.fitting import scaling_exponent

BASE = {
    "users_per_shard": 24,
    "tx_per_committee": 6,
    "cross_shard_ratio": 0.25,
    "lam": 2,
}


def _spec(name: str, points: tuple[dict, ...]) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        rounds=1,
        seeds=(1,),
        derive_seeds=False,
        base=BASE,
        points=points,
    )


def _normalized_counts(result) -> dict:
    """Per-node message/byte counts per (phase, role) cell."""
    point_params = result.point["params"]
    params = ProtocolParams(**point_params, seed=1)
    c, m, lam = params.committee_size, params.m, params.lam
    role_counts = {
        Roles.COMMON: m * (c - 1 - lam),
        Roles.KEY: m * (1 + lam),
        Roles.REFEREE: params.referee_size,
    }
    counts = {}
    for cell_key, cell in result.cells.items():
        phase, role = cell_key.split("/", 1)
        denom = max(role_counts.get(role, 1), 1)
        counts[(phase, role)] = {
            "messages": cell["messages"] / denom,
            "bytes": cell["bytes"] / denom,
        }
    return counts


def c_sweep():
    """m=2 fixed; c grows 14 -> 56."""
    configs = ({"n": 36, "m": 2, "referee_size": 8},
               {"n": 64, "m": 2, "referee_size": 8},
               {"n": 120, "m": 2, "referee_size": 8})
    outcome = run_sweep(_spec("table2-c-sweep", configs), workers=3)
    cs, results = [], []
    for config in configs:
        cs.append((config["n"] - config["referee_size"]) // config["m"])
        results.append(_normalized_counts(outcome.one(n=config["n"])))
    return cs, results


def m_sweep():
    """c = 14 fixed; m grows 2 -> 12.

    A small referee committee (4) keeps the constant C_R-internal consensus
    traffic from diluting the O(m²) redistribution term at bench scale.
    """
    configs = tuple(
        {"n": 4 + 14 * m, "m": m, "referee_size": 4} for m in (2, 6, 12)
    )
    outcome = run_sweep(_spec("table2-m-sweep", configs), workers=3)
    ms, results = [], []
    for config in configs:
        ms.append(config["m"])
        results.append(_normalized_counts(outcome.one(m=config["m"])))
    return ms, results


def fitted(xs, results, phase, role, kind="messages"):
    """The cell's fitted exponent in ``xs``; a cell with no traffic at some
    point has no power law to fit, which fails rather than skips."""
    ys = [r.get((phase, role), {}).get(kind, 0.0) for r in results]
    assert all(y > 0 for y in ys), (
        f"Table II cell {(phase, role, kind)}: nothing to fit ({ys})"
    )
    return scaling_exponent(xs, ys)


#: How far a c-sweep cell's exponent may sit from its claim: half-way to the
#: neighbouring class (c versus c²) would be 0.5, so a cell that moves a
#: whole class fails.
C_SWEEP_BAND = 0.35


def test_table2_c_sweep(benchmark):
    cs, results = benchmark.pedantic(c_sweep, rounds=1, iterations=1)
    rows, failures = [], []
    # (phase, role, metric, claimed exponent in c).  Byte counters carry the
    # O(c²) claims (c responses × c-sized member lists / vote matrices).
    claims = [
        ("config", Roles.COMMON, "messages", 1.0),
        ("config", Roles.KEY, "bytes", 2.0),
        ("intra", Roles.COMMON, "bytes", 1.0),  # one vote vector of length D
        # The leader's Alg. 3 PROPOSE carries the c×D vote matrix to all c
        # members: a c² term in the key-member mean, the widest cell here.
        ("intra", Roles.KEY, "bytes", 1.0),
        ("reputation", Roles.COMMON, "messages", 1.0),
        ("block", Roles.KEY, "messages", 1.0),
    ]
    for phase, role, kind, claimed in claims:
        measured = fitted(cs, results, phase, role, kind)
        rows.append((phase, role, kind, f"{claimed:+.1f}", f"{measured:+.2f}"))
        if abs(measured - claimed) > C_SWEEP_BAND:
            failures.append(
                f"Table II {(phase, role, kind, claimed)}: exponent "
                f"{measured:+.2f} in c, outside ±{C_SWEEP_BAND}"
            )
    print_table(
        "Table II c-sweep (m=2, c = 14→56): per-node exponents vs c",
        ["phase", "role", "metric", "claimed", "measured"], rows,
    )
    assert not failures, "; ".join(failures)


def test_table2_m_sweep(benchmark):
    ms, results = benchmark.pedantic(m_sweep, rounds=1, iterations=1)
    rows = []
    for phase, role, kind, claimed in [
        ("semicommit", Roles.REFEREE, "bytes", 2.0),
        ("inter", Roles.COMMON, "messages", 1.0),
        ("block", Roles.REFEREE, "messages", 1.0),
    ]:
        measured = fitted(ms, results, phase, role, kind)
        rows.append((phase, role, kind, f"{claimed:+.1f}", f"{measured:+.2f}"))
    print_table(
        "Table II m-sweep (c=14, m = 2→12): per-node exponents vs m",
        ["phase", "role", "metric", "claimed", "measured"], rows,
    )
    lookup = {(r[0], r[1]): float(r[4]) for r in rows}
    # Referee semi-commitment traffic grows superlinearly in m (O(m²) claim:
    # every rm re-broadcasts all m commitments to all m committees).  The
    # exponent approaches 2 from below as the constant C_R-internal
    # consensus traffic is amortized.
    assert lookup[("semicommit", Roles.REFEREE)] > 1.3


def test_storage_rows(benchmark):
    """Storage high-water marks per role at one configuration."""

    def measure():
        spec = ExperimentSpec(
            name="table2-storage",
            rounds=1,
            seeds=(2,),
            derive_seeds=False,
            base={**BASE, "n": 64, "m": 4, "referee_size": 8},
        )
        return run_sweep(spec).results[0]

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        (*cell_key.split("/", 1), cell["storage"])
        for cell_key, cell in sorted(result.cells.items())
        if cell["storage"] > 0
    ]
    print_table("storage high-water marks (items)", ["phase", "role", "items"], rows)
    storage = {
        tuple(cell_key.split("/", 1)): cell["storage"]
        for cell_key, cell in result.cells.items()
    }
    assert storage[("config", Roles.COMMON)] >= 14 - 2
    assert storage[("block", Roles.REFEREE)] > 0
