"""Table II — per-phase, per-role communication, measured on the scale curve.

Every cell is ``repro.exp.role_cells``: round 2 of CycLedger (round 1 has
no partial sets), per node of each role as the round assigned it at its
start, counting what a node sends and receives.  Two sweeps in
``bench_scale.sized``'s shape (|C_R| = 8) carry Table II's worst case:
every committee sends a cross-shard list to every other (asserted), under
one fixed load, so a transaction weighs the same at every point.

* **m-sweep**: c = 32, m = 4, 8, 16 (n = 32·m + 8);
* **c-sweep**: m = 4, c = 16, 32, 64 (n = 4·c + 8).

Each claimed cell is gated by one test: its fitted exponent in m along the
m-sweep and in c along the c-sweep each within ``BAND`` of the claim's, in
the metric its class counts.  A cell the measurement contradicts is listed
in ``FINDINGS`` with the reason, printed and not gated.
"""

import dataclasses
import time
from functools import cache

import pytest

from bench_scale import sized
from conftest import print_table
from repro.analysis.complexity import TABLE2_CLAIMS, claimed_exponent, table2_rows
from repro.exp import role_cells
from repro.metrics.counters import Roles
from repro.metrics.fitting import scaling_exponent

COMMON, KEY, REFEREE = Roles.ALL
#: (m, c) per point, n = m·c + 8: the m-sweep at c = 32, the c-sweep at m = 4.
SWEEPS = {"m": ((4, 32), (8, 32), (16, 32)), "c": ((4, 16), (4, 32), (4, 64))}
POINTS = sorted({point for points in SWEEPS.values() for point in points})
#: At m = 16 a committee's ~96 cross-shard transactions reach all 15 others.
LOAD = dict(tx_per_committee=192, users_per_shard=192, cross_shard_ratio=0.5)
#: Half-way to the neighbouring class (c against c²) is 0.5.
BAND = 0.35

#: The metric each gated cell's class counts: ``messages`` where the class
#: is how many a node exchanges, ``bytes`` where it is the size of what a
#: few messages carry.
GATED = {
    ("config", COMMON): "messages",  # its announcement to and from c members
    ("config", KEY): "bytes",  # c member lists of c entries each
    ("semicommit", KEY): "bytes",  # one c-entry semi-commitment to each of C_R
    ("intra", COMMON): "messages",  # Alg. 3's ECHOes to c members
    ("intra", KEY): "messages",
    ("intra", REFEREE): "bytes",  # m committees' results, O(c) each
    ("inter", KEY): "messages",  # 2(m - 1) vote rounds of O(c) each
    ("reputation", COMMON): "messages",
    ("reputation", KEY): "messages",
    ("reputation", REFEREE): "bytes",  # m committees' c scores
    ("selection", REFEREE): "messages",  # a ticket from every node
    ("block", COMMON): "bytes",  # the block, m sub-lists
    ("block", KEY): "bytes",  # the block, relayed to c members
}
#: Claimed cells the measurement contradicts (CHANGES.md names each).
FINDINGS = {
    ("semicommit", REFEREE): ("bytes", "receives m(λ + 1) c-entry semi-"
                              "commitments, O(n), beside the O(m²) it sends"),
    ("inter", COMMON): ("messages", "2(m - 1) vote rounds at intra's O(c) "
                        "each: O(n)"),
    ("inter", REFEREE): ("messages", "C_R takes no part in the inter phase"),
    ("block", REFEREE): ("bytes", "sends the block to the m(λ + 1) key "
                         "members, not to all n: O(m²) under a fixed load"),
}
CLAIMS = {(claim.phase, claim.role): claim.comm for claim in TABLE2_CLAIMS}
CLASSES = {(phase, role): comm for phase, role, comm, _storage in table2_rows()}


@cache
def measured(m: int, c: int) -> dict:
    """Round 2's cells at m committees of c (n = m·c + 8)."""
    cells, report = role_cells(dataclasses.replace(sized(m), n=m * c + 8, **LOAD))
    pairs = len(report.inter.send_rounds)
    assert pairs == m * (m - 1), (
        f"Table II's worst case: {pairs} of the {m * (m - 1)} ordered committee "
        f"pairs carry a cross-shard list at m = {m}, c = {c}"
    )
    return cells


@cache
def sweeps() -> float:
    """Runs both sweeps once; their wall, in seconds."""
    began = time.perf_counter()
    for m, c in POINTS:
        measured(m, c)
    return time.perf_counter() - began


def exponents(cell: tuple[str, str], metric: str) -> tuple[float, ...]:
    """The claim's exponent and the fitted one, in m along the m-sweep and
    in c along the c-sweep; a cell with no traffic at some point fits nan."""
    out = []
    for along, points in SWEEPS.items():
        ms, cs = zip(*points)
        ys = [measured(m, c).get(cell, {}).get(metric, 0.0) for m, c in points]
        ns = [m * c + 8 for m, c in points]
        out.append(claimed_exponent(CLAIMS[cell], ns, ms, cs, along=along))
        out.append(scaling_exponent(ms if along == "m" else cs, ys)
                   if min(ys) > 0 else float("nan"))
    return tuple(out)


@pytest.mark.parametrize("phase, role", GATED)
def test_table2_cell(phase, role):
    sweeps()
    metric = GATED[(phase, role)]
    claim_m, got_m, claim_c, got_c = exponents((phase, role), metric)
    assert abs(got_m - claim_m) <= BAND and abs(got_c - claim_c) <= BAND, (
        f"Table II {phase}/{role} {CLASSES[(phase, role)]}: {metric} per node "
        f"~ m^{got_m:+.2f} (claim {claim_m:+.2f}) and c^{got_c:+.2f} (claim "
        f"{claim_c:+.2f}), outside ±{BAND}"
    )


def test_table2(benchmark):
    wall = benchmark.pedantic(sweeps, rounds=1, iterations=1)
    claimed = {cell for cell, comm in CLAIMS.items() if comm is not None}
    assert claimed == GATED.keys() | FINDINGS.keys(), "every claimed cell is gated or a finding"
    rows = []
    for cell in sorted(claimed, key=list(CLAIMS).index):
        metric, why = FINDINGS.get(cell, (GATED.get(cell), "gated"))
        rows.append((*cell, CLASSES[cell], metric,
                     *(f"{x:+.2f}" for x in exponents(cell, metric)), why))
    print_table(
        f"Table II per node, sent + received, round 2, (m, c) = {POINTS}, "
        f"|C_R| = 8: exponents, claim and measured; wall {wall:.1f} s",
        ["phase", "role", "class", "metric", "claim m", "m", "claim c", "c", ""],
        rows,
    )
    storage = []
    for m, c in POINTS:
        cells = measured(m, c)
        assert cells[("config", COMMON)]["storage"] >= c - 2, "a member holds its member list"
        assert cells[("block", REFEREE)]["storage"] > 0, (
            f"Table II storage at (m, c) = ({m}, {c}): a referee member holds "
            f"{cells[('block', REFEREE)]['storage']} items in block generation, "
            "want the global UTXO set"
        )
        storage.append((m, c, *(max(cell["storage"] for (_p, r), cell in cells.items()
                                    if r == role) for role in Roles.ALL)))
    print_table("storage high-water marks (items)", ["m", "c", *Roles.ALL], storage)
