"""Complexity claims, incentive analysis, baselines, metrics machinery."""

import numpy as np
import pytest

from repro.analysis.complexity import TABLE2_CLAIMS, claimed_exponent, table2_rows
from repro.analysis.incentive import expected_score
from repro.core.reputation import distribute_rewards, punished_reputation
from repro.backends import backend_names
from repro.baselines import ALL_MODELS
from repro.core.config import ProtocolParams
from repro.exp import policy_compare_spec, role_cells, table1_cells
from repro.metrics.counters import MetricsCollector, Roles
from repro.metrics.fitting import fit_power_law, r_squared_loglog, scaling_exponent


# -- complexity claims ---------------------------------------------------------


def test_table2_has_all_rows():
    assert len(TABLE2_CLAIMS) == 19
    assert len(table2_rows()) == 19
    phases = {claim.phase for claim in TABLE2_CLAIMS}
    assert phases == {
        "config", "semicommit", "intra", "inter", "reputation", "selection", "block",
    }


def test_claimed_exponent_linear_sweep():
    # sweep with m fixed, c growing: O(c²) should show exponent ~2 in n
    ns = np.array([64, 128, 256])
    ms = np.array([4, 4, 4])
    cs = ns // ms
    assert claimed_exponent((0, 0, 2), ns, ms, cs) == pytest.approx(2.0)
    assert claimed_exponent((1, 0, 0), ns, ms, cs) == pytest.approx(1.0)
    assert claimed_exponent((0, 1, 0), ns, ms, cs) == pytest.approx(0.0)


def test_render_table():
    rows = table2_rows()
    rendered = {(phase, role): (comm, sto) for phase, role, comm, sto in rows}
    assert rendered[("config", Roles.KEY)] == ("O(c^2)", "O(c^2)")
    assert rendered[("semicommit", Roles.REFEREE)] == ("O(m^2)", "O(m)")
    assert rendered[("config", Roles.REFEREE)] == ("-", "-")


# -- incentive ----------------------------------------------------------------


def test_expected_score_monotone_in_capacity():
    scores = [expected_score(k, 20) for k in range(0, 21, 5)]
    assert scores == sorted(scores)
    assert scores[0] == 0.0
    assert scores[-1] == pytest.approx(1.0)


def test_reward_shares_normalized():
    shares = distribute_rewards(1.0, {"a": 1.0, "b": -1.0, "c": 0.0})
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["a"] > shares["c"] > shares["b"]


def test_leader_punishment_cube_root():
    assert punished_reputation(27.0) == pytest.approx(3.0)
    assert punished_reputation(-2.0) == 0.0


# -- baselines ----------------------------------------------------------------


def test_table1_qualitative_rows():
    profiles = {model.name: model for model in ALL_MODELS}
    assert profiles["Elastico"].resiliency == pytest.approx(1 / 4)
    assert profiles["OmniLedger"].resiliency == pytest.approx(1 / 4)
    assert profiles["RapidChain"].resiliency == pytest.approx(1 / 3)
    assert profiles["CycLedger"].resiliency == pytest.approx(1 / 3)
    assert profiles["CycLedger"].leader_robust
    assert profiles["CycLedger"].has_incentives
    assert not any(
        profiles[name].leader_robust for name in ("Elastico", "OmniLedger", "RapidChain")
    )
    assert profiles["CycLedger"].connection_burden == "light"
    # The measured leader-attack column reads these backends; Elastico has none.
    assert profiles["Elastico"].backend is None
    assert {model.backend for model in ALL_MODELS} - {None} <= set(backend_names())


def test_table1_cells_are_measured():
    """The Complexity, Storage and Burden cells of a protocol with a backend
    come from its run; Elastico's print the stated classes.  A referee
    member talks to every key member and the rest of C_R: §III-B's
    m(λ + 1) + |C_R| - 1, far below the n - 1 a rival assumes."""
    params = ProtocolParams(**policy_compare_spec().base)
    cells = table1_cells(params)
    assert cells["Elastico"] == {
        "complexity": "Ω(n)", "storage": "O(n)",
        "burden": f"n − 1 = {params.n - 1} (every pair)",
    }
    for name in ("RapidChain", "OmniLedger"):
        assert float(cells[name]["complexity"]) > 0
        assert cells[name]["burden"] == cells["Elastico"]["burden"]
    cyc = cells["CycLedger"]
    assert float(cyc["complexity"]) > float(cells["RapidChain"]["complexity"])
    assert cyc["storage"].startswith("common ")
    partners = cyc["partners"]
    assert set(partners) == set(Roles.ALL)
    bound = params.m * (params.lam + 1) + params.referee_size - 1
    assert partners["referee"][1] == bound
    assert max(top for _mean, top in partners.values()) < params.n - 1


# -- metrics ---------------------------------------------------------------------


def test_counters_by_phase_and_role():
    metrics = MetricsCollector()
    metrics.set_role(1, Roles.KEY)
    metrics.set_role(2, Roles.COMMON)
    metrics.set_phase("intra")
    metrics.record_sends(1, 1, 100)
    metrics.record_sends(2, 1, 50)
    metrics.set_phase("block")
    metrics.record_sends(1, 1, 10)
    assert metrics.cells[("intra", Roles.KEY)].messages == 1
    assert metrics.cells[("intra", Roles.COMMON)].bytes == 50
    assert metrics.cells[("block", Roles.KEY)].messages == 1
    assert metrics.total_messages() == 3
    assert metrics.phases() == ["intra", "block"]


def test_storage_high_water():
    metrics = MetricsCollector()
    metrics.set_role(1, Roles.REFEREE)
    metrics.record_storage(1, 10)
    metrics.record_storage(1, 5)
    assert metrics.cells[("setup", Roles.REFEREE)].storage == 10


def test_merge():
    a, b = MetricsCollector(), MetricsCollector()
    a.set_role(1, Roles.KEY)
    b.set_role(1, Roles.KEY)
    a.set_phase("intra"); a.record_sends(1, 1, 10)
    b.set_phase("intra"); b.record_sends(1, 1, 20); b.record_storage(1, 7)
    a.merge(b)
    merged = a.cells[("intra", Roles.KEY)]
    assert (merged.messages, merged.bytes, merged.storage) == (2, 30, 7)


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        MetricsCollector().set_role(1, "king")


def test_fit_power_law_recovers_exponent():
    xs = np.array([10, 20, 40, 80], dtype=float)
    ys = 3.0 * xs**2
    a, b = fit_power_law(xs, ys)
    assert a == pytest.approx(3.0, rel=1e-6)
    assert b == pytest.approx(2.0, abs=1e-9)
    assert scaling_exponent(xs, ys) == pytest.approx(2.0)
    assert r_squared_loglog(xs, ys) == pytest.approx(1.0)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [0.0, 1.0])


def test_role_cells_count_each_message_at_both_ends():
    """Table II's cells: a delivered message counts once for its sender's
    role and once for its recipient's, per node of the roles the round
    assigned at its start."""
    params = ProtocolParams(**policy_compare_spec().base)
    cells, report = role_cells(params)
    assert report.round_number == 2
    nodes = {role: cell["nodes"] for (_phase, role), cell in cells.items()}
    assert nodes == {Roles.COMMON: 28, Roles.KEY: 12, Roles.REFEREE: 8}
    handled = sum(cell["messages"] * cell["nodes"] for cell in cells.values())
    assert round(handled) == 2 * report.messages
    assert round(sum(cell["bytes"] * cell["nodes"] for cell in cells.values())) == (
        2 * report.bytes_sent
    )
    # C_R sends nothing in the intra phase and receives each committee's result.
    assert cells[("intra", Roles.REFEREE)]["messages"] == params.m
