"""Reputation scoring (Eq. 1), g(x) (Eq. 2), rewards, and the phase."""

import numpy as np
import pytest
from test_decision_reference import staged

from repro.core.committee import run_committee_configuration
from repro.core.intra import run_intra_consensus
from repro.core.reputation import (
    LEADER_BONUS,
    cosine_scores,
    distribute_rewards,
    g,
    run_reputation_updating,
)
from repro.core.sandbox import build_sandbox
from repro.nodes.behaviors import ContraryVoter, LazyVoter


# -- Eq. 1 -------------------------------------------------------------------


def test_perfect_agreement_scores_one():
    u = np.array([1, -1, 1, -1])
    matrix = np.tile(u, (3, 1))
    assert np.allclose(cosine_scores(matrix, u), 1.0)


def test_perfect_disagreement_scores_minus_one():
    u = np.array([1, -1, 1])
    matrix = -np.tile(u, (2, 1))
    assert np.allclose(cosine_scores(matrix, u), -1.0)


def test_all_unknown_scores_zero():
    u = np.array([1, 1, -1])
    matrix = np.zeros((4, 3))
    assert np.allclose(cosine_scores(matrix, u), 0.0)


def test_partial_knowledge_scores_sqrt_fraction():
    """Judging k of D transactions correctly scores sqrt(k/D) (Eq. 1)."""
    u = np.ones(4)
    row = np.array([[1, 1, 0, 0]])
    assert cosine_scores(row, u)[0] == pytest.approx(np.sqrt(2 / 4))


def test_zero_decision_vector_scores_zero():
    matrix = np.array([[1, -1]])
    assert np.allclose(cosine_scores(matrix, np.zeros(2)), 0.0)


def test_scores_bounded():
    rng = np.random.default_rng(0)
    matrix = rng.integers(-1, 2, size=(50, 20))
    u = rng.integers(-1, 2, size=20)
    scores = cosine_scores(matrix, u)
    assert np.all(scores >= -1.0) and np.all(scores <= 1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        cosine_scores(np.ones((2, 3)), np.ones(4))


# -- Eq. 2 -------------------------------------------------------------------


def test_g_at_zero_is_one():
    assert g(0.0) == pytest.approx(1.0)


def test_g_branches():
    assert g(-1.0) == pytest.approx(np.exp(-1))
    assert g(np.e - 1) == pytest.approx(2.0)


def test_g_monotone():
    xs = np.linspace(-5, 5, 201)
    ys = g(xs)
    assert np.all(np.diff(ys) > 0)


def test_g_continuous_at_zero():
    assert abs(g(1e-9) - g(-1e-9)) < 1e-6


def test_g_negative_maps_near_zero():
    assert g(-10.0) < 1e-4


# -- rewards -----------------------------------------------------------------


def test_rewards_sum_to_fees():
    reps = {"a": 2.0, "b": 0.0, "c": -3.0}
    rewards = distribute_rewards(100.0, reps)
    assert sum(rewards.values()) == pytest.approx(100.0)


def test_rewards_ordering_matches_reputation():
    reps = {"high": 5.0, "zero": 0.0, "low": -5.0}
    rewards = distribute_rewards(90.0, reps)
    assert rewards["high"] > rewards["zero"] > rewards["low"] > 0.0


def test_zero_reputation_still_rewarded():
    rewards = distribute_rewards(10.0, {"idle": 0.0, "busy": 3.0})
    assert rewards["idle"] > 0.0


def test_empty_reputations():
    assert distribute_rewards(10.0, {}) == {}


# -- the phase -----------------------------------------------------------------


def setup(behaviors=None, seed=0):
    ctx = staged(m=2, behaviors=behaviors, seed=seed, txs=40, invalid=0.2)
    run_intra_consensus(ctx)
    return ctx


def test_phase_updates_reputation():
    ctx = setup()
    report = run_reputation_updating(ctx)
    assert all(report.consensus_ok.values())
    assert report.updated > 0
    honest_non_leader = [
        ctx.reputation[ctx.pk_of(mid)]
        for committee in ctx.committees
        for mid in committee.members
        if mid != committee.leader
    ]
    assert all(r > 0 for r in honest_non_leader)


def test_leader_bonus_applied():
    ctx = setup()
    run_reputation_updating(ctx)
    for committee in ctx.committees:
        leader_rep = ctx.reputation[ctx.pk_of(committee.leader)]
        member_reps = [
            ctx.reputation[ctx.pk_of(mid)]
            for mid in committee.members
            if mid != committee.leader
        ]
        assert leader_rep >= max(member_reps) - 1e-9
        assert leader_rep == pytest.approx(max(member_reps) + LEADER_BONUS, abs=0.3)


def score_summary(ctx, report) -> dict[str, list[float]]:
    """This round's scores grouped by the scored member's behaviour name."""
    by_behavior: dict[str, list[float]] = {}
    for k, score_list in report.scores.items():
        for mid in ctx.committees[k].members:
            pk = ctx.pk_of(mid)
            if pk in score_list:
                name = ctx.node(mid).behavior.name
                by_behavior.setdefault(name, []).append(score_list[pk])
    return by_behavior


def test_contrary_voters_lose_reputation():
    behaviors = {i: ContraryVoter() for i in (3, 4)}
    ctx = setup(behaviors=behaviors, seed=2)
    report = run_reputation_updating(ctx)
    summary = score_summary(ctx, report)
    assert np.mean(summary["contrary_voter"]) < 0
    assert np.mean(summary["honest"]) > 0


def test_lazy_voters_score_zero():
    behaviors = {i: LazyVoter() for i in (5,)}
    ctx = setup(behaviors=behaviors, seed=3)
    report = run_reputation_updating(ctx)
    summary = score_summary(ctx, report)
    assert np.allclose(summary["lazy_voter"], 0.0)


def test_no_vote_records_scores_zero():
    ctx = build_sandbox(m=2, committee_size=8, lam=2)
    run_committee_configuration(ctx)
    report = run_reputation_updating(ctx)
    for score_list in report.scores.values():
        assert all(s == 0.0 for s in score_list.values())
