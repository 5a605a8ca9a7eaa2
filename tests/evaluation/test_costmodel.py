"""Tests for repro.actions.costmodel."""

import numpy as np
import pytest

from repro.actions.costmodel import (
    CheckpointPolicy,
    breakeven_precision,
    evaluate_policy,
)
from repro.evaluation.matching import MatchResult
from repro.evaluation.metrics import Metrics


def _match(leads, n_warnings=0, tp=0):
    leads = np.array(leads, dtype=float)
    covered = ~np.isnan(leads)
    return MatchResult(
        metrics=Metrics(n_warnings, tp, leads.size, int(covered.sum())),
        warning_hit=np.zeros(n_warnings, dtype=bool),
        fatal_covered=covered,
        lead_seconds=leads,
    )


POLICY = CheckpointPolicy(interval=3600, checkpoint_cost=300, restart_cost=600)


def test_policy_validation():
    with pytest.raises(ValueError):
        CheckpointPolicy(interval=0)
    with pytest.raises(ValueError):
        CheckpointPolicy(interval=100, checkpoint_cost=100)


def test_baseline_cost_hand_computed():
    # No failures, no warnings: only periodic checkpoints.
    report = evaluate_policy(_match([]), POLICY, period_seconds=36_000)
    assert report.baseline_cost == pytest.approx(10 * 300)
    assert report.predicted_cost == pytest.approx(10 * 300)
    assert report.saving == 0.0


def test_actionable_failure_saves_rollback():
    # One failure with 20 min lead: proactive checkpoint fits (300 s), the
    # residual rollback is 1200-300=900 < 1800 baseline rollback.
    m = _match([1200.0], n_warnings=1, tp=1)
    report = evaluate_policy(m, POLICY, period_seconds=36_000)
    assert report.actionable_failures == 1
    assert report.unactionable_failures == 0
    # Baseline: 3000 + (1800+600); predicted: 3000 + 900 + 600 + 1*300.
    assert report.baseline_cost == pytest.approx(3000 + 2400)
    assert report.predicted_cost == pytest.approx(3000 + 900 + 600 + 300)
    assert report.saving == pytest.approx(600)
    assert 0 < report.saving_fraction < 1


def test_insufficient_lead_is_unactionable():
    # 100 s of notice < 300 s checkpoint cost: behaves as baseline plus the
    # wasted checkpoint.
    m = _match([100.0], n_warnings=1, tp=1)
    report = evaluate_policy(m, POLICY, period_seconds=36_000)
    assert report.actionable_failures == 0
    assert report.saving == pytest.approx(-300)


def test_false_alarms_cost_checkpoints():
    m = _match([np.nan], n_warnings=5, tp=0)
    report = evaluate_policy(m, POLICY, period_seconds=36_000)
    assert report.false_alarm_checkpoints == 5
    assert report.saving == pytest.approx(-5 * 300)


def test_residual_rollback_capped_at_periodic():
    # Huge lead: the proactive checkpoint happened long before the failure,
    # but the periodic net still bounds the rollback.
    m = _match([30_000.0], n_warnings=1, tp=1)
    report = evaluate_policy(m, POLICY, period_seconds=360_000)
    # Residual = min(30000-300, 1800) = 1800 -> no rollback saving, and the
    # extra checkpoint makes it a net loss.
    assert report.saving == pytest.approx(-300)


def test_overlapping_warnings_on_same_fatal_charged_once():
    """Regression: two warnings matching the same fatal used to cost two
    proactive checkpoints; deduped by matched-failure id they cost one."""
    m = _match([1200.0], n_warnings=2, tp=2)
    m.warning_fatal = np.array([0, 0], dtype=np.int64)  # both hit fatal #0
    report = evaluate_policy(m, POLICY, period_seconds=36_000)
    # Predicted: 3000 periodic + 900 residual + 600 restart + ONE checkpoint.
    assert report.predicted_cost == pytest.approx(3000 + 900 + 600 + 300)
    # Distinct fatals still pay one checkpoint each.
    m2 = _match([1200.0, 1200.0], n_warnings=2, tp=2)
    m2.warning_fatal = np.array([0, 1], dtype=np.int64)
    report2 = evaluate_policy(m2, POLICY, period_seconds=36_000)
    assert report2.predicted_cost == pytest.approx(
        3000 + 2 * 900 + 2 * 600 + 2 * 300
    )


def test_without_warning_fatal_falls_back_to_tp_count():
    """Hand-built MatchResults (no warning_fatal) keep the legacy charge."""
    m = _match([1200.0], n_warnings=2, tp=2)
    assert m.warning_fatal is None
    report = evaluate_policy(m, POLICY, period_seconds=36_000)
    assert report.predicted_cost == pytest.approx(3000 + 900 + 600 + 2 * 300)


def test_match_warnings_populates_warning_fatal(anl_events):
    from repro.evaluation.matching import match_warnings
    from repro.predictors.base import FailureWarning

    t0 = int(anl_events.fatal_events().times[0])
    w = FailureWarning(issued_at=t0 - 100, horizon_start=t0 - 50,
                       horizon_end=t0 + 50, confidence=0.9,
                       source="meta", detail="t")
    match = match_warnings([w, w], anl_events)
    assert match.warning_fatal is not None
    assert match.warning_fatal.shape == (2,)
    assert match.warning_fatal[0] == match.warning_fatal[1] >= 0


def test_breakeven_precision():
    assert breakeven_precision(POLICY, mean_lead=100) == 1.0
    b = breakeven_precision(POLICY, mean_lead=1200)
    assert b == pytest.approx(300 / 1800)


def test_end_to_end_prediction_pays(anl_events):
    """On the ANL log, the meta-learner's warnings save computation."""
    from repro.evaluation.matching import match_warnings
    from repro.meta.stacked import MetaLearner
    from repro.util.timeutil import MINUTE

    # In-sample on the whole small store: this exercises the cost-model
    # mechanics with enough covered failures; out-of-sample magnitude is the
    # cost-model bench's job.
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events)
    match = match_warnings(meta.predict(anl_events), anl_events)
    period = float(anl_events.times[-1] - anl_events.times[0])
    report = evaluate_policy(
        match, CheckpointPolicy(interval=3600, checkpoint_cost=60,
                                restart_cost=300),
        period_seconds=period,
    )
    assert report.actionable_failures > 0
    assert report.saving > 0, "prediction must pay on this workload"
