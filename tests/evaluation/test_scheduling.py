"""Tests for repro.actions.rescue (job rescue simulation)."""

import pytest

from repro.bgl.jobs import Job, JobTrace
from repro.bgl.topology import ANL_SPEC, Machine
from repro.actions.rescue import (
    NODES_PER_MIDPLANE,
    simulate_rescue,
)
from repro.predictors.base import FailureWarning
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from tests.conftest import make_event


@pytest.fixture
def machine():
    return Machine(ANL_SPEC)


def _fatal(time, location):
    return make_event(time=time, location=location, severity=Severity.FATAL,
                      entry="kernel panic: unrecoverable condition detected")


def _warning(issued, ckpt=120):
    return FailureWarning(issued_at=issued, horizon_start=issued + 1,
                          horizon_end=issued + 3600, confidence=0.8,
                          source="meta", detail="test")


def test_reactive_loss_hand_computed(machine):
    # One single-midplane job, killed 1000 s in, no warnings.
    trace = JobTrace(machine, [Job(1, 10_000, 20_000, (0,))])
    events = EventStore.from_events([_fatal(11_000, "R00-M0-N03-C07")])
    out = simulate_rescue(trace, events, [])
    assert out.jobs_hit == 1
    assert out.reactive_loss == 1000 * NODES_PER_MIDPLANE
    # No checkpoints: proactive loss equals reactive, zero overhead.
    assert out.proactive_loss == out.reactive_loss
    assert out.checkpoint_overhead == 0
    assert out.rescued == 0
    assert out.rescue_ratio == 0.0


def test_checkpoint_rescues_work(machine):
    trace = JobTrace(machine, [Job(1, 10_000, 20_000, (0,))])
    events = EventStore.from_events([_fatal(15_000, "R00-M0-N03-C07")])
    # Warning at 14_000, checkpoint completes at 14_120.
    out = simulate_rescue(trace, events, [_warning(14_000)],
                          checkpoint_cost=120)
    assert out.jobs_with_checkpoint == 1
    assert out.proactive_loss == (15_000 - 14_120) * NODES_PER_MIDPLANE
    # Overhead: one checkpoint of one 1-midplane job.
    assert out.checkpoint_overhead == 120 * NODES_PER_MIDPLANE
    assert out.rescued > 0
    assert 0 < out.rescue_ratio < 1


def test_checkpoint_after_failure_useless(machine):
    trace = JobTrace(machine, [Job(1, 10_000, 20_000, (0,))])
    events = EventStore.from_events([_fatal(15_000, "R00-M0-N03-C07")])
    # Checkpoint completes only at 15_080 — after the failure.
    out = simulate_rescue(trace, events, [_warning(14_960)],
                          checkpoint_cost=120)
    assert out.jobs_with_checkpoint == 0
    assert out.proactive_loss == out.reactive_loss
    assert out.rescued < 0  # paid overhead for nothing


def test_failure_on_idle_midplane_ignored(machine):
    trace = JobTrace(machine, [Job(1, 10_000, 20_000, (0,))])
    events = EventStore.from_events([_fatal(15_000, "R00-M1-N03-C07")])
    out = simulate_rescue(trace, events, [])
    assert out.jobs_hit == 0
    assert out.reactive_loss == 0


def test_system_wide_failure_ignored(machine):
    trace = JobTrace(machine, [Job(1, 10_000, 20_000, (0,))])
    events = EventStore.from_events([_fatal(15_000, "SYSTEM")])
    out = simulate_rescue(trace, events, [])
    assert out.jobs_hit == 0


def test_job_killed_once(machine):
    trace = JobTrace(machine, [Job(1, 10_000, 20_000, (0,))])
    events = EventStore.from_events([
        _fatal(15_000, "R00-M0-N03-C07"),
        _fatal(16_000, "R00-M0-N09-C01"),
    ])
    out = simulate_rescue(trace, events, [])
    assert out.jobs_hit == 1


def test_full_machine_job_width(machine):
    trace = JobTrace(machine, [Job(1, 0, 10_000, (0, 1))])
    events = EventStore.from_events([_fatal(5_000, "R00-M1-N00-C00")])
    out = simulate_rescue(trace, events, [])
    assert out.reactive_loss == 5_000 * 2 * NODES_PER_MIDPLANE


def test_overhead_counts_each_job_once(machine):
    trace = JobTrace(machine, [Job(1, 0, 10_000, (0, 1))])
    out = simulate_rescue(trace, EventStore.empty(), [_warning(5_000)],
                          checkpoint_cost=100)
    # One full-machine job: one checkpoint of 2 midplanes.
    assert out.checkpoint_overhead == 100 * 2 * NODES_PER_MIDPLANE


def test_overlapping_warnings_same_fatal_checkpoint_once(machine):
    """Regression: overlapping warnings matching the same fatal used to
    trigger one checkpoint each; deduped they trigger exactly one."""
    trace = JobTrace(machine, [Job(1, 10_000, 20_000, (0,))])
    events = EventStore.from_events([_fatal(15_000, "R00-M0-N03-C07")])
    # Both horizons contain the 15_000 fatal; only the earlier one acts.
    overlapping = [_warning(14_000), _warning(14_200)]
    out = simulate_rescue(trace, events, overlapping, checkpoint_cost=120)
    assert out.checkpoint_overhead == 120 * NODES_PER_MIDPLANE
    # The kept (earlier) warning's checkpoint sets the restart point.
    assert out.proactive_loss == (15_000 - 14_120) * NODES_PER_MIDPLANE


def test_false_alarms_still_pay_their_checkpoints(machine):
    """Dedupe only collapses warnings matching the same fatal; unmatched
    warnings each still cost a checkpoint."""
    trace = JobTrace(machine, [Job(1, 0, 100_000, (0,))])
    events = EventStore.from_events([_fatal(50_000, "R00-M0-N03-C07")])
    # Two false alarms (horizons end before the fatal) + two overlapping
    # true warnings -> 3 checkpoints total.
    warnings = [
        _warning(10_000), _warning(20_000),  # horizons end 13.6k/23.6k
        _warning(49_000), _warning(49_500),  # both cover 50_000
    ]
    out = simulate_rescue(trace, events, warnings, checkpoint_cost=120)
    assert out.checkpoint_overhead == 3 * 120 * NODES_PER_MIDPLANE


def test_dedupe_helper_keeps_earliest_per_fatal():
    import numpy as np

    from repro.actions.rescue import dedupe_by_matched_fatal

    kept = dedupe_by_matched_fatal(
        [_warning(14_200), _warning(14_000)],
        np.array([15_000], dtype=np.int64),
    )
    assert [w.issued_at for w in kept] == [14_000]


def test_validation(machine):
    trace = JobTrace(machine, [])
    with pytest.raises(ValueError):
        simulate_rescue(trace, EventStore.empty(), [], checkpoint_cost=0)


def test_end_to_end_on_generated_log(small_anl_log, anl_events):
    """On the generated log with real meta warnings, prediction rescues a
    positive share of the reactively lost work."""
    from repro.meta.stacked import MetaLearner
    from repro.util.timeutil import MINUTE

    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events)
    warnings = meta.predict(anl_events)
    out = simulate_rescue(
        small_anl_log.job_trace, anl_events, warnings, checkpoint_cost=60
    )
    assert out.jobs_hit > 0
    assert out.reactive_loss > 0
    assert out.rescued > 0
    assert out.jobs_with_checkpoint > 0
