"""Extension — fault-tolerance value of prediction (paper §1 motivation).

Converts the meta-learner's measured accuracy into the currency operators
budget in: expected lost computation under prediction-driven checkpointing
vs a periodic baseline, across checkpoint-cost regimes.  Cheap checkpoints
make even modest precision pay; expensive checkpoints raise the bar — the
quantitative form of the paper's "preventive action" argument.
"""

import pytest

from benchmarks.conftest import report
from repro.actions.costmodel import CheckpointPolicy, evaluate_policy
from repro.evaluation.matching import match_warnings
from repro.meta.stacked import MetaLearner
from repro.predictors.statistical import StatisticalPredictor
from repro.util.timeutil import HOUR, MINUTE


@pytest.fixture(scope="module")
def meta_match(anl_bench_events):
    cut = int(len(anl_bench_events) * 0.7)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_bench_events.select(slice(0, cut)))
    test = anl_bench_events.select(slice(cut, len(anl_bench_events)))
    match = match_warnings(meta.predict(test), test)
    period = float(test.times[-1] - test.times[0])
    return match, period


def test_ext_costmodel_regimes(meta_match, benchmark):
    match, period = meta_match

    def run():
        out = {}
        for cost in (30, 120, 300, 900):
            policy = CheckpointPolicy(
                interval=HOUR, checkpoint_cost=cost, restart_cost=300
            )
            out[cost] = evaluate_policy(match, policy, period)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("ckpt cost (s)", "saving (s)", "saving %", "actionable")]
    for cost, r in out.items():
        rows.append((cost, int(r.saving), f"{r.saving_fraction:.1%}",
                     r.actionable_failures))
    report("Extension — checkpoint cost regimes (ANL, meta W=30 min)", rows)

    # Cheap checkpoints: prediction pays.  The saving shrinks monotonically
    # as checkpoints get more expensive (fewer actionable failures, dearer
    # false alarms).
    savings = [out[c].saving for c in (30, 120, 300, 900)]
    assert savings[0] > 0
    assert all(a >= b for a, b in zip(savings, savings[1:]))


def test_ext_costmodel_meta_beats_statistical(
    anl_bench_events, meta_match, benchmark
):
    """The recall/precision edge translates into real saved node-seconds."""
    match_meta, period = meta_match

    def run():
        cut = int(len(anl_bench_events) * 0.7)
        stat = StatisticalPredictor(window=HOUR, lead=5 * MINUTE).fit(
            anl_bench_events.select(slice(0, cut))
        )
        test = anl_bench_events.select(slice(cut, len(anl_bench_events)))
        match_stat = match_warnings(stat.predict(test), test)
        policy = CheckpointPolicy(
            interval=HOUR, checkpoint_cost=120, restart_cost=300
        )
        return (
            evaluate_policy(match_meta, policy, period),
            evaluate_policy(match_stat, policy, period),
        )

    meta_r, stat_r = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Extension — FT saving, meta vs statistical (ckpt=120 s)",
        [
            ("meta saving (s)", int(meta_r.saving)),
            ("statistical saving (s)", int(stat_r.saving)),
        ],
    )
    assert meta_r.saving > stat_r.saving
