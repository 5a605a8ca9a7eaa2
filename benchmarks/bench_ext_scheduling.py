"""Extension — end-to-end job rescue (the paper's §1 use case, concretely).

Replays the generated ANL machine — its actual job schedule, failures and
the meta-learner's warnings — through prediction-driven checkpointing, and
reports the node-seconds of computation rescued.  This is the whole paper's
argument in one number: prediction turns a measurable share of
restart-from-scratch losses into restart-from-checkpoint losses.
"""

import pytest

from benchmarks.conftest import report
from repro.actions.rescue import simulate_rescue
from repro.meta.stacked import MetaLearner
from repro.predictors.statistical import StatisticalPredictor
from repro.util.timeutil import HOUR, MINUTE


@pytest.fixture(scope="module")
def replay(anl_bench_log, anl_bench_events):
    cut = int(len(anl_bench_events) * 0.6)
    train = anl_bench_events.select(slice(0, cut))
    test = anl_bench_events.select(slice(cut, len(anl_bench_events)))
    return anl_bench_log.job_trace, train, test


def test_ext_rescue_with_meta(replay, benchmark):
    trace, train, test = replay

    def run():
        meta = MetaLearner(
            prediction_window=30 * MINUTE, rule_window=15 * MINUTE
        ).fit(train)
        warnings = meta.predict(test)
        return simulate_rescue(trace, test, warnings, checkpoint_cost=60)

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Extension — job rescue with the meta-learner (ANL, ckpt=60 s)",
        [
            ("jobs killed by localized failures", out.jobs_hit),
            ("... restarting from a proactive checkpoint",
             out.jobs_with_checkpoint),
            ("reactive loss (node-hours)", round(out.reactive_loss / 3600)),
            ("proactive loss + overhead (node-hours)",
             round(out.proactive_total / 3600)),
            ("rescued (node-hours)", round(out.rescued / 3600)),
            ("rescue ratio", f"{out.rescue_ratio:.1%}"),
        ],
    )
    assert out.jobs_hit > 0
    assert out.rescued > 0, "prediction must rescue net node-hours"
    assert out.jobs_with_checkpoint / out.jobs_hit > 0.3


def test_ext_rescue_meta_vs_statistical(replay, benchmark):
    trace, train, test = replay

    def run():
        meta = MetaLearner(
            prediction_window=30 * MINUTE, rule_window=15 * MINUTE
        ).fit(train)
        stat = StatisticalPredictor(window=HOUR, lead=5 * MINUTE).fit(train)
        return (
            simulate_rescue(trace, test, meta.predict(test),
                            checkpoint_cost=60),
            simulate_rescue(trace, test, stat.predict(test),
                            checkpoint_cost=60),
        )

    meta_out, stat_out = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Extension — rescue ratio by predictor (ANL)",
        [
            ("meta", f"{meta_out.rescue_ratio:.1%}"),
            ("statistical", f"{stat_out.rescue_ratio:.1%}"),
        ],
    )
    assert meta_out.rescued >= stat_out.rescued
