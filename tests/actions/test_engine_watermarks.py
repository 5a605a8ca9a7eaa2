"""The engine's due/expiry watermarks change no decision and no ledger byte.

``ActionEngine.observe_store`` skips the pending-warning and open-action
scans for an event that cannot decide or expire anything.
``ScanEveryEventEngine`` is a frozen copy of the loop before that skip: it
scans both lists at every event.  Both are fed the same stores, whole and
in chunk splits, and must produce the same ledger digest.
"""

from typing import List

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.actions import ActionEngine, CostModel, TraceJobView, build_policy
from repro.core.pipeline import ThreePhasePredictor
from repro.meta.stacked import MetaLearner
from repro.predictors.base import FailureWarning
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from repro.synth.generator import LogGenerator
from repro.synth.profiles import sdsc_profile
from repro.util.rng import as_generator
from tests.conftest import make_event

POLICIES = ("cost-aware", "checkpoint", "migrate", "quarantine")


class ScanEveryEventEngine(ActionEngine):
    """``observe_store`` as it was: both scans run at every event."""

    def observe_store(
        self, store: EventStore, warnings: List[FailureWarning]
    ) -> None:
        self._pending.extend(warnings)
        times = store.times
        jobs = store.jobs
        loc_ids = store.location_ids
        loc_table = store.location_table
        fatal = store.fatal_mask()
        for i in range(len(times)):
            t = int(times[i])
            self._decide_before(t)
            self._expire_before(t)
            location = loc_table[int(loc_ids[i])]
            self.view.observe(t, location, int(jobs[i]))
            if fatal[i]:
                self._on_fatal(t, location)


def _chunks(store, warnings, cuts):
    """Split rows at ``cuts``; each warning rides with its issuing event's chunk."""
    bounds = [0, *sorted(set(cuts)), len(store)]
    issued = np.searchsorted(store.times, [w.issued_at for w in warnings], "left")
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        last = hi == len(store)
        mine = [w for w, k in zip(warnings, issued) if lo <= k < hi or (last and k >= hi)]
        out.append((store.select(slice(lo, hi)), mine))
    return out


def _digest(engine_cls, policy, chunks, **kwargs):
    engine = engine_cls(build_policy(policy), CostModel(), seed=3, **kwargs)
    for store, warnings in chunks:
        engine.observe_store(store, list(warnings))
    return engine.finalize().digest()


def test_pipeline_ledgers_match_scan_every_event():
    log = LogGenerator(sdsc_profile(), scale=0.1, seed=5).generate()
    events = ThreePhasePredictor().preprocess(log.raw).events
    train = events.select(slice(0, len(events) // 2))
    warnings = MetaLearner(prediction_window=1800, rule_window=900).fit(
        train
    ).predict(events)
    assert len(warnings) > 10
    rng = as_generator(0)
    splits = [[]] + [
        sorted(rng.integers(1, len(events), size=n).tolist()) for n in (1, 7, 40)
    ]
    for policy in POLICIES:
        for cuts in splits:
            chunks = _chunks(events, warnings, cuts)
            digests = {
                _digest(cls, policy, chunks, view=TraceJobView(log.job_trace))
                for cls in (ActionEngine, ScanEveryEventEngine)
            }
            assert len(digests) == 1, (policy, cuts)


_LOCATIONS = ["R00-M0-N00-C00", "R00-M0-N05-C01", "R00-M1-N02-C00", "R00-M1-N09-C03"]

events_st = st.lists(
    st.tuples(
        st.integers(0, 200),             # time (small range: many ties)
        st.sampled_from(_LOCATIONS),
        st.sampled_from([-1, 1, 2, 3]),  # job id
        st.booleans(),                   # fatal
    ),
    min_size=1,
    max_size=60,
)
warnings_st = st.lists(
    st.tuples(
        st.integers(0, 200),             # issued_at
        st.integers(0, 100),             # lead to horizon start
        st.integers(0, 400),             # horizon length
        st.floats(0.0, 1.0),
        st.sampled_from(["meta", "rule", "statistical"]),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=events_st,
    raw_warnings=warnings_st,
    cuts=st.lists(st.integers(1, 59), max_size=6),
    policy=st.sampled_from(POLICIES),
)
def test_random_streams_match_scan_every_event(rows, raw_warnings, cuts, policy):
    rows = sorted(rows)
    store = EventStore.from_events([
        make_event(
            time=t, location=loc, job_id=job,
            severity=Severity.FATAL if fatal else Severity.INFO,
            entry="kernel panic" if fatal else "timer interrupt rollover serviced",
        )
        for t, loc, job, fatal in rows
    ])
    warnings = [
        FailureWarning(issued_at=t, horizon_start=t + lead,
                       horizon_end=t + lead + span, confidence=conf,
                       source=source, detail=f"w{i}")
        for i, (t, lead, span, conf, source) in enumerate(raw_warnings)
    ]
    chunks = _chunks(store, warnings, [c for c in cuts if c < len(store)])
    assert _digest(ActionEngine, policy, chunks) == _digest(
        ScanEveryEventEngine, policy, chunks
    )
