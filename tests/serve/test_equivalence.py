"""Equivalence suite: batch feed == per-event oracle == offline predict.

The columnar serving path is only admissible because it is *bit-identical*
to the frozen per-event reference (``tests/per_event_oracle.py``); these
tests enforce that element-for-element, on both synthetic-log profiles (ANL
and SDSC event mixes stress different dispatch cases).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.meta.stacked import MetaLearner
from repro.mining.rules import rule_item_ids
from repro.online import OnlineDetector, OnlineSession
from repro.util.timeutil import MINUTE
from tests.per_event_oracle import PerEventDetector, PerEventSession


def _fit_split(events):
    cut = int(len(events) * 0.7)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(events.select(slice(0, cut)))
    return meta, events.select(slice(cut, len(events)))


@pytest.fixture(scope="module", params=["anl", "sdsc"])
def fitted(request, anl_events, sdsc_events):
    events = anl_events if request.param == "anl" else sdsc_events
    return _fit_split(events)


def _assert_same_warnings(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert (a.issued_at, a.horizon_start, a.horizon_end, a.source, a.detail) \
            == (b.issued_at, b.horizon_start, b.horizon_end, b.source, b.detail)
        assert a.confidence == b.confidence


def test_feed_store_equals_per_event_feed(fitted):
    meta, test = fitted
    per_event = PerEventDetector(meta)
    reference = []
    for ev in test:
        reference.extend(per_event.feed(ev))

    batched = OnlineDetector(meta)
    _assert_same_warnings(batched.feed_store(test), reference)
    assert batched.events_seen == per_event.events_seen == len(test)


def test_feed_store_equals_offline_predict(fitted):
    meta, test = fitted
    offline = meta.predict(test)
    _assert_same_warnings(OnlineDetector(meta).feed_store(test), offline)


def test_feed_batch_chunking_is_invariant(fitted):
    """Chunk boundaries must not change the output (state carries over)."""
    meta, test = fitted
    whole = OnlineDetector(meta).feed_store(test)

    chunked = OnlineDetector(meta)
    label_ids = rule_item_ids(
        test, meta.rulebased.ruleset, meta.statistical.classifier
    )
    fatal = test.fatal_mask()
    out = []
    for lo in range(0, len(test), 17):
        hi = min(lo + 17, len(test))
        out.extend(
            chunked.feed_batch(test.times[lo:hi], label_ids[lo:hi], fatal[lo:hi])
        )
    _assert_same_warnings(out, whole)


def test_feed_batch_rejects_time_disorder(fitted):
    meta, test = fitted
    detector = OnlineDetector(meta)
    times = np.array([1000, 999], dtype=np.int64)
    ids = np.zeros(2, dtype=np.int64)
    fatal = np.zeros(2, dtype=bool)
    with pytest.raises(ValueError, match="time order"):
        detector.feed_batch(times, ids, fatal)


def test_feed_batch_rejects_rewind_across_batches(fitted):
    meta, test = fitted
    detector = OnlineDetector(meta)
    ids = np.zeros(1, dtype=np.int64)
    fatal = np.zeros(1, dtype=bool)
    detector.feed_batch(np.array([5000], dtype=np.int64), ids, fatal)
    with pytest.raises(ValueError, match="time order"):
        detector.feed_batch(np.array([4000], dtype=np.int64), ids, fatal)


def test_feed_store_empty_store_is_noop(fitted):
    meta, test = fitted
    detector = OnlineDetector(meta)
    assert detector.feed_store(test.select(np.array([], dtype=int))) == []
    assert detector.events_seen == 0


def test_session_process_store_equals_per_event_process(fitted):
    """SessionStats (every counter, including lead times) must match."""
    meta, test = fitted
    per_event = PerEventSession(meta)
    reference = []
    for ev in test:
        reference.extend(per_event.process(ev))

    batched = OnlineSession(meta)
    warnings = batched.process_store(test)
    _assert_same_warnings(warnings, reference)
    assert batched.stats == per_event.stats
    assert batched.pending_count == per_event.pending_count
    assert batched.finish() == per_event.finish()
