"""Tests for repro.serve (sharding and the detector pool)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.meta.stacked import MetaLearner
from repro.online import OnlineSession
from repro.serve import DetectorPool, midplane_of, shard_ids, shard_of_key
from repro.util.timeutil import MINUTE
from tests.per_event_oracle import PerEventPool


@pytest.fixture(scope="module")
def fitted(anl_events):
    cut = int(len(anl_events) * 0.7)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events.select(slice(0, cut)))
    return meta, anl_events.select(slice(cut, len(anl_events)))


# ------------------------------------------------------------- sharding


def test_midplane_of_extracts_prefix():
    assert midplane_of("R12-M0-N04-C32") == "R12-M0"
    assert midplane_of("R12-M1") == "R12-M1"
    # Coarser or free-form locations shard by their full string.
    assert midplane_of("R12") == "R12"
    assert midplane_of("service-card") == "service-card"


def test_shard_ids_midplane_matches_per_event_routing(fitted):
    meta, test = fitted
    router = PerEventPool(meta, shards=4, key="midplane")
    assignment = shard_ids(test, "midplane", 4)
    for i, ev in enumerate(test):
        assert router.shard_of(ev) == assignment[i]


def test_shard_ids_job_matches_per_event_routing(fitted):
    meta, test = fitted
    router = PerEventPool(meta, shards=3, key="job")
    assignment = shard_ids(test, "job", 3)
    for i, ev in enumerate(test):
        assert router.shard_of(ev) == assignment[i]


def test_shard_ids_are_in_range_and_deterministic(fitted):
    _, test = fitted
    for key in ("midplane", "job"):
        a = shard_ids(test, key, 5)
        assert a.min() >= 0 and a.max() < 5
        assert np.array_equal(a, shard_ids(test, key, 5))


def test_shard_of_key_is_stable():
    # crc32 is unsalted: the mapping is a constant across processes/runs.
    assert shard_of_key("R00-M0", 4) == shard_of_key("R00-M0", 4)
    assert 0 <= shard_of_key("anything", 7) < 7


def test_unknown_key_rejected(fitted):
    meta, test = fitted
    with pytest.raises(ValueError, match="shard key"):
        DetectorPool(meta, shards=2, key="rack")
    with pytest.raises(ValueError, match="shard key"):
        shard_ids(test, "rack", 2)


# ----------------------------------------------------------------- pool


def test_single_shard_pool_equals_plain_session(fitted):
    """shards=1 degenerates to one OnlineSession — identical everything."""
    meta, test = fitted
    session = OnlineSession(meta)
    warnings = session.process_store(test)
    stats = session.finish()

    report = DetectorPool(meta, shards=1, key="midplane").replay(test)
    assert len(report.shards) == 1
    assert report.shards[0].warnings == warnings
    assert report.combined == stats
    assert report.events == len(test)


def test_partition_covers_store_and_preserves_order(fitted):
    meta, test = fitted
    pool = DetectorPool(meta, shards=4, key="midplane")
    parts = pool.partition(test)
    assert sum(len(p) for _, p in parts) == len(test)
    shards = [s for s, _ in parts]
    assert shards == sorted(shards)
    for _, part in parts:
        assert np.all(np.diff(part.times) >= 0)


def test_replay_serial_equals_parallel(fitted):
    """Worker-shipped replay is bit-for-bit the serial replay."""
    meta, test = fitted
    pool = DetectorPool(meta, shards=4, key="midplane")
    serial = pool.replay(test, jobs=1)
    parallel = pool.replay(test, jobs=2)
    assert [s.shard for s in serial.shards] == [s.shard for s in parallel.shards]
    assert [s.stats for s in serial.shards] == [s.stats for s in parallel.shards]
    assert [s.warnings for s in serial.shards] == [
        s.warnings for s in parallel.shards
    ]
    assert serial.combined == parallel.combined


def test_replay_shard_stats_sum_to_combined(fitted):
    meta, test = fitted
    report = DetectorPool(meta, shards=4, key="job").replay(test)
    assert report.combined.events == sum(s.stats.events for s in report.shards)
    assert report.combined.failures == sum(
        s.stats.failures for s in report.shards
    )
    assert report.warnings_total == report.combined.warnings
    assert report.events_per_sec > 0


def test_daemon_mode_matches_replay(fitted):
    """Per-event oracle routing reaches the same per-shard streams."""
    meta, test = fitted
    router = PerEventPool(meta, shards=4, key="midplane")
    for ev in test:
        router.process(ev)
    daemon_stats = router.finish()
    replay_stats = DetectorPool(meta, shards=4, key="midplane").replay(test).combined
    assert daemon_stats == replay_stats


def test_replay_does_not_touch_daemon_sessions(fitted):
    meta, test = fitted
    pool = DetectorPool(meta, shards=2, key="midplane")
    pool.replay(test)
    assert pool.combined_stats().events == 0


def test_pool_requires_fitted_meta():
    with pytest.raises(ValueError, match="fitted"):
        DetectorPool(MetaLearner(), shards=2)


def test_pool_emits_serve_metrics(fitted):
    from repro.obs import MetricsRegistry, use

    meta, test = fitted
    registry = MetricsRegistry()
    with use(registry):
        DetectorPool(meta, shards=4, key="midplane").replay(test)
    assert "serve.events_per_sec" in registry.gauges
    assert registry.histograms.get("serve.feed_seconds")
    assert registry.histograms.get("serve.pending_warnings")
    assert any(k.startswith("serve.shard_events") for k in registry.counters)
    assert any(s.name == "serve.replay" for s in registry.spans)
