"""Streaming failure detection (the daemon-facing API).

:class:`OnlineDetector` wraps a fitted :class:`~repro.meta.stacked.MetaLearner`
(or its :class:`~repro.meta.stacked.MetaStream`) behind a columnar feed:
:meth:`OnlineDetector.feed_store` takes a classified
:class:`~repro.ras.store.EventStore` (a whole log or one chunk of a live
stream) and returns the warnings it raised.  Window state carries across
calls, so any chunking of a stream yields the same warnings as one
``meta.predict`` over all of it (see ``docs/serving.md``).

:class:`OnlineSession` adds real-time *resolution*: it matches warnings
against the failures that subsequently arrive, expiring horizons as the
clock advances, and maintains the counters an operator dashboard would show
(caught/missed failures, false alarms, lead times).  Resolution is causal —
a warning is only counted as a false alarm once its horizon has fully
elapsed without a failure — and runs on the heap-based
:class:`~repro.online.resolution.WarningResolver` (O(log P) amortized per
event in the pending-warning count P).
"""

from __future__ import annotations

import numpy as np

from repro.meta.stacked import MetaLearner, MetaStream
from repro.online.resolution import SessionStats, WarningResolver
from repro.predictors.base import FailureWarning
from repro.ras.store import EventStore

__all__ = ["OnlineDetector", "OnlineSession", "SessionStats"]


class OnlineDetector:
    """Streaming front end of a fitted meta-learner.

    Feed classified stores (or chunks of one) in time order with
    :meth:`feed_store`; each call returns the warnings that chunk raised.
    Output over a stream equals ``meta.predict(store)`` over the equivalent
    store (same dispatch state machine underneath).  :meth:`feed_batch`
    accepts column batches already in the rule item space.
    """

    def __init__(self, meta: MetaLearner) -> None:
        if not meta.is_fitted:
            raise ValueError("MetaLearner must be fitted before going online")
        self.meta = meta
        self._stream: MetaStream = meta.stream()
        self.events_seen = 0

    @property
    def dispatch_counts(self) -> dict[str, int]:
        """Warnings emitted per base method so far."""
        return dict(self._stream.dispatch_counts)

    def feed_batch(
        self, times: np.ndarray, item_ids: np.ndarray, fatal_mask: np.ndarray
    ) -> list[FailureWarning]:
        """Process a column batch; returns all warnings it raised, in order.

        ``item_ids`` must be in the rule item space
        (:func:`~repro.mining.rules.rule_item_ids`); :meth:`feed_store`
        maps a store's labels first.
        """
        warnings = self._stream.step_batch(times, item_ids, fatal_mask)
        self.events_seen += len(times)
        return warnings

    def feed_store(self, store: EventStore) -> list[FailureWarning]:
        """Feed a classified store (or chunk of one) through the stream."""
        warnings = self._stream.step_store(store)
        self.events_seen += len(store)
        return warnings


class OnlineSession:
    """Detector plus causal warning resolution.

    :meth:`process_store` returns the warnings a chunk raised; resolution
    state is read off :attr:`stats` at any time.  A warning becomes a *hit*
    the first time a failure lands in its horizon and a *false alarm* when
    an event arrives after its horizon with no failure having landed.
    """

    def __init__(self, meta: MetaLearner) -> None:
        self.detector = OnlineDetector(meta)
        self.resolver = WarningResolver()

    def swap_model(self, meta: MetaLearner) -> None:
        """Install a new fitted model at a warning-safe barrier.

        Call *between* chunks (every :meth:`process_store` call is atomic,
        so any inter-chunk point is a barrier).  The detector is
        rebuilt from scratch — the new model starts from empty window state,
        exactly as a cold restart would — while the resolver keeps running,
        so warnings the old model issued still resolve against the events
        that follow.  The emitted warning stream is therefore identical,
        element for element, to stopping this session at the barrier and
        cold-starting the new model on the remaining stream (tested in
        ``tests/lifecycle/test_swap.py``).
        """
        events_seen = self.detector.events_seen
        self.detector = OnlineDetector(meta)
        self.detector.events_seen = events_seen

    @property
    def stats(self) -> SessionStats:
        """The resolver's operator-facing counters."""
        return self.resolver.stats

    @property
    def pending_count(self) -> int:
        """Warnings whose horizon has not fully elapsed yet."""
        return self.resolver.pending_count

    def process_store(self, store: EventStore) -> list[FailureWarning]:
        """Feed a classified store (or chunk of one); resolve against it.

        Detection runs once over the columns (:meth:`OnlineDetector.feed_store`);
        resolution then replays the merged event/warning timeline.  A warning
        issued at time ``t`` never covers events at ``t`` (horizons start
        strictly later), so enqueueing each warning just before the first
        event after its issue time reproduces the per-event interleaving
        exactly.  Warnings issued at the chunk's last timestamp enqueue at
        its end, which is observationally identical for the same reason:
        any chunking of a stream gives identical :attr:`stats`.
        """
        warnings = self.detector.feed_store(store)
        resolver = self.resolver
        stats = resolver.stats
        advance = resolver.advance
        observe_failure = resolver.observe_failure
        add = resolver.add
        times = store.times.tolist()
        fatal_list = store.fatal_mask().tolist()
        wi = 0
        n_warnings = len(warnings)
        for t, is_fatal in zip(times, fatal_list):
            while wi < n_warnings and warnings[wi].issued_at < t:
                add(warnings[wi])
                wi += 1
            advance(t)
            stats.events += 1
            if is_fatal:
                observe_failure(t)
        while wi < n_warnings:
            add(warnings[wi])
            wi += 1
        return warnings

    def finish(self) -> SessionStats:
        """Resolve every outstanding warning (end of shift) and return stats."""
        return self.resolver.finalize()
