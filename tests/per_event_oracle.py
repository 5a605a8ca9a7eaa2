"""Frozen event-at-a-time reference of the online dispatch path (the oracle).

Production serves only column batches: ``MetaStream.step_batch`` under
``OnlineDetector.feed_store``, ``OnlineSession.process_store`` and
``DetectorPool.process_store``/``replay``.  This module keeps a verbatim
copy of the per-event route those replaced — ``MetaStream.step`` and its
helpers, ``OnlineDetector.feed``, ``OnlineSession.process`` and the
``DetectorPool.shard_of``/``process`` router — so the equivalence suites
can hold the batch route to it element for element.  Do not "optimize" it:
its value is that it is the plain, obviously-correct statement of the
paper's case 1/2/3 dispatch.

``PerEventDetector.feed`` maps labels into the classifier's label order, as
the per-event route always did.  That equals the rule item space only when
the model was fitted on a store interned in classifier order (every Phase-1
store is); compare it against the batch route on such stores.
"""

from __future__ import annotations

from typing import Optional

from repro.meta.stacked import MetaLearner, MetaStream
from repro.mining.rules import Rule
from repro.online.resolution import SessionStats, WarningResolver
from repro.predictors.base import FailureWarning
from repro.ras.events import RasEvent
from repro.serve.sharding import SHARD_KEYS, midplane_of, shard_of_key
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.classifier import TaxonomyClassifier


class PerEventStream(MetaStream):
    """:class:`MetaStream` plus the frozen per-event :meth:`step`."""

    @classmethod
    def of(cls, meta: MetaLearner) -> "PerEventStream":
        assert meta.rulebased.ruleset is not None
        return cls(
            ruleset=meta.rulebased.ruleset,
            statistical=meta.statistical,
            prediction_window=meta.prediction_window,
            source=meta.name,
        )

    def _best_satisfied(self) -> Optional[Rule]:
        return self._matcher.best_satisfied()

    def _active_stat_conf(self, t: int) -> float:
        """Max confidence among statistical warnings covering ``t``."""
        return max(
            (c for end, c in self._stat_conf_until if t <= end), default=0.0
        )

    def _advance(self, t: int) -> None:
        while self._window_events and self._window_events[0][0] < t - self.w:
            _, old_item = self._window_events.popleft()
            self._matcher.remove(old_item)
        while self._fatal_history and self._fatal_history[0] < t - self.stat_hi:
            self._fatal_history.popleft()
        while (
            self._trigger_history
            and self._trigger_history[0] < t - self.stat_hi
        ):
            self._trigger_history.popleft()

    def step(
        self,
        t: int,
        subcat_id: int,
        is_fatal: bool,
        category: MainCategory,
    ) -> list[FailureWarning]:
        """Process one event; returns the warnings it raised (0 or 1)."""
        t = int(t)
        if self._last_time is not None and t < self._last_time:
            raise ValueError(
                f"events must arrive in time order ({t} < {self._last_time})"
            )
        self._last_time = t
        self._advance(t)
        out: list[FailureWarning] = []

        if not is_fatal:
            self._window_events.append((t, subcat_id))
            completed = self._matcher.add(subcat_id)
            if completed:
                best = self._best_satisfied()
                if best is not None:
                    if self._fatal_history:
                        # Case 3 at a non-fatal arrival: defer to the
                        # statistical method only if one of its warnings is
                        # actually active and more confident.
                        if best.confidence >= self._active_stat_conf(t):
                            w = self._emit_rule(t, best)
                            if w:
                                out.append(w)
                    else:
                        # Case 1: only non-fatal context.
                        w = self._emit_rule(t, best)
                        if w:
                            out.append(w)
            return out

        # Fatal event: the statistical method's trigger point.
        stat_conf = self.statistical.candidate_confidence(category)
        if stat_conf is not None and not self._trigger_history:
            # The learned pattern is "trigger-category failure, then more
            # failures"; a trigger with no trigger-category history is the
            # potential *start* of a pattern, not evidence of one.
            stat_conf = None
        nonfatal_present = self._matcher.has_observed()
        best = self._best_satisfied() if nonfatal_present else None
        if stat_conf is not None:
            if not nonfatal_present:
                # Case 2: only fatal context -> statistical method.
                w = self._emit_stat(t, category, stat_conf)
                if w:
                    out.append(w)
            else:
                # Case 3: both present -> higher confidence wins.  The rule
                # side's candidate is the best currently satisfied rule; if
                # it wins, its warning is already active (or is (re)issued
                # here), so the statistical warning is suppressed.
                rule_conf = best.confidence if best is not None else 0.0
                if stat_conf > rule_conf:
                    w = self._emit_stat(t, category, stat_conf)
                    if w:
                        out.append(w)
                elif best is not None:
                    w = self._emit_rule(t, best)
                    if w:
                        out.append(w)
        elif best is not None:
            # Case 1 with a fatal of a non-trigger category: the rule method
            # covers what the statistical method cannot.
            w = self._emit_rule(t, best)
            if w:
                out.append(w)
        self._fatal_history.append(t)
        if category in self.trigger_set:
            self._trigger_history.append(t)
        return out


class PerEventDetector:
    """The frozen ``OnlineDetector.feed``: classify and step one event."""

    def __init__(self, meta: MetaLearner) -> None:
        if not meta.is_fitted:
            raise ValueError("MetaLearner must be fitted before going online")
        self.meta = meta
        self.classifier: TaxonomyClassifier = meta.statistical.classifier
        self._stream = PerEventStream.of(meta)
        self._label_index = {
            name: i for i, name in enumerate(self.classifier.label_names)
        }
        self.events_seen = 0

    @property
    def dispatch_counts(self) -> dict[str, int]:
        return dict(self._stream.dispatch_counts)

    def feed(self, event: RasEvent) -> list[FailureWarning]:
        """Classify and process one incoming RAS event."""
        label = event.subcategory or self.classifier.classify(event.entry_data)
        subcat_id = self._label_index.get(label)
        if subcat_id is None:
            # Unknown labels are treated as the classifier's fallback bucket.
            subcat_id = self._label_index[self.classifier.label_names[-1]]
            label = self.classifier.label_names[-1]
        category = self.classifier.category_of_label(label)
        is_fatal = event.is_fatal
        self.events_seen += 1
        return self._stream.step(event.time, subcat_id, is_fatal, category)


class PerEventSession:
    """The frozen ``OnlineSession.process``: resolve around each event."""

    def __init__(self, meta: MetaLearner) -> None:
        self.detector = PerEventDetector(meta)
        self.resolver = WarningResolver()

    def swap_model(self, meta: MetaLearner) -> None:
        events_seen = self.detector.events_seen
        self.detector = PerEventDetector(meta)
        self.detector.events_seen = events_seen

    @property
    def stats(self) -> SessionStats:
        return self.resolver.stats

    @property
    def pending_count(self) -> int:
        return self.resolver.pending_count

    def process(self, event: RasEvent) -> list[FailureWarning]:
        """Feed one event; resolve outstanding warnings against it."""
        resolver = self.resolver
        resolver.advance(event.time)
        resolver.stats.events += 1
        if event.is_fatal:
            resolver.observe_failure(event.time)
        raised = self.detector.feed(event)
        for w in raised:
            resolver.add(w)
        return raised

    def finish(self) -> SessionStats:
        return self.resolver.finalize()


class PerEventPool:
    """The frozen daemon-mode router: one event to its shard's session."""

    def __init__(self, meta: MetaLearner, shards: int = 4, key: str = "midplane"):
        if key not in SHARD_KEYS:
            raise ValueError(f"unknown shard key {key!r}; choose from {SHARD_KEYS}")
        self.meta = meta
        self.shards = int(shards)
        self.key = key
        self._sessions: dict[int, PerEventSession] = {}

    def shard_of(self, event: RasEvent) -> int:
        """The shard this event routes to (consistent with ``shard_ids``)."""
        if self.key == "job":
            return int(event.job_id % self.shards)
        return shard_of_key(midplane_of(event.location), self.shards)

    def session(self, shard: int) -> PerEventSession:
        existing = self._sessions.get(shard)
        if existing is None:
            existing = self._sessions[shard] = PerEventSession(self.meta)
        return existing

    def process(self, event: RasEvent) -> list[FailureWarning]:
        """Route one event to its shard and process it there."""
        return self.session(self.shard_of(event)).process(event)

    def finish(self) -> SessionStats:
        """Finalize every session; returns merged counters."""
        combined = SessionStats()
        for shard in sorted(self._sessions):
            combined.merge(self._sessions[shard].finish())
        return combined
