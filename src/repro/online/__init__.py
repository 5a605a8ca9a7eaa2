"""Online deployment surface (paper §3.3 discussion).

The paper argues the meta-learner is cheap enough "to deploy ... as an
online prediction engine" — rule matching is trivial and only an hour of
history must be retained.  The batch predictors in :mod:`repro.predictors`
and :mod:`repro.meta` process whole stores; this subpackage provides the
streaming counterpart a monitoring daemon would embed, fed one classified
chunk of the stream at a time:

- :class:`repro.online.detector.OnlineDetector` — ``feed_store`` a chunk;
  the warnings it raised are returned at once, and window state carries
  over to the next chunk.  Its output is bit-identical to
  :meth:`repro.meta.stacked.MetaLearner.predict` on the same stream, for
  any chunking (tested), so offline evaluation transfers to deployment.
- :class:`repro.online.detector.OnlineSession` — bookkeeping wrapper that
  also resolves warnings against observed failures in real time, maintaining
  the operator-facing counters (hits, false alarms, misses, lead times).
- :class:`repro.online.resolution.WarningResolver` — the heap-based
  resolution core (O(log P) amortized per event in the pending count P),
  shared by the session and the :mod:`repro.serve` engine.

For serving many independent streams from one fitted model, see
:mod:`repro.serve` (sharded detector pool, throughput accounting).
"""

from repro.online.detector import OnlineDetector, OnlineSession
from repro.online.resolution import SessionStats, WarningResolver

__all__ = ["OnlineDetector", "OnlineSession", "SessionStats", "WarningResolver"]
