"""The offline path of the batch workloads, and the digests checked on it.

One operation is the whole path, single-threaded, on one generated log:

    LogGenerator.generate -> ThreePhasePredictor().preprocess
    -> MetaLearner(30 min, 15 min).fit on the first 60 % of events
    -> predict on the rest -> DetectorPool(4, midplane).replay
    -> cost-aware ActionEngine over TraceJobView -> finalize
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.actions import ActionEngine, CostModel, TraceJobView, build_policy
from repro.cache import store_fingerprint
from repro.core.pipeline import ThreePhasePredictor
from repro.meta.stacked import MetaLearner
from repro.serve import DetectorPool
from repro.serve.daemon import stats_to_dict
from repro.serve.protocol import warning_to_dict
from repro.synth.generator import LogGenerator
from repro.synth.profiles import anl_profile, sdsc_profile
from repro.util.timeutil import MINUTE

PROFILES = {"anl-batch": anl_profile, "sdsc-batch": sdsc_profile}
SCALE = 1.0
TRAIN_FRACTION = 0.6
SHARDS = 4
SHARD_KEY = "midplane"
POLICY = "cost-aware"
ACTION_SEED = 0


@dataclass
class PathResult:
    """What one run of the path produced, plus its wall time."""

    seconds: float
    raw_records: int
    digests: dict[str, Any]


def _sha256_json(doc: Any) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def session_counters(stats: Any) -> dict[str, Any]:
    """A ``SessionStats`` as its counters plus a digest of its lead times."""
    doc = stats_to_dict(stats)
    leads = doc.pop("lead_seconds")
    doc["lead_seconds_sha256"] = _sha256_json(leads)
    return doc


def run_path(workload: str, seed: int) -> PathResult:
    """Run the whole offline path once; digest its outputs untimed."""
    t0 = perf_counter()
    log = LogGenerator(PROFILES[workload](), scale=SCALE, seed=seed).generate()
    events = ThreePhasePredictor().preprocess(log.raw).events
    cut = int(len(events) * TRAIN_FRACTION)
    train = events.select(slice(0, cut))
    test = events.select(slice(cut, len(events)))
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(train)
    warnings = meta.predict(test)
    report = DetectorPool(meta, shards=SHARDS, key=SHARD_KEY).replay(test, jobs=1)
    engine = ActionEngine(
        build_policy(POLICY),
        CostModel(),
        view=TraceJobView(log.job_trace),
        seed=ACTION_SEED,
    )
    engine.observe_store(test, [w for shard in report.shards for w in shard.warnings])
    ledger = engine.finalize()
    seconds = perf_counter() - t0
    digests = {
        "raw_records": log.n_raw,
        "events": len(events),
        "phase1_fingerprint": store_fingerprint(events),
        "warnings_sha256": _sha256_json([warning_to_dict(w) for w in warnings]),
        "replay_stats": session_counters(report.combined),
        "ledger_digest": ledger.digest(),
    }
    return PathResult(seconds=seconds, raw_records=log.n_raw, digests=digests)
