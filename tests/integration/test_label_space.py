"""Rule item space: every route maps a store's labels into the rules by name.

Phase-1 stores intern subcategory labels in the classifier's order; a store
built from events (the daemon's per-chunk ``from_events_in_memory`` stores,
and a retrain window concatenated from them) interns them in arrival order.
The same events must give the same warnings either way, whichever store the
model was fitted on — through offline predict, the rule-based base
predictor, the online session and the lifecycle retrain loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import ThreePhasePredictor
from repro.evaluation.spec import PredictorSpec
from repro.lifecycle import (
    DriftMonitor,
    LifecycleManager,
    ModelRegistry,
    Retrainer,
    RetrainPolicy,
)
from repro.meta.stacked import MetaLearner
from repro.online import OnlineSession
from repro.predictors.rulebased import RuleBasedPredictor
from repro.ras.store import UNCLASSIFIED, EventStore
from repro.serve import DetectorPool
from repro.synth.generator import LogGenerator
from repro.synth.profiles import anl_profile, sdsc_profile
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.timeutil import MINUTE

PROFILES = {"anl": anl_profile, "sdsc": sdsc_profile}


def _arrival_order(store: EventStore) -> EventStore:
    """The same events, re-interned in arrival order."""
    return EventStore.from_events_in_memory(list(store))


def _meta(train: EventStore) -> MetaLearner:
    return MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(train)


def _key(warnings):
    return [
        (w.issued_at, w.horizon_start, w.horizon_end, w.confidence,
         w.source, w.detail)
        for w in warnings
    ]


@pytest.fixture(scope="module", params=sorted(PROFILES))
def events(request) -> EventStore:
    log = LogGenerator(PROFILES[request.param](), scale=0.1, seed=11).generate()
    return ThreePhasePredictor().preprocess(log.raw).events


@pytest.fixture(scope="module")
def split(events):
    cut = int(len(events) * 0.6)
    train = events.select(slice(0, cut))
    test = events.select(slice(cut, len(events)))
    train_p, test_p = _arrival_order(train), _arrival_order(test)
    # Non-vacuous: the arrival-order tables really are a different order.
    assert list(train_p.subcat_table) != list(train.subcat_table)
    assert list(test_p.subcat_table) != list(test.subcat_table)
    return train, test, train_p, test_p


def test_meta_predict_ignores_intern_order(split):
    train, test, train_p, test_p = split
    reference = _key(_meta(train).predict(test))
    assert reference, "no warnings (vacuous test)"
    for fit_on in (train, train_p):
        meta = _meta(fit_on)
        for store in (test, test_p):
            assert _key(meta.predict(store)) == reference


def test_rule_predict_ignores_intern_order(split):
    train, test, train_p, test_p = split

    def rule(fit_on):
        return RuleBasedPredictor(
            rule_window=15 * MINUTE, prediction_window=30 * MINUTE
        ).fit(fit_on)

    reference = _key(rule(train).predict(test))
    assert reference, "no warnings (vacuous test)"
    for fit_on in (train, train_p):
        predictor = rule(fit_on)
        for store in (test, test_p):
            assert _key(predictor.predict(store)) == reference


def test_session_ignores_intern_order(split):
    train, test, train_p, test_p = split
    session = OnlineSession(_meta(train))
    reference = _key(session.process_store(test))
    reference_stats = session.finish()
    for fit_on in (train, train_p):
        meta = _meta(fit_on)
        for store in (test, test_p):
            other = OnlineSession(meta)
            assert _key(other.process_store(store)) == reference
            assert other.finish() == reference_stats


def test_lifecycle_retrain_ignores_intern_order(split, tmp_path):
    """Arrival-order chunks retrain onto an arrival-order window; the
    retrained model must still serve exactly what Phase-1 chunks give."""
    train, test, _, _ = split
    meta = _meta(train)
    spec = PredictorSpec.of(
        "meta", prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    )
    chunk = 64

    def run(root, arrival_order: bool):
        manager = LifecycleManager(
            DetectorPool(meta, shards=2),
            DriftMonitor(test.select(slice(0, chunk)), window=chunk),
            RetrainPolicy(every_events=4 * chunk, cooldown_events=0),
            Retrainer(spec, ModelRegistry(root), window_events=len(train), seed=11),
        )
        manager.retrainer.extend(_arrival_order(train) if arrival_order else train)
        warnings = []
        for lo in range(0, len(test), chunk):
            part = test.select(slice(lo, lo + chunk))
            warnings.extend(
                manager.feed(_arrival_order(part) if arrival_order else part)
            )
        return _key(warnings), manager.pool.finish(), manager.policy.retrains

    phase1, phase1_stats, retrains = run(tmp_path / "phase1", False)
    arrival, arrival_stats, _ = run(tmp_path / "arrival", True)
    assert retrains >= 1, "no retrain happened (vacuous test)"
    assert arrival == phase1
    assert arrival_stats == phase1_stats


def test_predict_rejects_unclassified_rows(split):
    train, test, _, _ = split
    meta = _meta(train)
    ids = np.array(test.subcat_ids, copy=True)
    ids[::2] = UNCLASSIFIED
    half = test.with_subcat_ids(ids, list(test.subcat_table))
    with pytest.raises(ValueError, match="unclassified"):
        meta.predict(half)
    with pytest.raises(ValueError, match="unclassified"):
        meta.rulebased.predict(half)
    with pytest.raises(ValueError, match="unclassified"):
        OnlineSession(meta).process_store(half)


def _with_unknown_label(store: EventStore, every: int = 50) -> EventStore:
    """``store`` with every ``every``-th row relabelled to a label the
    taxonomy does not know (the wire protocol keeps any string)."""
    table = list(store.subcat_table) + ["bogusLabel"]
    ids = np.array(store.subcat_ids, copy=True)
    ids[::every] = len(table) - 1
    return store.with_subcat_ids(ids, table)


def test_fit_treats_unknown_labels_as_catch_all(split):
    train, test, _, _ = split
    clf = TaxonomyClassifier()
    assert not clf.label_is_fatal("bogusLabel")
    assert clf.category_of_label("bogusLabel") is MainCategory.OTHER
    assert _meta(_with_unknown_label(train)).predict(test), "no warnings (vacuous test)"


def test_count_retrain_over_unknown_labels(split, tmp_path):
    """A lifecycle retrain window holding unknown labels refits, not raises."""
    train, test, _, _ = split
    spec = PredictorSpec.of(
        "meta", prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    )
    chunk = 64
    manager = LifecycleManager(
        DetectorPool(_meta(train), shards=2),
        DriftMonitor(test.select(slice(0, chunk)), window=chunk),
        RetrainPolicy(every_events=4 * chunk, cooldown_events=0),
        Retrainer(spec, ModelRegistry(tmp_path), window_events=len(train), seed=11),
    )
    manager.retrainer.extend(_with_unknown_label(train))
    for lo in range(0, len(test), chunk):
        manager.feed(_with_unknown_label(test.select(slice(lo, lo + chunk)), 7))
    assert manager.policy.retrains >= 1, "no retrain happened (vacuous test)"
