"""Property-based tests on the meta dispatch stream and warning semantics.

The per-event properties run on the frozen oracle's ``step``
(``tests/per_event_oracle.py``); the batch route is held to the oracle on
random streams and random batch splits.
"""

from hypothesis import given, settings, strategies as st

from tests.per_event_oracle import PerEventDetector, PerEventStream
from repro.mining.rules import Rule, RuleSet
from repro.predictors.statistical import StatisticalPredictor
from repro.ras.store import EventStore
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.timeutil import HOUR, MINUTE

# A small synthetic vocabulary: items 0..4 non-fatal, 5..6 fatal.
ITEM_NAMES = ["warnA", "warnB", "warnC", "infoD", "infoE", "fatalX", "fatalY"]
FATAL_ITEMS = frozenset({5, 6})

RULES = RuleSet(
    [
        Rule(body=frozenset({0, 1}), heads=frozenset({5}), confidence=0.9,
             support=0.1, support_count=5),
        Rule(body=frozenset({2}), heads=frozenset({6}), confidence=0.6,
             support=0.1, support_count=5),
    ],
    ITEM_NAMES,
    FATAL_ITEMS,
)


def _stat() -> StatisticalPredictor:
    sp = StatisticalPredictor(window=HOUR, lead=5 * MINUTE)
    sp.follow_probability = {MainCategory.NETWORK: 0.55}
    sp.trigger_categories = (MainCategory.NETWORK,)
    sp._fitted = True
    return sp


@st.composite
def event_streams(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    t = 0
    out = []
    for _ in range(n):
        t += draw(st.integers(min_value=0, max_value=20 * MINUTE))
        item = draw(st.integers(min_value=0, max_value=6))
        out.append((t, item))
    return out


def _category(item: int) -> MainCategory:
    return MainCategory.NETWORK if item in FATAL_ITEMS else MainCategory.KERNEL


@given(event_streams())
@settings(max_examples=80, deadline=None)
def test_stream_warnings_well_formed(stream):
    ms = PerEventStream(RULES, _stat(), prediction_window=30 * MINUTE)
    prev_issue = None
    for t, item in stream:
        for w in ms.step(t, item, item in FATAL_ITEMS, _category(item)):
            assert w.issued_at == t
            assert w.horizon_start > w.issued_at
            assert w.horizon_end >= w.horizon_start
            assert 0.0 <= w.confidence <= 1.0
            if prev_issue is not None:
                assert w.issued_at >= prev_issue
            prev_issue = w.issued_at


@given(event_streams())
@settings(max_examples=80, deadline=None)
def test_stream_dedup_invariant(stream):
    """No two warnings with the same detail overlap in issue-vs-horizon."""
    ms = PerEventStream(RULES, _stat(), prediction_window=30 * MINUTE)
    active: dict[str, int] = {}
    for t, item in stream:
        for w in ms.step(t, item, item in FATAL_ITEMS, _category(item)):
            end = active.get(w.detail)
            assert end is None or w.issued_at > end, (
                "re-issued while active: " + w.detail
            )
            active[w.detail] = w.horizon_end


@given(event_streams())
@settings(max_examples=60, deadline=None)
def test_stream_counts_match_emissions(stream):
    ms = PerEventStream(RULES, _stat(), prediction_window=30 * MINUTE)
    emitted = 0
    for t, item in stream:
        emitted += len(ms.step(t, item, item in FATAL_ITEMS, _category(item)))
    assert sum(ms.dispatch_counts.values()) == emitted


@given(event_streams(), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_stream_prefix_consistency(stream, cut_div):
    """Feeding a prefix then the rest equals feeding everything (no hidden
    dependence on call boundaries)."""
    def run(chunks):
        ms = PerEventStream(RULES, _stat(), prediction_window=30 * MINUTE)
        out = []
        for chunk in chunks:
            for t, item in chunk:
                out.extend(
                    ms.step(t, item, item in FATAL_ITEMS, _category(item))
                )
        return [(w.issued_at, w.detail) for w in out]

    cut = len(stream) // cut_div
    assert run([stream]) == run([stream[:cut], stream[cut:]])


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_online_detector_matches_batch_on_random_streams(stream):
    """The per-event oracle over RasEvents == MetaLearner.predict over the
    store, for arbitrary event mixes (not just generated logs)."""
    from repro.meta.stacked import MetaLearner
    from repro.predictors.rulebased import RuleBasedPredictor
    from repro.ras.events import RasEvent
    from repro.taxonomy.subcategories import CATALOG

    # Map synthetic items onto real catalog subcategories.
    nonfatal = [sc for sc in CATALOG if not sc.is_fatal][:5]
    fatal = [sc for sc in CATALOG if sc.is_fatal][:2]
    mapping = nonfatal + fatal

    events = []
    for t, item in stream:
        sc = mapping[item]
        events.append(
            RasEvent(
                time=t + 1,
                location="R00-M0-N00-C00",
                facility=sc.facility,
                severity=sc.severity,
                entry_data=sc.templates[0],
            )
        )
    store = TaxonomyClassifier().classify_store(EventStore.from_events(events))

    meta = MetaLearner(prediction_window=30 * MINUTE)
    meta.statistical = _stat()
    rb = RuleBasedPredictor(prediction_window=30 * MINUTE)
    rb.ruleset = RuleSet(
        [], list(store.subcat_table), frozenset()
    )
    rb._fitted = True
    meta.rulebased = rb
    meta._fitted = True

    batch = meta.predict(store)
    det = PerEventDetector(meta)
    online = []
    for ev in store:
        online.extend(det.feed(ev))
    assert [(w.issued_at, w.detail) for w in batch] == [
        (w.issued_at, w.detail) for w in online
    ]


@given(
    event_streams(),
    st.lists(st.integers(min_value=0, max_value=60), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_batch_route_matches_per_event_oracle(stream, cuts):
    """``MetaStream.step_store`` over any batch split == the oracle's
    per-event ``step``, with a real rule set and the store's own label ids
    mapped into the rule item space by name."""
    from repro.meta.stacked import MetaStream
    from repro.ras.events import RasEvent
    from repro.taxonomy.subcategories import CATALOG

    nonfatal = [sc for sc in CATALOG if not sc.is_fatal][:5]
    fatal = [
        next(sc for sc in CATALOG
             if sc.is_fatal and sc.category is MainCategory.NETWORK),
        next(sc for sc in CATALOG
             if sc.is_fatal and sc.category is not MainCategory.NETWORK),
    ]
    mapping = nonfatal + fatal
    rules = RuleSet(RULES.rules, [sc.name for sc in mapping], FATAL_ITEMS)

    oracle = PerEventStream(rules, _stat(), prediction_window=30 * MINUTE)
    expected = []
    events = []
    for t, item in stream:
        sc = mapping[item]
        expected.extend(oracle.step(t, item, sc.is_fatal, sc.category))
        events.append(
            RasEvent(
                time=t,
                location="R00-M0-N00-C00",
                facility=sc.facility,
                severity=sc.severity,
                entry_data=sc.templates[0],
            )
        )
    store = TaxonomyClassifier().classify_store(EventStore.from_events(events))

    batched = MetaStream(rules, _stat(), prediction_window=30 * MINUTE)
    actual = []
    bounds = sorted({0, len(store), *(c for c in cuts if c < len(store))})
    for lo, hi in zip(bounds, bounds[1:]):
        actual.extend(batched.step_store(store.select(slice(lo, hi))))

    def key(ws):
        return [
            (w.issued_at, w.horizon_start, w.horizon_end, w.confidence, w.detail)
            for w in ws
        ]

    assert key(actual) == key(expected)
    assert batched.dispatch_counts == oracle.dispatch_counts
