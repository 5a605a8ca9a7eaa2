"""Bulk CMCS expansion equals the frozen record-at-a-time reference.

``CmcsSimulator.expand`` draws each location's jitters with one call into a
shared buffer and builds the columns with ``np.repeat``.  It must consume
the random stream exactly as the per-record loop in ``tests/cmcs_oracle.py``
did, so both are run from the same seed on hypothesis-chosen ground-truth
streams and duplication models and compared column for column, intern
table for intern table, and by the generator state they leave behind.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgl.cmcs import CmcsSimulator, DuplicationModel, GroundTruthEvent
from repro.bgl.jobs import Job, JobTrace
from repro.bgl.locations import LocationKind
from repro.bgl.topology import ANL_SPEC, Machine
from repro.ras.backend import COLUMN_NAMES, TABLE_NAMES
from repro.ras.events import NO_JOB
from repro.taxonomy.subcategories import CATALOG, by_name
from tests.cmcs_oracle import PerRecordCmcsSimulator

MACHINE = Machine(ANL_SPEC)
#: Jobs on each single midplane and on the full machine, so every distinct
#: partition key of the two-midplane machine is exercised.
TRACE = JobTrace(
    MACHINE,
    [Job(1, 0, 1_000, (0, 1)), Job(2, 1_000, 2_000, (0,)), Job(3, 1_000, 2_000, (1,))],
)
#: One subcategory per hardware level, plus every IO_NODE one (they fan out).
NAMES = sorted(
    {sc.name for sc in CATALOG if sc.location_kind is LocationKind.IO_NODE}
    | {
        next(sc.name for sc in CATALOG if sc.location_kind is kind)
        for kind in {sc.location_kind for sc in CATALOG}
    }
)
PINNED = [
    MACHINE.chip_locations[5],
    MACHINE.io_node_locations[3],
    MACHINE.nodecard_locations[7],
    MACHINE.linkcard_locations[0],
]

events_st = st.lists(
    st.builds(
        GroundTruthEvent,
        time=st.integers(0, 10**6),
        subcategory=st.sampled_from(NAMES),
        job_id=st.sampled_from([NO_JOB, 1, 2, 3]),
        location=st.one_of(st.none(), st.sampled_from(PINNED)),
    ),
    max_size=40,
)

duplication_st = st.builds(
    DuplicationModel,
    mean_reporting_chips=st.floats(1.0, 64.0),
    max_reporting_chips=st.integers(1, 128),
    mean_repeats=st.floats(1.0, 4.0),
    max_repeats=st.integers(1, 6),
    jitter_span=st.one_of(
        st.floats(0.01, 299.99), st.sampled_from([0.5, 1.0, 120.0, 299.5])
    ),
)


def _assert_same_store(a, b):
    for name in COLUMN_NAMES:
        x, y = a.column(name), b.column(name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    for name in TABLE_NAMES:
        assert a.table(name).strings == b.table(name).strings, name


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    batches=st.lists(events_st, min_size=1, max_size=3),
    duplication=duplication_st,
    with_trace=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bulk_expand_matches_per_record_oracle(batches, duplication, with_trace, seed):
    trace = TRACE if with_trace else None
    bulk = CmcsSimulator(MACHINE, trace, duplication, seed, resolver=by_name)
    oracle = PerRecordCmcsSimulator(MACHINE, trace, duplication, seed, resolver=by_name)
    # Several calls on one simulator: intern tables carry over between them.
    for batch in batches:
        _assert_same_store(bulk.expand(batch), oracle.expand(batch))
    assert bulk.rng.bit_generator.state == oracle.rng.bit_generator.state


def test_single_repeat_and_fractional_jitter():
    """max_repeats=1 leaves only co-reporters' draws; span < 1 floors to 0."""
    events = [
        GroundTruthEvent(time=t, subcategory=name, job_id=job)
        for t, (name, job) in enumerate(
            [("socketReadFailure", 1), ("loadProgramFailure", 2), (NAMES[0], NO_JOB)]
        )
    ]
    for dup in (
        DuplicationModel(mean_repeats=3.0, max_repeats=1, mean_reporting_chips=40),
        DuplicationModel(mean_repeats=2.5, jitter_span=0.75),
    ):
        bulk = CmcsSimulator(MACHINE, TRACE, dup, 17, resolver=by_name)
        oracle = PerRecordCmcsSimulator(MACHINE, TRACE, dup, 17, resolver=by_name)
        _assert_same_store(bulk.expand(events), oracle.expand(events))

