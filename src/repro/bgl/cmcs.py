"""CMCS polling/duplication simulator.

The Cluster Monitoring and Control System records events through per-chip
polling agents, which is why the raw repository is massively redundant
(paper §3.1): one application fault is reported once by *each* compute chip
of the job's partition (spatial duplicates — same ENTRY_DATA and JOB_ID,
different LOCATIONs), and each polling agent may re-report it on subsequent
polls (temporal duplicates — same JOB_ID and LOCATION).  All duplicates land
within a short span because the poll period is far below the paper's 300 s
compression threshold.

:class:`CmcsSimulator` turns a stream of ground-truth *unique* events into
that redundant raw record stream.  Phase 1's compressors must recover the
unique stream from it — which is tested as a round-trip property.

Expansion is a bulk column build.  Per ground-truth event the simulator
draws, in this order: the ENTRY_DATA template, the detecting location, the
co-reporter count and ``choice``, then per reporting location its repeat
count (a Poisson draw) followed by that location's jitters.  The first four
and the Poisson draw stay scalar calls: Poisson consumes a variable number
of uniforms, so batching it (or the per-event draws interleaved with it)
would change the stream and every generated log.  Each location's jitters
are drawn with one call into a preallocated float64 buffer that grows by
doubling, one slot per record (the detecting element's first record keeps
slot 0, no jitter).  The seven columns are then built with ``np.repeat``
from per-event and per-location arrays, with no per-record Python work.
The random stream, and so every generated store, is byte-for-byte the one
the record-at-a-time loop produced (pinned by golden fingerprints and by
an oracle test against a frozen copy of that loop).  Partition chip and
node-card lists come from :class:`~repro.bgl.jobs.JobTrace`'s per-partition
memo; they are shared, and only read here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from repro.bgl.jobs import JobTrace
from repro.bgl.locations import LocationKind, SYSTEM_LOCATION
from repro.bgl.topology import Machine
from repro.ras.events import NO_JOB
from repro.ras.store import EventStore
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive


class SubcategorySpec(Protocol):
    """What the simulator needs to know about one subcategory.

    A structural subset of ``repro.taxonomy.subcategories.Subcategory``;
    the taxonomy stays a layer above ``bgl``, so callers inject a resolver
    (normally ``repro.taxonomy.subcategories.by_name``) instead of the
    simulator importing it.
    """

    location_kind: LocationKind
    templates: Sequence[str]
    severity: int
    facility: int


#: Maps a subcategory name to its spec; raises KeyError for unknown names.
SubcategoryResolver = Callable[[str], SubcategorySpec]


@dataclass(frozen=True)
class GroundTruthEvent:
    """One unique event before CMCS duplication.

    ``location`` may pin the event to a specific hardware element; when
    ``None`` the simulator picks one consistent with the subcategory's
    hardware level (and the job's partition, if any).
    """

    time: int
    subcategory: str
    job_id: int = NO_JOB
    location: Optional[str] = None


@dataclass(frozen=True)
class DuplicationModel:
    """Redundancy knobs of the raw repository.

    ``mean_reporting_chips`` controls spatial duplication of job events (how
    many of the partition's chips report one fault); ``mean_repeats``
    controls temporal duplication at a single location (polling re-reports).
    ``jitter_span`` bounds how far duplicates spread in time — it must stay
    below the compression threshold (300 s) for Phase 1 to recover unique
    events, exactly as on the real machine.
    """

    mean_reporting_chips: float = 12.0
    max_reporting_chips: int = 128
    mean_repeats: float = 1.6
    max_repeats: int = 6
    jitter_span: float = 120.0

    def __post_init__(self) -> None:
        check_positive(self.mean_reporting_chips, "mean_reporting_chips")
        check_positive(self.mean_repeats, "mean_repeats")
        check_positive(self.jitter_span, "jitter_span")
        if self.max_reporting_chips < 1 or self.max_repeats < 1:
            raise ValueError("max_reporting_chips and max_repeats must be >= 1")

    def sample_chip_count(self, rng: np.random.Generator, available: int) -> int:
        """Number of chips co-reporting one job fault (>= 1)."""
        n = 1 + rng.geometric(min(1.0, 1.0 / self.mean_reporting_chips)) - 1
        return int(min(n if n >= 1 else 1, self.max_reporting_chips, available))

    def sample_repeats(self, rng: np.random.Generator) -> int:
        """Temporal re-reports at one location (>= 1)."""
        n = 1 + int(rng.poisson(self.mean_repeats - 1.0))
        return min(n, self.max_repeats)


class CmcsSimulator:
    """Expands ground-truth unique events into redundant raw records."""

    def __init__(
        self,
        machine: Machine,
        job_trace: Optional[JobTrace] = None,
        duplication: Optional[DuplicationModel] = None,
        seed: SeedLike = None,
        *,
        resolver: SubcategoryResolver,
    ) -> None:
        self.machine = machine
        self.job_trace = job_trace
        self.duplication = duplication or DuplicationModel()
        self.resolver = resolver
        self.rng = as_generator(seed)
        self._loc_intern: dict[str, int] = {}
        self._loc_table: list[str] = []
        self._entry_intern: dict[str, int] = {}
        self._entry_table: list[str] = []

    # -- location selection -------------------------------------------- #

    def _intern_loc(self, loc: str) -> int:
        idx = self._loc_intern.get(loc)
        if idx is None:
            idx = len(self._loc_table)
            self._loc_table.append(loc)
            self._loc_intern[loc] = idx
        return idx

    def _intern_entry(self, entry: str) -> int:
        idx = self._entry_intern.get(entry)
        if idx is None:
            idx = len(self._entry_table)
            self._entry_table.append(entry)
            self._entry_intern[entry] = idx
        return idx

    def _pick_location(self, sc: SubcategorySpec, job_id: int) -> str:
        """One location consistent with the subcategory's hardware level."""
        rng = self.rng
        kind = sc.location_kind
        if kind is LocationKind.SYSTEM:
            return SYSTEM_LOCATION
        if job_id != NO_JOB and self.job_trace is not None:
            if kind is LocationKind.COMPUTE_CHIP:
                chips = self.job_trace.partition_chips(job_id)
                return chips[int(rng.integers(len(chips)))]
            if kind is LocationKind.NODECARD:
                cards = self.job_trace.partition_nodecards(job_id)
                return cards[int(rng.integers(len(cards)))]
        pool = {
            LocationKind.COMPUTE_CHIP: self.machine.chip_locations,
            LocationKind.IO_NODE: self.machine.io_node_locations,
            LocationKind.NODECARD: self.machine.nodecard_locations,
            LocationKind.MIDPLANE: self.machine.midplane_locations,
            LocationKind.LINKCARD: self.machine.linkcard_locations,
            LocationKind.SERVICE_CARD: self.machine.service_card_locations,
            LocationKind.RACK: self.machine.midplane_locations,  # rack ~ midplane granularity
        }[kind]
        return pool[int(self.rng.integers(len(pool)))]

    def _co_reporting_locations(
        self, sc: SubcategorySpec, job_id: int, primary: str
    ) -> list[str]:
        """Locations that report the same fault (spatial duplicates).

        Only job-attached compute/I-O events fan out across the partition;
        hardware events are reported by their own element alone.
        """
        if job_id == NO_JOB or self.job_trace is None:
            return [primary]
        if sc.location_kind is LocationKind.COMPUTE_CHIP:
            chips = self.job_trace.partition_chips(job_id)
            k = self.duplication.sample_chip_count(self.rng, len(chips))
            if k <= 1:
                return [primary]
            picks = self.rng.choice(len(chips), size=k, replace=False)
            locs = {chips[i] for i in picks.tolist()}
            locs.add(primary)
            return sorted(locs)
        if sc.location_kind is LocationKind.IO_NODE:
            pool = self.machine.io_node_locations
            k = min(
                self.duplication.sample_chip_count(self.rng, len(pool)),
                max(1, len(pool) // 4),
            )
            if k <= 1:
                return [primary]
            picks = self.rng.choice(len(pool), size=k, replace=False)
            locs = {pool[i] for i in picks.tolist()}
            locs.add(primary)
            return sorted(locs)
        return [primary]

    # -- expansion ------------------------------------------------------ #

    def expand(self, ground_truth: Sequence[GroundTruthEvent]) -> EventStore:
        """Produce the redundant raw record store for a ground-truth stream.

        Every ground-truth event yields >= 1 records; all of an event's
        duplicates share its ENTRY_DATA and JOB_ID and fall within
        ``jitter_span`` seconds of the event time.

        The random stream is consumed in the order of the record-at-a-time
        reference (see the module docstring), so the output is bit-identical
        to it; only each location's jitters are drawn with one call.
        """
        rng = self.rng
        dup = self.duplication
        n_events = len(ground_truth)
        ev_time = np.empty(n_events, dtype=np.int64)
        ev_sev = np.empty(n_events, dtype=np.int8)
        ev_fac = np.empty(n_events, dtype=np.int8)
        ev_job = np.empty(n_events, dtype=np.int64)
        ev_entry = np.empty(n_events, dtype=np.int32)
        ev_records = np.empty(n_events, dtype=np.int64)
        loc_intern = self._loc_intern
        loc_ids: list[int] = []
        loc_repeats: list[int] = []
        # One jitter draw per record, in record order.
        capacity = max(1024, 8 * n_events)
        draws = np.empty(capacity, dtype=np.float64)
        pos = 0
        for i, gt in enumerate(ground_truth):
            sc = self.resolver(gt.subcategory)
            template = sc.templates[int(rng.integers(len(sc.templates)))]
            ev_entry[i] = self._intern_entry(template)
            primary = gt.location or self._pick_location(sc, gt.job_id)
            locations = self._co_reporting_locations(sc, gt.job_id, primary)
            # The detecting element reports first (and therefore survives
            # compression as the representative); co-reporters follow.
            if locations[0] != primary:
                locations = [primary] + [l for l in locations if l != primary]
            ev_time[i] = gt.time
            ev_sev[i] = int(sc.severity)
            ev_fac[i] = int(sc.facility)
            ev_job[i] = gt.job_id
            start = pos
            for loc in locations:
                loc_id = loc_intern.get(loc)
                loc_ids.append(loc_id if loc_id is not None else self._intern_loc(loc))
                repeats = dup.sample_repeats(rng)
                loc_repeats.append(repeats)
                end = pos + repeats
                if end > capacity:
                    capacity = max(2 * capacity, end)
                    grown = np.empty(capacity, dtype=np.float64)
                    grown[:pos] = draws[:pos]
                    draws = grown
                if pos == start:
                    # The detecting element reports first, at the true
                    # event time; all other duplicates trail it.
                    draws[pos] = 0.0
                    pos += 1
                if end - pos == 1:
                    draws[pos] = rng.random()  # cheaper than a 1-slot out=
                elif end > pos:
                    rng.random(out=draws[pos:end])
                pos = end
            ev_records[i] = pos - start
        jitter = (draws[:pos] * dup.jitter_span).astype(np.int64)
        return EventStore.from_columns(
            np.repeat(ev_time, ev_records) + jitter,
            np.repeat(ev_sev, ev_records),
            np.repeat(ev_fac, ev_records),
            np.repeat(ev_job, ev_records),
            np.repeat(np.asarray(loc_ids, dtype=np.int32), loc_repeats),
            np.repeat(ev_entry, ev_records),
            np.full(pos, -1, dtype=np.int32),
            list(self._loc_table),
            list(self._entry_table),
            [],
        )
