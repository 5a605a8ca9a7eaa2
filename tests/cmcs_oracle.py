"""Frozen record-at-a-time reference of CMCS expansion (the oracle).

Production ``CmcsSimulator.expand`` batches each location's jitter draws
into one buffer and builds the columns with ``np.repeat``.  This module
keeps a verbatim copy of the loop it replaced: one scalar ``rng.random()``
per duplicate and one Python ``list.append`` per record and column, with
its own copies of the location and duplication-count helpers.  The equivalence suite holds the
bulk route to it column for column and intern table for intern table.  Do
not "optimize" it: its value is that it is the plain statement of the
order in which the random stream is consumed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.bgl.cmcs import (
    DuplicationModel,
    GroundTruthEvent,
    SubcategoryResolver,
    SubcategorySpec,
)
from repro.bgl.jobs import JobTrace
from repro.bgl.locations import SYSTEM_LOCATION, LocationKind
from repro.bgl.topology import Machine
from repro.ras.events import NO_JOB
from repro.ras.store import EventStore
from repro.util.rng import SeedLike, as_generator


def _sample_chip_count(
    dup: DuplicationModel, rng: np.random.Generator, available: int
) -> int:
    n = 1 + rng.geometric(min(1.0, 1.0 / dup.mean_reporting_chips)) - 1
    return int(min(n if n >= 1 else 1, dup.max_reporting_chips, available))


def _sample_repeats(dup: DuplicationModel, rng: np.random.Generator) -> int:
    n = 1 + rng.poisson(dup.mean_repeats - 1.0)
    return int(min(n, dup.max_repeats))


class PerRecordCmcsSimulator:
    """``CmcsSimulator`` as it was before the bulk column build."""

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
            LocationKind.RACK: self.machine.midplane_locations,
        }[kind]
        return pool[int(self.rng.integers(len(pool)))]

    def _co_reporting_locations(
        self, sc: SubcategorySpec, job_id: int, primary: str
    ) -> list[str]:
        if job_id == NO_JOB or self.job_trace is None:
            return [primary]
        if sc.location_kind is LocationKind.COMPUTE_CHIP:
            chips = self.job_trace.partition_chips(job_id)
            k = _sample_chip_count(self.duplication, self.rng, len(chips))
            if k <= 1:
                return [primary]
            picks = self.rng.choice(len(chips), size=k, replace=False)
            locs = {chips[int(i)] for i in picks}
            locs.add(primary)
            return sorted(locs)
        if sc.location_kind is LocationKind.IO_NODE:
            pool = self.machine.io_node_locations
            k = min(
                _sample_chip_count(self.duplication, self.rng, len(pool)),
                max(1, len(pool) // 4),
            )
            if k <= 1:
                return [primary]
            picks = self.rng.choice(len(pool), size=k, replace=False)
            locs = {pool[int(i)] for i in picks}
            locs.add(primary)
            return sorted(locs)
        return [primary]

    def expand(self, ground_truth: Sequence[GroundTruthEvent]) -> EventStore:
        rng = self.rng
        dup = self.duplication
        times: list[int] = []
        sev: list[int] = []
        fac: list[int] = []
        jobs: list[int] = []
        loc_ids: list[int] = []
        entry_ids: list[int] = []
        for gt in ground_truth:
            sc = self.resolver(gt.subcategory)
            template = sc.templates[int(rng.integers(len(sc.templates)))]
            entry_id = self._intern_entry(template)
            primary = gt.location or self._pick_location(sc, gt.job_id)
            locations = self._co_reporting_locations(sc, gt.job_id, primary)
            if locations[0] != primary:
                locations = [primary] + [x for x in locations if x != primary]
            sev_val = int(sc.severity)
            fac_val = int(sc.facility)
            first = True
            for loc in locations:
                loc_id = self._intern_loc(loc)
                repeats = _sample_repeats(dup, rng)
                for _ in range(repeats):
                    jitter = 0 if first else int(rng.random() * dup.jitter_span)
                    first = False
                    times.append(gt.time + jitter)
                    sev.append(sev_val)
                    fac.append(fac_val)
                    jobs.append(gt.job_id)
                    loc_ids.append(loc_id)
                    entry_ids.append(entry_id)
        n = len(times)
        return EventStore.from_columns(
            np.asarray(times, dtype=np.int64),
            np.asarray(sev, dtype=np.int8),
            np.asarray(fac, dtype=np.int8),
            np.asarray(jobs, dtype=np.int64),
            np.asarray(loc_ids, dtype=np.int32),
            np.asarray(entry_ids, dtype=np.int32),
            np.full(n, -1, dtype=np.int32),
            list(self._loc_table),
            list(self._entry_table),
            [],
        )
