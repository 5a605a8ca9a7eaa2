"""Per-stream ingestion channels behind the daemon's wire protocol.

A *stream* is one independent RAS event source (one machine, one tenant,
one replayed log).  Each stream gets a :class:`StreamChannel`: a bounded
``asyncio.Queue`` in front of its own :class:`~repro.serve.pool.DetectorPool`,
consumed by one worker task.  The queue bound is the backpressure contract —
when a stream's consumer falls behind, :meth:`StreamChannel.offer` returns
``"busy"`` instead of growing memory, and the daemon surfaces that to the
producer as a ``BUSY`` response (the producer retries the unsent tail).

The worker drains the queue in chunks of at most ``chunk_events`` and feeds
each chunk through :meth:`DetectorPool.process_store` — the persistent-
session columnar path, which is chunk-size invariant, so the resolved
session statistics equal a per-event replay of the same stream regardless
of how arrivals were batched on the wire.

Lifecycle integration is duck-typed: a channel built with a
``manager_factory`` buffers its first ``reference_events`` events into the
drift-reference store, builds the manager (anything with ``feed(chunk)``,
in practice :class:`repro.lifecycle.manager.LifecycleManager`), and from
then on feeds *fixed-size* chunks so retrain/swap barriers land at
deterministic stream positions.  :mod:`repro.serve` never imports
:mod:`repro.lifecycle` — the factory is injected by the CLI — keeping the
package DAG acyclic (lifecycle already imports ``serve.pool``).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.meta.stacked import MetaLearner
from repro.obs import get_registry
from repro.online.resolution import SessionStats
from repro.predictors.base import FailureWarning
from repro.ras.events import RasEvent
from repro.ras.store import EventStore
from repro.serve.pool import DetectorPool
from repro.util.validation import check_positive


class ChunkConsumer(Protocol):
    """What a lifecycle manager looks like from the daemon's side."""

    pool: DetectorPool

    def feed(self, chunk: EventStore) -> list[FailureWarning]: ...


class ActionSink(Protocol):
    """What an action engine looks like from the daemon's side.

    Like lifecycle, the actions layer sits above serve in the package DAG,
    so serve only ever sees this protocol; the concrete
    ``repro.actions.ActionEngine`` is injected by the CLI.  ``finalize``
    returns the engine's ledger — typed ``object`` here because serve
    never inspects it, only carries it into reports and state docs.
    """

    def observe_store(
        self, store: EventStore, warnings: list[FailureWarning]
    ) -> None: ...

    def finalize(self) -> object: ...


#: Builds a lifecycle manager once the drift-reference store is assembled.
ManagerFactory = Callable[[DetectorPool, EventStore], ChunkConsumer]

#: Builds one action sink per stream (keyed by stream id).
ActionFactory = Callable[[str], ActionSink]

#: Queue sentinel that tells the worker to exit after flushing.
_CLOSE = object()


@dataclass
class StreamStats:
    """Operator-facing counters of one ingestion stream."""

    ingested: int = 0        # accepted into the queue
    processed: int = 0       # fed through the detector pool
    dropped_busy: int = 0    # rejected by backpressure (producer retries)
    rejected_order: int = 0  # rejected for violating time order
    warnings: int = 0        # warnings raised so far
    last_time: int = -1      # newest accepted event timestamp

    def to_dict(self) -> dict[str, int]:
        return {
            "ingested": self.ingested,
            "processed": self.processed,
            "dropped_busy": self.dropped_busy,
            "rejected_order": self.rejected_order,
            "warnings": self.warnings,
            "last_time": self.last_time,
        }


class StreamChannel:
    """One stream's bounded queue, worker loop and detector pool."""

    def __init__(
        self,
        stream_id: str,
        meta: MetaLearner,
        *,
        queue_bound: int = 4096,
        shards: int = 4,
        key: str = "midplane",
        chunk_events: int = 512,
        warning_ring: int = 256,
        manager_factory: Optional[ManagerFactory] = None,
        reference_events: int = 0,
        action_factory: Optional[ActionFactory] = None,
    ) -> None:
        check_positive(queue_bound, "queue_bound")
        check_positive(chunk_events, "chunk_events")
        if manager_factory is not None:
            check_positive(reference_events, "reference_events")
        self.stream_id = stream_id
        self.pool = DetectorPool(meta, shards=shards, key=key)
        self.chunk_events = int(chunk_events)
        self.stats = StreamStats()
        self.recent_warnings: deque[FailureWarning] = deque(maxlen=warning_ring)
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_bound)
        self._classifier = meta.statistical.classifier
        self._manager_factory = manager_factory
        self._manager: Optional[ChunkConsumer] = None
        self.action_sink: Optional[ActionSink] = (
            action_factory(stream_id) if action_factory is not None else None
        )
        self._reference_events = int(reference_events)
        self._reference: list[RasEvent] = []  # pre-manager warm-up buffer
        self._chunk: list[RasEvent] = []      # lifecycle-mode partial chunk
        self._closing = False
        self._task: Optional[asyncio.Task] = None

    # ---------------------------------------------------------------- #
    # Producer side (called from connection handlers, synchronously)
    # ---------------------------------------------------------------- #

    @property
    def lag(self) -> int:
        """Events accepted but not yet fed through the pool."""
        return self.queue.qsize() + len(self._chunk) + len(self._reference)

    @property
    def pending_warnings(self) -> int:
        return self.pool.pending_count

    def offer(self, event: RasEvent) -> str:
        """Try to enqueue one event; returns ``"ok"``, ``"busy"`` or ``"order"``.

        Never blocks and never grows the queue past its bound — a full
        queue is the producer's problem (retry after the busy response).
        Events must arrive in non-decreasing time order per stream; the
        detector's dispatch machine is forward-only.
        """
        if self._closing:
            return "busy"
        if event.time < self.stats.last_time:
            self.stats.rejected_order += 1
            return "order"
        try:
            self.queue.put_nowait(event)
        except asyncio.QueueFull:
            self.stats.dropped_busy += 1
            return "busy"
        self.stats.ingested += 1
        self.stats.last_time = event.time
        return "ok"

    # ---------------------------------------------------------------- #
    # Consumer side (one worker task per channel)
    # ---------------------------------------------------------------- #

    def start(self) -> None:
        """Spawn the worker task on the running loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"stream-{self.stream_id}"
            )

    async def _run(self) -> None:
        queue = self.queue
        while True:
            item = await queue.get()
            if item is _CLOSE:
                break
            batch = [item]
            # Opportunistically drain whatever is already queued so wire
            # batching converts into columnar batching, up to the chunk cap.
            while len(batch) < self.chunk_events:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _CLOSE:
                    self._feed(batch)
                    self._flush()
                    return
                batch.append(extra)
            self._feed(batch)
            # Yield so other channels and connection handlers get a turn
            # even when this queue never runs empty.
            await asyncio.sleep(0)
        self._flush()

    def _classified(self, events: list[RasEvent]) -> list[RasEvent]:
        classify = self._classifier.classify
        return [
            ev if ev.subcategory is not None
            else ev.with_subcategory(classify(ev.entry_data))
            for ev in events
        ]

    def _feed(self, events: list[RasEvent]) -> None:
        """Feed accepted events to the pool (plain) or manager (lifecycle)."""
        if self._manager_factory is None:
            self._consume(events, self.pool.process_store)
            return
        # Lifecycle mode: fill the drift-reference window first, then feed
        # exact chunk_events-sized chunks so retrain barriers are placed
        # deterministically, independent of wire batching.
        if self._manager is None:
            need = self._reference_events - len(self._reference)
            self._reference.extend(events[:need])
            events = events[need:]
            if len(self._reference) < self._reference_events:
                return
            reference = EventStore.from_events_in_memory(self._classified(self._reference))
            self._manager = self._manager_factory(self.pool, reference)
            self._consume(self._reference, self._manager.feed)
            self._reference = []
        if events:
            self._chunk.extend(events)
            rest = self._chunk
            while len(rest) >= self.chunk_events:
                self._consume(rest[: self.chunk_events], self._manager.feed)
                rest = rest[self.chunk_events:]
            self._chunk = rest

    def _consume(
        self,
        events: list[RasEvent],
        feed: Callable[[EventStore], list[FailureWarning]],
    ) -> None:
        """Feed one batch to ``feed`` (pool or manager) and account for it."""
        if not events:
            return
        store = EventStore.from_events_in_memory(self._classified(events))
        raised = feed(store)
        if self.action_sink is not None:
            self.action_sink.observe_store(store, list(raised))
        self.recent_warnings.extend(raised)
        self.stats.processed += len(events)
        self.stats.warnings += len(raised)
        obs = get_registry()
        obs.counter("serve.daemon.events", len(events), stream=self.stream_id)
        obs.observe("serve.daemon.batch_events", float(len(events)))
        if raised:
            obs.counter(
                "serve.daemon.warnings", len(raised), stream=self.stream_id
            )

    # ---------------------------------------------------------------- #
    # Shutdown
    # ---------------------------------------------------------------- #

    async def close(self) -> None:
        """Stop accepting, let the worker drain everything, join it."""
        if self._closing:
            if self._task is not None:
                await self._task
            return
        self._closing = True
        if self._task is None:
            self._flush()
            return
        await self.queue.put(_CLOSE)
        await self._task

    def _flush(self) -> None:
        """Push any lifecycle-mode partial chunk / warm-up remainder through."""
        if self._reference:
            # Stream ended before the drift reference filled: feed the
            # buffered events plainly — no manager, no retraining.
            buffered, self._reference = self._reference, []
            self._manager_factory = None
            self._consume(buffered, self.pool.process_store)
        if self._chunk:
            tail, self._chunk = self._chunk, []
            manager = self._manager
            self._consume(
                tail, self.pool.process_store if manager is None else manager.feed
            )

    def finish(self) -> SessionStats:
        """Finalize the pool's sessions (resolve pending warnings)."""
        return self.pool.finish()

    @property
    def manager(self) -> Optional[ChunkConsumer]:
        """The lifecycle manager, once the reference window has filled."""
        return self._manager


@dataclass
class StreamRouter:
    """Lazily creates and tracks one :class:`StreamChannel` per stream id."""

    meta: MetaLearner
    queue_bound: int = 4096
    shards: int = 4
    key: str = "midplane"
    chunk_events: int = 512
    warning_ring: int = 256
    max_streams: int = 64
    manager_factory: Optional[ManagerFactory] = None
    reference_events: int = 0
    action_factory: Optional[ActionFactory] = None
    channels: dict[str, StreamChannel] = field(default_factory=dict)

    def channel(self, stream_id: str) -> StreamChannel:
        """The stream's channel, created (and its worker started) on first use."""
        existing = self.channels.get(stream_id)
        if existing is not None:
            return existing
        if len(self.channels) >= self.max_streams:
            raise ValueError(
                f"stream limit reached ({self.max_streams}); "
                f"refusing new stream {stream_id!r}"
            )
        channel = StreamChannel(
            stream_id,
            self.meta,
            queue_bound=self.queue_bound,
            shards=self.shards,
            key=self.key,
            chunk_events=self.chunk_events,
            warning_ring=self.warning_ring,
            manager_factory=self.manager_factory,
            reference_events=self.reference_events,
            action_factory=self.action_factory,
        )
        self.channels[stream_id] = channel
        channel.start()
        get_registry().gauge("serve.daemon.streams", float(len(self.channels)))
        return channel

    async def close_all(self) -> None:
        """Drain every channel, in stream-id order (deterministic)."""
        for stream_id in sorted(self.channels):
            await self.channels[stream_id].close()
