"""The ``daemon-wire`` workload: live ingest over loopback TCP.

Set-up generates the ANL profile at scale 0.25, runs Phase 1, fits the
meta-learner on the first half of the events and turns the second half
into traffic: replicated end to end with a time shift, its
``subcategory`` stripped so the daemon classifies every event, and dealt
round-robin onto two streams.  A forked child runs :class:`IngestDaemon`
(4 midplane shards, 512-event chunks, a cost-aware ``ActionEngine`` per
stream, the columnar archive on).  The parent is the one client: one
connection per stream, closed loop, 512-event ``batch`` frames encoded
during set-up, a ``BUSY`` answer retried with the unsent tail.

After the window the parent checks the drain against a batch oracle and
the archive against the events it sent.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import numpy as np

from repro.actions import ActionEngine, CostModel, build_policy
from repro.core.pipeline import ThreePhasePredictor
from repro.meta.stacked import MetaLearner
from repro.ras.columnar import open_store
from repro.ras.store import UNCLASSIFIED, EventStore
from repro.serve import DetectorPool
from repro.serve.client import partition_round_robin
from repro.serve.daemon import DaemonConfig, IngestDaemon, stats_to_dict
from repro.serve.protocol import decode_frame, encode_frame, event_to_dict
from repro.synth.generator import LogGenerator
from repro.synth.profiles import anl_profile
from repro.util.timeutil import MINUTE

SCALE = 0.25
STREAMS = ("s0", "s1")
FRAME_EVENTS = 512
#: Frames the window sends at least, however fast they go.  More would make
#: a traced run, which sends two windows, too long on a slow machine.
MIN_FRAMES = 512
#: Frames encoded per stream during set-up (an upper bound on the window).
POOL_FRAMES = 800
RETRY_DELAY_S = 0.005
MAX_RETRIES = 2000
#: In the traced window, the client samples the ``stats`` op this often.
STATS_EVERY = 8
SHARDS = 4
SHARD_KEY = "midplane"
POLICY = "cost-aware"
ACTION_SEED = 0


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #


@dataclass
class Traffic:
    """The fitted model and the per-stream event rows to send."""

    meta: MetaLearner
    store: EventStore
    rows: dict[str, np.ndarray]
    #: Row ``i`` of ``store`` replicates row ``i % base_len``, time-shifted.
    base_len: int


def build_traffic(seed: int) -> Traffic:
    log = LogGenerator(anl_profile(), scale=SCALE, seed=seed).generate()
    events = ThreePhasePredictor().preprocess(log.raw).events
    del log
    cut = len(events) // 2
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(events.select(slice(0, cut)))
    base = events.select(slice(cut, len(events)))
    total = len(STREAMS) * POOL_FRAMES * FRAME_EVENTS
    copies = -(-total // len(base))
    shift = int(base.times[-1] - base.times[0]) + 1
    times = np.concatenate([base.times + k * shift for k in range(copies)])

    def tiled(column: np.ndarray) -> np.ndarray:
        return np.tile(column, copies)[:total]

    store = EventStore.from_columns(
        times[:total],
        tiled(base.severities),
        tiled(base.facilities),
        tiled(base.jobs),
        tiled(base.location_ids),
        tiled(base.entry_ids),
        np.full(total, UNCLASSIFIED, dtype=np.int32),
        base.location_table,
        base.entry_table,
        [],
    )
    dealt = partition_round_robin(range(total), STREAMS)
    rows = {s: np.asarray(dealt[s], dtype=np.int64) for s in STREAMS}
    return Traffic(meta=meta, store=store, rows=rows, base_len=len(base))


@dataclass
class StreamFrames:
    """One stream's pre-encoded frames; ``offsets`` index each event's bytes."""

    frames: list[bytes]
    offsets: list[np.ndarray]
    sizes: list[int]

    def tail(self, k: int, accepted: int) -> bytes:
        """Frame ``k`` without its first ``accepted`` events."""
        frame = self.frames[k]
        return frame[: self.offsets[k][0]] + frame[self.offsets[k][accepted]:]


def encode_frames(traffic: Traffic) -> dict[str, StreamFrames]:
    """Encode every stream's frames, byte-identical to ``encode_frame``.

    Replicas differ from their base event only in ``time``, the last key
    in the sorted encoding, so each base event is encoded once and every
    replica appends its own time.  The first and last frame of each stream
    are compared with ``encode_frame`` over ``event_to_dict``.
    """
    store = traffic.store
    times = store.times.tolist()
    heads = []
    for j in range(traffic.base_len):
        doc = event_to_dict(store.event_at(j))
        if max(doc) != "time":
            raise AssertionError("time is not the last key of an event payload")
        del doc["time"]
        text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
        heads.append(text[:-1].encode() + b',"time":')
    out: dict[str, StreamFrames] = {}
    for stream, rows in traffic.rows.items():
        suffix = f'],"op":"batch","stream":"{stream}"}}\n'.encode()
        frames, offsets, sizes = [], [], []
        for lo in range(0, len(rows), FRAME_EVENTS):
            chunk = rows[lo:lo + FRAME_EVENTS]
            parts = [
                heads[i % traffic.base_len] + b"%d}" % times[i]
                for i in chunk.tolist()
            ]
            lengths = np.fromiter((len(p) + 1 for p in parts), np.int64, len(parts))
            starts = len(b'{"events":[') + np.concatenate(([0], np.cumsum(lengths)[:-1]))
            frames.append(b'{"events":[' + b",".join(parts) + suffix)
            offsets.append(starts)
            sizes.append(len(parts))
        for k in (0, len(frames) - 1):
            docs = [
                event_to_dict(store.event_at(int(i)))
                for i in rows[k * FRAME_EVENTS:(k + 1) * FRAME_EVENTS]
            ]
            if frames[k] != encode_frame(
                {"op": "batch", "stream": stream, "events": docs}
            ):
                raise AssertionError("frame bytes differ from encode_frame")
        out[stream] = StreamFrames(frames, offsets, sizes)
    return out


# --------------------------------------------------------------------- #
# The daemon child
# --------------------------------------------------------------------- #


def _action_factory(stream_id: str) -> ActionEngine:
    return ActionEngine(build_policy(POLICY), CostModel(), seed=ACTION_SEED)


def _daemon_main(conn: Any, meta: MetaLearner, store_dir: str, tracer: Any) -> None:
    if tracer is not None:
        tracer.recorder.reset()
    config = DaemonConfig(
        port=0,
        shards=SHARDS,
        key=SHARD_KEY,
        chunk_events=FRAME_EVENTS,
        store_dir=store_dir,
    )

    async def main() -> None:
        daemon = IngestDaemon(meta, config, action_factory=_action_factory)
        await daemon.start()
        conn.send(("port", daemon.port))
        report = await daemon.serve_until_drained(install_signal_handlers=False)
        conn.send(("drained", None))
        streams = {
            r.stream_id: {
                "stats": stats_to_dict(r.stats),
                "ledger_digest": r.ledger.digest(),
                "processed": r.processed,
            }
            for r in report.streams
        }
        combined = report.combined
        conn.send((
            "report",
            {
                "streams": streams,
                "warnings": combined.warnings,
                "hits": combined.hits,
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": tracer.recorder.snapshot() if tracer is not None else None,
            },
        ))
        # Stay up until the client has closed every connection, so no
        # connection handler is cancelled at loop teardown.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, conn.recv)
        current = asyncio.current_task()
        for _ in range(200):
            if all(t is current or t.done() for t in asyncio.all_tasks()):
                break
            await asyncio.sleep(0.01)

    asyncio.run(main())
    conn.close()


# --------------------------------------------------------------------- #
# The client
# --------------------------------------------------------------------- #


@dataclass
class StreamTally:
    frames: int = 0
    sends: int = 0
    busy: int = 0
    failed: int = 0
    accepted: int = 0
    lag_max: int = 0
    rtts: list[float] = field(default_factory=list)


@dataclass
class Window:
    """One timed window against one daemon child."""

    tallies: dict[str, StreamTally]
    seconds: float
    drain_s: float
    report: dict[str, Any]

    @property
    def frames(self) -> int:
        return sum(t.frames for t in self.tallies.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies.values())

    @property
    def accepted(self) -> int:
        return sum(t.accepted for t in self.tallies.values())

    @property
    def rtts(self) -> list[float]:
        return [r for t in self.tallies.values() for r in t.rtts]


async def _drive(
    port: int,
    frames: dict[str, StreamFrames],
    seconds: float,
    limits: Optional[dict[str, int]],
    sample_stats: bool,
) -> tuple[dict[str, StreamTally], float]:
    conns = {s: await asyncio.open_connection("127.0.0.1", port) for s in frames}
    tallies = {s: StreamTally() for s in frames}
    t_start = perf_counter()
    deadline = t_start + seconds

    async def one(stream: str) -> None:
        reader, writer = conns[stream]
        sf = frames[stream]
        tally = tallies[stream]
        peer = next(s for s in frames if s != stream)
        for k in range(len(sf.frames)):
            if limits is not None:
                if k >= limits[stream]:
                    break
            elif (perf_counter() >= deadline
                  and sum(t.frames for t in tallies.values()) >= MIN_FRAMES):
                break
            if sample_stats and k % STATS_EVERY == 0:
                # Ask for the peer stream's lag: this stream's own queue is
                # empty here, since its last frame has just been answered.
                writer.write(encode_frame({"op": "stats", "stream": peer}))
                await writer.drain()
                doc = decode_frame(await reader.readline())
                if doc.get("ok"):
                    c = doc["counters"]
                    tally.lag_max = max(tally.lag_max, c["ingested"] - c["processed"])
            tally.frames += 1
            size = sf.sizes[k]
            payload = sf.frames[k]
            done = 0
            retries = 0
            t0 = perf_counter()
            while True:
                writer.write(payload)
                await writer.drain()
                tally.sends += 1
                doc = decode_frame(await reader.readline())
                accepted = int(doc.get("accepted", 0))
                done += accepted
                tally.accepted += accepted
                if doc.get("ok") or done == size:
                    break
                if not doc.get("busy") or retries >= MAX_RETRIES:
                    tally.failed += 1
                    return
                tally.busy += 1
                retries += 1
                payload = sf.tail(k, done)
                await asyncio.sleep(RETRY_DELAY_S)
            tally.rtts.append(perf_counter() - t0)

    try:
        await asyncio.gather(*(one(s) for s in frames))
    finally:
        for _, writer in conns.values():
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
    return tallies, t_start


async def _request_drain(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_frame({"op": "drain"}))
        await writer.drain()
        await reader.readline()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


class DaemonChild:
    """A forked daemon process and the parent's end of its pipe."""

    def __init__(self, meta: MetaLearner, store_dir: Path, tracer: Any) -> None:
        # Fork, not spawn: the child inherits the fitted model and, on the
        # traced run, the wrappers installed in this process.  The parent
        # runs no threads at this point.
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.store_dir = store_dir
        self.process = ctx.Process(
            target=_daemon_main,
            args=(child_conn, meta, str(store_dir), tracer),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._port: Optional[int] = None

    def _expect(self, tag: str, timeout: float = 120.0) -> Any:
        if not self.conn.poll(timeout):
            raise RuntimeError(f"daemon child sent no {tag!r} message")
        got, payload = self.conn.recv()
        if got != tag:
            raise RuntimeError(f"daemon child sent {got!r}, expected {tag!r}")
        return payload

    @property
    def port(self) -> int:
        if self._port is None:
            self._port = int(self._expect("port"))
        return self._port

    def run_window(
        self,
        frames: dict[str, StreamFrames],
        seconds: float,
        limits: Optional[dict[str, int]] = None,
        sample_stats: bool = False,
    ) -> Window:
        port = self.port
        tallies, t_start = asyncio.run(
            _drive(port, frames, seconds, limits, sample_stats)
        )
        t_drain = perf_counter()
        asyncio.run(_request_drain(port))
        self._expect("drained")
        t_end = perf_counter()
        report = self._expect("report")
        self.conn.send("bye")
        self.process.join(60)
        return Window(
            tallies=tallies,
            seconds=t_end - t_start,
            drain_s=t_end - t_drain,
            report=report,
        )

    def stop(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(10)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        self.conn.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# Correctness: drain vs batch oracle, archive vs events sent
# --------------------------------------------------------------------- #


def oracle(traffic: Traffic, stream: str, accepted: int) -> dict[str, Any]:
    """What the batch path computes on one stream's accepted events."""
    meta = traffic.meta
    sent = traffic.store.select(traffic.rows[stream][:accepted])
    labeled = meta.statistical.classifier.classify_store(sent)
    pool = DetectorPool(meta, shards=SHARDS, key=SHARD_KEY)
    engine = ActionEngine(build_policy(POLICY), CostModel(), seed=ACTION_SEED)
    # Chunked like the daemon's worker: the engine scans its pending
    # warnings per event, so one whole-stream call would be quadratic.
    # Both layers are chunk-invariant, so the split does not change results.
    for chunk in labeled.iter_chunks(FRAME_EVENTS):
        engine.observe_store(chunk, list(pool.process_store(chunk)))
    stats = pool.finish()
    return {
        "stats": stats_to_dict(stats),
        "ledger_digest": engine.finalize().digest(),
        "processed": accepted,
    }


_ORACLE_TRAFFIC: Optional[Traffic] = None


def _oracle_task(key: tuple[str, int]) -> tuple[tuple[str, int], dict[str, Any]]:
    assert _ORACLE_TRAFFIC is not None
    return key, oracle(_ORACLE_TRAFFIC, *key)


def oracles(traffic: Traffic, keys: list[tuple[str, int]]) -> dict:
    """:func:`oracle` per ``(stream, accepted)`` key, one forked worker each.

    Forked workers share the traffic instead of unpickling a copy.
    """
    global _ORACLE_TRAFFIC
    if not keys:
        return {}
    _ORACLE_TRAFFIC = traffic
    try:
        with multiprocessing.get_context("fork").Pool(len(keys)) as pool:
            return dict(pool.map(_oracle_task, keys))
    finally:
        _ORACLE_TRAFFIC = None


def _sorted_rows(stores: list[EventStore], codes: dict[str, dict[str, int]]) -> np.ndarray:
    """All rows of ``stores`` as integer tuples, sorted lexicographically."""
    blocks = []
    for store in stores:
        def coded(table: list[str], ids: np.ndarray, kind: str) -> np.ndarray:
            lookup = np.array([codes[kind][s] for s in table] + [-1], dtype=np.int64)
            return lookup[ids]  # id -1 (unclassified) picks the trailing -1

        blocks.append(np.column_stack([
            store.times,
            store.severities.astype(np.int64),
            store.facilities.astype(np.int64),
            store.jobs,
            coded(store.location_table, store.location_ids, "locations"),
            coded(store.entry_table, store.entry_ids, "entries"),
            coded(store.subcat_table, store.subcat_ids, "subcats"),
        ]))
    rows = np.concatenate(blocks) if blocks else np.empty((0, 7), dtype=np.int64)
    return rows[np.lexsort(rows.T[::-1])]


def archive_matches(traffic: Traffic, window: Window, store_dir: Path) -> bool:
    """The reopened archive holds exactly the sent events (as a multiset)."""
    archived = open_store(store_dir)
    sent = [
        traffic.store.select(traffic.rows[s][: t.accepted])
        for s, t in window.tallies.items()
    ]
    codes: dict[str, dict[str, int]] = {}
    for kind, attr in (("locations", "location_table"), ("entries", "entry_table"),
                       ("subcats", "subcat_table")):
        strings = set(getattr(archived, attr))
        for store in sent:
            strings.update(getattr(store, attr))
        codes[kind] = {s: i for i, s in enumerate(sorted(strings))}
    got = _sorted_rows([archived], codes)
    want = _sorted_rows(sent, codes)
    return got.shape == want.shape and bool(np.array_equal(got, want))


def check_window(
    traffic: Traffic, window: Window, store_dir: Path, cache: dict
) -> tuple[int, list[str]]:
    """Failed frames caused by mismatches, and what mismatched."""
    failed = 0
    problems = []
    drained = window.report["streams"]
    keys = [(s, t.accepted) for s, t in window.tallies.items()]
    cache.update(oracles(traffic, [k for k in keys if k not in cache]))
    for stream, tally in window.tallies.items():
        if drained.get(stream) != cache[(stream, tally.accepted)]:
            problems.append(f"{stream}: drain differs from the batch oracle")
            failed += tally.frames - tally.failed
    if not archive_matches(traffic, window, store_dir):
        problems.append("archive rows differ from the events sent")
        failed = window.frames
    return failed, problems

