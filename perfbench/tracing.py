"""Per-layer tracing for the traced run, installed from outside ``src/``.

The traced run wraps public calls into each layer of ``repro`` and patches
every name where its caller looks it up: methods on their class, module
functions in the module that calls them.  Two kinds of wrapper exist:

- a *span* wrapper times one call and records ``(name, start, end,
  parent)`` in memory; the parent is the span open when the call began;
- a *count* wrapper, for calls made once per event or per record, counts
  calls and the distinct arguments seen, and times nothing.

Counts that describe a call's work (records in, events out, rows appended)
are taken from the return value of the same wrapped call, so every ratio
is measured where the work happens.  Nothing here is imported
by the untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

#: Span name per wrapped call: (module, owner, attribute) -> span name.
#: ``owner`` is a class name, or ``None`` for a module-level function
#: patched in the module that calls it.
SPAN_TARGETS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.synth.generator", "LogGenerator", "generate", "synth.generate"),
    ("repro.bgl.cmcs", "CmcsSimulator", "expand", "bgl.cmcs_expand"),
    ("repro.bgl.jobs", "JobWorkloadModel", "generate", "bgl.jobs_generate"),
    ("repro.preprocess.pipeline", "PreprocessPipeline", "run", "preprocess.run"),
    ("repro.preprocess.pipeline", None, "temporal_compress", "preprocess.temporal"),
    ("repro.preprocess.pipeline", None, "spatial_compress", "preprocess.spatial"),
    ("repro.taxonomy.classifier", "TaxonomyClassifier", "classify_store",
     "taxonomy.classify_store"),
    ("repro.meta.stacked", "MetaLearner", "fit", "meta.fit"),
    ("repro.meta.stacked", "MetaLearner", "predict", "meta.predict"),
    ("repro.serve.pool", "DetectorPool", "replay", "serve.replay"),
    ("repro.serve.pool", "DetectorPool", "process_store", "serve.process_store"),
    ("repro.serve.daemon", None, "decode_request", "serve.decode_request"),
    ("repro.ras.store", "EventStore", "from_events_in_memory", "ras.columnize"),
    ("repro.ras.columnar", "ColumnarWriter", "append_events", "ras.archive_append"),
    ("repro.actions.engine", "ActionEngine", "observe_store", "actions.observe_store"),
    ("repro.actions.engine", "ActionEngine", "finalize", "actions.finalize"),
)

#: Per-event calls: counted (calls and distinct first arguments), not timed.
COUNT_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.bgl.topology", "Machine", "chips_of_nodecard", "bgl.chips_of_nodecard"),
    ("repro.bgl.jobs", "JobTrace", "partition_chips", "bgl.partition_chips"),
    ("repro.taxonomy.classifier", "TaxonomyClassifier", "classify",
     "taxonomy.classify"),
)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget everything recorded so far (a forked child starts clean).

        Containers are cleared in place: the count wrappers hold them.
        """
        self.spans.clear()
        self.counts.clear()
        for seen in self.distinct.values():
            seen.clear()
        self._stack.clear()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent)
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span around the benchmark's own steps."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def snapshot(self) -> dict[str, Any]:
        """Picklable state, for shipping a child's trace to the parent."""
        return {
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        self.recorder.close(self.index)


def _observe_result(rec: Recorder, name: str, result: Any) -> None:
    """Work counts read off one wrapped call's result."""
    if name == "synth.generate":
        rec.count("bgl.ground_truth_events", result.n_unique)
        rec.count("bgl.raw_records", result.n_raw)
    elif name == "preprocess.run":
        rec.count("preprocess.records_in", result.raw_records)
        rec.count("preprocess.events_out", result.unique_events)
    elif name == "meta.fit":
        ruleset = result.rulebased.ruleset
        rec.count("mining.rules", len(ruleset) if ruleset else 0)
    elif name == "meta.predict":
        rec.count("meta.warnings", len(result))
    elif name == "serve.replay":
        rec.count("online.warnings", result.combined.warnings)
        rec.count("online.hits", result.combined.hits)
    elif name == "ras.archive_append":
        rec.count("ras.archive_rows", result)
    elif name == "actions.finalize":
        rec.count("actions.taken", sum(result.taken.values()))
        rec.count("actions.settled", result.settled)
        rec.count("actions.hits", result.outcomes.get("hit", 0))
    rec.count(name + "_calls")


def _span_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        _observe_result(rec, name, result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    seen = rec.distinct[name]
    calls = name + "_calls"
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(self: Any, arg: Any, *rest: Any, **kwargs: Any) -> Any:
        counts[calls] += 1
        seen.add(arg)
        return fn(self, arg, *rest, **kwargs)

    return wrapper


class Tracer:
    """Installs and removes the wrappers; owns the process's recorder."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            return
        rec = self.recorder
        for module_name, owner_name, attr, name in SPAN_TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched: Any = classmethod(_span_wrapper(rec, name, raw.__func__))
            else:
                patched = _span_wrapper(rec, name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        for module_name, owner_name, attr, name in COUNT_TARGETS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, _count_wrapper(rec, name, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


# --------------------------------------------------------------------- #
# From spans and counts to per-layer metrics
# --------------------------------------------------------------------- #


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Summed self time per span name: duration minus child durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
    return dict(totals)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("synth.generate_s", "s"),
    ("bgl.cmcs_expand_s", "s"),
    ("bgl.jobs_generate_s", "s"),
    ("bgl.ground_truth_events", "count"),
    ("bgl.raw_records", "count"),
    ("bgl.dup_ratio", "ratio"),
    ("bgl.chips_of_nodecard_calls", "count"),
    ("bgl.chips_of_nodecard_useful", "ratio"),
    ("bgl.partition_chips_calls", "count"),
    ("bgl.partition_chips_useful", "ratio"),
    ("preprocess.run_s", "s"),
    ("preprocess.temporal_s", "s"),
    ("preprocess.spatial_s", "s"),
    ("preprocess.records_in", "count"),
    ("preprocess.events_out", "count"),
    ("preprocess.kept_ratio", "ratio"),
    ("taxonomy.classify_store_s", "s"),
    ("taxonomy.classify_calls", "count"),
    ("taxonomy.classify_useful", "ratio"),
    ("meta.fit_s", "s"),
    ("mining.rules", "count"),
    ("meta.predict_s", "s"),
    ("meta.warnings", "count"),
    ("serve.replay_s", "s"),
    ("serve.process_store_s", "s"),
    ("serve.process_store_calls", "count"),
    ("serve.decode_request_s", "s"),
    ("serve.decode_request_calls", "count"),
    ("serve.frames", "count"),
    ("serve.busy_ratio", "ratio"),
    ("serve.lag_events_max", "count"),
    ("serve.drain_s", "s"),
    ("serve.frame_rtt_p90_ms", "ms"),
    ("ras.columnize_s", "s"),
    ("ras.archive_append_s", "s"),
    ("ras.archive_rows", "count"),
    ("online.warnings", "count"),
    ("online.hits", "count"),
    ("online.precision", "ratio"),
    ("actions.observe_store_s", "s"),
    ("actions.finalize_s", "s"),
    ("actions.taken", "count"),
    ("actions.settled", "count"),
    ("actions.hit_ratio", "ratio"),
    ("client.encode_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

_TIMED = (
    "synth.generate", "bgl.cmcs_expand", "bgl.jobs_generate",
    "preprocess.run", "preprocess.temporal", "preprocess.spatial",
    "taxonomy.classify_store", "meta.fit", "meta.predict", "serve.replay",
    "serve.process_store", "serve.decode_request", "ras.columnize",
    "ras.archive_append", "actions.observe_store", "actions.finalize",
    "client.encode",
)


def merge_snapshots(*snapshots: dict[str, Any]) -> dict[str, Any]:
    """Self times, counts and distinct counts summed over processes."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    distinct: dict[str, float] = defaultdict(float)
    for snap in snapshots:
        for name, value in self_times(snap["spans"]).items():
            self_s[name] += value
        for name, value in snap["counts"].items():
            counts[name] += value
        for name, value in snap["distinct"].items():
            distinct[name] += value
    return {"self_s": dict(self_s), "counts": dict(counts), "distinct": dict(distinct)}


def layer_metrics(
    merged: dict[str, Any], extra: dict[str, float]
) -> dict[str, dict[str, Any]]:
    """Per-layer metric table from merged spans and counts.

    ``extra`` supplies values measured by the benchmark's own client
    (frames, BUSY ratio, lag, drain time, overhead) and session counters.
    """
    s = merged["self_s"]
    c = merged["counts"]
    d = merged["distinct"]
    values: dict[str, float] = {}
    for name in _TIMED:
        values[name + "_s"] = s.get(name, 0.0)
    for key in (
        "bgl.ground_truth_events", "bgl.raw_records", "preprocess.records_in",
        "preprocess.events_out", "mining.rules", "meta.warnings",
        "ras.archive_rows", "online.warnings", "online.hits",
        "actions.taken", "actions.settled",
    ):
        values[key] = c.get(key, 0.0)
    for key in ("serve.process_store", "serve.decode_request"):
        values[key + "_calls"] = c.get(key + "_calls", 0.0)
    for key in ("bgl.chips_of_nodecard", "bgl.partition_chips", "taxonomy.classify"):
        calls = c.get(key + "_calls", 0.0)
        values[key + "_calls"] = calls
        values[key + "_useful"] = _ratio(d.get(key, 0.0), calls)
    values["bgl.dup_ratio"] = _ratio(
        c.get("bgl.raw_records", 0.0), c.get("bgl.ground_truth_events", 0.0)
    )
    values["preprocess.kept_ratio"] = _ratio(
        c.get("preprocess.events_out", 0.0), c.get("preprocess.records_in", 0.0)
    )
    values["actions.hit_ratio"] = _ratio(
        c.get("actions.hits", 0.0), c.get("actions.settled", 0.0)
    )
    for key in ("serve.frames", "serve.busy_ratio", "serve.lag_events_max",
                "serve.drain_s", "serve.frame_rtt_p90_ms"):
        values[key] = 0.0
    values.update(extra)
    values["online.precision"] = _ratio(
        values["online.hits"], values["online.warnings"]
    )
    units = dict(LAYER_METRICS)
    return {
        name: {"value": float(values[name]), "unit": units[name]}
        for name, _ in LAYER_METRICS
    }


def write_trace(path: str, doc: dict[str, Any]) -> None:
    """Write one traced run's spans and metrics as JSON (once, at the end)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
