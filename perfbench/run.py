"""Paper-scale end-to-end benchmark of the failure predictor.

    python3 perfbench/run.py --workload anl-batch [--seed 11] [--seconds 20] [--trace 0]

Workloads: ``anl-batch`` and ``sdsc-batch`` (the offline path on one
profile at scale 1.0) and ``daemon-wire`` (live ingest over loopback TCP).
Every run checks its outputs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (also written, with its spans, under
``.perfbench/``).  A human-readable summary goes to standard error.  See
perfbench/README.md.
"""

from time import perf_counter

_START = perf_counter()  # set-up time counts from the first statement

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("anl-batch", "sdsc-batch", "daemon-wire")


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    records: int, seconds: float, latencies_s: list[float], setup_s: float,
    peak_rss_mib: float,
) -> dict[str, Any]:
    """The end-to-end metrics, the same four on every workload."""
    return {
        "records_per_s": _metric(records / seconds, "1/s"),
        "latency_p50_ms": _metric(1e3 * statistics.median(latencies_s), "ms"),
        "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
        "setup_s": _metric(setup_s, "s"),
    }


def run_batch(workload: str, seed: int, seconds: float, tracer: Any) -> dict[str, Any]:
    import golden
    from batch import run_path

    table = golden.load()[workload]
    wseed = golden.workload_seed(table, seed)
    expected = table.get(str(wseed))
    setup_s = perf_counter() - _START
    results = []
    problems: list[str] = []

    def one() -> Any:
        result = run_path(workload, wseed)
        bad = golden.mismatches(expected, result.digests)
        if bad:
            problems.append(f"seed {wseed}: differs from golden in {bad}")
        results.append((result, not bad))
        gc.collect()
        return result

    if tracer is None:
        t_loop = perf_counter()
        while True:
            last = one()
            if perf_counter() - t_loop + last.seconds > seconds:
                break
        metrics = end_to_end(
            sum(r.raw_records for r, _ in results),
            sum(r.seconds for r, _ in results),
            [r.seconds for r, _ in results],
            setup_s,
            _peak_rss_mib(),
        )
        trace_doc = None
    else:
        from tracing import layer_metrics, merge_snapshots

        untraced = one()
        tracer.install()
        try:
            traced = one()
        finally:
            tracer.uninstall()
        overhead = traced.seconds - untraced.seconds
        snapshot = tracer.recorder.snapshot()
        metrics = layer_metrics(
            merge_snapshots(snapshot),
            extra={
                "trace.overhead_s": overhead,
                "trace.overhead_ratio": overhead / untraced.seconds,
            },
        )
        trace_doc = {"processes": {"benchmark": snapshot}}
    return {
        "workload_seed": wseed,
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(1 for _, ok in results if not ok),
        "metrics": metrics,
        "problems": problems,
        "trace": trace_doc,
    }


def run_wire(seed: int, seconds: float, tracer: Any) -> dict[str, Any]:
    import wire

    if tracer is not None:
        tracer.install()
    traffic = wire.build_traffic(seed)
    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    OUT_DIR.mkdir(exist_ok=True)
    dirs = [OUT_DIR / f"archive-{os.getpid()}-{k}" for k in ("a", "b")]
    children: list[Any] = []
    try:
        children.append(wire.DaemonChild(traffic.meta, dirs[0], None))
        if tracer is None:
            frames = wire.encode_frames(traffic)
        else:
            with tracer.recorder.span("client.encode"):
                frames = wire.encode_frames(traffic)
        children[0].port  # noqa: B018 - waits until the daemon listens
        setup_s = perf_counter() - _START
        windows = [children[0].run_window(frames, seconds)]
        if tracer is not None:
            limits = {s: t.frames for s, t in windows[0].tallies.items()}
            tracer.install()
            try:
                children.append(wire.DaemonChild(traffic.meta, dirs[1], tracer))
                windows.append(children[1].run_window(
                    frames, seconds, limits=limits, sample_stats=True
                ))
            finally:
                tracer.uninstall()
        for label, window in zip(("untraced", "traced"), windows):
            tallies = window.tallies.values()
            print(
                f"  {label} window: {window.accepted} events in "
                f"{window.seconds:.2f}s, {window.frames} frames, "
                f"{sum(t.sends for t in tallies)} sends, "
                f"{sum(t.busy for t in tallies)} BUSY",
                file=sys.stderr,
            )
        cache: dict = {}
        failed = 0
        problems: list[str] = []
        for window, store_dir in zip(windows, dirs):
            bad, why = wire.check_window(traffic, window, store_dir, cache)
            failed += window.failed + bad
            problems.extend(why)
            problems.extend(
                f"{s}: {t.failed} frame(s) failed"
                for s, t in window.tallies.items() if t.failed
            )
    finally:
        for child in children:
            child.stop()
    first = windows[0]
    if tracer is None:
        metrics = end_to_end(
            first.accepted,
            first.seconds,
            first.rtts,
            setup_s,
            first.report["peak_rss_kib"] / 1024.0,
        )
        trace_doc = None
    else:
        from tracing import layer_metrics, merge_snapshots

        traced = windows[1]
        tallies = traced.tallies.values()
        sends = sum(t.sends for t in tallies)
        overhead = traced.seconds - first.seconds
        parent = tracer.recorder.snapshot()
        daemon = traced.report["trace"]
        metrics = layer_metrics(
            merge_snapshots(parent, daemon),
            extra={
                "serve.frames": sends,
                "serve.busy_ratio": sum(t.busy for t in tallies) / sends,
                "serve.lag_events_max": max(t.lag_max for t in tallies),
                "serve.drain_s": traced.drain_s,
                "serve.frame_rtt_p90_ms": 1e3 * statistics.quantiles(traced.rtts, n=10)[8],
                "online.warnings": traced.report["warnings"],
                "online.hits": traced.report["hits"],
                "trace.overhead_s": overhead,
                "trace.overhead_ratio": overhead / first.seconds,
            },
        )
        trace_doc = {"processes": {"benchmark": parent, "daemon": daemon}}
    return {
        "workload_seed": seed,
        "correct": not problems,
        "attempted": sum(w.frames for w in windows),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "trace": trace_doc,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin the library's environment switches: in-memory stores, serial replay.
    for name in ("REPRO_STORE_BACKEND", "REPRO_JOBS", "REPRO_INCREMENTAL"):
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    if args.workload == "daemon-wire":
        result = run_wire(args.seed, args.seconds, tracer)
    else:
        result = run_batch(args.workload, args.seed, args.seconds, tracer)

    for problem in result["problems"]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed} (workload seed {result['workload_seed']}): "
        f"{result['attempted']} operations, {result['failed']} failed",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    if result["trace"] is not None:
        OUT_DIR.mkdir(exist_ok=True)
        from tracing import write_trace

        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(str(path), {
            "workload": args.workload,
            "seed": args.seed,
            "workload_seed": result["workload_seed"],
            "metrics": result["metrics"],
            **result["trace"],
        })
        print(f"  trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
