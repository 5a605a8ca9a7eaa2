"""Per-layer comparator: where did a change move the traced numbers?

Takes the traced-run outputs of two versions of the code, for example the
parent commit and a change, and prints per workload the median of every
per-layer metric on each side and the change between them.

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are each a trace file written by
``run.py --trace 1`` (``.perfbench/trace-<workload>-seed<n>.json``) or a
directory of such files.  Runs are grouped by workload; with several runs
per workload each side reports its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Iterator, Optional


def _load(path: Path) -> tuple[str, dict[str, float]]:
    """(workload, {metric: value}) from one trace file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    metrics = {k: float(v["value"]) for k, v in doc["metrics"].items()}
    return doc["workload"], metrics


def _files(root: Path) -> Iterator[Path]:
    if root.is_dir():
        yield from sorted(root.glob("trace-*.json"))
    else:
        yield root


def collect(root: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over every run found under ``root``."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in _files(root):
        workload, metrics = _load(path)
        per = out.setdefault(workload, {})
        for name, value in metrics.items():
            per.setdefault(name, []).append(value)
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def compare(parent: dict[str, Any], change: dict[str, Any]) -> list[str]:
    lines = []
    for workload in sorted(set(parent) | set(change)):
        old = parent.get(workload, {})
        new = change.get(workload, {})
        n_old = max((len(v) for v in old.values()), default=0)
        n_new = max((len(v) for v in new.values()), default=0)
        lines.append(f"== {workload}  (runs: parent {n_old}, change {n_new})")
        lines.append(f"  {'metric':<32} {'parent':>14} {'change':>14} {'delta':>14} {'delta%':>9}")
        for name in sorted(set(old) | set(new)):
            a = statistics.median(old[name]) if name in old else None
            b = statistics.median(new[name]) if name in new else None
            if a is None or b is None:
                lines.append(f"  {name:<32} {_fmt(a) if a is not None else '-':>14} "
                             f"{_fmt(b) if b is not None else '-':>14}")
                continue
            pct = f"{100.0 * (b - a) / a:+.1f}%" if a else "-"
            lines.append(f"  {name:<32} {_fmt(a):>14} {_fmt(b):>14} {_fmt(b - a):>14} {pct:>9}")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(compare(collect(args.parent), collect(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
