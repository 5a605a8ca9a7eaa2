"""Golden outputs of the batch workloads, recorded from unchanged code.

``golden.json`` maps workload -> workload seed -> the digests that
:func:`batch.run_path` computes: the Phase-1 ``store_fingerprint``, a
digest of the ``predict`` warning list, the replay ``SessionStats``
counters and the ledger ``digest()``.  Every batch run is checked against
the entry for its workload seed; a missing entry fails the run.

Recording only adds seeds that have no entry yet.  An existing entry is
never rewritten: if a fresh recording disagrees with it, recording stops
with an error, because the code under test changed its outputs.

    python3 perfbench/golden.py anl-batch 11 12 13
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load() -> dict[str, dict[str, Any]]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def workload_seed(table: dict[str, Any], seed: int) -> int:
    """The recorded workload seed a benchmark seed selects.

    A seed with its own golden entry runs as itself; any other seed picks
    the recorded seed at index ``seed mod K`` of the sorted seed list, so
    every run is checked against a golden and the same benchmark seed
    always gives the same inputs.
    """
    recorded = sorted(int(s) for s in table)
    if seed in recorded:
        return seed
    return recorded[seed % len(recorded)]


def mismatches(expected: Optional[dict[str, Any]], got: dict[str, Any]) -> list[str]:
    """Names of the digests that differ from the golden entry."""
    if expected is None:
        return ["no golden entry"]
    return sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))


def _record(workload: str, seeds: list[int]) -> int:
    sys.path.insert(0, str(GOLDEN_PATH.parent.parent / "src"))
    from batch import run_path

    table = load() if GOLDEN_PATH.exists() else {}
    entries = table.setdefault(workload, {})
    for seed in seeds:
        digests = run_path(workload, seed).digests
        old = entries.get(str(seed))
        if old is not None:
            bad = mismatches(old, digests)
            if bad:
                print(f"{workload} seed {seed}: recorded golden differs in {bad}",
                      file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: matches the recorded golden")
            continue
        entries[str(seed)] = digests
        print(f"{workload} seed {seed}: recorded")
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("anl-batch", "sdsc-batch"))
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args(argv)
    return _record(args.workload, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
