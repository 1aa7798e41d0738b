#!/usr/bin/env python3
"""Compare two sets of benchmark run records, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the run records (``*.trace0.json``, ``*.trace1.json``)
that perfbench/run.py writes to perfbench/out/.  For every workload and
metric the script prints each side's median over seeds, the after/before
ratio, and each side's quartile spread as a share of its median.  It
flags a workload whose two sides ran with different BLAS thread counts,
library versions or CPUs: iteration counts and timings compare only
within one such environment.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("blas", "blas_threads", "numpy", "scipy", "python", "cpu", "nproc")


def load(directory: str) -> dict:
    groups: dict = {}
    for path in sorted(Path(directory).glob("*.trace[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def spread(values) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"== {workload} trace={trace} "
              f"(seeds: {len(before[key])} before, {len(after[key])} after)")
        for env_key in ENV_KEYS:
            sides = [{str(r["env"].get(env_key)) for r in side[key]} for side in (before, after)]
            if sides[0] != sides[1] or len(sides[0]) > 1:
                print(f"FLAG: {env_key} differs: before {sorted(sides[0])}, "
                      f"after {sorted(sides[1])}")
        for name in before[key][0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in before[key] if name in r["metrics"]]
            a = [r["metrics"][name]["value"] for r in after[key] if name in r["metrics"]]
            if not a:
                continue
            mb, ma = statistics.median(b), statistics.median(a)
            ratio = f"{ma / mb:.4f}" if mb else "n/a"
            unit = before[key][0]["metrics"][name]["unit"]
            print(f"{name:32s} {mb:14.6g} -> {ma:14.6g} {unit:7s} ratio={ratio} "
                  f"spread {spread(b):.3f} / {spread(a):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
