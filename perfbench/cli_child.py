"""Run the pipekrylov command line in a fresh interpreter, as a user would.

    python3 perfbench/cli_child.py TIMES.json <pipekrylov arguments...>

``src`` must be on PYTHONPATH.  Beyond calling ``pipekrylov.cli.main``,
the only addition is a wall-clock timer around each ``solve()`` call; the
per-solve times, iteration counts and final relative errors, and the BLAS
thread count, go to TIMES.json.  The exit code is the command line's own.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def relative_error(x, x_true):
    if x_true is None:
        return None
    return float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))


@contextmanager
def timed_solves(cli, records: list):
    """Time each solve() the command line makes; append one dict per call."""
    solve = cli.solve

    def timed(cfg, *args, **kwargs):
        t0 = perf_counter()
        result = solve(cfg, *args, **kwargs)
        seconds = perf_counter() - t0
        records.append({"method": cfg.method, "s": seconds,
                        "iterations": result.iterations,
                        "relerr": relative_error(result.x_final, kwargs.get("x_true")),
                        "result": result})
        return result

    cli.solve = timed
    try:
        yield records
    finally:
        cli.solve = solve


def main() -> int:
    times_path, argv = sys.argv[1], sys.argv[2:]
    from pipekrylov import cli

    records: list = []
    with timed_solves(cli, records):
        code = cli.main(argv)
    from envinfo import blas_threads
    for record in records:
        del record["result"]
    with open(times_path, "w", encoding="utf-8") as handle:
        json.dump({"solves": records, "blas_threads": blas_threads()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
