"""Regenerate ``expected_tpch.json``: the 22 TPC-H answers at the
benchmark's fixed data, computed by the row engine of
``repro.baselines`` (it interprets the logical plans with its own
operators and its own storage formats, and shares no execution code with
VectorH's vectorized engine).

Run from the root of a checkout: ``python3 perfbench/make_expected.py``.
It takes about ten seconds and also reports whether the VectorH answers
agree.
"""

from __future__ import annotations

import json
import sys
import time

import common
from oracle import EXPECTED_PATH, batch_rows, matches_expected
from repro.baselines import CompetitorSystem
from repro.tpch import QUERIES, run_query


def main() -> int:
    data = common.tpch_data()
    t0 = time.perf_counter()
    system = CompetitorSystem("hawq", workers=common.N_WORKERS)
    system.load(data)
    queries = {}
    for number in QUERIES:
        batch = system.run_tpch(number)
        queries[str(number)] = {"columns": batch.column_names,
                                "rows": [list(r) for r in batch_rows(batch)]}
    print(f"row engine: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps({
        "scale_factor": common.SCALE_FACTOR,
        "dbgen_seed": common.DBGEN_SEED,
        "engine": "repro.baselines.CompetitorSystem('hawq')",
        "queries": queries,
    }, indent=0) + "\n")

    cluster = common.build_cluster(data).cluster
    bad = []
    for number in QUERIES:
        batch = run_query(lambda plan: cluster.query(plan).batch, number)
        if not matches_expected(batch, queries[str(number)]):
            bad.append(number)
    print(f"VectorH disagrees on: {bad}" if bad else "VectorH agrees",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
