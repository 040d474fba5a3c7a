"""Wall-clock benchmark of the VectorH reproduction.

    python3 perfbench/run.py --workload tpch-power --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes the traced run and prints the
per-layer metrics and writes the spans to ``perfbench/out/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A wrong answer makes the
command exit with code 1. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import common
import layers
from workloads import WORKLOADS, Tracing, geodiff_probe


#: registry counters read before and after the timed phase of a traced run
COUNTERS = {
    "result_hits": ("server_cache_hits_total", {"cache": "result"}),
    "result_misses": ("server_cache_misses_total", {"cache": "result"}),
    "plan_hits": ("server_cache_hits_total", {"cache": "plan"}),
    "plan_misses": ("server_cache_misses_total", {"cache": "plan"}),
    "invalidations": ("server_cache_invalidations_total", {}),
    "replans": ("replans_total", {}),
    "rows": ("operator_rows_total", {}),
    "batches": ("operator_batches_total", {}),
    "buffer_hits": ("buffer_hits_total", {}),
    "buffer_misses": ("buffer_misses_total", {}),
    "minmax_scanned": ("minmax_blocks_scanned_total", {}),
    "minmax_skipped": ("minmax_blocks_skipped_total", {}),
    "wal_bytes": ("wal_appended_bytes_total", {}),
    "aborts": ("txn_outcomes_total", {"outcome": "abort"}),
    "read_local": ("hdfs_read_bytes_total", {"mode": "short_circuit"}),
    "read_all": ("hdfs_read_bytes_total", {}),
    "net_bytes": ("net_bytes_total", {}),
    "net_messages": ("net_messages_total", {}),
}


def counters(cluster) -> dict:
    registry = cluster.registry
    return {key: common.registry_total(registry, name, **match)
            for key, (name, match) in COUNTERS.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(bench, setups, loads, measured, scale, geodiff,
               stored_ratio, ok_ratio) -> dict:
    """``setups`` hold (CPU, wall, reference scale) per set-up; ``scale``
    is the reference scale of the timed phase."""
    samples = [lat for _kind, lat in measured.samples]
    tail_value, fewest = common.tail(measured.samples)
    print(f"tail_ms is the geomean of p{common.TAIL_PERCENTILE:g} over "
          f"operation kinds; the fewest samples of a kind is {fewest}")
    per_kind = common.medians_by_kind(measured.samples)
    # the unscaled clocks, for the record: the wall clock follows the
    # neighbours' load and the CPU clock the host's speed, so no gated
    # metric uses them as they are
    ops_per_s = measured.ops_per_s()
    print(f"unscaled CPU: setup_s {common.median([c for c, _w, _s in setups]):.6g}"
          f" ops_per_s {ops_per_s:.6g}"
          f" p50_ms {common.median(samples) * 1e3:.6g}")
    print(f"wall setup_s {common.median([w for _c, w, _s in setups]):.6g}")
    if measured.open_wall:
        print(f"wall open-loop p50_ms from due "
              f"{common.median(measured.open_wall) * 1e3:.6g}")
    # bulk load is 2 s of each set-up: too short a window to repeat
    # within the bounds on this kind of host, so it is printed, not gated
    print(f"load_rows_per_s {loads[0] / loads[1]:.6g}")
    return {
        "setup_s": (common.median([c * s for c, _w, s in setups]), "s"),
        "ops_per_s": (ops_per_s / scale, "1/s"),
        "p50_ms": (common.median(samples) * scale * 1e3, "ms"),
        "tail_ms": (tail_value * scale * 1e3, "ms"),
        "geomean_ms": (common.geomean(list(per_kind.values()))
                       * scale * 1e3, "ms"),
        "commit_p50_ms": (common.median(measured.commits) * scale * 1e3,
                          "ms"),
        "geodiff_ratio": (geodiff, "ratio"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
        "stored_bytes_ratio": (stored_ratio, "ratio"),
    }


def per_layer(recorder, measured, before, after, wait_s, host) -> dict:
    delta = {k: after[k] - before[k] for k in before}
    out = {name: (value, "s" if name.endswith("_s") else
                  "bytes" if name.endswith(".bytes") else "count")
           for name, value in layers.layer_metrics(recorder).items()}
    rec = layers.reconcile(recorder.spans)
    obs_self = sum(v for k, v in recorder.self_s.items()
                   if k.startswith("obs."))
    untraced = measured.ops_per_s(traced=False)
    lateness = [x * 1e3 for x in measured.lateness]
    out.update({
        "server.result_cache.hit_ratio": (_ratio(
            delta["result_hits"],
            delta["result_hits"] + delta["result_misses"]), "ratio"),
        "server.plan_cache.hit_ratio": (_ratio(
            delta["plan_hits"],
            delta["plan_hits"] + delta["plan_misses"]), "ratio"),
        "server.invalidations": (delta["invalidations"], "count"),
        "workload.wait_s": (wait_s, "s"),
        "obs.share": (_ratio(obs_self, rec["wall"]), "ratio"),
        "mpp.replans": (delta["replans"], "count"),
        "engine.rows": (delta["rows"], "count"),
        "engine.batches": (delta["batches"], "count"),
        "storage.buffer.hit_ratio": (_ratio(
            delta["buffer_hits"],
            delta["buffer_hits"] + delta["buffer_misses"]), "ratio"),
        "storage.minmax.skip_ratio": (_ratio(
            delta["minmax_skipped"],
            delta["minmax_skipped"] + delta["minmax_scanned"]), "ratio"),
        "storage.bytes_rewritten": (measured.rewritten_bytes, "bytes"),
        "txn.wal_bytes": (delta["wal_bytes"], "bytes"),
        "txn.aborts": (delta["aborts"], "count"),
        "hdfs.local_read_ratio": (_ratio(delta["read_local"],
                                         delta["read_all"]), "ratio"),
        "net.bytes": (delta["net_bytes"], "bytes"),
        "net.messages": (delta["net_messages"], "count"),
        "cluster.unattributed_s": (rec["unattributed"], "s"),
        "cluster.unattributed_share": (_ratio(rec["unattributed"],
                                              rec["wall"]), "ratio"),
        "trace.op_wall_s": (rec["wall"], "s"),
        "trace.reconcile_error_s": (abs(rec["error"]), "s"),
        "trace.spans": (float(len(recorder.spans)), "count"),
        "trace.overhead_ratio": (_ratio(measured.ops_per_s(traced=True),
                                        untraced), "ratio"),
        "load.lateness_ms": (common.median(lateness), "ms"),
        "host.calibration_s": (host["host.calibration_s"], "s"),
        "host.nproc": (float(host["host.nproc"]), "count"),
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = 0) -> dict:
    """One benchmark run; returns the result object (also used by the
    self-test with small ``seconds``)."""
    host = common.host_record()
    print("host " + json.dumps(host, sort_keys=True))
    data = common.tpch_data()
    raw = common.raw_bytes(data)
    bench = WORKLOADS[workload](seed)
    bench.prepare(data)

    recorder = layers.SpanRecorder() if trace else None
    tracing = Tracing(recorder)
    setups, loads = [], [0, 0.0]
    reference = common.REFERENCE
    repeats = setup_repeats or (1 if trace else common.SETUP_REPEATS)
    built = twin = None
    for _ in range(repeats):
        # the previous set-up stays as the untouched twin of the GeoDiff
        # probe; the one before it is freed
        twin, built = built, None
        # every timed part starts from a collected heap, so where the
        # cyclic collector's full passes fall does not depend on what ran
        # before it
        gc.collect()
        mark = len(reference.samples)
        t0, w0 = common.cpu_now() - reference.spent, time.perf_counter()
        if trace:
            # the traced run traces its one set-up as one operation
            with layers.installed(recorder), recorder.op("setup"):
                built = bench.setup(data, Tracing())
        else:
            built = bench.setup(data, tracing)
        setups.append((common.cpu_now() - reference.spent - t0,
                       time.perf_counter() - w0, reference.scale(mark)))
        loads[0] += built.rows
        loads[1] += built.load_s

    cluster = built.cluster
    before = counters(cluster)
    first_query = max((r.query_id for r in cluster.workload.query_records()),
                      default=0)
    gc.collect()
    mark = len(reference.samples)
    measured = bench.run(built, seconds, tracing)
    scale = reference.scale(mark)
    print("reference scale: set-ups "
          + " ".join(f"{s:.4g}" for _c, _w, s in setups)
          + f", timed phase {scale:.4g}")
    gc.collect()
    geodiff, wrong = (geodiff_probe(bench, built, twin, measured)
                      if twin is not None else (1.0, 0))
    twin = None
    bench.finish(built, tracing, measured)
    after = counters(cluster)
    wrong += bench.check(built, measured)
    stored_ratio = common.stored_bytes(cluster) / raw

    attempted = max(1, measured.attempted)
    print(f"failed_ratio {wrong / attempted:.6g} ({wrong} of {attempted})")
    if trace:
        waits = [r.admit_wall - r.submit_wall
                 for r in cluster.workload.query_records()
                 if r.query_id > first_query and r.admit_wall]
        metrics = per_layer(recorder, measured, before, after, sum(waits),
                            host)
        path = common.OUT_DIR / f"spans-{workload}.jsonl.gz"
        recorder.write(path)
        print(f"spans written to {path.relative_to(common.ROOT)}")
    else:
        metrics = end_to_end(bench, setups, loads, measured, scale, geodiff,
                             stored_ratio, 1.0 - wrong / attempted)
    return {
        "correct": wrong == 0,
        "attempted": int(attempted),
        "failed": int(wrong),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tpch-power", "serve-small", "refresh-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
