"""Shared pieces of the wall-clock benchmark: the program import, the
cluster layout, set-up, statistics and the host record.

The benchmark drives the program only through its public API. It runs
from the root of a source checkout and imports the package from
``src/``; without it the import fails and the command exits non-zero.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(f"no program sources under {ROOT / 'src'}: run from "
                      "the root of a source checkout")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.cluster import VectorHCluster  # noqa: E402
from repro.common.config import Config  # noqa: E402
from repro.common.types import INT64, STRING  # noqa: E402
from repro.storage.schema import Column, TableSchema  # noqa: E402
from repro.tpch import generate_tpch, tpch_schemas  # noqa: E402
from repro.tpch.schema import LOAD_ORDER  # noqa: E402

#: TPC-H dbgen scale factor and seed; the data is fixed so stored
#: reference answers stay valid, the workload seed drives everything else
SCALE_FACTOR = 0.01
DBGEN_SEED = 19920101
N_WORKERS = 9
N_PARTITIONS = 18
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: ``tail_ms`` takes this percentile of each operation kind's latencies;
#: a pooled percentile would fall on the slow end of a single TPC-H query
#: and move with the number of passes a run completes
TAIL_PERCENTILE = 90.0

AUDIT_TABLE = "bench_audit"

#: the clock of every gated time before scaling: CPU seconds of this
#: process. The program runs in this one thread and neither sleeps nor
#: waits, so an operation's CPU time is its wall time on an idle machine;
#: on a shared host it leaves out the time other processes and machines
#: held the CPU, which the wall clock charges to whatever operation was
#: running.
cpu_now = time.process_time


#: CPU seconds of one reference tick at the speed gated times are
#: reported at: about the median tick between operations on the 2-vCPU
#: VM the benchmark was tuned on, so scaled times read close to CPU times
REFERENCE_NOMINAL_S = 1.0e-3


class Reference:
    """A fixed piece of Python and numpy work, run between operations.

    Its CPU time tracks how fast the host runs instructions right now,
    which the CPU clock does not leave out (shared caches, clock speed).
    Like the program it mixes interpreter work, numpy calls on
    1024-value vectors and reads of a 4 MB array, so a neighbour that
    slows one of them slows the reference too.

    The workloads tick it after each timed operation, off that
    operation's clock; ``spent`` is the CPU time of all ticks, for
    timers that span several operations to take out. ``scale`` turns a
    CPU time measured beside a stretch of ticks into the time at the
    nominal speed.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        rng = np.random.default_rng(1)
        self._vector = np.arange(1024, dtype=np.int64)
        self._array = rng.integers(0, 1 << 20, size=1 << 20,
                                   dtype=np.int32)
        self._gather = rng.integers(0, 1 << 20, size=1 << 14)

    def _work(self) -> int:
        table: Dict[int, int] = {}
        for i in range(300):
            table[i % 61] = table.get(i % 61, 0) + i
        total = len(table)
        for _ in range(4):
            v = self._vector * 3 + 1
            total += int(v[v % 5 == 0].sum())
            np.sort(v[::-1])
        total += int(self._array[self._gather].sum())
        return total + int(self._array[::16].sum())

    def tick(self) -> None:
        t0 = cpu_now()
        self._work()
        elapsed = cpu_now() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def scale(self, start: int, end: int = None) -> float:
        """Nominal over measured median tick, over ticks [start, end)."""
        ticks = self.samples[start:end]
        return REFERENCE_NOMINAL_S / median(ticks) if ticks else 1.0


REFERENCE = Reference()

#: a timed phase ends after this many times its budget in wall time
#: (plus the excluded time), whatever CPU time it has spent
WALL_CAP = 1.5


class Budget:
    """The clock of a timed phase: ``seconds`` of CPU time spent in the
    operations, scaled by the reference ticks so far. A run then does
    about the same work on a slow host as on a fast one, which matters
    where costs grow with the work done (PDTs fill over refresh rounds).
    Reference ticks and ``exclude``d time (answer checks) do not count;
    excluded time also moves the wall-clock cap.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.mark = len(REFERENCE.samples)
        self.excluded = 0.0
        self._cpu0 = cpu_now() - REFERENCE.spent
        self._wall_end = time.perf_counter() + WALL_CAP * seconds

    def exclude(self, seconds: float) -> None:
        self.excluded += seconds
        self._wall_end += seconds

    def left(self) -> bool:
        busy = cpu_now() - REFERENCE.spent - self.excluded - self._cpu0
        return (busy * REFERENCE.scale(self.mark) < self.seconds
                and time.perf_counter() < self._wall_end)


def bench_config() -> Config:
    """The ``bench_config()`` layout of ``benchmarks/conftest.py``: 32 KB
    blocks, 256 KB HDFS blocks, 20 cores per node. Feature switches keep
    their defaults (monitor, profiler and caches on)."""
    config = Config()
    config.block_size = 32 * 1024
    config.blocks_per_group = 4
    config.blocks_per_chunk = 64
    config.hdfs_block_size = 256 * 1024
    config.cores_per_node = 20
    return config


def tpch_data() -> Dict[str, Dict[str, np.ndarray]]:
    return generate_tpch(SCALE_FACTOR, seed=DBGEN_SEED)


def raw_bytes(data: Dict[str, Dict[str, np.ndarray]]) -> int:
    """Input size as text for strings and native width for numbers."""
    total = 0
    for columns in data.values():
        for values in columns.values():
            if values.dtype == object:
                total += sum(len(str(v).encode()) for v in values)
            else:
                total += values.nbytes
    return total


def audit_schema() -> TableSchema:
    """A side table the workloads log to; no query reads it, so its
    commits bump only its own epoch."""
    return TableSchema(
        AUDIT_TABLE,
        [Column("a_id", INT64), Column("a_kind", STRING),
         Column("a_rows", INT64)],
        primary_key=("a_id",), partition_key=("a_id",), n_partitions=2)


class Built:
    """One constructed and loaded cluster with its set-up timings."""

    def __init__(self, cluster: VectorHCluster, load_s: float,
                 rows: int):
        self.cluster = cluster
        self.load_s = load_s
        self.rows = rows


def build_cluster(data) -> Built:
    """Construct the 9-worker cluster, create every TPC-H table and the
    audit table, and bulk-load the data (``load_s`` times the loads in
    CPU seconds)."""
    cluster = VectorHCluster(n_nodes=N_WORKERS, config=bench_config())
    schemas = tpch_schemas(n_partitions=N_PARTITIONS)
    load_s = 0.0
    rows = 0
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        columns = data[name]
        t0 = cpu_now()
        cluster.bulk_load(name, columns)
        load_s += cpu_now() - t0
        for _ in range(4):
            REFERENCE.tick()
        rows += len(next(iter(columns.values())))
    cluster.create_table(audit_schema())
    return Built(cluster, load_s, rows)


def audit(cluster, audit_id: int, kind: str, rows: int) -> float:
    """Commit one audit row in its own transaction; returns the CPU
    seconds of the commit call."""
    trans = cluster.begin()
    cluster.insert(AUDIT_TABLE, {
        "a_id": np.array([audit_id], dtype=np.int64),
        "a_kind": np.array([kind], dtype=object),
        "a_rows": np.array([rows], dtype=np.int64),
    }, trans=trans, force_pdt=True)
    t0 = cpu_now()
    trans.commit()
    return cpu_now() - t0


def stored_bytes(cluster) -> int:
    """HDFS bytes of one replica of every file under the database."""
    hdfs = cluster.hdfs
    return sum(hdfs.file_size(p) for p in hdfs.list_files(cluster.db_path))


def registry_total(registry, name: str, **match) -> float:
    """Sum of a metric family's series whose labels match ``match``."""
    family = registry.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for key, value in family.snapshot().items():
        labels = family.labelset(key)
        if all(labels.get(k) == v for k, v in match.items()):
            total += value
    return total


# ------------------------------------------------------------- statistics

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples: Sequence[Tuple[str, float]]) -> Tuple[float, int]:
    """(value, fewest samples of a kind): the geometric mean over
    operation kinds of each kind's ``TAIL_PERCENTILE`` latency."""
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in samples:
        by_kind.setdefault(kind, []).append(latency)
    if not by_kind:
        return 0.0, 0
    return (geomean([float(np.percentile(v, TAIL_PERCENTILE))
                     for v in by_kind.values()]),
            min(len(v) for v in by_kind.values()))


def medians_by_kind(samples: Sequence[Tuple[str, float]]) -> Dict[str, float]:
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in samples:
        by_kind.setdefault(kind, []).append(latency)
    return {kind: median(lat) for kind, lat in by_kind.items()}


# ------------------------------------------------------------------- host

def calibration_s() -> float:
    """A fixed numpy + Python loop; its time tracks machine speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        a = np.sqrt(a * 1.0001 + 1.0)
        np.sort(a)
    return time.perf_counter() - t0


def host_record() -> Dict[str, object]:
    return {
        "host.calibration_s": calibration_s(),
        "host.nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
