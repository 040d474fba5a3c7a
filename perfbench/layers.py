"""The traced run: span recording around each layer's public entry points.

Wrappers are installed from this file onto the program's classes and
module functions (at the names callers bind) and removed again
afterwards; nothing under ``src/`` is edited. Every wrapped call records
a span ``(id, parent, op, name, start, end)``. Spans of one benchmark
operation share its op id. Spans stay in memory and are written out at
the end of the run.

A span's self time is its duration minus the durations of its wrapped
children. The benchmark opens an ``op.<kind>`` root span around every
operation; the self time of those roots is what no wrapped layer
covers (``cluster.unattributed_s``), so layer self times plus the
unattributed time add up to the operation wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_now = time.perf_counter

#: (metric name, "module:attr.path" targets) -- the layer is the first
#: dotted component of the metric name. One metric may wrap several
#: targets when callers bind a function under their own module's name.
WRAPS: List[Tuple[str, Tuple[str, ...]]] = [
    ("sql.SqlParser.parse", ("repro.sql.parser:SqlParser.parse",)),
    ("sql.execute_statement", ("repro.sql.binder:execute_statement",
                               "repro.server.frontend:execute_statement")),
    ("sql.bind_parameters", ("repro.sql.prepare:bind_parameters",
                             "repro.server.frontend:bind_parameters")),
    ("server.ClientConnection.simple_query",
     ("repro.server.frontend:ClientConnection.simple_query",)),
    ("server.ClientConnection.execute",
     ("repro.server.frontend:ClientConnection.execute",)),
    ("server.ResultCache.lookup", ("repro.server.cache:ResultCache.lookup",)),
    ("server.ResultCache.store", ("repro.server.cache:ResultCache.store",)),
    # the frontend calls the plan cache's methods, not the module-level
    # lookup_plan/store_plan helpers
    ("server.PlanCache.lookup", ("repro.server.cache:PlanCache.lookup",)),
    ("server.PlanCache.store", ("repro.server.cache:PlanCache.store",)),
    ("workload.WorkloadManager.submit",
     ("repro.workload.manager:WorkloadManager.submit",)),
    ("workload.WorkloadManager.step",
     ("repro.workload.manager:WorkloadManager.step",)),
    ("workload.WorkloadManager.gather",
     ("repro.workload.manager:WorkloadManager.gather",)),
    ("obs.FlightRecorder.tick", ("repro.obs.monitor:FlightRecorder.tick",)),
    ("obs.FlightRecorder.sample",
     ("repro.obs.monitor:FlightRecorder.sample",)),
    ("obs.ContinuousProfiler.observe_query",
     ("repro.obs.profiler:ContinuousProfiler.observe_query",)),
    ("obs.QueryLog.append", ("repro.obs.monitor:QueryLog.append",)),
    ("mpp.ParallelRewriter.plan",
     ("repro.mpp.rewriter:ParallelRewriter.plan",)),
    ("mpp.MppExecutor.prepare", ("repro.mpp.executor:MppExecutor.prepare",)),
    # operators run inside a step: its residual is the engine's time
    ("engine.operators", ("repro.mpp.strategy:AdaptiveRun.step",)),
    ("mpp.AdaptiveRun.finish", ("repro.mpp.strategy:AdaptiveRun.finish",)),
    ("engine.Exchange.transfer", ("repro.engine.exchange:Exchange.transfer",)),
    ("compression.decompress", ("repro.storage.colstore:decompress",)),
    ("compression.compress_best", ("repro.storage.colstore:compress_best",)),
    ("compression.unpack_bits", ("repro.compression.bitpack:unpack_bits",)),
    ("storage.StoredTable.scan_partition",
     ("repro.storage.table:StoredTable.scan_partition",)),
    ("storage.StoredTable.bulk_load",
     ("repro.storage.table:StoredTable.bulk_load",)),
    ("storage.StoredTable.propagate",
     ("repro.storage.table:StoredTable.propagate",)),
    ("storage.PartitionStore.read_column",
     ("repro.storage.colstore:PartitionStore.read_column",)),
    ("storage.MinMaxIndex.qualifying_ranges",
     ("repro.storage.minmax:MinMaxIndex.qualifying_ranges",)),
    ("storage.BufferPool.read", ("repro.storage.buffer:BufferPool.read",)),
    ("pdt.apply_entries", ("repro.storage.table:apply_entries",)),
    ("pdt.PdtStack.commit", ("repro.pdt.stack:PdtStack.commit",)),
    ("txn.TransactionManager.commit",
     ("repro.txn.manager:TransactionManager.commit",)),
    ("txn.WalManager.log_prepare", ("repro.txn.wal:WalManager.log_prepare",)),
    ("txn.WalManager.log_commit", ("repro.txn.wal:WalManager.log_commit",)),
    ("hdfs.HdfsCluster.read", ("repro.hdfs.cluster:HdfsCluster.read",)),
    ("hdfs.HdfsCluster.append", ("repro.hdfs.cluster:HdfsCluster.append",)),
    ("hdfs.HdfsCluster.write_file",
     ("repro.hdfs.cluster:HdfsCluster.write_file",)),
    ("hdfs.HdfsCluster.list_files",
     ("repro.hdfs.cluster:HdfsCluster.list_files",)),
    ("net.MpiFabric.send_message", ("repro.net.mpi:MpiFabric.send_message",)),
    ("cluster.VectorHCluster.query",
     ("repro.cluster.vectorh:VectorHCluster.query",)),
    ("cluster.VectorHCluster.insert",
     ("repro.cluster.vectorh:VectorHCluster.insert",)),
    ("cluster.VectorHCluster.delete_where",
     ("repro.cluster.vectorh:VectorHCluster.delete_where",)),
    ("cluster.VectorHCluster.propagate_updates",
     ("repro.cluster.vectorh:VectorHCluster.propagate_updates",)),
]

#: per-call counts taken from a wrapped call's arguments:
#: metric name -> (count name, f(args, kwargs) -> amount)
ARG_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "compression.decompress": (
        "compression.decompress.bytes", lambda a, k: len(a[0].data)),
    "pdt.apply_entries": ("pdt.merge.entries", lambda a, k: len(a[2])),
}

LAYERS = ("sql", "server", "workload", "obs", "mpp", "engine",
          "compression", "storage", "pdt", "txn", "hdfs", "net", "cluster")


class SpanRecorder:
    """A stack of open spans plus the finished ones, kept in memory."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: true while the wrappers are installed
        self.active = False
        self._stack: List[list] = []
        self._next_id = 0
        self._next_op = 0

    def push(self, name: str) -> list:
        stack = self._stack
        self._next_id += 1
        if stack:
            parent = stack[-1]
            frame = [self._next_id, parent[0], parent[2], name, 0.0, 0.0]
        else:
            self._next_op += 1
            frame = [self._next_id, 0, self._next_op, name, 0.0, 0.0]
        stack.append(frame)
        frame[4] = _now()
        return frame

    def pop(self, frame: list) -> None:
        end = _now()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[3]} closed out of order")
        stack.pop()
        duration = end - frame[4]
        name = frame[3]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[5]
        if stack:
            stack[-1][5] += duration
        # (id, parent, op, name, start, end)
        self.spans.append((frame[0], frame[1], frame[2], name,
                           frame[4], end))

    @contextmanager
    def op(self, kind: str):
        """A benchmark operation: the root span its layer spans nest in."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        frame = self.push("op." + kind)
        try:
            yield
        finally:
            self.pop(frame)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def write(self, path) -> None:
        """Spans as gzipped JSON lines ``[id, parent, op, name, start,
        end]``, start and end relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op, name,
                                     round(start - t0, 9),
                                     round(end - t0, 9)]) + "\n")


def self_times(spans: Sequence[tuple]) -> Dict[str, float]:
    """Self time per span name recomputed from the span list alone."""
    child: Dict[int, float] = {}
    for _sid, parent, _op, _name, start, end in spans:
        if parent:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: Dict[str, float] = {}
    for sid, _parent, _op, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


def reconcile(spans: Sequence[tuple]) -> Dict[str, float]:
    """Operation wall, layer self time, unattributed time and the error
    of ``layers + unattributed - wall``, from the span list alone."""
    wall = sum(end - start for _s, parent, _o, name, start, end in spans
               if not parent and name.startswith("op."))
    selfs = self_times(spans)
    unattributed = sum(v for k, v in selfs.items() if k.startswith("op."))
    layers = sum(v for k, v in selfs.items() if not k.startswith("op."))
    return {"wall": wall, "layers": layers, "unattributed": unattributed,
            "error": layers + unattributed - wall}


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrapper(fn, name: str, recorder: SpanRecorder,
             counter: Optional[Tuple[str, Callable]]):
    push, pop = recorder.push, recorder.pop

    def wrapped(*args, **kwargs):
        # a wrapped bound method can outlive the installation (the
        # workload manager keeps ``monitor.tick`` in its round hooks), so
        # a removed wrapper only passes the call through
        if not recorder.active:
            return fn(*args, **kwargs)
        if counter is not None:
            recorder.count(counter[0], counter[1](args, kwargs))
        frame = push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            pop(frame)

    return functools.update_wrapper(wrapped, fn)


def _wrap(recorder: SpanRecorder, name: str, target: str):
    """Wrap one target; returns what restores it."""
    owner, attr = _resolve(target)
    own = attr in vars(owner)
    fn = vars(owner)[attr] if own else getattr(owner, attr)
    if not inspect.isfunction(fn):
        raise TypeError(f"{target} is not a plain function")
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"{target} is a generator: a span would close "
                        "before its work runs")
    setattr(owner, attr, _wrapper(fn, name, recorder, ARG_COUNTS.get(name)))
    return owner, attr, fn, own


@contextmanager
def installed(recorder: SpanRecorder,
              wraps: Sequence[Tuple[str, Tuple[str, ...]]] = WRAPS):
    """Wrappers recording into ``recorder``; on exit the original
    attributes (own or inherited) are restored exactly."""
    undo = []
    try:
        for name, targets in wraps:
            for target in targets:
                undo.append(_wrap(recorder, name, target))
        recorder.active = True
        yield recorder
    finally:
        recorder.active = False
        for owner, attr, fn, own in reversed(undo):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """``<name>.calls`` and ``<name>.self_s`` for every wrapped entry
    point (zero when unused), plus the counts taken from arguments."""
    out: Dict[str, float] = {}
    for name, _targets in WRAPS:
        out[name + ".calls"] = float(recorder.calls.get(name, 0))
        out[name + ".self_s"] = recorder.self_s.get(name, 0.0)
    for count_name, _f in ARG_COUNTS.values():
        out[count_name] = recorder.counts.get(count_name, 0.0)
    return out
