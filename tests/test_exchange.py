"""Streaming DXchg integration tests: pipelined exchanges, accounting
equivalence with the materializing schedule, memory bounds, and the
regressions called out in the streaming-executor issue."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.types import INT64
from repro.cluster import VectorHCluster
from repro.engine.exchange import (
    MATERIALIZE,
    STREAMING,
    Exchange,
    MemoryMeter,
    StreamScheduler,
)
from repro.engine.expressions import Col
from repro.engine.operators import DEFAULT_VECTOR_SIZE, Limit, VectorSource
from repro.mpp import plan as P
from repro.mpp.executor import MASTER_STREAM, MppExecutor
from repro.mpp.logical import LAggr, LJoin, LScan, LSelect
from repro.mpp.rewriter import RewriterFlags
from repro.net.mpi import MpiFabric
from repro.storage import Column, TableSchema

N_FACT = 6000
# large enough that broadcasting it to every worker costs more than
# reshuffling both sides, so the rewriter picks DXHashSplit exchanges
N_DIM = 5000


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    # numeric columns only: their serialized size is exact, so streaming
    # and materializing runs must account identical bytes
    c.create_table(TableSchema(
        "fact", [Column("pk", INT64), Column("fk", INT64),
                 Column("v", INT64)],
        partition_key=("pk",), n_partitions=8))
    c.create_table(TableSchema(
        "dim", [Column("dk", INT64), Column("w", INT64)],
        partition_key=("dk",), n_partitions=8))
    rng = np.random.RandomState(7)
    c.bulk_load("fact", {
        "pk": np.arange(N_FACT),
        "fk": rng.randint(0, N_DIM, N_FACT),
        "v": rng.randint(0, 1000, N_FACT),
    })
    c.bulk_load("dim", {"dk": np.arange(N_DIM),
                        "w": rng.randint(0, 50, N_DIM)})
    return c


def _join_plan():
    # joining fact.fk to dim.dk: neither side is partitioned on its join
    # key, so the rewriter must move data through exchanges
    return LAggr(
        LJoin(build=LScan("dim", ["dk", "w"]),
              probe=LScan("fact", ["fk", "v"]),
              build_keys=["dk"], probe_keys=["fk"], how="inner"),
        ["w"], [("total", "sum", Col("v")), ("n", "count", None)],
    )


# disable locality shortcuts so both join sides go through plain hash
# splits -- a pure streaming reshuffle with no co-located fast path
RESHUFFLE = RewriterFlags(local_join=False, replicate_build=False)


class TestStreamingEquivalence:
    def test_streaming_matches_materializing_accounting(self, cluster):
        """Per-link bytes and message counts are schedule-independent."""
        plan = _join_plan()
        cluster.mpi.reset()
        streaming = cluster.query(plan, flags=RESHUFFLE,
                                  exchange_mode=STREAMING)
        stream_links = (dict(cluster.mpi.bytes_by_link),
                        dict(cluster.mpi.messages_by_link))
        cluster.mpi.reset()
        materialize = cluster.query(plan, flags=RESHUFFLE,
                                    exchange_mode=MATERIALIZE)
        mat_links = (dict(cluster.mpi.bytes_by_link),
                     dict(cluster.mpi.messages_by_link))
        assert stream_links == mat_links
        assert streaming.network_bytes == materialize.network_bytes
        assert streaming.network_messages == materialize.network_messages
        # same answer, of course
        assert streaming.batch.n == materialize.batch.n
        assert sorted(streaming.batch.columns["total"]) == \
            sorted(materialize.batch.columns["total"])

    def test_streaming_peak_below_total_exchanged(self, cluster):
        """The tentpole claim: pipelining keeps exchange memory bounded by
        the channel buffers and a round's worth of receive queue, far
        below the data volume that crosses the exchanges (which is what
        stop-and-go materialization holds)."""
        streaming = cluster.query(_join_plan(), flags=RESHUFFLE,
                                  exchange_mode=STREAMING)
        total_exchanged = sum(int(ex["bytes"]) for ex in streaming.exchanges)
        assert total_exchanged > 0
        # channel buffers flush as whole messages fill: the high-water
        # mark tracks message size and fanout, not data volume
        assert streaming.dxchg_peak_buffered_bytes < total_exchanged
        materialize = cluster.query(_join_plan(), flags=RESHUFFLE,
                                    exchange_mode=MATERIALIZE)
        # the materializing schedule parks each fragment's entire output
        # in the receive queues before any consumer starts
        assert streaming.dxchg_peak_queued_bytes < \
            materialize.dxchg_peak_queued_bytes

    def test_peak_node_memory_reported_and_lower_when_streaming(self, cluster):
        streaming = cluster.query(_join_plan(), flags=RESHUFFLE,
                                  exchange_mode=STREAMING)
        materialize = cluster.query(_join_plan(), flags=RESHUFFLE,
                                    exchange_mode=MATERIALIZE)
        assert set(streaming.peak_node_memory) <= \
            set(cluster.workers) | {cluster.session_master}
        assert streaming.peak_memory_bytes > 0
        assert streaming.peak_memory_bytes <= materialize.peak_memory_bytes


class TestQueryResultSurface:
    def test_exchange_stats_exposed(self, cluster):
        result = cluster.query(_join_plan(), flags=RESHUFFLE)
        assert result.exchanges, "no exchange stats collected"
        labels = [str(ex["label"]) for ex in result.exchanges]
        assert any("HashSplit" in lbl for lbl in labels)
        assert any("Union" in lbl for lbl in labels)
        assert result.exchange_messages > 0
        for ex in result.exchanges:
            assert ex["buffer_capacity_bytes"] >= 0
            assert ex["peak_buffered_bytes"] >= 0
            assert ex["peak_queued_bytes"] >= 0

    def test_profile_tree_spans_exchanges(self, cluster):
        result = cluster.query(_join_plan(), flags=RESHUFFLE)
        assert len(result.profiles) == 1  # one spanning tree
        text = result.format_profile()
        assert ".recv" in text and ".send" in text
        assert "net =" in text  # byte/message annotations rendered

        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        nodes = list(walk(result.profiles[0]))
        senders = [n for n in nodes if n.label.endswith(".send")]
        assert senders
        assert any(n.net_bytes > 0 for n in senders)
        assert any(n.net_messages > 0 for n in senders)
        # the scan runs inside the pipeline: it must appear under an
        # exchange sender in the same tree, not as a separate fragment
        assert any("MScan[fact]" in n.label for n in nodes)

    def test_thread_to_thread_allocates_more_buffer_capacity(self, cluster):
        t2n = cluster.query(_join_plan(), flags=RESHUFFLE,
                            thread_to_node=True)
        t2t = cluster.query(_join_plan(), flags=RESHUFFLE,
                            thread_to_node=False)
        cores = cluster.config.cores_per_node
        cap_t2n = sum(int(ex["buffer_capacity_bytes"]) for ex in t2n.exchanges)
        cap_t2t = sum(int(ex["buffer_capacity_bytes"]) for ex in t2t.exchanges)
        assert cap_t2t == cores * cap_t2n
        # both deliver the same rows
        assert t2n.batch.n == t2t.batch.n


class TestRegressions:
    def test_empty_partition_schema_survives_exchange(self, cluster):
        """All-empty input must still deliver column names and dtypes
        through DXchg (the empty-batch/template dedupe regression)."""
        plan = LSelect(LScan("fact", ["pk", "fk", "v"]),
                       Col("pk") > 10 ** 9)
        result = cluster.query(plan)
        assert result.batch.n == 0
        assert set(result.batch.columns) == {"pk", "fk", "v"}
        for col in result.batch.columns.values():
            assert col.dtype == np.int64

    def test_repeat_execution_is_stable(self, cluster):
        """The per-run context must not leak state between execute()
        calls (the old executor memoized by id(phys), which can alias)."""
        executor = cluster.executor
        from repro.mpp.rewriter import ParallelRewriter
        phys = ParallelRewriter(cluster, RESHUFFLE).rewrite(_join_plan())
        first = executor.execute(phys)
        second = executor.execute(phys)
        assert first.batch.n == second.batch.n
        assert first.network_bytes == second.network_bytes
        assert first.network_messages == second.network_messages
        assert sorted(first.batch.columns["n"]) == \
            sorted(second.batch.columns["n"])

    def test_exchange_source_stream_selection(self, cluster):
        """Exchange senders run where the child distribution lives:
        master-side children send from the master stream (the dead-ternary
        fix), partitioned children from every worker, replicated children
        from one representative worker -- all against the run context's
        prepare-time snapshot of the worker set."""
        from repro.mpp.executor import _RunContext
        executor = MppExecutor(cluster)
        ctx = _RunContext(trans=None, mode="streaming", n_lanes=1,
                          vector_size=128, workers=cluster.workers,
                          session_master=cluster.session_master)
        part_scan = P.PScan("fact", ["pk"], [], P.Distribution(
            P.PARTITIONED, ("pk",), co_location="fact"))
        master_child = P.DXUnion(part_scan)
        repl_child = P.DXBroadcast(part_scan)
        assert executor._source_streams(master_child, ctx) == [MASTER_STREAM]
        assert executor._source_streams(repl_child, ctx) == \
            [cluster.workers[0]]
        assert executor._source_streams(part_scan, ctx) == \
            list(cluster.workers)

    def test_master_side_child_sends_from_master(self, cluster):
        """End to end: splitting a master-resident relation back across
        the workers must put bytes on master->worker links."""
        executor = MppExecutor(cluster)
        scan = P.PScan("fact", ["pk"], [], P.Distribution(
            P.PARTITIONED, ("pk",), co_location="fact"))
        phys = P.DXHashSplit(P.DXUnion(scan), ["pk"])
        cluster.mpi.reset()
        result = executor.execute(phys)
        assert result.batch.n == N_FACT
        master = cluster.session_master
        outbound = [link for link in cluster.mpi.bytes_by_link
                    if link[0] == master and link[1] != master]
        assert outbound, "no master->worker traffic recorded"


# ------------------------------------------------- full-vector receivers

DESTS = ["w0", "w1", "w2"]
NODE_OF = {"s0": "n0", "s1": "n1", "s2": "n2", "s3": "n0",
           "w0": "n0", "w1": "n1", "w2": "n2", "master": "n0"}


def _route(kind):
    if kind == "hash":
        def route(src, batch):
            dest = batch.columns["k"] % len(DESTS)
            return [(w, batch.select(dest == i))
                    for i, w in enumerate(DESTS)]
        return route, DESTS
    if kind == "union":
        return (lambda src, batch: [("master", batch)]), ["master"]
    return (lambda src, batch: [(w, batch) for w in DESTS]), DESTS


def _exchange(kind, mode=STREAMING, rows=3000, vector=100, senders=4,
              empty=False):
    """An exchange over ``senders`` sources of small vectors, so every
    routed piece is far below a full vector."""
    route, dests = _route(kind)
    meter = MemoryMeter()
    ex = Exchange(f"X[{kind}]", MpiFabric(message_size=4096), route, dests,
                  NODE_OF.__getitem__, StreamScheduler(), meter=meter,
                  mode=mode)
    for s in range(senders):
        n = 0 if empty else rows
        keys = np.arange(s * rows, s * rows + n, dtype=np.int64)
        cols = {"k": keys, "v": keys * 3.5}
        ex.add_sender(f"s{s}", VectorSource(cols, vector_size=vector))
    for dest in dests:
        ex.attach_receiver(dest)
    return ex, meter


def _piecewise(ex, stream):
    """The receiver before coalescing: one queued piece per batch."""
    ex.start()
    queue = ex.queues[stream]
    pieces = []
    while True:
        if queue:
            n_bytes, piece = queue.popleft()
            ex.on_dequeue(stream, n_bytes, piece)
            pieces.append(piece)
        elif not ex.finished:
            ex.pump()
        else:
            return pieces


def _rows(batches):
    return [(k, v) for b in batches
            for k, v in zip(b.columns["k"].tolist(), b.columns["v"].tolist())]


def _drain_interleaved(ex):
    """Pull the receivers round-robin, one batch at a time."""
    iters = {d: ex.receivers[d].execute() for d in ex.receivers}
    out = {d: [] for d in iters}
    while iters:
        for dest in list(iters):
            batch = next(iters[dest], None)
            if batch is None:
                del iters[dest]
            else:
                out[dest].append(batch)
    return out


class TestFullVectorReceivers:
    @pytest.mark.parametrize("kind", ["hash", "union", "broadcast"])
    @pytest.mark.parametrize("mode", [STREAMING, MATERIALIZE])
    def test_rows_arrive_in_queue_order(self, kind, mode):
        old, _ = _exchange(kind, mode)
        want = {d: _rows(_piecewise(old, d)) for d in old.receivers}
        new, _ = _exchange(kind, mode)
        got = _drain_interleaved(new)
        for dest, batches in got.items():
            assert _rows(batches) == want[dest]
            assert all(b.columns["k"].dtype == np.int64 for b in batches)
        assert new.tuples_received == old.tuples_received

    @pytest.mark.parametrize("kind", ["hash", "union", "broadcast"])
    def test_every_batch_but_the_last_is_a_full_vector(self, kind):
        ex, _ = _exchange(kind)
        pieces, _ = _exchange(kind)
        n_pieces = sum(len(_piecewise(pieces, d)) for d in pieces.receivers)
        got = _drain_interleaved(ex)
        for batches in got.values():
            assert batches
            assert all(b.n >= DEFAULT_VECTOR_SIZE for b in batches[:-1])
            assert 0 < batches[-1].n
        # the pieces really were small: coalescing cut the batch count
        assert sum(len(b) for b in got.values()) < n_pieces / 4

    @pytest.mark.parametrize("mode", [STREAMING, MATERIALIZE])
    def test_meter_returns_to_zero(self, mode):
        ex, meter = _exchange("hash", mode)
        _drain_interleaved(ex)
        assert ex.finished
        assert all(v == 0 for v in meter.current.values())
        assert all(v == 0 for v in ex.queued_rows.values())
        assert max(meter.peak.values()) > 0

    def test_streaming_queues_less_than_materialize(self):
        streaming, _ = _exchange("hash", STREAMING, rows=20000)
        _drain_interleaved(streaming)
        materialize, _ = _exchange("hash", MATERIALIZE, rows=20000)
        _drain_interleaved(materialize)
        assert streaming.bytes_sent == materialize.bytes_sent
        assert streaming.peak_queued < materialize.peak_queued

    def test_limit_root_closes_early(self):
        ex, meter = _exchange("union", rows=20000)
        out = list(Limit(ex.receivers["master"], 10).execute())
        assert sum(b.n for b in out) == 10
        assert not ex.senders_done
        assert ex.tuples_in < 4 * 20000
        ex.abandon()
        assert all(v == 0 for v in meter.current.values())

    @pytest.mark.parametrize("kind", ["hash", "union", "broadcast"])
    def test_all_empty_input_yields_typed_empty_batch(self, kind):
        ex, _ = _exchange(kind, empty=True)
        got = _drain_interleaved(ex)
        for batches in got.values():
            [batch] = batches
            assert batch.n == 0
            assert batch.columns["k"].dtype == np.int64
            assert batch.columns["v"].dtype == np.float64

    def test_query_receivers_deliver_full_vectors(self, cluster):
        """End to end: above a hash split, operators see vectors of the
        engine's size, not the per-destination pieces."""
        from repro.mpp.rewriter import ParallelRewriter
        scan = ParallelRewriter(cluster, RESHUFFLE).rewrite(
            LScan("fact", ["pk", "fk", "v"]))
        phys = P.DXUnion(P.DXHashSplit(scan, ["fk"]))
        result = MppExecutor(cluster).execute(phys)
        assert result.batch.n == N_FACT

        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        [recv] = [node for root in result.profiles for node in walk(root)
                  if node.label.startswith("DXchgHashSplit")
                  and node.label.endswith(".recv")]
        vector = cluster.config.vector_size
        n_streams = len(cluster.workers)
        assert recv.tuples_out == N_FACT
        # at most one short batch per receiving stream
        assert recv.batches <= N_FACT // vector + n_streams
