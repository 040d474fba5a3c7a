"""The three workloads: ``tpch-power``, ``serve-small`` and ``refresh-mix``.

Each workload generates its inputs from the seed (``inputs``), builds
its reference once (``prepare``), sets a cluster up (``setup``, timed as
``setup_s``), runs its timed phase (``run``), ends it (``finish``) and
checks every answer (``check``, ``check_read``) off the clock. The timed
phase is cut into units -- a TPC-H pass, an open-loop block with the
closed-loop block after it, a refresh round -- and the traced run traces
every other unit, so traced and untraced throughput come from the same
run.

The timed phase lasts ``seconds`` of scaled CPU time (``common.Budget``);
operations, units and commits are timed in CPU seconds of the process
(``_cpu``, see ``common.cpu_now``), and a reference tick runs after each
timed operation (``common.Reference``).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import oracle
from layers import SpanRecorder, installed
from repro.common.errors import ReproError
from repro.engine.expressions import Col, InList
from repro.sql import execute_sql
from repro.tpch import QUERIES, run_query
from repro.tpch.refresh import make_rf1_batch

_now = time.perf_counter
_cpu = common.cpu_now
_reference = common.REFERENCE


class Tracing:
    """Decides which units are traced. Without a recorder nothing is."""

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.recorder = recorder
        self.traced = False
        self._units = 0

    @contextmanager
    def unit(self, always: bool = False):
        """One unit of work; traced runs trace every second unit, and
        every ``always`` unit."""
        self._units += 1
        if self.recorder is None or (self._units % 2 and not always):
            self.traced = False
            yield False
            return
        self.traced = True
        try:
            with installed(self.recorder):
                yield True
        finally:
            self.traced = False

    def op(self, kind: str):
        if self.traced:
            return self.recorder.op(kind)
        return nullcontext()


class Measured:
    """What a timed phase measured (CPU seconds unless named wall)."""

    def __init__(self):
        #: (kind, latency) of untraced operations, in issue order
        self.samples: List[Tuple[str, float]] = []
        #: seconds in commit calls per write unit (untraced units): one
        #: audit commit, or a refresh round's RF1 + RF2 commits
        self.commits: List[float] = []
        #: (traced, seconds, operations) per closed-loop unit
        self.units: List[Tuple[bool, float, int]] = []
        self.attempted = 0
        #: wall seconds from when an open-loop request was due until it
        #: was issued, and until it was answered
        self.lateness: List[float] = []
        self.open_wall: List[float] = []
        #: HDFS bytes written by update propagation
        self.rewritten_bytes = 0.0

    def ops_per_s(self, traced: bool = False) -> float:
        """Median over units of operations per second: a unit that
        takes a full collection of the garbage collector or a host
        hiccup does not move it."""
        return common.median([n / s for t, s, n in self.units
                              if t == traced and s > 0])


def runner(cluster):
    """Runs a logical plan on ``cluster`` and returns its batch."""
    return lambda plan: cluster.query(plan).batch


def _zipf_ranks(rng: np.random.Generator, n: int, domain: int,
                s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, domain + 1) ** s
    return rng.choice(domain, size=n, p=weights / weights.sum())


# ================================================================ tpch-power

class TpchPower:
    """All 22 TPC-H plans through ``cluster.query``, one closed-loop
    client, every pass in a seed-shuffled order."""

    name = "tpch-power"

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = oracle.load_expected()

    def inputs(self, passes: int) -> List[List[int]]:
        rng = random.Random(self.seed)
        orders = []
        for _ in range(passes):
            order = list(QUERIES)
            rng.shuffle(order)
            orders.append(order)
        return orders

    def prepare(self, data) -> None:
        pass

    def setup(self, data, tracing: Tracing):
        built = common.build_cluster(data)
        cluster = built.cluster
        self.answers: List[Tuple[int, object]] = []
        self.audit_id = 0
        # untimed warm-up pass in plan order; its answers are checked too
        for number in QUERIES:
            with tracing.op("warmup"):
                batch = run_query(runner(cluster), number)
            _reference.tick()
            self.answers.append((number, batch))
        return built

    def run(self, built, seconds: float, tracing: Tracing) -> Measured:
        cluster = built.cluster
        run_plan = runner(cluster)
        out = Measured()
        budget = common.Budget(seconds)
        orders = iter(self.inputs(1_000))
        while budget.left():
            order = next(orders)
            with tracing.unit() as traced:
                unit_start = _cpu() - _reference.spent
                done: List[Tuple[str, float]] = []
                for number in order:
                    with tracing.op("query"):
                        t0 = _cpu()
                        batch = run_query(run_plan, number)
                        latency = _cpu() - t0
                    _reference.tick()
                    self.answers.append((number, batch))
                    done.append((f"q{number}", latency))
                    self.audit_id += 1
                    with tracing.op("audit"):
                        commit = common.audit(cluster, self.audit_id,
                                              f"q{number}", batch.n)
                    if not traced:
                        out.commits.append(commit)
                out.units.append((traced, _cpu() - _reference.spent
                                  - unit_start, len(order)))
            out.attempted += len(order)
            if not traced:
                out.samples.extend(done)
        return out

    def finish(self, built, tracing: Tracing, out: Measured) -> None:
        pass

    def check_read(self, number: int, batch) -> bool:
        return oracle.matches_expected(batch, self.expected[number])

    def check(self, built, out: Measured) -> int:
        bad = sum(not oracle.matches_expected(batch, self.expected[number])
                  for number, batch in self.answers)
        self.answers = []
        return bad + audit_missing(built.cluster, self.audit_id)


def audit_missing(cluster, committed: int) -> int:
    """1 unless the audit table holds exactly ids 1..committed."""
    batch = execute_sql(cluster, f"SELECT count(*) AS n, sum(a_id) AS s "
                                 f"FROM {common.AUDIT_TABLE}")
    n, total = oracle.batch_rows(batch)[0]
    return int(n != committed
               or (committed and total != committed * (committed + 1) // 2))


# =============================================================== serve-small

KINDS = ("orders_point", "customer_point", "lineitem_agg", "nation_group",
         "orders_join")

#: (simple-protocol template with {k}, prepared template with $1)
STATEMENTS = {
    "orders_point": (
        "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, "
        "o_orderpriority FROM orders WHERE o_orderkey = {k}"),
    "customer_point": (
        "SELECT c_custkey, c_name, c_acctbal, c_mktsegment FROM customer "
        "WHERE c_custkey = {k}"),
    "lineitem_agg": (
        "SELECT count(*) AS n, sum(l_quantity) AS qty, "
        "sum(l_extendedprice) AS price FROM lineitem WHERE l_orderkey = {k}"),
    "nation_group": (
        "SELECT n_regionkey, count(*) AS n FROM nation "
        "WHERE n_nationkey < {k} GROUP BY n_regionkey ORDER BY n_regionkey"),
    "orders_join": (
        "SELECT o_orderkey, o_totalprice, c_name, c_mktsegment FROM orders "
        "JOIN customer ON o_custkey = c_custkey WHERE o_orderkey = {k}"),
}

#: Zipf exponent of the literals: about a fifth of requests repeat a
#: statement still in the 256-entry result cache
ZIPF_S = 0.9
#: offered rate of the open loop (requests/s); a closed loop serves
#: about 33/s at this commit
OPEN_RATE = 15.0
#: requests per open-loop block (3 s) and per closed-loop block
OPEN_BLOCK = 45
CLOSED_BLOCK = 45
WARMUP_REQUESTS = 60
AUDIT_EVERY = 5
TENANTS = (("gold", 2), ("bronze", 1))


class ServeSmall:
    """Small SQL statements over two connections in two tenants: an open
    loop at a fixed offered rate, then a closed loop."""

    name = "serve-small"

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = oracle.load_expected()

    def inputs(self, n: int, domains: Dict[str, np.ndarray]):
        """``n`` requests: (arrival offset s, connection, kind, prepared,
        literal). Arrivals are evenly spaced at ``OPEN_RATE``; every block
        of ten holds each kind once per protocol in a seeded order; two
        of every three go to the weight-2 tenant. Literal ranks are Zipf
        and a seeded permutation maps ranks to each kind's keys."""
        rng = np.random.default_rng(self.seed)
        combos = [(kind, prepared) for kind in KINDS
                  for prepared in (False, True)]
        order = np.concatenate([rng.permutation(len(combos))
                                for _ in range(n // len(combos) + 1)])
        perms = {k: rng.permutation(domains[k]) for k in KINDS}
        ranks = {k: iter(_zipf_ranks(rng, n, len(domains[k]), ZIPF_S))
                 for k in KINDS}
        out = []
        for i in range(n):
            kind, prepared = combos[order[i]]
            literal = int(perms[kind][next(ranks[kind])])
            out.append((i / OPEN_RATE, int(i % 3 == 2), kind, prepared,
                        literal))
        return out

    @staticmethod
    def domains(data) -> Dict[str, np.ndarray]:
        orders = np.asarray(data["orders"]["o_orderkey"], dtype=np.int64)
        return {
            "orders_point": orders,
            "customer_point": np.asarray(data["customer"]["c_custkey"],
                                         dtype=np.int64),
            "lineitem_agg": orders,
            "nation_group": np.arange(1, 4001, dtype=np.int64),
            "orders_join": orders,
        }

    def prepare(self, data) -> None:
        self.data = data
        self.requests = self.inputs(40_000, self.domains(data))

    def setup(self, data, tracing: Tracing):
        built = common.build_cluster(data)
        cluster = built.cluster
        frontend = cluster.serve()
        self.conns = []
        for tenant, weight in TENANTS:
            frontend.add_tenant(tenant, weight=weight)
            conn = frontend.connect(tenant)
            for kind in KINDS:
                conn.parse(kind, STATEMENTS[kind].format(k="$1"))
            self.conns.append(conn)
        self.answers: List[Tuple[str, int, list]] = []
        self.next = 0
        self.audit_id = 0
        for _ in range(WARMUP_REQUESTS):
            with tracing.op("warmup"):
                self._issue(cluster)
            _reference.tick()
        return built

    def _issue(self, cluster) -> float:
        """Sends the next request; returns its CPU seconds."""
        t0 = _cpu()
        _offset, conn_i, kind, prepared, literal = self.requests[self.next]
        self.next += 1
        conn = self.conns[conn_i]
        if prepared:
            conn.bind(kind, (literal,))
            batch = conn.execute()
        else:
            batch = conn.simple_query(STATEMENTS[kind].format(k=literal))
        elapsed = _cpu() - t0
        self.answers.append((kind, literal, oracle.batch_rows(batch)))
        return elapsed

    def _audit(self, cluster, tracing: Tracing, out: Measured,
               traced: bool) -> None:
        if self.next % AUDIT_EVERY:
            return
        self.audit_id += 1
        with tracing.op("audit"):
            commit = common.audit(cluster, self.audit_id, "serve",
                                  self.next)
        if not traced:
            out.commits.append(commit)

    def run(self, built, seconds: float, tracing: Tracing) -> Measured:
        """Blocks of an open loop followed by a closed loop, so both
        parts sample the whole timed phase. Every request's CPU time is a
        latency sample; the open loop's wall latency from when a request
        was due is kept apart."""
        cluster = built.cluster
        out = Measured()
        budget = common.Budget(seconds)
        while budget.left():
            with tracing.unit() as traced:
                # open loop: each request is due at its arrival offset;
                # its wall latency counts from when it was due
                block_start = _now()
                first_offset = self.requests[self.next][0]
                for _ in range(OPEN_BLOCK):
                    offset, _c, kind, _p, _l = self.requests[self.next]
                    due = block_start + offset - first_offset
                    while _now() < due:
                        pass
                    issued = _now()
                    with tracing.op("serve"):
                        latency = self._issue(cluster)
                    done = _now()
                    _reference.tick()
                    if not traced:
                        out.lateness.append(issued - due)
                        out.samples.append((kind, latency))
                        out.open_wall.append(done - due)
                    self._audit(cluster, tracing, out, traced)
                # closed loop: the next request as soon as one returns
                unit_start = _cpu() - _reference.spent
                for _ in range(CLOSED_BLOCK):
                    kind = self.requests[self.next][2]
                    with tracing.op("serve"):
                        latency = self._issue(cluster)
                    _reference.tick()
                    if not traced:
                        out.samples.append((kind, latency))
                    self._audit(cluster, tracing, out, traced)
                out.units.append((traced, _cpu() - _reference.spent
                                  - unit_start, CLOSED_BLOCK))
            out.attempted += OPEN_BLOCK + CLOSED_BLOCK
        return out

    def finish(self, built, tracing: Tracing, out: Measured) -> None:
        pass

    def check_read(self, number: int, batch) -> bool:
        return oracle.matches_expected(batch, self.expected[number])

    def check(self, built, out: Measured) -> int:
        mirror = oracle.SqliteMirror(self.data, ("orders", "customer",
                                                  "lineitem", "nation"))
        want: Dict[Tuple[str, int], list] = {}
        bad = 0
        for kind, literal, rows in self.answers:
            key = (kind, literal)
            if key not in want:
                want[key] = mirror.execute(
                    STATEMENTS[kind].format(k="?"), (literal,))
            bad += not oracle.same_rows(rows, want[key])
        mirror.close()
        self.answers = []
        return bad + audit_missing(built.cluster, self.audit_id)


# =============================================================== refresh-mix

RF_FRACTION = 0.001
UPDATES_PER_ROUND = 3
READS = (1, 6, 3, 14)
DASHBOARD = ("SELECT count(*) AS n, sum(o_totalprice) AS total "
             "FROM orders")


class RefreshKeys:
    """The benchmark's own order-key bookkeeping for RF1 and RF2.

    ``repro.tpch.refresh_rf1`` takes its key space from stable storage
    only: keys it inserted into PDTs are invisible to the next call,
    which then re-issues them and fails with ``ConstraintViolation:
    unique key violated``. So RF1 keys come from a counter above every
    key issued so far and RF2 victims from the set of live keys.
    """

    def __init__(self, existing: np.ndarray):
        self.live = set(int(k) for k in existing)
        self.top = max(self.live)

    def issue(self, n: int) -> np.ndarray:
        """The anchor ``make_rf1_batch`` numbers ``n`` new keys above."""
        anchor = np.array([self.top], dtype=np.int64)
        self.top += n
        self.live.update(range(self.top - n + 1, self.top + 1))
        return anchor

    def victims(self, rng: random.Random, n: int) -> List[int]:
        chosen = rng.sample(sorted(self.live), n)
        self.live.difference_update(chosen)
        return sorted(chosen)


class RefreshMix:
    """Rounds of RF1, RF2, point UPDATEs over the server, then TPC-H
    reads; one ``propagate_updates()`` after the last round."""

    name = "refresh-mix"

    def __init__(self, seed: int):
        self.seed = seed

    def round_inputs(self, keys: RefreshKeys, rng: random.Random,
                     sizes: Tuple[int, int, int, int]):
        """One round's writes: the RF1 batch, RF2 victims and updates."""
        n_orders, n_cust, n_part, n_supp = sizes
        n = max(1, int(n_orders * RF_FRACTION))
        new_orders, new_lines = make_rf1_batch(
            keys.issue(n), n, n_cust, n_part, n_supp,
            seed=rng.randrange(2 ** 31))
        victims = keys.victims(rng, n)
        updates = [(k, round(rng.randrange(0, 11) / 100.0, 2))
                   for k in rng.sample(sorted(keys.live), UPDATES_PER_ROUND)]
        return new_orders, new_lines, victims, updates

    def prepare(self, data) -> None:
        """The sqlite mirror, built once before any timed set-up."""
        self.mirror = oracle.SqliteMirror(
            data, ("orders", "lineitem", "customer", "part"))
        self.sizes = (len(data["orders"]["o_orderkey"]),
                      len(data["customer"]["c_custkey"]),
                      len(data["part"]["p_partkey"]),
                      len(data["supplier"]["s_suppkey"]))

    def setup(self, data, tracing: Tracing):
        built = common.build_cluster(data)
        cluster = built.cluster
        self.conn = cluster.serve().connect()
        self.keys = RefreshKeys(data["orders"]["o_orderkey"])
        self.rng = random.Random(self.seed)
        self.wrong = 0
        self.warmup = []
        for number in READS:
            with tracing.op("warmup"):
                self.warmup.append(
                    (number, run_query(runner(cluster), number)))
            _reference.tick()
        return built

    def check_read(self, number: int, batch) -> bool:
        want = self.mirror.execute(oracle.TPCH_SQL[number])
        return oracle.same_rows(oracle.batch_rows(batch), want)

    def run(self, built, seconds: float, tracing: Tracing) -> Measured:
        cluster = built.cluster
        run_plan = runner(cluster)
        out = Measured()
        for number, batch in self.warmup:
            self.wrong += not self.check_read(number, batch)
        self.warmup = []

        def timed(kind, fn, samples):
            with tracing.op(kind):
                t0 = _cpu()
                value = fn()
                samples.append((kind, _cpu() - t0))
            _reference.tick()
            return value

        budget = common.Budget(seconds)
        while budget.left():
            new_orders, new_lines, victims, updates = self.round_inputs(
                self.keys, self.rng, self.sizes)
            with tracing.unit() as traced:
                unit_start = _cpu() - _reference.spent
                done: List[Tuple[str, float]] = []

                def rf1():
                    trans = cluster.begin()
                    cluster.insert("orders", new_orders, trans=trans,
                                   force_pdt=True)
                    cluster.insert("lineitem", new_lines, trans=trans,
                                   force_pdt=True)
                    t0 = _cpu()
                    trans.commit()
                    return _cpu() - t0

                def rf2():
                    trans = cluster.begin()
                    cluster.delete_where(
                        "orders", InList(Col("o_orderkey"), victims),
                        trans=trans)
                    cluster.delete_where(
                        "lineitem", InList(Col("l_orderkey"), victims),
                        trans=trans)
                    t0 = _cpu()
                    trans.commit()
                    return _cpu() - t0

                commits = [timed("rf1", rf1, done), timed("rf2", rf2, done)]
                updates_sql = [
                    f"UPDATE lineitem SET l_discount = {d} "
                    f"WHERE l_orderkey = {k}" for k, d in updates]
                for sql in updates_sql:
                    timed("update", lambda: self.conn.simple_query(sql), done)
                reads = [(n, timed(f"q{n}", lambda: run_query(run_plan, n),
                                   done)) for n in READS]
                # the round's commits evicted the cached dashboard; the
                # second read hits the result cache again
                dash = [timed(kind, lambda: self.conn.simple_query(DASHBOARD),
                              done) for kind in ("dashboard", "dashboard_hit")]
                # the mirror takes the same writes; answers are compared
                # off the clock
                c0 = _cpu() - _reference.spent
                self.mirror.insert("orders", new_orders)
                self.mirror.insert("lineitem", new_lines)
                self.mirror.delete_in("orders", "o_orderkey", victims)
                self.mirror.delete_in("lineitem", "l_orderkey", victims)
                for sql in updates_sql:
                    self.mirror.execute(sql)
                for number, batch in reads:
                    self.wrong += not self.check_read(number, batch)
                want = self.mirror.execute(DASHBOARD)
                self.wrong += sum(
                    not oracle.same_rows(oracle.batch_rows(b), want)
                    for b in dash)
                budget.exclude(_cpu() - _reference.spent - c0)
                out.units.append((traced, c0 - unit_start, len(done)))
            out.attempted += len(done)
            if not traced:
                out.samples.extend(done)
                out.commits.append(sum(commits))
        return out

    def finish(self, built, tracing: Tracing, out: Measured) -> None:
        """One ``propagate_updates()`` after the last round (traced in a
        traced run). It is forced: a run's PDTs stay below the automatic
        thresholds (10% of a partition or 16384 entries), and an
        unforced call would rewrite nothing."""
        cluster = built.cluster
        with tracing.unit(always=True):
            written = common.registry_total(
                cluster.registry, "hdfs_written_bytes_total")
            with tracing.op("propagate"):
                cluster.propagate_updates(force=True)
            out.rewritten_bytes = common.registry_total(
                cluster.registry, "hdfs_written_bytes_total") - written
        out.attempted += 1

    def check(self, built, out: Measured) -> int:
        """Answers after propagation; per-round answers were compared as
        the rounds ran. A read that raises counts as a wrong answer."""
        for number in READS:
            try:
                batch = run_query(runner(built.cluster), number)
            except ReproError as exc:
                print(f"q{number} after propagation raised "
                      f"{type(exc).__name__}: {exc}")
                self.wrong += 1
                continue
            self.wrong += not self.check_read(number, batch)
        self.mirror.close()
        return self.wrong


# ================================================================== GeoDiff

#: TPC-H reads of the GeoDiff probe and how often each runs per cluster
PROBE_READS = READS
PROBE_ROUNDS = 4


def geodiff_probe(bench, used, twin, out: Measured) -> Tuple[float, int]:
    """(ratio, wrong answers): geomean of the per-query median read time
    on the workload's cluster after its timed phase over that on its
    twin, a cluster set up the same way that ran nothing since. Reads
    alternate between the two, so host speed drift cancels out of the
    ratio (the paper's GeoDiff, Fig. 7)."""
    expected = oracle.load_expected()
    times: Dict[Tuple[bool, int], List[float]] = {}
    wrong = 0
    for i in range(PROBE_ROUNDS):
        for number in PROBE_READS:
            for on_used in ((True, False) if i % 2 == 0 else (False, True)):
                run_plan = runner((used if on_used else twin).cluster)
                t0 = _cpu()
                batch = run_query(run_plan, number)
                times.setdefault((on_used, number), []).append(_cpu() - t0)
                ok = (bench.check_read(number, batch) if on_used else
                      oracle.matches_expected(batch, expected[number]))
                wrong += not ok
                out.attempted += 1
    used_g = common.geomean([common.median(times[True, n])
                             for n in PROBE_READS])
    twin_g = common.geomean([common.median(times[False, n])
                             for n in PROBE_READS])
    return used_g / twin_g, wrong


WORKLOADS = {w.name: w for w in (TpchPower, ServeSmall, RefreshMix)}
