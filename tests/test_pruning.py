"""Hash-partition pruning: point queries and point DML read only the
partitions their key hashes to, and return what a full scan returns."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import Config
from repro.common.types import DECIMAL, INT64, STRING
from repro.cluster import VectorHCluster
from repro.engine.expressions import Col, InList
from repro.mpp.logical import LScan, LSelect
from repro.mpp.rewriter import ParallelRewriter
from repro.sql import execute_sql
from repro.storage import Column, TableSchema

N_PARTITIONS = 7


def make_cluster(key_type=INT64, n=600, partition_key=("k",)):
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "t", [Column("k", key_type), Column("j", INT64), Column("v", INT64)],
        partition_key=partition_key, n_partitions=N_PARTITIONS))
    c.bulk_load("t", {"k": key_values(key_type, np.arange(n)),
                      "j": np.arange(n) % 7,
                      "v": np.arange(n) * 10})
    return c


def key_values(key_type, ints):
    ints = np.asarray(ints)
    if key_type is DECIMAL:
        return ints * 0.5  # every other key is a whole number
    if key_type is STRING:
        return np.array([f"key{i}" for i in ints], dtype=object)
    return ints.astype(np.int64)


def pruned_total(cluster) -> float:
    family = cluster.registry.get("scan_partitions_pruned_total")
    return family.total() if family is not None else 0.0


def sorted_rows(batch):
    cols = sorted(batch.columns)
    return sorted(zip(*(batch.columns[c].tolist() for c in cols)))


@pytest.fixture()
def cluster():
    return make_cluster()


class TestPinnedPartitions:
    def test_equality_pins_the_partition_load_used(self, cluster):
        stored = cluster.tables["t"]
        for k in (0, 17, 599):
            [pid] = stored.pinned_partitions([("k", "=", k)])
            scan = stored.scan_partition(pid, ["k"])
            assert k in scan.columns["k"].tolist()

    def test_in_list_pins_each_value(self, cluster):
        stored = cluster.tables["t"]
        one = {stored.pinned_partitions([("k", "=", k)])[0]
               for k in (3, 4, 5)}
        assert stored.pinned_partitions([("k", "in", (3, 4, 5))]) == \
            sorted(one)
        assert stored.pinned_partitions([("k", "in", ())]) == []

    def test_unpinned_key_reads_every_partition(self, cluster):
        stored = cluster.tables["t"]
        assert stored.pinned_partitions([]) is None
        assert stored.pinned_partitions([("k", "<", 5)]) is None
        assert stored.pinned_partitions([("j", "=", 5)]) is None
        assert list(stored.partitions_for([("k", ">=", 5)])) == \
            list(range(N_PARTITIONS))

    def test_multi_column_key_needs_every_column(self):
        c = make_cluster(partition_key=("k", "j"))
        stored = c.tables["t"]
        assert stored.pinned_partitions([("k", "=", 8)]) is None
        assert stored.pinned_partitions([("k", "in", (8,)),
                                         ("j", "=", 1)]) is None
        [pid] = stored.pinned_partitions([("k", "=", 8), ("j", "=", 1)])
        assert 8 in stored.scan_partition(pid, ["k"]).columns["k"].tolist()

    def test_literals_that_match_nothing_pin_nothing(self, cluster):
        stored = cluster.tables["t"]
        for literal in (5.5, "5", None, True, float("nan"), 2 ** 70):
            assert stored.pinned_partitions([("k", "=", literal)]) is None
        assert stored.pinned_partitions([("k", "=", 5.0)]) == \
            stored.pinned_partitions([("k", "=", 5)])

    def test_decimal_literals_hash_in_storage_form(self):
        c = make_cluster(DECIMAL)
        stored = c.tables["t"]
        [pid] = stored.pinned_partitions([("k", "=", 5)])
        assert stored.schema.partition_ids([np.array([500])])[0] == pid
        assert stored.pinned_partitions([("k", "=", 5.0)]) == [pid]
        assert stored.pinned_partitions([("k", "=", 5.001)]) is None
        batch = execute_sql(c, "SELECT k FROM t WHERE k = 5").columns
        assert batch["k"].tolist() == [5.0]

    def test_whole_number_literals_on_decimals_skip_in_storage_form(self):
        # MinMax compares a whole-number literal in cents too: ``k < 5``
        # once skipped every block, as if it read ``k < 0.05``
        c = make_cluster(DECIMAL)
        for sql, want in (("SELECT count(*) AS n FROM t WHERE k < 5", 10),
                          ("SELECT count(*) AS n FROM t WHERE j = 3 "
                           "AND k >= 290", 3)):
            assert execute_sql(c, sql).columns["n"].tolist() == [want]

    def test_extra_digits_on_decimals_skip_conservatively(self):
        c = make_cluster(DECIMAL)  # keys 0, 0.5, 1, ...
        for sql, want in (("SELECT count(*) AS n FROM t WHERE k < 0.001", 1),
                          ("SELECT count(*) AS n FROM t WHERE k <= 0.501", 2),
                          ("SELECT count(*) AS n FROM t WHERE k > 299.499",
                           1),
                          ("SELECT count(*) AS n FROM t WHERE k >= 299.001",
                           1)):
            assert execute_sql(c, sql).columns["n"].tolist() == [want], sql

    def test_non_partitioned_table_is_never_pinned(self):
        c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
        c.create_table(TableSchema("r", [Column("k", INT64)]))
        assert c.tables["r"].pinned_partitions([("k", "=", 1)]) is None


class TestPrunedScans:
    def test_point_query_reads_one_partition(self, cluster):
        before = pruned_total(cluster)
        out = execute_sql(cluster, "SELECT k, v FROM t WHERE k = 42")
        assert out.columns["v"].tolist() == [420]
        assert pruned_total(cluster) - before == N_PARTITIONS - 1

    def test_explain_analyze_shows_partitions_read(self, cluster):
        out = execute_sql(cluster,
                          "EXPLAIN ANALYZE SELECT v FROM t WHERE k = 42")
        scan = next(line for line in out.columns["plan"]
                    if "MScan[t]" in line)
        assert f"partitions 1/{N_PARTITIONS}" in scan
        out = execute_sql(cluster,
                          "EXPLAIN ANALYZE SELECT v FROM t WHERE k < 42")
        scan = next(line for line in out.columns["plan"]
                    if "MScan[t]" in line)
        assert f"partitions {N_PARTITIONS}/{N_PARTITIONS}" in scan

    def test_pinned_scan_estimate_is_its_partition_rows(self, cluster):
        stored = cluster.tables["t"]
        [pid] = stored.pinned_partitions([("k", "=", 42)])
        scan = LScan("t", ["k"], [("k", "=", 42), ("v", ">", 0)])
        estimate = ParallelRewriter(cluster).estimate_rows(scan)
        assert estimate == stored.partitions[pid].n_stable

    def test_index_lookup_probes_one_partition(self, cluster):
        cluster.create_index("t", "k")
        before = pruned_total(cluster)
        assert cluster.index_lookup("t", "k", 42, ["v"])["v"].tolist() \
            == [420]
        assert pruned_total(cluster) - before == N_PARTITIONS - 1


class TestPrunedDml:
    def test_point_delete_touches_one_partition(self, cluster):
        trans = cluster.begin()
        assert cluster.delete_where("t", InList(Col("k"), [3, 4]),
                                    trans=trans) == 2
        touched = {pid for (_t, pid), part in trans.parts.items()}
        stored = cluster.tables["t"]
        assert touched == set(stored.pinned_partitions([("k", "in",
                                                          (3, 4))]))
        trans.commit()
        out = execute_sql(cluster, "SELECT count(*) AS n FROM t")
        assert out.columns["n"].tolist() == [598]

    def test_update_of_the_key_moves_the_row(self, cluster):
        stored = cluster.tables["t"]
        old_pid = stored.pinned_partitions([("k", "=", 5)])[0]
        new_key = next(k for k in range(70001, 70100)
                       if stored.pinned_partitions([("k", "=", k)])[0]
                       != old_pid)
        hit = execute_sql(cluster,
                          f"UPDATE t SET k = {new_key} WHERE k = 5")
        assert hit == 1
        rows = execute_sql(cluster,
                           f"SELECT k, v FROM t WHERE k = {new_key}")
        assert rows.columns["k"].tolist() == [new_key]
        assert rows.columns["v"].tolist() == [50]
        gone = execute_sql(cluster, "SELECT k FROM t WHERE k = 5")
        assert gone.columns["k"].tolist() == []
        count = execute_sql(cluster, "SELECT count(*) AS n FROM t")
        assert count.columns["n"].tolist() == [600]
        cluster.propagate_updates("t", force=True)
        rows = execute_sql(cluster,
                           f"SELECT k, v FROM t WHERE k = {new_key}")
        assert rows.columns["v"].tolist() == [50]

    def test_moved_rows_are_updated_once(self, cluster):
        # every row moves; a row found again in its new partition would
        # be shifted twice
        assert cluster.update_where("t", Col("k") >= 0,
                                    {"k": Col("k") + 1000}) == 600
        out = execute_sql(cluster, "SELECT min(k) AS lo, max(k) AS hi, "
                                   "count(*) AS n FROM t")
        assert out.columns["lo"].tolist() == [1000]
        assert out.columns["hi"].tolist() == [1599]
        assert out.columns["n"].tolist() == [600]


class TestSqlInList:
    """SQL ``col IN (literal, ...)`` becomes an ``in`` skip predicate:
    it pins the partitions of a single-column key and MinMax-skips on
    the ``[min, max]`` of its list."""

    COLS = "o_orderkey, o_custkey, o_totalprice, o_orderdate"

    def _full(self, cluster, keep):
        full = execute_sql(cluster, f"SELECT {self.COLS} FROM orders")
        mask = keep(full.columns)
        return sorted_rows(full.select(mask))

    def test_orderkey_in_list_reads_only_pinned_partitions(
            self, tpch_cluster):
        orders = tpch_cluster.tables["orders"]
        stored = [orders.scan_partition(pid, ["o_orderkey"])
                  .columns["o_orderkey"][:2].tolist() for pid in (0, 3)]
        keys = sorted(stored[0] + stored[1] + [10 ** 9])  # no such key
        pinned = orders.pinned_partitions([("o_orderkey", "in", keys)])
        assert 0 < len(pinned) < orders.n_partitions
        before = pruned_total(tpch_cluster)
        got = execute_sql(
            tpch_cluster, f"SELECT {self.COLS} FROM orders "
            f"WHERE o_orderkey IN ({', '.join(map(str, keys))})")
        assert pruned_total(tpch_cluster) - before == \
            orders.n_partitions - len(pinned)
        want = self._full(tpch_cluster,
                          lambda c: np.isin(c["o_orderkey"], keys))
        assert len(want) == 4
        assert sorted_rows(got) == want
        plan = execute_sql(
            tpch_cluster, "EXPLAIN ANALYZE SELECT o_custkey FROM orders "
            f"WHERE o_orderkey IN ({', '.join(map(str, keys))})")
        scan = next(line for line in plan.columns["plan"]
                    if "MScan[orders]" in line)
        assert f"partitions {len(pinned)}/{orders.n_partitions}" in scan

    def test_in_list_on_a_clustered_column_skips_blocks(self, tpch_cluster):
        registry = tpch_cluster.registry
        before = registry.value("minmax_blocks_skipped_total",
                                table="orders")
        sql = (f"SELECT {self.COLS} FROM orders WHERE o_orderdate IN "
               "(date '1992-01-02', date '1992-01-03')")
        got = execute_sql(tpch_cluster, sql)
        assert registry.value("minmax_blocks_skipped_total",
                              table="orders") > before
        days = execute_sql(tpch_cluster, sql.replace(
            "IN (date '1992-01-02', date '1992-01-03')",
            "BETWEEN date '1992-01-02' AND date '1992-01-03'"))
        assert got.n == days.n > 0
        assert sorted_rows(got) == self._full(
            tpch_cluster, lambda c: np.isin(c["o_orderdate"],
                                            days.columns["o_orderdate"]))

    def test_decimal_in_list_matches_full_scan(self, tpch_cluster):
        prices = execute_sql(
            tpch_cluster, "SELECT o_totalprice FROM orders"
        ).columns["o_totalprice"][:3].tolist()
        literals = [round(p, 2) for p in prices] + [0.005]
        got = execute_sql(
            tpch_cluster, f"SELECT {self.COLS} FROM orders WHERE "
            f"o_totalprice IN ({', '.join(map(repr, literals))})")
        want = self._full(tpch_cluster,
                          lambda c: np.isin(c["o_totalprice"], literals))
        assert len(want) >= 3
        assert sorted_rows(got) == want

    def test_unusable_in_lists_make_no_skip_predicate(self, tpch_cluster):
        from repro.sql.binder import _sargable
        from repro.sql.parser import SqlParser
        for where, sargable in (("o_orderkey IN (1, 2)", True),
                                ("o_orderkey NOT IN (1, 2)", False),
                                ("o_orderkey IN (1, 'x')", False),
                                ("o_orderkey IN (1, NULL)", False)):
            stmt = SqlParser(f"SELECT o_orderkey FROM orders "
                             f"WHERE {where}").parse()
            assert bool(_sargable(stmt.where)) is sargable, where


# --------------------------------------------------------- property test

@pytest.fixture(scope="module")
def shared_cluster():
    """One cluster per key type, shared by the examples: each compares
    pruned and full scans of the same state, whatever earlier examples
    committed."""
    built = {}

    def get(key_type):
        if key_type.name not in built:
            built[key_type.name] = make_cluster(key_type, n=300)
        return built[key_type.name]
    return get


def literals(key_type):
    ints = st.integers(min_value=-5, max_value=330)
    if key_type is STRING:
        return ints.map(lambda i: f"key{i}")
    if key_type is DECIMAL:
        return st.one_of(ints.map(lambda i: i * 0.5), ints,
                         ints.map(lambda i: i + 0.001))
    return st.one_of(ints, ints.map(float), ints.map(lambda i: i + 0.5))


@st.composite
def cases(draw, key_type):
    lits = literals(key_type)
    if draw(st.booleans()):
        pin = ("=", draw(lits))
    else:
        pin = ("in", tuple(draw(st.lists(lits, max_size=4))))
    inserts = draw(st.lists(st.integers(-5, 330), max_size=4, unique=True))
    deletes = draw(st.lists(st.integers(-5, 330), max_size=4, unique=True))
    commit = draw(st.booleans())
    return pin, inserts, deletes, commit


def read(cluster, pin, trans=None, pruned=True):
    op, literal = pin
    predicate = (Col("k") == literal if op == "=" else
                 InList(Col("k"), list(literal)))
    skip = [("k", op, literal)] if pruned else []
    plan = LSelect(LScan("t", ["k", "v"], skip), predicate)
    return sorted_rows(cluster.query(plan, trans=trans).batch)


@pytest.mark.parametrize("key_type", [INT64, DECIMAL, STRING],
                         ids=lambda t: t.name)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_pruned_scans_match_full_scans(shared_cluster, key_type, data):
    pin, inserts, deletes, commit = data.draw(cases(key_type))
    cluster = shared_cluster(key_type)
    trans = cluster.begin()
    if inserts:
        cluster.insert("t", {"k": key_values(key_type, inserts),
                             "j": np.zeros(len(inserts), np.int64),
                             "v": np.asarray(inserts, np.int64) * 10 + 1},
                       trans=trans, force_pdt=True)
    if deletes:
        cluster.delete_where(
            "t", InList(Col("k"), key_values(key_type, deletes).tolist()),
            trans=trans)
    # the reader's own uncommitted inserts and deletes
    assert read(cluster, pin, trans) == read(cluster, pin, trans, False)
    if not commit:
        trans.abort()
        return
    trans.commit()
    assert read(cluster, pin) == read(cluster, pin, pruned=False)
    cluster.propagate_updates("t", force=True)
    assert read(cluster, pin) == read(cluster, pin, pruned=False)
