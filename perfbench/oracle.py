"""Reference answers from engines that share no execution code with
VectorH.

* ``tpch-power`` compares against row-engine answers
  (``repro.baselines.CompetitorSystem``) computed once by
  ``make_expected.py`` and stored in ``expected_tpch.json``.
* ``serve-small`` and ``refresh-mix`` compare against a stdlib
  ``sqlite3`` mirror that holds the same data and receives the same
  writes.
"""

from __future__ import annotations

import json
import math
import sqlite3
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.common.types import date_to_days as days

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_tpch.json"
REL_TOL = 1e-6
ABS_TOL = 1e-6

_INDEXES = {
    "orders": ("o_orderkey",),
    "customer": ("c_custkey",),
    "lineitem": ("l_orderkey",),
    "nation": ("n_nationkey",),
    "part": ("p_partkey",),
}


def _plain(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def batch_rows(batch) -> List[tuple]:
    names = batch.column_names
    cols = [batch.columns[c] for c in names]
    return [tuple(_plain(c[i]) for c in cols) for i in range(batch.n)]


def same_value(a, b) -> bool:
    a, b = _plain(a), _plain(b)
    if isinstance(a, str) or isinstance(b, str):
        return str(a) == str(b)
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(float(a), float(b), rel_tol=REL_TOL,
                        abs_tol=ABS_TOL)


def same_rows(got: Sequence[Sequence], want: Sequence[Sequence]) -> bool:
    if len(got) != len(want):
        return False
    return all(len(g) == len(w) and all(same_value(x, y)
                                        for x, y in zip(g, w))
               for g, w in zip(got, want))


# ------------------------------------------------------ stored row engine

def load_expected() -> Dict[int, dict]:
    with open(EXPECTED_PATH) as fh:
        raw = json.load(fh)
    return {int(q): v for q, v in raw["queries"].items()}


def matches_expected(batch, want: dict) -> bool:
    """Same rows in the same order; column names too, except that the
    row engine emits no columns for an empty result."""
    if want["columns"] and batch.column_names != want["columns"]:
        return False
    return same_rows(batch_rows(batch), want["rows"])


# ------------------------------------------------------------ sqlite mirror

#: TPC-H reads of ``refresh-mix`` in SQL, producing the column order of
#: the plans in ``repro.tpch.queries``
TPCH_SQL = {
    1: f"""
        SELECT l_returnflag, l_linestatus, sum(l_quantity),
               sum(l_extendedprice), sum(l_extendedprice * (1 - l_discount)),
               sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
               avg(l_quantity), avg(l_extendedprice), avg(l_discount),
               count(*)
        FROM lineitem WHERE l_shipdate <= {days("1998-09-02")}
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus""",
    3: f"""
        SELECT l_orderkey, o_orderdate, o_shippriority,
               sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer JOIN orders ON c_custkey = o_custkey
             JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < {days("1995-03-15")}
          AND l_shipdate > {days("1995-03-15")}
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate LIMIT 10""",
    6: f"""
        SELECT sum(l_extendedprice * l_discount) FROM lineitem
        WHERE l_shipdate >= {days("1994-01-01")}
          AND l_shipdate < {days("1995-01-01")}
          AND l_discount BETWEEN 0.05 - 1e-9 AND 0.07 + 1e-9
          AND l_quantity < 24""",
    14: f"""
        SELECT 100.0 * sum(CASE WHEN p_type LIKE 'PROMO%'
                                THEN l_extendedprice * (1 - l_discount)
                                ELSE 0.0 END)
               / sum(l_extendedprice * (1 - l_discount))
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= {days("1995-09-01")}
          AND l_shipdate < {days("1995-10-01")}""",
}


class SqliteMirror:
    """An in-memory sqlite copy of some TPC-H tables."""

    def __init__(self, data: Dict[str, Dict[str, np.ndarray]],
                 tables: Iterable[str]):
        self.db = sqlite3.connect(":memory:")
        self.columns: Dict[str, List[str]] = {}
        for table in tables:
            self._create(table, data[table])

    def _create(self, table: str, columns: Dict[str, np.ndarray]) -> None:
        names = list(columns)
        decls = []
        for name in names:
            kind = columns[name].dtype.kind
            decls.append(f"{name} " + {"i": "INTEGER", "f": "REAL"}.get(
                kind, "TEXT"))
        self.db.execute(f"CREATE TABLE {table} ({', '.join(decls)})")
        self.columns[table] = names
        self.insert(table, columns)
        for key in _INDEXES.get(table, ()):
            self.db.execute(f"CREATE INDEX {table}_{key} ON {table}({key})")

    def insert(self, table: str, columns: Dict[str, np.ndarray]) -> None:
        names = self.columns[table]
        arrays = [columns[n].tolist() for n in names]
        marks = ", ".join("?" * len(names))
        self.db.executemany(
            f"INSERT INTO {table} ({', '.join(names)}) VALUES ({marks})",
            zip(*arrays))

    def delete_in(self, table: str, column: str, keys: Sequence[int]) -> None:
        self.db.executemany(f"DELETE FROM {table} WHERE {column} = ?",
                            [(int(k),) for k in keys])

    def execute(self, sql: str, params: Optional[Sequence] = ()) -> List[tuple]:
        return self.db.execute(sql, tuple(params or ())).fetchall()

    def close(self) -> None:
        self.db.close()
