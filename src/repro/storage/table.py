"""StoredTable: partitioned, optionally clustered tables with PDT updates.

Combines the pieces below it:

* one :class:`PartitionStore` per hash partition (file-per-partition chunk
  layout on HDFS);
* one :class:`PdtStack` per partition holding in-memory differential
  updates; every scan merges them in positionally;
* MinMax skipping, kept conservative under updates by widening;
* update propagation, with the tail-insert fast path (append-only flush).

Clustered ("clustered index") tables are stored sorted on the cluster key;
all their updates go through PDTs -- inserts are anchored by binary search
on the stable cluster key. Unordered tables append bulk inserts directly
and may buffer small inserts as PDT tail inserts (paper section 6).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import Config
from repro.common.errors import StorageError
from repro.engine.profile import kernel
from repro.hdfs.cluster import HdfsCluster
from repro.pdt.layer import apply_entries, classify_entries
from repro.pdt.stack import PdtStack, TransPdt
from repro.storage.buffer import BufferPool
from repro.storage.colstore import PartitionStore
from repro.storage.schema import TableSchema


_RANGE_OPS = ("<", "<=", ">", ">=")


@dataclass
class ScanResult:
    """Output of a partition scan: merged columns + true tuple identities."""

    columns: Dict[str, np.ndarray]
    identities: np.ndarray  # encoded: stable sid >= 0, insert uid < 0
    n_rows: int


@dataclass
class PropagationStats:
    tail_flushes: int = 0
    full_rewrites: int = 0
    entries_flushed: int = 0


class StoredTable:
    """One table: storage partitions + PDT stacks + scan/update API."""

    def __init__(self, hdfs: HdfsCluster, db_path: str, schema: TableSchema,
                 config: Config):
        self.hdfs = hdfs
        self.schema = schema
        self.config = config
        self.partitions: List[PartitionStore] = []
        self.pdt: List[PdtStack] = []
        for pid in range(self.n_partitions):
            tag = self.partition_tag(pid)
            base = f"{db_path.rstrip('/')}/{tag}"
            self.partitions.append(
                PartitionStore(hdfs, base, schema, config, tag)
            )
            self.pdt.append(
                PdtStack(flush_threshold=config.write_pdt_flush_threshold)
            )
        self._cluster_key_cache: Dict[int, np.ndarray] = {}
        self._merge_plan_cache: Dict[int, tuple] = {}
        self.propagation_stats = PropagationStats()

    def _merge_plan(self, pid: int, trans: Optional[TransPdt]):
        """Cached classification of the committed PDT entries a scan
        sees, or None when ``trans`` holds entries of its own. Commits
        install new layers instead of changing old ones, so the layer
        objects identify their contents."""
        if trans is None:
            layers = (self.pdt[pid].read, self.pdt[pid].write)
        elif len(trans):
            return None
        else:
            layers = trans.snapshot_layers()
        cached = self._merge_plan_cache.get(pid)
        if (cached is not None and cached[0] is layers[0]
                and cached[1] is layers[1]):
            return cached[2]
        plan = classify_entries(layers[0].entries + layers[1].entries)
        self._merge_plan_cache[pid] = (*layers, plan)
        return plan

    # ---------------------------------------------------------------- identity

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def n_partitions(self) -> int:
        return self.schema.n_partitions if self.schema.is_partitioned else 1

    @property
    def is_replicated(self) -> bool:
        """Non-partitioned tables are replicated on all workers (section 6)."""
        return not self.schema.is_partitioned

    def partition_tag(self, pid: int) -> str:
        return f"{self.schema.name}/part-{pid:04d}"

    # ------------------------------------------------------- decimal handling
    #
    # DECIMAL columns are stored as fixed-point int64 (so the lightweight
    # integer compression schemes apply, as in Vectorwise) but surface as
    # float64 vectors at the scan boundary; writes convert back. Skip
    # predicates and MinMax work on the storage representation.

    def _decimal_scale(self, name: str) -> Optional[int]:
        ctype = self.schema.ctype(name)
        if ctype.name == "decimal":
            return 10 ** ctype.scale
        return None

    def to_storage_columns(self, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        out = {}
        for name, arr in columns.items():
            arr = np.asarray(arr)
            scale = self._decimal_scale(name)
            if scale is not None and arr.dtype.kind == "f":
                arr = np.round(arr * scale).astype(np.int64)
            out[name] = arr
        return out

    def _from_storage(self, name: str, arr: np.ndarray) -> np.ndarray:
        scale = self._decimal_scale(name)
        if scale is not None:
            return arr.astype(np.float64) / scale
        return arr

    def _storage_predicates(self, predicates):
        """Skip predicates with DECIMAL literals scaled to storage form.
        A literal with more digits than the scale widens its bound to
        the next whole storage value, so MinMax stays conservative."""
        fixed = []
        for col, op, literal in _in_as_range(predicates):
            scale = self._decimal_scale(col)
            if (scale is not None and isinstance(literal, numbers.Real)
                    and not isinstance(literal, (bool, np.bool_))):
                scaled = literal * scale
                stored = int(round(scaled))
                if stored / scale == literal or op not in _RANGE_OPS:
                    literal = stored
                elif op in ("<", "<="):
                    op, literal = "<=", math.ceil(scaled)
                else:
                    op, literal = ">=", math.floor(scaled)
            fixed.append((col, op, literal))
        return fixed

    def _storage_literal(self, name: str, literal):
        """``literal`` in ``name``'s storage form, or None when no stored
        value converts to it exactly (wrong type, a fraction on an
        integer column, more digits than a DECIMAL's scale)."""
        ctype = self.schema.ctype(name)
        if ctype.is_string:
            return literal if isinstance(literal, str) else None
        if (not isinstance(literal, numbers.Real)
                or isinstance(literal, (bool, np.bool_))):
            return None
        if ctype.dtype.kind == "f":
            return float(literal)
        if ctype.dtype.kind not in "iu":
            return None
        scale = self._decimal_scale(name) or 1
        try:
            stored = int(round(literal * scale))
        except (ValueError, OverflowError):  # NaN, infinity
            return None
        info = np.iinfo(ctype.dtype)
        exact = stored / scale == literal if scale > 1 else stored == literal
        return stored if exact and info.min <= stored <= info.max else None

    # ------------------------------------------------------ partition pruning

    def pinned_partitions(self, predicates) -> Optional[List[int]]:
        """The hash partitions a conjunctive predicate set can touch.

        Every partition-key column must be pinned: by an ``=`` literal,
        or, for a single-column key, by an ``in`` list of literals.
        Pinned literals are converted to storage form and hashed with
        :meth:`TableSchema.partition_ids`, the function that places rows
        on load and insert. Returns the sorted partition ids, or None --
        every partition -- when the key is not pinned.
        """
        if not self.schema.is_partitioned:
            return None
        key = list(self.schema.partition_key)
        pins: Dict[str, List[object]] = {}
        for col, op, literal in predicates:
            if col not in key:
                continue
            if op == "=":
                values = [literal]
            elif op == "in" and len(key) == 1:
                values = list(literal)
            else:
                continue
            stored = [self._storage_literal(col, v) for v in values]
            if any(v is None for v in stored):
                continue
            if col not in pins or len(stored) < len(pins[col]):
                pins[col] = stored
        if len(pins) != len(key):
            return None
        # an in list pins a single-column key, so the pinned rows are
        # the values of that list, or one row of = literals
        arrays = [np.asarray(pins[c], dtype=self.schema.ctype(c).dtype)
                  for c in key]
        return sorted(set(self.schema.partition_ids(arrays).tolist()))

    def partitions_for(self, predicates) -> Sequence[int]:
        """The partitions a scan or DML statement with these conjunctive
        predicates must read: the pinned ones, else all. Counts the
        skipped ones in ``scan_partitions_pruned_total``."""
        pinned = self.pinned_partitions(predicates)
        if pinned is None:
            return range(self.n_partitions)
        registry = getattr(self.hdfs, "registry", None)
        if registry is not None and len(pinned) < self.n_partitions:
            registry.counter(
                "scan_partitions_pruned_total",
                "Hash partitions skipped because the predicates pin the "
                "partition key", labels=("table",),
            ).inc(self.n_partitions - len(pinned), table=self.schema.name)
        return pinned

    def row_partitions(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """The partition of each row of engine-form ``columns`` of a
        partitioned table, as load and insert place it."""
        key = list(self.schema.partition_key)
        converted = self.to_storage_columns({k: columns[k] for k in key})
        return self.schema.partition_ids([
            np.asarray(converted[k], dtype=self.schema.ctype(k).dtype)
            for k in key
        ])

    def _record_minmax(self, store: PartitionStore,
                       ranges: Sequence[Tuple[int, int]],
                       needed: Sequence[str]) -> None:
        """Charge MinMax skip effectiveness: of the blocks the scan would
        touch for its needed columns, how many did the qualifying ranges
        let it skip? Only called for predicated scans."""
        registry = getattr(self.hdfs, "registry", None)
        if registry is None:
            return
        scanned = skipped = 0
        for name in needed:
            for ref in store.blocks.get(name, ()):
                overlaps = any(ref.row_end > start and ref.row_start < end
                               for start, end in ranges)
                if overlaps:
                    scanned += 1
                else:
                    skipped += 1
        labels = {"table": self.schema.name}
        registry.counter(
            "minmax_blocks_scanned_total",
            "Storage blocks read by predicated scans", labels=("table",),
        ).inc(scanned, **labels)
        registry.counter(
            "minmax_blocks_skipped_total",
            "Storage blocks MinMax pruning let predicated scans skip",
            labels=("table",),
        ).inc(skipped, **labels)

    # ------------------------------------------------------------------- loads

    def bulk_load(self, columns: Dict[str, np.ndarray],
                  writers: Optional[Dict[int, str]] = None) -> None:
        """Initial bulk load: hash-partition rows, sort clustered partitions.

        Clustered tables only accept bulk loads into empty partitions;
        later inserts must go through PDTs (:meth:`insert_rows`).
        """
        converted = self.to_storage_columns(columns)
        arrays = {
            name: np.asarray(converted[name],
                             dtype=self.schema.ctype(name).dtype)
            for name in self.schema.column_names
        }
        n = len(next(iter(arrays.values())))
        if self.schema.is_partitioned:
            keys = [arrays[k] for k in self.schema.partition_key]
            pids = self.schema.partition_ids(keys)
        else:
            pids = np.zeros(n, dtype=np.int64)
        for pid in range(self.n_partitions):
            mask = pids == pid
            if not mask.any():
                continue
            part_cols = {name: arr[mask] for name, arr in arrays.items()}
            if self.schema.is_clustered:
                if self.partitions[pid].n_stable:
                    raise StorageError(
                        "bulk load into non-empty clustered partition; "
                        "use insert_rows (PDT) instead"
                    )
                order = np.lexsort(tuple(
                    part_cols[c] for c in reversed(self.schema.clustered_on)
                ))
                part_cols = {k: v[order] for k, v in part_cols.items()}
            writer = writers.get(pid) if writers else None
            self.partitions[pid].append(part_cols, writer)
            self._cluster_key_cache.pop(pid, None)

    def append_partition(self, pid: int, columns: Dict[str, np.ndarray],
                         writer: Optional[str] = None) -> None:
        """Direct append (unordered tables; large inserts bypass PDTs)."""
        if self.schema.is_clustered:
            raise StorageError("clustered tables update through PDTs")
        self.partitions[pid].append(self.to_storage_columns(columns), writer)

    # -------------------------------------------------------------------- scans

    def scan_partition(
        self,
        pid: int,
        columns: Sequence[str],
        predicates: Sequence[Tuple[str, str, object]] = (),
        trans: Optional[TransPdt] = None,
        reader: Optional[str] = None,
        pool: Optional[BufferPool] = None,
    ) -> ScanResult:
        """Scan one partition: MinMax skipping + positional PDT merge.

        ``predicates`` (conjunctive ``(col, op, literal)``) are only used
        for *block skipping* here; exact filtering happens in the engine's
        Select operator. Identities refer to the true stable SIDs so update
        operators can target tuples.
        """
        store = self.partitions[pid]
        entries = self.pdt[pid].scan_entries(trans)
        with kernel("scan.minmax"):
            ranges = store.minmax.qualifying_ranges(
                self._storage_predicates(predicates), store.n_stable
            )

        needed = list(dict.fromkeys(columns))
        if predicates:
            self._record_minmax(store, ranges, needed)
        requested = list(needed)
        n_stable = store.n_stable
        plan = self._merge_plan(pid, trans) if entries else None
        if not self.schema.is_clustered:
            may_disorder = False
        elif plan is not None:
            # live inserts are sorted by anchor
            may_disorder = bool(plan.n_inserts) and \
                plan.ins_anchor[0] < n_stable
        else:
            may_disorder = any(
                e.kind.value == "insert" and e.anchor_sid < n_stable
                for e in entries
            )
        if may_disorder:
            # The cluster key is needed to restore sort order after merging
            # non-tail PDT inserts, even when the query did not ask for it.
            for key_col in self.schema.clustered_on:
                if key_col not in needed:
                    needed.append(key_col)
        stable_cols = store.read_columns(needed, ranges, reader, pool)

        if not entries:
            identities = _identities_for_ranges(ranges)
            n = len(identities)
            cols = {c: self._from_storage(c, stable_cols[c]) for c in requested}
            return ScanResult(cols, identities, n)

        with kernel("scan.pdt_merge") as k:
            if plan is None:
                plan = classify_entries(entries)
            sub_n, plan, offsets = plan.restrict(ranges, n_stable)
            merged = apply_entries(stable_cols, sub_n, entries, needed,
                                   plan=plan)
            k.account(rows=merged.n_rows)
        identities = _restore_identities(merged.identities, ranges, offsets)
        result = ScanResult(merged.columns, identities, merged.n_rows)
        if may_disorder:
            result = _resort_clustered(result, self.schema.clustered_on)
        result.columns = {
            c: self._from_storage(c, result.columns[c]) for c in requested
        }
        return result

    def scan_merged(self, pid: int, columns: Sequence[str],
                    trans: Optional[TransPdt] = None,
                    reader: Optional[str] = None,
                    pool: Optional[BufferPool] = None) -> ScanResult:
        """Full-partition scan (no skipping)."""
        return self.scan_partition(pid, columns, (), trans, reader, pool)

    # ------------------------------------------------------------------ updates

    def insert_rows(self, pid: int, rows: Dict[str, np.ndarray],
                    trans: TransPdt) -> List[int]:
        """Trickle-insert rows through the Trans-PDT; returns their uids."""
        converted = self.to_storage_columns(rows)
        arrays = {
            name: np.asarray(converted[name],
                             dtype=self.schema.ctype(name).dtype)
            for name in self.schema.column_names
        }
        n = len(next(iter(arrays.values())))
        store = self.partitions[pid]
        if self.schema.is_clustered:
            anchors = self._cluster_anchors(pid, arrays)
        else:
            anchors = np.full(n, store.n_stable, dtype=np.int64)
        uids = []
        for i in range(n):
            values = {name: arrays[name][i] for name in arrays}
            uids.append(trans.insert(int(anchors[i]), values))
            for name, value in values.items():
                store.minmax.widen(name, int(anchors[i]), value)
        return uids

    def delete_rows(self, pid: int, identities: np.ndarray,
                    trans: TransPdt) -> int:
        from repro.pdt.entries import decode_identity
        for code in identities.tolist():
            target = decode_identity(code)
            anchor = target[1] if target[0] == "s" else 0
            trans.delete(target, anchor_sid=anchor)
        return len(identities)

    def modify_rows(self, pid: int, identities: np.ndarray,
                    new_values: Dict[str, np.ndarray],
                    trans: TransPdt) -> int:
        from repro.pdt.entries import decode_identity
        store = self.partitions[pid]
        new_values = self.to_storage_columns(new_values)
        for i, code in enumerate(identities.tolist()):
            target = decode_identity(code)
            anchor = target[1] if target[0] == "s" else 0
            values = {name: arr[i] for name, arr in new_values.items()}
            trans.modify(target, values, anchor_sid=anchor)
            for name, value in values.items():
                store.minmax.widen(name, anchor, value)
        return len(identities)

    def _cluster_anchors(self, pid: int, arrays) -> np.ndarray:
        key_col = self.schema.clustered_on[0]
        stable_keys = self._cluster_key_cache.get(pid)
        if stable_keys is None:
            stable_keys = self.partitions[pid].read_column(key_col)
            self._cluster_key_cache[pid] = stable_keys
        return np.searchsorted(stable_keys, arrays[key_col], side="left")

    # --------------------------------------------------------- update propagation

    def needs_propagation(self, pid: int) -> bool:
        stack = self.pdt[pid]
        if stack.total_entries() >= self.config.pdt_propagate_threshold:
            return True
        n_stable = max(1, self.partitions[pid].n_stable)
        return (stack.total_entries() / n_stable
                >= self.config.pdt_propagate_fraction)

    def propagate(self, pid: int, writer: Optional[str] = None) -> str:
        """Flush this partition's PDTs into the column store.

        Tail inserts only create new blocks (cheap append flush); any other
        update kind forces a full rewrite of the partition (paper section 6,
        "Update Propagation"). Returns "tail", "full" or "none".
        """
        stack = self.pdt[pid]
        store = self.partitions[pid]
        entries = stack.scan_entries()
        if not entries:
            return "none"
        names = self.schema.column_names
        tail, rest = _split_tail(entries, store.n_stable)
        if not rest:
            values = {
                name: np.asarray(
                    [e.values[name] for e in tail],
                    dtype=self.schema.ctype(name).dtype,
                )
                for name in names
            }
            store.append(values, writer)
            self.propagation_stats.tail_flushes += 1
        else:
            stable_cols = store.read_columns(names, reader=writer)
            merged = apply_entries(stable_cols, store.n_stable, entries, names)
            new_cols = merged.columns
            if self.schema.is_clustered:
                order = np.lexsort(tuple(
                    new_cols[c] for c in reversed(self.schema.clustered_on)
                ))
                new_cols = {k: v[order] for k, v in new_cols.items()}
            store.rewrite(new_cols, writer)
            self.propagation_stats.full_rewrites += 1
        self.propagation_stats.entries_flushed += len(entries)
        stack.clear_after_propagation()
        self._cluster_key_cache.pop(pid, None)
        return "full" if rest else "tail"

    # ---------------------------------------------------------------- statistics

    def total_rows(self, include_pdt: bool = True) -> int:
        total = 0
        for pid in range(self.n_partitions):
            if include_pdt and self.pdt[pid].total_entries():
                total += self.scan_merged(
                    pid, self.schema.column_names[:1]
                ).n_rows
            else:
                total += self.partitions[pid].n_stable
        return total

    def total_bytes(self) -> int:
        return sum(p.total_bytes() for p in self.partitions)


# ------------------------------------------------------------------ helpers

def _in_as_range(predicates):
    """``in`` lists as the ``[min, max]`` range of their values, the part
    of them MinMax skipping can use (an empty list skips nothing here;
    partition pruning already reads no partition for it)."""
    for col, op, literal in predicates:
        if op == "in":
            if len(literal):
                yield col, ">=", min(literal)
                yield col, "<=", max(literal)
        else:
            yield col, op, literal


def _identities_for_ranges(ranges) -> np.ndarray:
    if not ranges:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([
        np.arange(start, end, dtype=np.int64) for start, end in ranges
    ])


def _restore_identities(sub_identities: np.ndarray, ranges,
                        offsets: np.ndarray) -> np.ndarray:
    """Translate sub-image stable sids back to true partition sids."""
    out = sub_identities.copy()
    mask = out >= 0
    subs = out[mask]
    true_sids = np.empty_like(subs)
    for i, (s, e) in enumerate(ranges):
        lo, hi = offsets[i], offsets[i + 1]
        in_range = (subs >= lo) & (subs < hi)
        true_sids[in_range] = subs[in_range] - lo + s
    out[mask] = true_sids
    return out


def _resort_clustered(result: ScanResult, cluster_key) -> ScanResult:
    """Restore full sort order when PDT inserts landed locally unordered.

    Positional anchoring keeps the merge ordered in the common case
    (inserts anchored by binary search on the cluster key), so first do a
    cheap vectorized sortedness check and only pay for a sort when
    same-anchor inserts actually broke the order.
    """
    keys = list(cluster_key)
    first = result.columns[keys[0]]
    if len(first) < 2 or (first[1:] >= first[:-1]).all():
        return result
    order = np.lexsort(tuple(result.columns[c] for c in reversed(keys)))
    return ScanResult(
        {k: v[order] for k, v in result.columns.items()},
        result.identities[order],
        result.n_rows,
    )


def _split_tail(entries, n_stable):
    touched_uids = set()
    for e in entries:
        if e.kind.value != "insert" and e.target and e.target[0] == "i":
            touched_uids.add(e.target[1])
    tail, rest = [], []
    for e in entries:
        if (e.kind.value == "insert" and e.anchor_sid >= n_stable
                and e.uid not in touched_uids):
            tail.append(e)
        else:
            rest.append(e)
    tail.sort(key=lambda e: e.seq)
    return tail, rest
