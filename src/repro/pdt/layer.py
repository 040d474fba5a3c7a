"""Positional merging: applying a pile of delta entries to a stable image.

``apply_entries`` is the scan-side half of the PDT design: it merges the
differences into a table scan *by position*, with no key comparisons. It is
called for every query (via the table scan operator) with the union of the
Read-, Write- and Trans-PDT entry lists, which share one anchor space (the
stable on-disk image).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.pdt.entries import (
    DeltaEntry,
    EntryKind,
    Identity,
    decode_identity,
)


@dataclass
class MergeResult:
    """The up-to-date image of one table partition.

    ``identities`` is aligned with the merged rows: ``identities[rid]`` is
    the encoded identity (stable SID >= 0, inserts < 0), which is how update
    queries address tuples and how SID<->RID translation is answered.
    """

    columns: Dict[str, np.ndarray]
    identities: np.ndarray  # int64, encoded identities per output row
    n_rows: int
    n_stable: int

    def rid_to_identity(self, rid: int) -> Identity:
        return decode_identity(int(self.identities[rid]))

    def sid_to_rid(self, sid: int) -> Optional[int]:
        """Current position of stable tuple ``sid`` (None when deleted)."""
        pos = np.searchsorted(self._stable_sids(), sid)
        sids = self._stable_sids()
        if pos < len(sids) and sids[pos] == sid:
            return int(self._stable_rids()[pos])
        return None

    def rid_to_sid(self, rid: int) -> Optional[int]:
        """Stable position of the tuple at ``rid`` (None for fresh inserts)."""
        code = int(self.identities[rid])
        return code if code >= 0 else None

    def _stable_sids(self) -> np.ndarray:
        mask = self.identities >= 0
        return self.identities[mask]

    def _stable_rids(self) -> np.ndarray:
        return np.flatnonzero(self.identities >= 0)


class MergePlan:
    """Classified delta entries as arrays, ready to merge.

    Built once per PDT version (see ``StoredTable._merge_plan``) and reused
    by every scan of that version, so the per-entry work happens once:

    * ``deleted`` -- sorted stable SIDs of deleted tuples;
    * ``ins_anchor``/``ins_seq``/``ins_ident`` -- the live inserts, sorted
      by ``(anchor, seq)``, with their encoded identities;
    * ``mod_sids[col]`` -- sorted SIDs of surviving stable tuples whose
      ``col`` was modified (last writer wins);
    * insert and modify *values* per column, typed to the stable column's
      dtype on first use (:meth:`insert_values`, :meth:`mod_values`).

    :meth:`restrict` maps a plan into the sub-image of selected stable
    ranges (MinMax skipping) without touching the entries again.
    """

    def __init__(self, deleted: np.ndarray, ins_anchor: np.ndarray,
                 ins_seq: np.ndarray, ins_ident: np.ndarray,
                 mod_sids: Dict[str, np.ndarray],
                 insert_rows: Sequence[Mapping[str, object]] = (),
                 mod_items: Optional[Dict[str, list]] = None,
                 parent: Optional["MergePlan"] = None,
                 ins_index: Optional[np.ndarray] = None,
                 mod_index: Optional[Dict[str, np.ndarray]] = None):
        self.deleted = deleted
        self.ins_anchor = ins_anchor
        self.ins_seq = ins_seq
        self.ins_ident = ins_ident
        self.mod_sids = mod_sids
        # a root plan holds the values; a restricted plan indexes its parent's
        self._insert_rows = insert_rows
        self._mod_items = mod_items or {}
        self._parent = parent
        self._ins_index = ins_index
        self._mod_index = mod_index or {}
        self._typed: Dict[tuple, np.ndarray] = {}

    @property
    def n_inserts(self) -> int:
        return len(self.ins_anchor)

    @property
    def is_empty(self) -> bool:
        return not (len(self.deleted) or self.n_inserts or self.mod_sids)

    def insert_values(self, name: str, dtype: np.dtype) -> np.ndarray:
        """Column ``name`` of the live inserts, in plan order."""
        key = ("i", name, dtype)
        arr = self._typed.get(key)
        if arr is None:
            if self._parent is not None:
                arr = self._parent.insert_values(name, dtype)[self._ins_index]
            else:
                arr = np.array([row[name] for row in self._insert_rows],
                               dtype=dtype)
            self._typed[key] = arr
        return arr

    def mod_values(self, name: str, dtype: np.dtype) -> np.ndarray:
        """New values of column ``name``, aligned with ``mod_sids[name]``."""
        key = ("m", name, dtype)
        arr = self._typed.get(key)
        if arr is None:
            if self._parent is not None:
                arr = self._parent.mod_values(name, dtype)[
                    self._mod_index[name]]
            else:
                arr = np.array(self._mod_items[name], dtype=dtype)
            self._typed[key] = arr
        return arr

    def restrict(self, ranges: Sequence[Tuple[int, int]], n_stable: int):
        """This plan over the sub-image made of the selected stable ranges.

        Returns ``(sub_n, plan, offsets)``: the sub-image's size, the
        remapped plan and the ranges' start offsets in the sub-image.
        Inserts anchored and deletes/modifies targeted inside skipped
        ranges are dropped -- correct because MinMax widening guarantees
        a range containing a qualifying insert or modify is never
        skipped, and a delete in a skipped range removes a tuple that
        would not qualify anyway. Inserts anchored at the end of the
        last selected range or beyond the image become tail inserts.
        """
        offsets = np.cumsum([0] + [e - s for s, e in ranges])
        sub_n = int(offsets[-1])
        if n_stable == 0 or (len(ranges) == 1 and ranges[0] == (0, n_stable)):
            # the whole image is selected (an empty stable image has no
            # ranges): the plan applies as it is
            return n_stable, self, offsets
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        ends = np.array([e for _, e in ranges], dtype=np.int64)

        def map_sids(sids: np.ndarray) -> np.ndarray:
            """Sub-image position of each SID; -1 when skipped."""
            out = np.full(len(sids), -1, dtype=np.int64)
            if len(starts):
                i = np.searchsorted(starts, sids, side="right") - 1
                inside = (i >= 0) & (sids < ends[np.maximum(i, 0)])
                out[inside] = offsets[i[inside]] + sids[inside] - \
                    starts[i[inside]]
                out[sids == ends[-1]] = sub_n
            out[sids >= n_stable] = sub_n
            return out

        def map_targets(sids: np.ndarray):
            new = map_sids(sids)
            keep = (new >= 0) & (new < sub_n)
            return new[keep], keep

        anchors = map_sids(self.ins_anchor)
        live = np.flatnonzero(anchors >= 0)
        ins_index = live[np.lexsort((self.ins_seq[live], anchors[live]))]
        deleted, _ = map_targets(self.deleted)
        mod_sids: Dict[str, np.ndarray] = {}
        mod_index: Dict[str, np.ndarray] = {}
        for name, sids in self.mod_sids.items():
            new, keep = map_targets(sids)
            if len(new):
                mod_sids[name] = new
                mod_index[name] = np.flatnonzero(keep)
        return sub_n, MergePlan(
            deleted, anchors[ins_index], self.ins_seq[ins_index],
            self.ins_ident[ins_index], mod_sids, parent=self,
            ins_index=ins_index, mod_index=mod_index,
        ), offsets


def classify_entries(entries: Sequence[DeltaEntry]) -> MergePlan:
    """Replay entries in commit order into a ready-to-merge plan.

    In the real system the PDT *is* this structure; deriving it from the
    flat entry log per scan would be wasted work, so callers may cache the
    result per (layer versions) -- see StoredTable.scan_partition.
    """
    deleted_sids: set = set()
    live_inserts: Dict[int, DeltaEntry] = {}  # uid -> entry
    mods_stable: Dict[int, Dict[str, object]] = {}
    for entry in sorted(entries, key=lambda e: e.seq):
        if entry.kind is EntryKind.INSERT:
            live_inserts[entry.uid] = entry
        elif entry.kind is EntryKind.DELETE:
            tag, value = entry.target
            if tag == "s":
                deleted_sids.add(value)
            else:
                live_inserts.pop(value, None)
        else:  # MODIFY
            tag, value = entry.target
            if tag == "s":
                mods_stable.setdefault(value, {}).update(entry.values)
            elif value in live_inserts:
                ins = live_inserts[value]
                merged = dict(ins.values)
                merged.update(entry.values)
                live_inserts[value] = DeltaEntry(
                    kind=EntryKind.INSERT,
                    anchor_sid=ins.anchor_sid,
                    seq=ins.seq,
                    uid=ins.uid,
                    values=merged,
                )
    inserts = sorted(live_inserts.values(), key=lambda e: e.sort_key())
    n_ins = len(inserts)
    mod_lists: Dict[str, Tuple[list, list]] = {}
    for sid in sorted(mods_stable):
        if sid in deleted_sids:
            continue
        for name, value in mods_stable[sid].items():
            sids, values = mod_lists.setdefault(name, ([], []))
            sids.append(sid)
            values.append(value)
    return MergePlan(
        deleted=np.array(sorted(deleted_sids), dtype=np.int64),
        ins_anchor=np.fromiter((e.anchor_sid for e in inserts), np.int64,
                               n_ins),
        ins_seq=np.fromiter((e.seq for e in inserts), np.int64, n_ins),
        ins_ident=np.fromiter((-(e.uid + 1) for e in inserts), np.int64,
                              n_ins),
        mod_sids={name: np.array(sids, dtype=np.int64)
                  for name, (sids, _) in mod_lists.items()},
        insert_rows=[e.values for e in inserts],
        mod_items={name: values for name, (_, values) in mod_lists.items()},
    )


def apply_entries(
    stable_columns: Mapping[str, np.ndarray],
    n_stable: int,
    entries: Sequence[DeltaEntry],
    columns_wanted: Sequence[str] | None = None,
    plan: Optional[MergePlan] = None,
) -> MergeResult:
    """Merge delta entries into the stable image, positionally.

    Output order: for each stable anchor ``s`` ascending, first the inserts
    anchored at ``s`` (in commit-sequence order), then stable tuple ``s``
    itself unless deleted; modifies overlay the targeted tuple's values with
    last-writer-wins per column. Pass ``plan`` to reuse a cached
    classification of the same entries (or a :meth:`MergePlan.restrict`
    of it, with ``n_stable`` the sub-image's size).
    """
    names = list(columns_wanted) if columns_wanted is not None else list(
        stable_columns
    )
    if plan is None and entries:
        plan = classify_entries(entries)
    if plan is None or plan.is_empty:
        cols = {c: np.asarray(stable_columns[c]) for c in names}
        identities = np.arange(n_stable, dtype=np.int64)
        return MergeResult(cols, identities, n_stable, n_stable)

    keep = np.ones(n_stable, dtype=bool)
    keep[plan.deleted] = False
    kept_sids = np.flatnonzero(keep).astype(np.int64)

    n_ins = plan.n_inserts
    n_kept = len(kept_sids)
    total = n_kept + n_ins

    if not n_ins or plan.ins_anchor[0] >= n_stable:
        # Fast path (the dominant case: trickle appends + deletes): kept
        # stable rows in order, inserts appended -- no interleaving sort.
        stable_positions = np.arange(n_kept)
        ins_src = np.arange(n_ins)
        insert_positions = n_kept + ins_src
    else:
        # Interleave kept stable tuples and inserts by (anchor, rank, seq).
        anchor = np.concatenate([kept_sids, plan.ins_anchor])
        rank = np.concatenate([
            np.ones(n_kept, np.int64), np.zeros(n_ins, np.int64),
        ])
        seq = np.concatenate([np.zeros(n_kept, np.int64), plan.ins_seq])
        order = np.lexsort((seq, rank, anchor))
        is_stable_src = order < n_kept
        # stable tuples keep their relative (ascending SID) order
        stable_positions = np.flatnonzero(is_stable_src)
        insert_positions = np.flatnonzero(~is_stable_src)
        ins_src = order[~is_stable_src] - n_kept

    out_identities = np.empty(total, dtype=np.int64)
    out_identities[stable_positions] = kept_sids
    if n_ins:
        out_identities[insert_positions] = plan.ins_ident[ins_src]

    columns: Dict[str, np.ndarray] = {}
    for name in names:
        src = np.asarray(stable_columns[name])
        out = np.empty(total, dtype=src.dtype)
        out[stable_positions] = src[kept_sids]
        if n_ins:
            out[insert_positions] = plan.insert_values(name, src.dtype)[ins_src]
        sids = plan.mod_sids.get(name)
        if sids is not None:
            # modified tuples survive (deleted ones were dropped), so
            # each sits at its rank among the kept SIDs
            pos = np.searchsorted(kept_sids, sids)
            out[stable_positions[pos]] = plan.mod_values(name, src.dtype)
        columns[name] = out

    return MergeResult(columns, out_identities, total, n_stable)


class PdtLayer:
    """One PDT layer: an ordered collection of delta entries.

    Layers are value-like: commit creates a *new* Write-PDT layer
    (copy-on-write) so snapshots held by running queries stay stable.
    """

    def __init__(self, entries: Sequence[DeltaEntry] = ()):
        self.entries: List[DeltaEntry] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: DeltaEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries: Sequence[DeltaEntry]) -> None:
        self.entries.extend(entries)

    def copy(self) -> "PdtLayer":
        """A new layer over the same entries: committed entries are never
        changed in place (commit and replay re-sequence clones), so the
        copy-on-write layers share them."""
        return PdtLayer(self.entries)

    def counts(self) -> Dict[str, int]:
        out = {"insert": 0, "delete": 0, "modify": 0}
        for e in self.entries:
            out[e.kind.value] += 1
        return out

    def memory_estimate(self) -> int:
        """Rough bytes held in RAM; drives update-propagation triggers."""
        total = 0
        for e in self.entries:
            total += 48 + 24 * len(e.values)
        return total

    def split_tail_inserts(self, n_stable: int):
        """Separate tail inserts from other updates (paper section 6).

        Tail inserts (anchored at the end of the stable image, not
        modifying any existing tuple) can be flushed by only *appending*
        new blocks; everything else requires re-compressing existing
        blocks and may be flushed at lower frequency.
        """
        touched_uids = set()
        for e in self.entries:
            if e.kind is not EntryKind.INSERT and e.target[0] == "i":
                touched_uids.add(e.target[1])
        tail: List[DeltaEntry] = []
        rest: List[DeltaEntry] = []
        for e in self.entries:
            is_tail = (
                e.kind is EntryKind.INSERT
                and e.anchor_sid >= n_stable
                and e.uid not in touched_uids
            )
            (tail if is_tail else rest).append(e)
        return PdtLayer(tail), PdtLayer(rest)
