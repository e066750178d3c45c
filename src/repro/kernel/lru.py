"""LRU page lists over the page table.

Each cgroup maintains a pair of active/inactive lists per page kind, the
kernel's production-tested mechanism for finding cold pages with low CPU
cost (Section 3.4). New pages enter the inactive list; a page referenced
while inactive earns promotion to the active list; reclaim scans from the
cold (tail) end of the inactive list and deactivates from the active tail
when the inactive list runs low.

Lists hold no per-page nodes. A page is on list ``(cgroup, kind,
active)`` when its ``cgroup``/``kind``/``active`` columns say so and its
``seq`` column is listed; the list's cold-to-hot order is ascending
``seq``. Every insertion at a head takes a fresh sequence number, so
rotation to the head is one column write. Only the lengths are kept
here, as plain ints.

Reclaim needs the tail. Each list keeps a *tail cursor*: its members in
``seq`` order as of a snapshot, walked from the cold end. An entry is
still the page's position exactly when the page's ``seq`` is unchanged,
because every list change (rotation, promotion, demotion, isolation,
release) rewrites ``seq``; pages inserted later carry larger numbers
than anything in the snapshot. So the first still-valid entry at the
cursor is the true tail. Stale entries are skipped, a few one by one
and then in vectorised chunks, and a new snapshot is read from the
table only when the cursor runs out. An inactive list's insertions
(new pages, faults, demotions) are few and all go through this module,
so its cursor also appends them and never needs a second snapshot.
An active list is rotated by every hit, batched ones included, so its
cursor walks table snapshots of its cold end only. No path ever takes
an argmin over the table per scanned page.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kernel.page import UNLISTED, PageTable

#: List index of the inactive and the active list in :attr:`LruVec.nr`.
INACTIVE = 0
ACTIVE = 1

#: Stale entries checked one by one, then per vectorised step
#: (doubling), when a cursor skips.
_PROBES = 8
_SKIP_CHUNK = 32

#: Least number of entries in an active list's snapshot (its cold end).
_COLD_END = 64

#: An inactive walk list longer than ``_OVERGROWN`` times its list's
#: length plus ``_SLACK`` entries is compacted (walked and stale entries
#: dropped): rare enough to cost O(1) per insertion, and it bounds the
#: memory.
_OVERGROWN = 4
_SLACK = 256


class _TailCursor:
    """One list's members in ``seq`` order, walked from ``pos``.

    ``ids``/``seqs`` are plain lists (the walk reads one entry at a
    time): a snapshot read from the table and, on an inactive list,
    every insertion since, appended in ``seq`` order, so every member
    is a valid entry.
    """

    __slots__ = ("ids", "seqs", "pos", "logging")

    # Every field is a cache over the page table: rebuilt on demand,
    # never checkpointed (a restored list starts with no snapshot).
    def __init__(self) -> None:
        self.ids: List[int] = []  # tmo-lint: transient -- cache
        self.seqs: List[int] = []  # tmo-lint: transient -- cache
        self.pos = 0  # tmo-lint: transient -- cache
        #: Insertions are appended (an inactive list, once snapshotted).
        self.logging = False  # tmo-lint: transient -- cache

    def reset(self, ids: np.ndarray, seqs: np.ndarray) -> None:
        """Walk a snapshot of every member, read from the table."""
        self.ids = ids.tolist()
        self.seqs = seqs.tolist()
        self.pos = 0

    def log(self, ids: List[int], seqs: List[int], members: int,
            seq: np.ndarray) -> None:
        """Append insertions at the list's head, in order; ``members``
        is the list's length after them."""
        self.ids.extend(ids)
        self.seqs.extend(seqs)
        if len(self.ids) > _OVERGROWN * members + _SLACK:
            self.compact(seq)

    def compact(self, seq: np.ndarray) -> None:
        """Drop the walked entries and the stale ones (a page moved
        since); the valid ones keep their order. Without this a list
        that takes insertions faster than it is walked only grows."""
        pos = self.pos
        ids = np.array(self.ids[pos:], dtype=np.int64)
        seqs = np.array(self.seqs[pos:], dtype=np.int64)
        keep = seq[ids] == seqs
        self.ids = ids[keep].tolist()
        self.seqs = seqs[keep].tolist()
        self.pos = 0


class LruVec:
    """The active/inactive list pair of one page kind in one cgroup.

    Methods take page ids; all page attributes live in the shared
    :class:`~repro.kernel.page.PageTable`.
    """

    #: Target active:inactive size ratio; the kernel deactivates when the
    #: active list outgrows this multiple of the inactive list.
    ACTIVE_INACTIVE_RATIO = 2.0

    def __init__(self, table: PageTable, cgroup_index: int, kind: int) -> None:
        self.table = table
        self.cgroup_index = cgroup_index
        self.kind = int(kind)
        #: List lengths, indexed by ``INACTIVE`` / ``ACTIVE``.
        self.nr = [0, 0]
        self._cursors = (  # tmo-lint: transient -- cache; rebuilt on demand
            _TailCursor(), _TailCursor(),
        )

    def __len__(self) -> int:
        return self.nr[INACTIVE] + self.nr[ACTIVE]

    # ------------------------------------------------------------------
    # insertion and removal

    def _to_head(self, pid: int, which: int) -> None:
        """Give ``pid`` the next sequence number on list ``which``."""
        table = self.table
        seq = table.next_seq
        table.next_seq = seq + 1
        table.cells.seq[pid] = seq
        if which == INACTIVE:
            cursor = self._cursors[INACTIVE]
            if cursor.logging:
                cursor.log([pid], [seq], self.nr[INACTIVE] + 1, table.seq)

    def insert_new(self, pid: int) -> None:
        """A newly allocated (or faulted-in) page enters the inactive head."""
        cells = self.table.cells
        cells.active[pid] = False
        cells.referenced[pid] = False
        self._to_head(pid, INACTIVE)
        self.nr[INACTIVE] += 1

    def insert_new_many(self, ids: np.ndarray) -> None:
        """:meth:`insert_new` for fresh pages, in the order given."""
        table = self.table
        seqs = table.take_seq(len(ids)) + np.arange(len(ids))
        table.active[ids] = False
        table.referenced[ids] = False
        table.seq[ids] = seqs
        self.nr[INACTIVE] += len(ids)
        cursor = self._cursors[INACTIVE]
        if cursor.logging:
            cursor.log(
                ids.tolist(), seqs.tolist(), self.nr[INACTIVE], table.seq
            )

    def insert_active(self, pid: int) -> None:
        """Insert straight onto the active list (refaulting working set)."""
        cells = self.table.cells
        cells.active[pid] = True
        cells.referenced[pid] = False
        self._to_head(pid, ACTIVE)
        self.nr[ACTIVE] += 1

    def remove(self, pid: int) -> None:
        """Take a page off whichever list it is on."""
        cells = self.table.cells
        if cells.seq[pid] != UNLISTED:
            self.nr[cells.active[pid]] -= 1
            cells.seq[pid] = UNLISTED
        cells.active[pid] = False

    def touch(self, pid: int) -> bool:
        """Record an access; return True if the page was promoted.

        Mirrors the kernel's referenced-bit protocol: the first touch of
        an inactive page sets the reference bit; a second touch promotes
        it to the active list. Touches of active pages rotate the page to
        the head.
        """
        cells = self.table.cells
        if cells.active[pid]:
            cells.referenced[pid] = True
            self._to_head(pid, ACTIVE)
            return False
        if cells.referenced[pid]:
            cells.active[pid] = True
            cells.referenced[pid] = False
            self._to_head(pid, ACTIVE)
            self.nr[INACTIVE] -= 1
            self.nr[ACTIVE] += 1
            return True
        cells.referenced[pid] = True
        # Leave list position; the reference bit is the aging signal.
        return False

    def forget_cursors(self) -> None:
        """Drop the walk lists (after the table was overwritten)."""
        self._cursors = (_TailCursor(), _TailCursor())

    # ------------------------------------------------------------------
    # order

    def members(self, which: int, coldest: Optional[int] = None) -> np.ndarray:
        """Ids on list ``which`` (``INACTIVE``/``ACTIVE``), cold to hot;
        only the ``coldest`` ones when given."""
        table = self.table
        n = table.n_pages
        seq = table.seq[:n]
        ids = np.flatnonzero(
            (seq != UNLISTED)
            & (table.cgroup[:n] == self.cgroup_index)
            & (table.kind[:n] == self.kind)
            & (table.active[:n] == bool(which))
        )
        keys = seq[ids]
        if coldest is not None and coldest < len(ids):
            part = np.argpartition(keys, coldest)[:coldest]
            ids, keys = ids[part], keys[part]
        return ids[np.argsort(keys)]

    def tail(self, which: int) -> Optional[int]:
        """The coldest page of list ``which``, or None when empty."""
        if self.nr[which] == 0:
            return None
        cursor = self._cursors[which]
        ids, seqs, seq = cursor.ids, cursor.seqs, self.table.cells.seq
        pos = cursor.pos
        end = len(ids)
        if pos < end and seq[ids[pos]] == seqs[pos]:
            return ids[pos]
        # Stale runs are mostly short: probe a few entries one by one
        # before paying for vectorised chunks.
        stop = min(end, pos + _PROBES)
        for probe in range(pos + 1, stop):
            pid = ids[probe]
            if seq[pid] == seqs[probe]:
                cursor.pos = probe
                return pid
        cursor.pos = max(pos, stop)
        return self._seek(which)

    def _seek(self, which: int) -> Optional[int]:
        """Move the cursor to the first still-valid entry, skipping
        stale ones in vectorised chunks; read a new snapshot from the
        table when the walk list runs out."""
        cursor = self._cursors[which]
        seq = self.table.seq
        ids, seqs = cursor.ids, cursor.seqs
        pos, end = cursor.pos, len(ids)
        chunk = _SKIP_CHUNK
        while pos < end:
            stop = min(end, pos + chunk)
            valid = seq[ids[pos:stop]] == np.asarray(seqs[pos:stop])
            first = int(valid.argmax())
            if valid[first]:
                cursor.pos = pos + first
                return ids[pos + first]
            pos = stop
            chunk *= 2
        if which == INACTIVE:
            fresh = self.members(INACTIVE)
        else:
            # Hits keep rotating the warm end, so only the cold end of a
            # snapshot is ever walked: take just that (whatever is not
            # in it is warmer than all of it).
            fresh = self.members(
                ACTIVE, coldest=max(_COLD_END, self.nr[ACTIVE] // 8)
            )
        if len(fresh) == 0:
            return None  # length and columns disagree
        cursor.reset(fresh, seq[fresh])
        cursor.logging = which == INACTIVE
        return cursor.ids[0]

    # ------------------------------------------------------------------
    # aging

    def needs_deactivation(self) -> bool:
        """Whether the active list is oversized relative to inactive."""
        return self.nr[ACTIVE] > self.ACTIVE_INACTIVE_RATIO * max(
            1, self.nr[INACTIVE]
        )

    def deactivate_one(self) -> Optional[int]:
        """Demote the coldest active page to the inactive head.

        A referenced active page gets its bit cleared and is rotated
        back instead (one scan of second chance).
        """
        pid = self.tail(ACTIVE)
        if pid is None:
            return None
        self._cursors[ACTIVE].pos += 1  # the tail leaves its place
        cells = self.table.cells
        if cells.referenced[pid]:
            cells.referenced[pid] = False
            self._to_head(pid, ACTIVE)
            return None
        cells.active[pid] = False
        self._to_head(pid, INACTIVE)
        self.nr[ACTIVE] -= 1
        self.nr[INACTIVE] += 1
        return pid

    def scan_tail(self) -> Tuple[Optional[int], bool]:
        """Examine the coldest inactive page for eviction.

        Returns ``(page_id, evictable)``: a referenced page is given a
        second chance (promoted to active, bit cleared) and reported as
        not evictable; an unreferenced page is isolated (taken off the
        list) and handed to the caller for eviction.
        """
        pid = self.tail(INACTIVE)
        if pid is None:
            return None, False
        self._cursors[INACTIVE].pos += 1  # the tail leaves its place
        cells = self.table.cells
        self.nr[INACTIVE] -= 1
        if cells.referenced[pid]:
            cells.referenced[pid] = False
            cells.active[pid] = True
            self._to_head(pid, ACTIVE)
            self.nr[ACTIVE] += 1
            return pid, False
        cells.seq[pid] = UNLISTED
        return pid, True
