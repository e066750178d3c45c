"""Pages: the unit of memory the kernel manages.

Each simulated page stands for ``page_size_bytes`` bytes of one cgroup's memory
(the scale knob that keeps large hosts tractable — see DESIGN.md). A page
is either anonymous (swap-backed) or file-backed, and moves through the
states below as it is allocated, reclaimed and faulted back.

Pages are not objects. A page is an integer id: a row of the memory
manager's :class:`PageTable`, whose attributes are numpy columns indexed
by that id. Workloads hold int64 id arrays, so the per-tick resident-hit
path is a handful of array operations instead of one attribute walk per
page (the flat, integer-indexed addressing of a hardware page table).
"""

from __future__ import annotations

import enum

import numpy as np


class PageKind(enum.IntEnum):
    """The two memory categories of Section 2.4."""

    ANON = 0
    FILE = 1


class PageState(enum.IntEnum):
    """Where a page's data currently lives."""

    #: In DRAM, on one of the cgroup's LRU lists.
    RESIDENT = 0
    #: Anonymous data written out to SSD swap.
    SWAPPED = 1
    #: Anonymous data compressed into the zswap pool (still DRAM, but
    #: accounted to the pool, not the cgroup's resident set).
    ZSWAPPED = 2
    #: File data evicted from the page cache; a shadow entry may remain.
    EVICTED = 3
    #: File data never (or no longer) cached and with no shadow history.
    ABSENT = 4


#: ``cgroup`` column value of a released page: its id is never reused,
#: and it belongs to no cgroup.
RELEASED = -1

#: ``seq`` column value of a page on no LRU list (not resident, or
#: isolated by a reclaim scan).
UNLISTED = -1


class _Cells:
    """Memoryviews over a table's columns, for one element at a time.

    Reading or writing one element through a memoryview costs about
    half what numpy scalar indexing does, so the scalar paths (faults,
    reclaim scans) use these, and array code uses the columns. They are
    rebound whenever the columns are reallocated, so never keep one
    across a call that can add pages.
    """

    __slots__ = (
        "state", "kind", "cgroup", "active", "referenced", "dirty",
        "compressibility", "last_access", "seq",
    )

    def __init__(self, table: "PageTable") -> None:
        for name in self.__slots__:
            setattr(self, name, memoryview(getattr(table, name)))


class PageTable:
    """Every page of one memory manager, one numpy column per attribute.

    Row ``i`` is page id ``i``. Columns grow by amortised doubling; ids
    are handed out in order and never reused, so a released page keeps
    its row with ``cgroup == RELEASED``.

    Columns:
        state: :class:`PageState` code.
        kind: :class:`PageKind` code.
        cgroup: index of the owning cgroup in the memory manager
            (``RELEASED`` once freed).
        active: on the active LRU list (meaningful only while listed).
        referenced: the software reference bit — set on access, cleared
            by the reclaim scan; a referenced inactive page gets a second
            chance (re-activation) instead of eviction.
        dirty: file pages only; a dirty page needs writeback on eviction.
        compressibility: zstd compression ratio of the page's data.
        last_access: virtual time of the most recent touch.
        seq: LRU sequence number. Every insertion at an LRU head takes
            the next number from ``next_seq``, so a list's cold-to-hot
            order is ascending ``seq`` among its members. ``UNLISTED``
            when the page is on no list.
    """

    def __init__(self, capacity_pages: int = 1024) -> None:
        capacity = max(1, int(capacity_pages))
        #: Rows in use; the next page id.
        self.n_pages = 0
        #: The sequence number the next LRU insertion takes.
        self.next_seq = 0
        self.state = np.empty(capacity, dtype=np.int8)
        self.kind = np.empty(capacity, dtype=np.int8)
        self.cgroup = np.empty(capacity, dtype=np.int16)
        self.active = np.zeros(capacity, dtype=bool)
        self.referenced = np.zeros(capacity, dtype=bool)
        self.dirty = np.zeros(capacity, dtype=bool)
        self.compressibility = np.empty(capacity, dtype=np.float64)
        self.last_access = np.empty(capacity, dtype=np.float64)
        self.seq = np.empty(capacity, dtype=np.int64)
        self._scratch = np.empty(0, dtype=np.int64)  # tmo-lint: transient -- scratch
        #: Element access to the columns (see :class:`_Cells`).
        self.cells = _Cells(self)  # tmo-lint: transient -- views

    #: Column attribute names.
    COLUMNS = _Cells.__slots__

    def _reserve(self, need: int) -> None:
        """Grow every column to hold at least ``need`` rows."""
        capacity = len(self.state)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        for name in self.COLUMNS:
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self.n_pages] = old[: self.n_pages]
            setattr(self, name, new)
        self.cells = _Cells(self)  # tmo-lint: transient -- views

    def append(
        self,
        n: int,
        cgroup: int,
        kind: int,
        state: int,
        dirty: bool,
        compressibility: float,
        now: float,
    ) -> np.ndarray:
        """Add ``n`` unlisted pages; returns their ids (int64)."""
        start = self.n_pages
        stop = start + n
        self._reserve(stop)
        rows = slice(start, stop)
        self.state[rows] = state
        self.kind[rows] = kind
        self.cgroup[rows] = cgroup
        self.active[rows] = False
        self.referenced[rows] = False
        self.dirty[rows] = dirty
        self.compressibility[rows] = compressibility
        self.last_access[rows] = now
        self.seq[rows] = UNLISTED
        self.n_pages = stop
        return np.arange(start, stop, dtype=np.int64)

    def live(self) -> np.ndarray:
        """Ids of every page not yet released, ascending."""
        return np.flatnonzero(self.cgroup[: self.n_pages] != RELEASED)

    def scratch(self) -> np.ndarray:
        """A reusable int64 buffer with one slot per row (contents
        undefined); lets batch code scatter by page id without
        allocating a table-sized array per call."""
        if len(self._scratch) < self.n_pages:
            self._scratch = np.empty(len(self.state), dtype=np.int64)
        return self._scratch

    def take_seq(self, n: int = 1) -> int:
        """Reserve ``n`` consecutive sequence numbers; returns the first."""
        first = self.next_seq
        self.next_seq = first + n
        return first
