"""The memory-management front end.

:class:`MemoryManager` ties together the cgroup tree, the page table,
the LRU/reclaim machinery, the offload backends and the physical DRAM
budget of one host. It exposes the operations workloads and controllers
exercise:

* page allocation and touching (the fault path),
* the ``memory.max`` and ``memory.reclaim`` control files,
* direct reclaim when charges exceed a limit or DRAM runs out.

Pages are integer ids into :attr:`MemoryManager.table`
(:class:`~repro.kernel.page.PageTable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends.base import BackendFaultError, OffloadBackend
from repro.backends.filesystem import FilesystemBackend
from repro.backends.nvm import FarMemoryFullError
from repro.backends.ssd import SwapFullError
from repro.backends.zswap import ZswapPoolFullError
from repro.kernel.cgroup import Cgroup
from repro.kernel.lru import ACTIVE, INACTIVE
from repro.kernel.page import (
    RELEASED,
    PageKind,
    PageState,
    PageTable,
)
from repro.kernel.reclaim import (
    Reclaimer,
    ReclaimOutcome,
    ReclaimPolicy,
    TmoReclaimPolicy,
)

#: CPU cost of submitting one async swap-out write, in seconds.
_SWAP_SUBMIT_COST_S = 5e-6

#: Stall charged to a task whose fault could not be resolved because the
#: backend errored: the kernel's retry path (wait, re-queue, re-issue)
#: costs on the order of an IO timeout slice. The page is untouched and
#: the next access retries.
_FAULT_RETRY_STALL_S = 2e-3

_ANON = int(PageKind.ANON)
_FILE = int(PageKind.FILE)
_RESIDENT = int(PageState.RESIDENT)
_SWAPPED = int(PageState.SWAPPED)
_ZSWAPPED = int(PageState.ZSWAPPED)
_EVICTED = int(PageState.EVICTED)
_ABSENT = int(PageState.ABSENT)


class OutOfMemoryError(RuntimeError):
    """Raised when a charge cannot be satisfied even after reclaim."""


@dataclass
class FaultResult:
    """Outcome of touching one page.

    Attributes:
        page_id: the touched page.
        event: one of ``hit``, ``swapin``, ``zswapin``, ``refault``,
            ``file_read``, ``swapin_error``, ``fileread_error`` — what
            the access turned into. The ``*_error`` events mean a
            backend fault interrupted resolution: the page's state is
            unchanged and the next access retries.
        stall_seconds: total delay charged to the touching task.
        memstall: the delay counts toward memory pressure.
        iostall: the delay counts toward IO pressure.
    """

    page_id: int
    event: str
    stall_seconds: float = 0.0
    memstall: bool = False
    iostall: bool = False


class _PendingHits:
    """The resident hits of one ``touch_batch`` stretch, not yet written.

    A stretch is a run of the batch with no reclaim inside it. Its
    positions split into *hits* (pages resident when the stretch began,
    resolved here as array operations) and *scalar* positions (pages
    that were not resident, resolved one at a time in order). The two
    sets touch disjoint pages, so the hits' column writes can be
    deferred to one flush; only their LRU sequence numbers interleave
    with the scalar positions', and those are computed exactly: an
    event at position ``p`` takes ``base`` plus the number of hit
    events and scalar-path sequence numbers before ``p`` — what an
    in-order scalar replay would give it.
    """

    def __init__(
        self, table: PageTable, seg: np.ndarray, hit_pos: np.ndarray,
        now: float,
    ) -> None:
        self.table = table
        self.seg = seg
        self.hit_pos = hit_pos
        self.now = now
        self.base = table.next_seq
        #: Per scalar step done: the hit events before it, and the
        #: sequence numbers the scalar path had taken once it was done.
        self.scalar_before: List[int] = []  # tmo-lint: transient -- per call
        self.scalar_taken: List[int] = []  # tmo-lint: transient -- per call
        #: Position of the scalar step in progress (the flush limit).
        self.limit = len(seg)  # tmo-lint: transient -- per call
        #: Hits written by :meth:`flush`.
        self.flushed = 0
        self._step_base = self.base  # tmo-lint: transient -- per call
        self._whole = self._plan(hit_pos)
        self.event_pos = self._whole[0]

    def _plan(self, hit_pos: np.ndarray):
        """Resolve the referenced-bit protocol for ``hit_pos``.

        Returns ``(event_pos, pages, active, referenced, moved,
        last_event, promoted)``: the positions whose touch rotates or
        promotes (and so takes a sequence number); per distinct page its
        final active and referenced bits; the pages whose LRU position
        changed, the index in ``event_pos`` of each one's last event,
        and which of them moved from the inactive to the active list.

        A page with ``c`` touches, starting active ``a`` / referenced
        ``r``: its first ``need = 0 if (a or r) else 1`` touches take no
        sequence number, every later one does; it ends active when
        ``a or c > need``, referenced when ``a``, or when ``c == need``
        (one touch set the bit), or when ``c - need >= 2`` (a rotation
        followed the promotion).
        """
        table = self.table
        pids = self.seg[hit_pos]
        n = len(pids)
        mark = table.scratch()
        order = np.arange(n, dtype=np.int64)
        mark[pids] = order
        if bool(np.all(mark[pids] == order)):
            # Every page touched once: c == 1, so each event is its
            # page's last, and events come in page order.
            a0 = table.active[pids]
            r0 = table.referenced[pids]
            events = a0 | r0
            return (
                hit_pos[events], pids, events, a0 | ~r0, pids[events],
                slice(None), ~a0[events],
            )
        # Repeated ids: group positions by page, in position order.
        by_page = np.argsort(pids, kind="stable")
        sorted_pids = pids[by_page]
        first = np.ones(n, dtype=bool)
        first[1:] = sorted_pids[1:] != sorted_pids[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, n))
        group = np.cumsum(first) - 1
        pages = sorted_pids[starts]
        a0 = table.active[pages]
        r0 = table.referenced[pages]
        need = (~(a0 | r0)).astype(np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[by_page] = order - starts[group]
        owner = np.empty(n, dtype=np.int64)
        owner[by_page] = group
        events = rank >= need[owner]
        moved = counts > need
        last_touch = by_page[starts + counts - 1]
        return (
            hit_pos[events],
            pages,
            a0 | moved,
            a0 | (counts == need) | (counts - need >= 2),
            pages[moved],
            (np.cumsum(events)[last_touch] - 1)[moved],
            ~a0[moved],
        )

    def scalar_steps(self, scalar: np.ndarray) -> List[Tuple[int, int, int]]:
        """``(position, page, hit events before it)`` for each position
        of the ``scalar`` mask, in order."""
        positions = np.flatnonzero(scalar)
        before = np.searchsorted(self.event_pos, positions)
        return list(zip(
            positions.tolist(), self.seg[positions].tolist(), before.tolist()
        ))

    def begin_step(self, pos: int, hits_before: int) -> None:
        """Set up the scalar step at ``pos``: it is the flush limit, and
        the sequence counter skips the numbers of the ``hits_before``
        hit events ahead of it."""
        self.limit = pos
        self._step_base = self.base + hits_before
        taken = self.scalar_taken[-1] if self.scalar_taken else 0
        self.table.next_seq = self._step_base + taken

    def end_step(self) -> None:
        """Record the sequence numbers taken through the current step."""
        self.scalar_before.append(self._step_base - self.base)
        self.scalar_taken.append(self.table.next_seq - self._step_base)

    def flush(self, cgroups: List[Cgroup]) -> int:
        """Write the hits before :attr:`limit`; returns how many."""
        table = self.table
        hit_pos = self.hit_pos
        plan = self._whole
        if self.limit < len(self.seg):
            hit_pos = hit_pos[: np.searchsorted(hit_pos, self.limit)]
            plan = self._plan(hit_pos)
        event_pos, pages, active, referenced, moved, last, promoted = plan
        table.last_access[self.seg[hit_pos]] = self.now
        table.active[pages] = active
        table.referenced[pages] = referenced
        n_events = len(event_pos)
        if n_events:
            seqs = self.base + np.arange(n_events, dtype=np.int64)
            if self.scalar_before:
                # Events between two scalar steps sit behind every
                # number the scalar path took before them.
                seqs += np.repeat(
                    [0] + self.scalar_taken,
                    np.diff([0] + self.scalar_before + [n_events]),
                )
            table.seq[moved] = seqs[last]
            if promoted.any():
                # Promoted pages changed lists: move their counts.
                up = moved[promoted]
                keys = table.cgroup[up].astype(np.int64) * 2 + table.kind[up]
                for key, count in enumerate(np.bincount(keys).tolist()):
                    if count:
                        nr = cgroups[key >> 1].lru[key & 1].nr
                        nr[INACTIVE] -= count
                        nr[ACTIVE] += count
        return len(hit_pos)

    def end_seq(self) -> int:
        """``next_seq`` once the whole stretch is written."""
        taken = self.scalar_taken[-1] if self.scalar_taken else 0
        return self.base + len(self.event_pos) + taken


class MemoryManager:
    """All memory-management state of one simulated host."""

    def __init__(
        self,
        ram_bytes: int,
        page_size_bytes: int,
        fs: FilesystemBackend,
        swap_backend: Optional[OffloadBackend] = None,
        policy: Optional[ReclaimPolicy] = None,
    ) -> None:
        """
        Args:
            ram_bytes: physical DRAM of the host.
            page_size_bytes: bytes represented by one simulated page (the
                granularity scale knob; all rates are in bytes/sec so
                results are granularity-independent).
            fs: the filesystem backend serving file pages.
            swap_backend: where anonymous pages offload to — an
                :class:`~repro.backends.ssd.SsdSwapBackend`, a
                :class:`~repro.backends.zswap.ZswapBackend`, or None for
                file-only mode (Section 5.1's first deployment phase).
            policy: reclaim balancing policy; TMO's by default.
        """
        if ram_bytes <= 0 or page_size_bytes <= 0:
            raise ValueError("ram_bytes and page_size_bytes must be positive")
        if ram_bytes < page_size_bytes:
            raise ValueError("host RAM smaller than one page")
        self.ram_bytes = ram_bytes
        self.page_size_bytes = page_size_bytes
        self.fs = fs
        self.swap_backend = swap_backend
        #: Every page's attributes, one numpy column each.
        self.table = PageTable()
        self.root = Cgroup(
            "root", page_size_bytes=page_size_bytes, table=self.table,
        )
        self._cgroups: Dict[str, Cgroup] = {"root": self.root}
        #: Cgroups by their ``cgroup`` column index.
        self._cgroup_list: List[Cgroup] = [self.root]
        self.reclaimer = Reclaimer(self, policy or TmoReclaimPolicy())
        #: The hits of the ``touch_batch`` stretch in progress.
        self._pending_hits: Optional[_PendingHits] = None  # tmo-lint: transient -- per call
        #: CPU seconds consumed by proactive (controller-driven) reclaim.
        self.proactive_cpu_seconds = 0.0
        #: Stall charged per backend-fault retry (tunable for tests).
        self.retry_stall_s = _FAULT_RETRY_STALL_S
        #: Swap-backend operation attempts and transient-fault failures.
        #: Controllers (Senpai's circuit breaker) diff these between
        #: polls to detect a failing offload backend.
        self.swap_op_count = 0
        self.swap_fault_count = 0
        #: Same counters for the filesystem device.
        self.fs_op_count = 0
        self.fs_fault_count = 0
        #: kswapd watermarks: background reclaim starts when free memory
        #: drops under ``low`` and works back up to ``high``. Keeps the
        #: allocation path out of (blocking) direct reclaim for as long
        #: as possible, like the kernel's background reclaim daemon.
        self.kswapd_low_frac = 0.02
        self.kswapd_high_frac = 0.04
        #: Cumulative bytes reclaimed in the background.
        self.kswapd_reclaimed_bytes = 0

    # ------------------------------------------------------------------
    # cgroup management

    def create_cgroup(
        self,
        name: str,
        parent: str = "root",
        compressibility: float = 3.0,
    ) -> Cgroup:
        """Create a cgroup under ``parent``."""
        if name in self._cgroups:
            raise ValueError(f"cgroup {name!r} already exists")
        cgroup = Cgroup(
            name,
            page_size_bytes=self.page_size_bytes,
            parent=self._cgroups[parent],
            compressibility=compressibility,
            table=self.table,
            index=len(self._cgroup_list),
        )
        self._cgroups[name] = cgroup
        self._cgroup_list.append(cgroup)
        return cgroup

    def cgroup(self, name: str) -> Cgroup:
        return self._cgroups[name]

    def cgroups(self) -> List[Cgroup]:
        return list(self._cgroups.values())

    def pages(self, cgroup_name: Optional[str] = None) -> np.ndarray:
        """Ids of all live pages, optionally filtered to one cgroup.

        Used by profiling tools and invariant checks; the fault path
        never scans the table.
        """
        if cgroup_name is None:
            return self.table.live()
        index = self._cgroups[cgroup_name].index
        table = self.table
        return np.flatnonzero(table.cgroup[: table.n_pages] == index)

    # ------------------------------------------------------------------
    # capacity accounting

    @property
    def zswap_pool_bytes(self) -> int:
        if self.swap_backend is None:
            return 0
        return self.swap_backend.dram_overhead_bytes

    def used_bytes(self) -> int:
        """Physical DRAM in use: resident pages plus the zswap pool."""
        return self.root.current_bytes() + self.zswap_pool_bytes

    def free_bytes(self) -> int:
        return self.ram_bytes - self.used_bytes()

    def swap_available(self, nbytes: int) -> bool:
        """Whether the swap backend can absorb ``nbytes`` more."""
        backend = self.swap_backend
        if backend is None:
            return False
        free = getattr(backend, "free_bytes", None)
        if free is not None and free < nbytes:
            return False
        max_pool = getattr(backend, "max_pool_bytes", None)
        if max_pool is not None and backend.dram_overhead_bytes + nbytes > max_pool:
            return False
        return True

    # ------------------------------------------------------------------
    # control files

    def set_memory_max(
        self, cgroup_name: str, limit: Optional[int], now: float
    ) -> ReclaimOutcome:
        """Write ``memory.max``: lowering below usage reclaims the excess.

        The write blocks (synchronously reclaims) like the kernel's —
        this statefulness is exactly what made the early limit-based
        Senpai problematic (Section 3.3).
        """
        cgroup = self._cgroups[cgroup_name]
        cgroup.memory_max = limit
        outcome = ReclaimOutcome(requested_bytes=0)
        if limit is not None:
            excess = cgroup.current_bytes() - limit
            if excess > 0:
                outcome = self.reclaimer.reclaim(
                    cgroup, excess, now, synchronous=True
                )
        return outcome

    def memory_reclaim(
        self,
        cgroup_name: str,
        nr_bytes: int,
        now: float,
        file_only: bool = False,
    ) -> ReclaimOutcome:
        """Write ``memory.reclaim``: stateless proactive reclaim.

        The knob the paper added upstream — asks the kernel to reclaim
        exactly ``nr_bytes`` without touching any limit, so an expanding
        workload is never blocked.

        Args:
            file_only: restrict reclaim to the file LRU (deployment's
                file-only phase, or write-endurance regulation).
        """
        cgroup = self._cgroups[cgroup_name]
        outcome = self.reclaimer.reclaim(
            cgroup, nr_bytes, now, synchronous=False, file_only=file_only
        )
        self.proactive_cpu_seconds += outcome.cpu_seconds
        return outcome

    # ------------------------------------------------------------------
    # allocation and the fault path

    def _no_reclaim_room(self, cgroup: Cgroup) -> int:
        """Pages chargeable to ``cgroup`` before the charge path would
        enter direct reclaim (every limited ancestor and free DRAM keep
        at least one page of room until then)."""
        room = self.free_bytes()
        limit = self._tightest_limit(cgroup)
        if limit is not None:
            room = min(room, limit[1])
        return max(0, room // self.page_size_bytes)

    def _add_resident(
        self,
        cgroup: Cgroup,
        kind: int,
        npages: int,
        now: float,
        dirty: bool,
        compressibility: float,
    ) -> np.ndarray:
        """Charge ``npages`` new pages and insert them, in id order, at
        the inactive head of their list."""
        ids = self.table.append(
            npages, cgroup.index, kind, _RESIDENT, dirty, compressibility, now,
        )
        cgroup.lru[kind].insert_new_many(ids)
        cgroup.charge(kind, npages * self.page_size_bytes)
        return ids

    def _alloc_resident(
        self,
        cgroup: Cgroup,
        kind: int,
        npages: int,
        now: float,
        dirty: bool,
        compressibility: float,
    ) -> Tuple[np.ndarray, float]:
        """Allocate resident pages; returns ``(ids, stall_seconds)``.

        Runs of pages that fit without reclaim are added in one step;
        otherwise each page goes through the charge path, which may
        enter direct reclaim (a memory stall for the allocating task).
        """
        chunks: List[np.ndarray] = []
        stall = 0.0
        done = 0
        try:
            while done < npages:
                fit = min(self._no_reclaim_room(cgroup), npages - done)
                if fit == 0:
                    stall += self._charge_with_reclaim(cgroup, now)
                    fit = 1
                chunks.append(self._add_resident(
                    cgroup, kind, fit, now, dirty, compressibility,
                ))
                done += fit
        except OutOfMemoryError:
            # Atomic semantics: an OOM mid-batch releases the pages
            # already allocated rather than leaking untracked charges.
            for ids in chunks:
                self.release_pages(ids)
            raise
        if len(chunks) == 1:
            return chunks[0], stall
        return np.concatenate(chunks or [np.empty(0, np.int64)]), stall

    def alloc_anon(
        self,
        cgroup_name: str,
        npages: int,
        now: float,
        compressibility: Optional[float] = None,
    ) -> Tuple[np.ndarray, float]:
        """Allocate anonymous pages; returns ``(page_ids, stall_seconds)``.

        The charge path may enter direct reclaim, whose cost is the
        returned stall (a memory stall for the allocating task).
        """
        cgroup = self._cgroups[cgroup_name]
        if compressibility is None:
            compressibility = cgroup.compressibility
        return self._alloc_resident(
            cgroup, _ANON, npages, now, False, compressibility,
        )

    def register_file(
        self,
        cgroup_name: str,
        npages: int,
        now: float,
        resident: bool = False,
        dirty: bool = False,
        compressibility: Optional[float] = None,
    ) -> Tuple[np.ndarray, float]:
        """Declare file-backed pages; returns ``(page_ids, stall_seconds)``.

        With ``resident=False`` the pages start on disk (first touch
        reads them in); with ``resident=True`` they are preloaded into
        the page cache (Web's start-up behaviour in Section 4.2).
        """
        cgroup = self._cgroups[cgroup_name]
        if compressibility is None:
            compressibility = cgroup.compressibility
        if resident:
            return self._alloc_resident(
                cgroup, _FILE, npages, now, dirty, compressibility,
            )
        ids = self.table.append(
            npages, cgroup.index, _FILE, _ABSENT, False, compressibility, now,
        )
        return ids, 0.0

    def touch(self, page_id: int, now: float) -> FaultResult:
        """Access one page, resolving whatever fault its state implies."""
        cells = self.table.cells
        cells.last_access[page_id] = now
        state = cells.state[page_id]
        cgroup = self._cgroup_list[cells.cgroup[page_id]]

        if state == _RESIDENT:
            cgroup.lru[cells.kind[page_id]].touch(page_id)
            return FaultResult(page_id=page_id, event="hit")

        compressibility = cells.compressibility[page_id]
        if state == _ZSWAPPED or state == _SWAPPED:
            # A zswap load resolves in DRAM; an SSD swap-in waits on IO.
            on_disk = state == _SWAPPED
            stall = self._charge_with_reclaim(cgroup, now)
            self.swap_op_count += 1
            try:
                latency = self.swap_backend.load(
                    self.page_size_bytes, compressibility, now,
                    page_id=page_id,
                )
            except BackendFaultError:
                # Refault-with-retry: the page stays offloaded and its
                # backend bytes stay accounted — nothing was mutated —
                # so the next access simply retries. The task eats a
                # retry stall, counted like the fault it failed to
                # resolve.
                self.swap_fault_count += 1
                return FaultResult(
                    page_id=page_id, event="swapin_error",
                    stall_seconds=stall + self.retry_stall_s,
                    memstall=True, iostall=on_disk,
                )
            self.swap_backend.free(
                self.page_size_bytes, compressibility, page_id=page_id
            )
            if on_disk:
                cgroup.swap_bytes -= self.page_size_bytes
            else:
                cgroup.zswap_bytes -= self.page_size_bytes
            cells.state[page_id] = _RESIDENT
            cgroup.charge(_ANON, self.page_size_bytes)
            cgroup.lru[_ANON].insert_active(page_id)
            cgroup.vmstat.pswpin += 1
            cgroup.vmstat.pgmajfault += 1
            return FaultResult(
                page_id=page_id, event="swapin" if on_disk else "zswapin",
                stall_seconds=stall + latency, memstall=True,
                iostall=on_disk,
            )

        # EVICTED or ABSENT file page: read from the filesystem.
        stall = self._charge_with_reclaim(cgroup, now)
        self.fs_op_count += 1
        try:
            latency = self.fs.load(self.page_size_bytes, compressibility, now)
        except BackendFaultError:
            # Failed read: page stays EVICTED/ABSENT (its backing copy
            # is intact); the next access retries the read.
            self.fs_fault_count += 1
            return FaultResult(
                page_id=page_id, event="fileread_error",
                stall_seconds=stall + self.retry_stall_s,
                memstall=False, iostall=True,
            )
        distance = cgroup.shadow.reuse_distance(page_id)
        if distance is not None and distance >= 1:
            cgroup.record_reuse_distance(distance)
        refault = cgroup.shadow.consume(page_id, cgroup.resident_pages)
        cells.state[page_id] = _RESIDENT
        cgroup.charge(_FILE, self.page_size_bytes)
        cgroup.vmstat.pgpgin_file += 1
        cgroup.vmstat.pgmajfault += 1
        if refault:
            cgroup.vmstat.workingset_refault += 1
            cgroup.lru[_FILE].insert_active(page_id)
            return FaultResult(
                page_id=page_id, event="refault",
                stall_seconds=stall + latency, memstall=True, iostall=True,
            )
        cgroup.lru[_FILE].insert_new(page_id)
        return FaultResult(
            page_id=page_id, event="file_read",
            stall_seconds=stall + latency, memstall=False, iostall=True,
        )

    def touch_batch(
        self,
        pages: np.ndarray,
        indices: np.ndarray,
        now: float,
    ) -> Tuple[Dict[str, int], float, float, float, int, bool]:
        """Access ``pages[i]`` for each ``i`` in ``indices``, aggregated.

        Semantically identical to calling :meth:`touch` per index in
        order — same fault resolution, same device/RNG streams, same
        LRU order, same "OOM abandons the rest of the quantum"
        behaviour — but pages resident when the batch (or the stretch
        since the last reclaim inside it) began are resolved as array
        operations over the page table, written in one flush (see
        :class:`_PendingHits`). Only the other pages go through
        :meth:`touch`, one at a time, in encounter order. A direct
        reclaim inside one of those touches first writes the pending
        hits before it (:meth:`_direct_reclaim`); the rest of the batch
        then starts a new stretch from the post-reclaim residency.

        Returns ``(events, stall_mem_s, stall_io_s, stall_both_s,
        work_done, oom)`` with events counted in encounter order and
        stalls bucketed the way :meth:`repro.workloads.base.Workload.
        _accumulate` buckets them.
        """
        table = self.table
        cgroups = self._cgroup_list
        touch = self.touch
        pids = np.asarray(pages, dtype=np.int64)[indices]
        events: Dict[str, int] = {}
        stall_mem = stall_io = stall_both = 0.0
        work_done = 0
        hits = 0
        oom = False
        start = 0
        try:
            while start < len(pids):
                seg = pids[start:]
                if len(seg) < self._MIN_BATCHED:
                    # Too few touches for the array passes to pay for
                    # their set-up: every touch is a scalar step.
                    pending = None
                    steps = zip(range(len(seg)), seg.tolist(), repeat(0))
                else:
                    resident = table.state[seg] == _RESIDENT
                    pending = _PendingHits(
                        table, seg, np.flatnonzero(resident), now
                    )
                    steps = pending.scalar_steps(~resident)
                self._pending_hits = pending
                cells = table.cells
                restart = None
                for pos, pid, before in steps:
                    if pending is not None:
                        pending.begin_step(pos, before)
                    if cells.state[pid] == _RESIDENT:
                        cells.last_access[pid] = now
                        cgroups[cells.cgroup[pid]].lru[
                            cells.kind[pid]
                        ].touch(pid)
                        hits += 1
                    else:
                        try:
                            result = touch(pid, now)
                        except OutOfMemoryError:
                            oom = True
                            break
                        event = result.event
                        events[event] = events.get(event, 0) + 1
                        stall = result.stall_seconds
                        if stall > 0:
                            if result.memstall:
                                if result.iostall:
                                    stall_both += stall
                                else:
                                    stall_mem += stall
                            elif result.iostall:
                                stall_io += stall
                        work_done += 1
                    if pending is not None:
                        if self._pending_hits is None:
                            # A reclaim ran and wrote the hits before
                            # ``pos``.
                            restart = start + pos + 1
                            break
                        pending.end_step()
                else:
                    if pending is not None:
                        pending.limit = len(seg)
                if pending is None:
                    break
                if self._pending_hits is not None:
                    self._flush_pending_hits()
                    if not oom:
                        table.next_seq = pending.end_seq()
                hits += pending.flushed
                if restart is None:
                    break
                start = restart
        finally:
            self._pending_hits = None
        if hits:
            events["hit"] = events.get("hit", 0) + hits
            work_done += hits
        return events, stall_mem, stall_io, stall_both, work_done, oom

    def _flush_pending_hits(self) -> None:
        """Write the pending hits of ``touch_batch``."""
        pending = self._pending_hits
        self._pending_hits = None
        pending.flushed = pending.flush(self._cgroup_list)

    # ------------------------------------------------------------------
    # charge path / direct reclaim

    def _tightest_limit(self, cgroup: Cgroup) -> Optional[Tuple[Cgroup, int]]:
        """The most-constrained limited ancestor and its headroom."""
        tightest: Optional[Tuple[Cgroup, int]] = None
        node: Optional[Cgroup] = cgroup
        while node is not None:
            if node.memory_max is not None:
                room = node.memory_max - node.current_bytes()
                if tightest is None or room < tightest[1]:
                    tightest = (node, room)
            node = node.parent
        return tightest

    #: ``touch_batch`` resolves batches of fewer touches one touch at a
    #: time: below this, the array passes' fixed cost (numpy calls of a
    #: few microseconds each) outweighs the per-touch work they save.
    _MIN_BATCHED = 256

    #: Direct reclaim retries with escalating targets before declaring
    #: OOM, mirroring the kernel's scan-priority escalation: a larger
    #: target buys a larger scan budget, which clears reference bits on
    #: a hot LRU tail until a victim emerges.
    _RECLAIM_PRIORITIES = (1, 4, 16, 64)

    def _direct_reclaim(
        self, target: Cgroup, headroom, now: float
    ) -> float:
        """Escalating synchronous reclaim until ``headroom()`` suffices.

        Returns the accumulated stall; raises when even the highest
        escalation makes no room.
        """
        if self._pending_hits is not None:
            # Reclaim inside touch_batch: it reads reference bits and
            # LRU order, so the batch's earlier hits must land first.
            self._flush_pending_hits()
        stall = 0.0
        for factor in self._RECLAIM_PRIORITIES:
            need = max(self.page_size_bytes - headroom(), self.page_size_bytes)
            outcome = self.reclaimer.reclaim(
                target, need * factor, now, synchronous=True
            )
            stall += outcome.cpu_seconds + outcome.stall_seconds
            if headroom() >= self.page_size_bytes:
                return stall
        raise OutOfMemoryError(
            f"no reclaim progress against {target.name!r} "
            f"(host {self.used_bytes()}/{self.ram_bytes} bytes used)"
        )

    def _charge_with_reclaim(self, cgroup: Cgroup, now: float) -> float:
        """Make room for one page charge; return the stall incurred."""
        stall = 0.0
        limit = self._tightest_limit(cgroup)
        if limit is not None:
            limited, room = limit
            if room < self.page_size_bytes:
                cgroup.vmstat.direct_reclaim += 1
                stall += self._direct_reclaim(
                    limited,
                    lambda: limited.memory_max - limited.current_bytes(),
                    now,
                )
        if self.free_bytes() < self.page_size_bytes:
            cgroup.vmstat.direct_reclaim += 1
            stall += self._direct_reclaim(
                self.root, self.free_bytes, now
            )
        return stall

    # ------------------------------------------------------------------
    # backend operations

    def swap_out(self, page_id: int, now: float) -> Optional[float]:
        """Offload one anonymous page; returns CPU seconds or None if full.

        Swap writes are submitted asynchronously (the reclaiming context
        does not wait for the device), so only the submit/compress CPU
        cost is returned.
        """
        backend = self.swap_backend
        if backend is None:
            return None
        cells = self.table.cells
        cgroup = self._cgroup_list[cells.cgroup[page_id]]
        if cgroup.swap_max is not None:
            used = cgroup.swap_bytes + cgroup.zswap_bytes
            if used + self.page_size_bytes > cgroup.swap_max:
                return None  # memory.swap.max reached: fall back to file
        age_s = max(0.0, now - cells.last_access[page_id])
        self.swap_op_count += 1
        try:
            cost = backend.store(
                self.page_size_bytes, cells.compressibility[page_id],
                now, page_id=page_id, age_s=age_s,
            )
        except (SwapFullError, ZswapPoolFullError, FarMemoryFullError):
            return None
        except BackendFaultError:
            # The store never happened (backends issue the device op
            # before touching accounting), so the page simply stays
            # resident; reclaim falls back to the file LRU this pass.
            self.swap_fault_count += 1
            return None
        tier_of = getattr(backend, "tier_of", None)
        if tier_of is not None:
            on_disk = tier_of(page_id) == "ssd"
        else:
            on_disk = backend.blocks_on_io
        if on_disk:
            cells.state[page_id] = _SWAPPED
            return _SWAP_SUBMIT_COST_S
        cells.state[page_id] = _ZSWAPPED
        return cost  # compression CPU

    # ------------------------------------------------------------------
    # lifecycle helpers

    def release_page(self, page_id: int) -> None:
        """Free a page entirely (application exit / cache truncation)."""
        cells = self.table.cells
        index = cells.cgroup[page_id]
        if index == RELEASED:
            return
        cgroup = self._cgroup_list[index]
        state = cells.state[page_id]
        if state == _RESIDENT:
            kind = cells.kind[page_id]
            cgroup.lru[kind].remove(page_id)
            cgroup.uncharge(kind, self.page_size_bytes)
        elif state == _SWAPPED or state == _ZSWAPPED:
            self.swap_backend.free(
                self.page_size_bytes, cells.compressibility[page_id],
                page_id=page_id,
            )
            if state == _SWAPPED:
                cgroup.swap_bytes -= self.page_size_bytes
            else:
                cgroup.zswap_bytes -= self.page_size_bytes
        elif state == _EVICTED:
            cgroup.shadow.forget(page_id)
        cells.state[page_id] = _ABSENT
        cells.cgroup[page_id] = RELEASED

    def release_pages(self, page_ids: np.ndarray) -> None:
        """:meth:`release_page` for each id, in the order given."""
        for pid in np.asarray(page_ids).tolist():
            self.release_page(pid)

    def release_cgroup_pages(self, cgroup_name: str) -> int:
        """Drop every page of a cgroup (container restart). Returns count."""
        doomed = self.pages(cgroup_name)
        self.release_pages(doomed)
        return len(doomed)

    # ------------------------------------------------------------------
    # periodic maintenance

    def kswapd(self, now: float) -> int:
        """One background-reclaim pass; returns bytes reclaimed.

        Runs when free memory is below the low watermark, reclaiming
        toward the high watermark. Asynchronous: its cost is kernel CPU,
        never an application stall.
        """
        low = int(self.kswapd_low_frac * self.ram_bytes)
        high = int(self.kswapd_high_frac * self.ram_bytes)
        if self.free_bytes() >= low:
            return 0
        total = 0
        # Iterate: freeing a page into zswap grows the pool, so the net
        # free gain per reclaimed byte can be fractional.
        for _ in range(8):
            shortfall = high - self.free_bytes()
            if shortfall <= 0:
                break
            outcome = self.reclaimer.reclaim(
                self.root, shortfall, now, synchronous=False
            )
            self.proactive_cpu_seconds += outcome.cpu_seconds
            total += outcome.reclaimed_bytes
            if outcome.reclaimed_bytes == 0:
                break
        self.kswapd_reclaimed_bytes += total
        return total

    def on_tick(self, now: float, dt: float) -> None:
        """Advance device state, rate estimators and background reclaim."""
        self.fs.on_tick(now, dt)
        if self.swap_backend is not None:
            self.swap_backend.on_tick(now, dt)
        for cgroup in self._cgroups.values():
            cgroup.update_rates(dt)
        self.kswapd(now)
