"""Equivalence: the page table against the OrderedDict LRU protocol.

The memory manager keeps pages as rows of a numpy page table and LRU
order as sequence numbers, and resolves a batch's resident hits as
array operations with one deferred write per batch. This module keeps
a small reference model of the representation it replaced — one
object per page, each LRU list an ``OrderedDict`` (end = hot head),
every touch applied one at a time in batch order — and drives both
with the same random operation sequences on the same backend seeds.

After every operation the two must agree on each list's cold-to-hot
order, every page's state and active/referenced bits, the vmstat and
byte counters, and every ``touch_batch`` return value. The operations
cover allocation and file registration, batches with repeated ids
(a second touch in one batch promotes), misses that enter direct
reclaim mid-batch under a pinned ``memory.max``, ``memory.reclaim``,
release and container restart.

``touch_batch`` resolves small batches one touch at a time and larger
ones with array passes; every test runs both ways, by moving the
memory manager's threshold (``_MIN_BATCHED``) below and above every
batch it makes.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from typing import Dict, List, Optional

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends.filesystem import FilesystemBackend
from repro.backends.zswap import ZswapBackend
from repro.kernel.lru import ACTIVE, INACTIVE
from repro.kernel.mm import MemoryManager, OutOfMemoryError
from repro.kernel.page import PageKind, PageState
from repro.kernel.reclaim import SCAN_COST_S, TmoReclaimPolicy
from repro.kernel.shadow import ShadowMap
from repro.kernel.vmstat import RateEstimator, VmStat

PAGE = 256 * 1024
MB = 1 << 20
RAM_MB = 32  # 128 pages
SEED = 7

ANON, FILE = PageKind.ANON, PageKind.FILE
RESIDENT, ZSWAPPED = PageState.RESIDENT, PageState.ZSWAPPED
EVICTED, ABSENT = PageState.EVICTED, PageState.ABSENT


def backends():
    return (
        FilesystemBackend("C", np.random.default_rng(SEED)),
        ZswapBackend(np.random.default_rng(SEED + 1)),
    )


# ----------------------------------------------------------------------
# the reference model


class RefPage:
    def __init__(self, pid, kind, state, dirty, compressibility, now):
        self.pid = pid
        self.kind = kind
        self.state = state
        self.active = False
        self.referenced = False
        self.dirty = dirty
        self.compressibility = compressibility
        self.last_access = now
        self.released = False


class RefLruSet:
    """The replaced protocol: two OrderedDicts, hot end last."""

    def __init__(self):
        self.active: "OrderedDict[int, RefPage]" = OrderedDict()
        self.inactive: "OrderedDict[int, RefPage]" = OrderedDict()

    def __len__(self):
        return len(self.active) + len(self.inactive)

    def insert_new(self, page):
        page.active = page.referenced = False
        self.inactive[page.pid] = page

    def insert_active(self, page):
        page.active, page.referenced = True, False
        self.active[page.pid] = page

    def touch(self, page):
        if page.active:
            page.referenced = True
            self.active.move_to_end(page.pid)
        elif page.referenced:
            del self.inactive[page.pid]
            page.active, page.referenced = True, False
            self.active[page.pid] = page
        else:
            page.referenced = True

    def remove(self, page):
        (self.active if page.active else self.inactive).pop(page.pid, None)
        page.active = False

    def needs_deactivation(self):
        return len(self.active) > 2.0 * max(1, len(self.inactive))

    def deactivate_one(self):
        if not self.active:
            return None
        _, page = self.active.popitem(last=False)
        if page.referenced:
            page.referenced = False
            self.active[page.pid] = page
            return None
        page.active = page.referenced = False
        self.inactive[page.pid] = page
        return page

    def scan_tail(self):
        if not self.inactive:
            return None, False
        _, page = self.inactive.popitem(last=False)
        if page.referenced:
            page.referenced, page.active = False, True
            self.active[page.pid] = page
            return page, False
        page.active = False
        return page, True


@dataclasses.dataclass
class RefCgroup:
    anon_bytes: int = 0
    file_bytes: int = 0
    zswap_bytes: int = 0
    memory_max: Optional[int] = None
    vmstat: VmStat = dataclasses.field(default_factory=VmStat)
    shadow: ShadowMap = dataclasses.field(default_factory=ShadowMap)
    refault_rate: RateEstimator = dataclasses.field(
        default_factory=RateEstimator
    )
    swapin_rate: RateEstimator = dataclasses.field(
        default_factory=RateEstimator
    )

    @property
    def resident_bytes(self):
        return self.anon_bytes + self.file_bytes


class RefMM:
    """One cgroup ``app`` under an unlimited root, zswap offload."""

    def __init__(self):
        self.fs, self.swap = backends()
        self.cg = RefCgroup()
        self.lru = {ANON: RefLruSet(), FILE: RefLruSet()}
        self.pages: Dict[int, RefPage] = {}
        self.next_pid = 0
        self.policy = TmoReclaimPolicy()

    def used(self):
        return self.cg.resident_bytes + self.swap.dram_overhead_bytes

    def charge(self, kind, delta):
        if kind == ANON:
            self.cg.anon_bytes += delta
        else:
            self.cg.file_bytes += delta

    # -- charge path ---------------------------------------------------

    def direct_reclaim(self, headroom, now):
        stall = 0.0
        for factor in (1, 4, 16, 64):
            need = max(PAGE - headroom(), PAGE)
            cpu, wait = self.reclaim(need * factor, now, synchronous=True)
            stall += cpu + wait
            if headroom() >= PAGE:
                return stall
        raise OutOfMemoryError("reference OOM")

    def charge_with_reclaim(self, now):
        stall = 0.0
        cg = self.cg
        if cg.memory_max is not None and (
            cg.memory_max - cg.resident_bytes < PAGE
        ):
            cg.vmstat.direct_reclaim += 1
            stall += self.direct_reclaim(
                lambda: cg.memory_max - cg.resident_bytes, now
            )
        if RAM_MB * MB - self.used() < PAGE:
            cg.vmstat.direct_reclaim += 1
            stall += self.direct_reclaim(
                lambda: RAM_MB * MB - self.used(), now
            )
        return stall

    def alloc(self, kind, n, now, resident=True, dirty=False):
        made: List[RefPage] = []
        stall = 0.0
        try:
            for _ in range(n):
                if resident:
                    stall += self.charge_with_reclaim(now)
                page = RefPage(
                    self.next_pid, kind, RESIDENT if resident else ABSENT,
                    dirty and resident, 3.0, now,
                )
                self.next_pid += 1
                self.pages[page.pid] = page
                if resident:
                    self.charge(kind, PAGE)
                    self.lru[kind].insert_new(page)
                made.append(page)
        except OutOfMemoryError:
            for page in made:
                self.release(page.pid)
            raise
        return [p.pid for p in made], stall

    # -- fault path ----------------------------------------------------

    def touch(self, pid, now):
        page = self.pages[pid]
        cg = self.cg
        page.last_access = now
        if page.state == RESIDENT:
            self.lru[page.kind].touch(page)
            return "hit", 0.0, False, False
        if page.state == ZSWAPPED:
            stall = self.charge_with_reclaim(now)
            latency = self.swap.load(
                PAGE, page.compressibility, now, page_id=pid
            )
            self.swap.free(PAGE, page.compressibility, page_id=pid)
            cg.zswap_bytes -= PAGE
            page.state = RESIDENT
            self.charge(ANON, PAGE)
            self.lru[ANON].insert_active(page)
            cg.vmstat.pswpin += 1
            cg.vmstat.pgmajfault += 1
            return "zswapin", stall + latency, True, False
        stall = self.charge_with_reclaim(now)
        latency = self.fs.load(PAGE, page.compressibility, now)
        distance = cg.shadow.reuse_distance(pid)
        if distance is not None and distance >= 1:
            pass  # the reuse-distance histogram is not compared here
        refault = cg.shadow.consume(pid, cg.resident_bytes // PAGE)
        page.state = RESIDENT
        self.charge(FILE, PAGE)
        cg.vmstat.pgpgin_file += 1
        cg.vmstat.pgmajfault += 1
        if refault:
            cg.vmstat.workingset_refault += 1
            self.lru[FILE].insert_active(page)
            return "refault", stall + latency, True, True
        self.lru[FILE].insert_new(page)
        return "file_read", stall + latency, False, True

    def touch_batch(self, pids, now):
        """The replaced semantics: one scalar touch per index, in order."""
        events: Dict[str, int] = {}
        mem = io = both = 0.0
        work = hits = 0
        oom = False
        for pid in pids:
            try:
                event, stall, memstall, iostall = self.touch(pid, now)
            except OutOfMemoryError:
                oom = True
                break
            if event == "hit":
                hits += 1
                continue
            events[event] = events.get(event, 0) + 1
            if stall > 0:
                if memstall and iostall:
                    both += stall
                elif memstall:
                    mem += stall
                elif iostall:
                    io += stall
            work += 1
        if hits:
            events["hit"] = events.get("hit", 0) + hits
            work += hits
        return events, mem, io, both, work, oom

    # -- reclaim -------------------------------------------------------

    def reclaim(self, nr_bytes, now, synchronous=False):
        """``Reclaimer.reclaim`` for one leaf; returns (cpu, stall)."""
        cg = self.cg
        if nr_bytes <= 0 or cg.resident_bytes == 0:
            return 0.0, 0.0
        target = max(1, int(math.ceil(int(math.ceil(nr_bytes)) / PAGE)))
        swap_ok = True
        file_frac = self.policy.file_scan_fraction(cg, swap_ok)
        credit = 0.0
        budget = 8 * target
        done = scanned = 0
        cpu = wait = 0.0
        while done < target and budget > 0:
            credit += file_frac
            if credit >= 1.0 and len(self.lru[FILE]) > 0:
                kind = FILE
                credit -= 1.0
            elif swap_ok and len(self.lru[ANON]) > 0:
                kind = ANON
            elif len(self.lru[FILE]) > 0:
                kind = FILE
            else:
                break
            page, scans = self.isolate(kind)
            budget -= max(1, scans)
            scanned += max(1, scans)
            cg.vmstat.pgscan += max(1, scans)
            if page is None:
                continue
            if kind == FILE:
                if page.dirty:
                    latency = self.fs.store(PAGE, page.compressibility, now)
                    cg.vmstat.pgwriteback += 1
                    page.dirty = False
                    if synchronous:
                        wait += latency
                cg.shadow.record_eviction(page.pid)
                page.state = EVICTED
                cg.vmstat.workingset_evict += 1
                cg.file_bytes -= PAGE
            else:
                age = max(0.0, now - page.last_access)
                cpu += self.swap.store(
                    PAGE, page.compressibility, now, page_id=page.pid,
                    age_s=age,
                )
                page.state = ZSWAPPED
                cg.anon_bytes -= PAGE
                cg.zswap_bytes += PAGE
                cg.vmstat.pswpout += 1
            cg.vmstat.pgsteal += 1
            done += 1
        return cpu + scanned * SCAN_COST_S, wait

    def isolate(self, kind):
        lru, cg = self.lru[kind], self.cg
        scans = 0
        while len(lru.inactive) == 0 and len(lru.active) > 0:
            lru.deactivate_one()
            scans += 1
            cg.vmstat.pgdeactivate += 1
            if scans > len(lru.active) + 1:
                break
        if lru.needs_deactivation():
            if lru.deactivate_one() is not None:
                cg.vmstat.pgdeactivate += 1
            scans += 1
        page, evictable = lru.scan_tail()
        scans += 1
        if page is None or not evictable:
            if page is not None:
                cg.vmstat.pgactivate += 1
            return None, scans
        return page, scans

    # -- lifecycle -----------------------------------------------------

    def release(self, pid):
        page = self.pages[pid]
        if page.released:
            return
        if page.state == RESIDENT:
            self.lru[page.kind].remove(page)
            self.charge(page.kind, -PAGE)
        elif page.state == ZSWAPPED:
            self.swap.free(PAGE, page.compressibility, page_id=pid)
            self.cg.zswap_bytes -= PAGE
        elif page.state == EVICTED:
            self.cg.shadow.forget(pid)
        page.state = ABSENT
        page.released = True


# ----------------------------------------------------------------------
# driving both


def real_mm(path="arrays"):
    fs, swap = backends()
    mm = MemoryManager(RAM_MB * MB, PAGE, fs=fs, swap_backend=swap)
    mm._MIN_BATCHED = BATCH_PATHS[path]
    mm.create_cgroup("app")
    return mm


def assert_same(mm: MemoryManager, ref: RefMM) -> None:
    cg = mm.cgroup("app")
    for kind in (ANON, FILE):
        lru, ref_lru = cg.lru[kind], ref.lru[kind]
        assert lru.members(INACTIVE).tolist() == list(ref_lru.inactive)
        assert lru.members(ACTIVE).tolist() == list(ref_lru.active)
        assert lru.nr == [len(ref_lru.inactive), len(ref_lru.active)]
    table = mm.table
    assert table.n_pages == ref.next_pid
    pids = list(ref.pages)
    assert table.state[pids].tolist() == [ref.pages[p].state for p in pids]
    live = [p for p in pids if ref.pages[p].state == RESIDENT]
    assert table.active[live].tolist() == [ref.pages[p].active for p in live]
    assert table.referenced[live].tolist() == [
        ref.pages[p].referenced for p in live
    ]
    assert table.dirty[pids].tolist() == [ref.pages[p].dirty for p in pids]
    assert table.last_access[pids].tolist() == [
        ref.pages[p].last_access for p in pids
    ]
    assert cg.vmstat == ref.cg.vmstat
    assert (cg.anon_bytes, cg.file_bytes, cg.zswap_bytes) == (
        ref.cg.anon_bytes, ref.cg.file_bytes, ref.cg.zswap_bytes,
    )
    assert cg.memory_max == ref.cg.memory_max


ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 12)),
        st.tuples(
            st.just("register"), st.integers(1, 12), st.booleans(),
            st.booleans(),
        ),
        st.tuples(
            st.just("batch"),
            st.lists(st.integers(0, 10_000), min_size=1, max_size=40),
        ),
        st.tuples(st.just("reclaim"), st.integers(1, 24)),
        st.tuples(st.just("pin"), st.integers(-2, 2)),
        st.tuples(
            st.just("pinned_batch"), st.integers(-1, 1),
            st.lists(st.integers(0, 10_000), min_size=1, max_size=40),
        ),
        st.tuples(st.just("unpin")),
        st.tuples(st.just("release"), st.integers(0, 10_000)),
        st.tuples(st.just("restart")),
        st.tuples(st.just("rates"), st.sampled_from([0.0, 0.5, 5.0])),
    ),
    min_size=3,
    max_size=30,
)


def batch(mm, ref, live, picks, now):
    if not live:
        return
    pages = np.array(live, dtype=np.int64)
    indices = np.array([i % len(live) for i in picks])
    got = mm.touch_batch(pages, indices, now)
    want = ref.touch_batch([live[i] for i in indices], now)
    assert got == want
    # Event order feeds metric recording order: compare it too.
    assert list(got[0]) == list(want[0])


#: ``MemoryManager._MIN_BATCHED`` settings: every batch through the
#: array passes, and every batch one touch at a time.
BATCH_PATHS = {"arrays": 0, "scalar": 1 << 30}


@pytest.fixture(params=sorted(BATCH_PATHS))
def batch_path(request):
    return request.param


def run_ops(sequence, path):
    mm, ref = real_mm(path), RefMM()
    live: List[int] = []
    now = 0.0
    for op in sequence:
        now += 1.0
        kind = op[0]
        if kind in ("alloc", "register"):
            try:
                if kind == "alloc":
                    ids, stall = mm.alloc_anon("app", op[1], now)
                else:
                    ids, stall = mm.register_file(
                        "app", op[1], now, resident=op[2], dirty=op[3],
                    )
                got = (ids.tolist(), stall)
            except OutOfMemoryError:
                got = None
            try:
                if kind == "alloc":
                    want = ref.alloc(ANON, op[1], now)
                else:
                    want = ref.alloc(
                        FILE, op[1], now, resident=op[2], dirty=op[3],
                    )
            except OutOfMemoryError:
                want = None
            assert got == want
            live.extend(got[0] if got else [])
        elif kind == "batch":
            batch(mm, ref, live, op[1], now)
        elif kind == "reclaim":
            mm.memory_reclaim("app", op[1] * PAGE, now)
            ref.reclaim(op[1] * PAGE, now)
        elif kind in ("pin", "pinned_batch"):
            # Pin memory.max just around current usage, so the next
            # batch's misses charge into direct reclaim.
            limit = max(PAGE, ref.cg.resident_bytes + op[1] * PAGE)
            mm.set_memory_max("app", limit, now)
            ref.cg.memory_max = limit
            excess = ref.cg.resident_bytes - limit
            if excess > 0:
                ref.reclaim(excess, now, synchronous=True)
            if kind == "pinned_batch":
                assert_same(mm, ref)
                batch(mm, ref, live, op[2], now)
        elif kind == "unpin":
            mm.set_memory_max("app", None, now)
            ref.cg.memory_max = None
        elif kind == "release" and live:
            pid = live.pop(op[1] % len(live))
            mm.release_page(pid)
            ref.release(pid)
        elif kind == "restart":
            count = mm.release_cgroup_pages("app")
            for pid in live:
                ref.release(pid)
            assert count == len(live)
            live = []
        elif kind == "rates":
            for cg in (mm.cgroup("app"), ref.cg):
                cg.refault_rate.rate = op[1]
                cg.swapin_rate.rate = 0.5
        assert_same(mm, ref)


@pytest.mark.parametrize("path", sorted(BATCH_PATHS))
@given(sequence=ops)
@settings(max_examples=150, deadline=None)
def test_page_table_matches_ordereddict_protocol(path, sequence):
    run_ops(sequence, path)


def test_repeated_ids_in_one_batch_promote(batch_path):
    """A page touched twice in one batch is promoted, once more rotated."""
    run_ops([
        ("register", 6, True, False),
        ("batch", [0, 1, 0, 2, 2, 2, 3, 0, 5, 4, 4]),
        ("batch", [4, 4, 1, 5, 5, 5, 5]),
    ], batch_path)
    mm = real_mm(batch_path)
    ids, _ = mm.register_file("app", 3, 1.0, resident=True)
    mm.touch_batch(ids, np.array([0, 0, 1, 2, 2, 2]), 2.0)
    assert mm.table.active[ids].tolist() == [True, False, True]
    assert mm.table.referenced[ids].tolist() == [False, True, True]


def test_direct_reclaim_mid_batch_sees_earlier_hits(batch_path):
    """Under a pinned memory.max, a miss in the middle of a batch enters
    direct reclaim. Reclaim must see the batch's earlier hits (their
    reference bits protect them) and the batch's later touches must see
    the pages reclaim evicted: both agree with one-at-a-time replay."""
    sequence = [
        ("register", 12, True, False),
        ("register", 6, False, False),
        ("pin", 0),
        # Hits on 0..5 set reference bits; 12.. are absent file pages
        # whose reads charge past the limit; 6.. are touched after.
        ("batch", [0, 1, 2, 3, 4, 5, 12, 6, 7, 13, 0, 8, 14, 9, 6]),
    ]
    run_ops(sequence, batch_path)
    mm = real_mm(batch_path)
    warm, _ = mm.register_file("app", 12, 1.0, resident=True)
    cold, _ = mm.register_file("app", 6, 1.0, resident=False)
    mm.set_memory_max("app", mm.cgroup("app").resident_bytes, 2.0)
    pages = np.concatenate([warm, cold])
    mm.touch_batch(pages, np.array([0, 1, 2, 3, 12, 13, 14]), 3.0)
    vmstat = mm.cgroup("app").vmstat
    assert vmstat.direct_reclaim >= 1
    assert vmstat.pgsteal >= 1
    # The hits before the first miss were written before reclaim ran,
    # so reclaim gave their referenced pages a second chance.
    assert mm.table.state[warm[:4]].tolist() == [PageState.RESIDENT] * 4


def test_misses_between_hits_keep_replay_order(batch_path):
    """Swap-ins in the middle of a batch land on the active list between
    the hits around them, exactly where one-at-a-time replay puts them."""
    promote_all = [i for pid in range(8) for i in (pid, pid)]
    run_ops([
        ("alloc", 8),
        ("batch", promote_all),
        ("reclaim", 2),  # pages 0 and 1 go to zswap
        ("batch", [2, 0, 3, 1, 4]),
    ], batch_path)


def test_tail_cursor_after_batched_rotation(batch_path):
    """Reclaim's tail cursor must not trust the entries it appended once
    a batch has rotated pages onto the same list without entries."""
    promote_all = [i for pid in range(6) for i in (pid, pid)]
    run_ops([
        ("alloc", 6),
        ("batch", promote_all),
        ("reclaim", 1),  # snapshot the active list; page 0 to zswap
        ("batch", [1, 2, 3, 4, 5, 0]),  # rotations, then a swap-in
        ("reclaim", 1),  # the active tail is page 1, not page 0
        ("reclaim", 2),
    ], batch_path)
