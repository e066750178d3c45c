"""Unit tests for the LRU lists and the active/inactive pair.

Lists live in the page table: a page's list is its (cgroup, kind,
active) columns and its position is its ``seq`` column, so these tests
build a small table and drive one :class:`LruVec` over it.
"""

import numpy as np

from repro.kernel.lru import ACTIVE, INACTIVE, LruVec
from repro.kernel.page import UNLISTED, PageKind, PageState, PageTable


def lruvec(kind=PageKind.ANON, npages=16):
    """An LruVec for cgroup 0 over a table of ``npages`` unlisted pages."""
    table = PageTable()
    table.append(npages, 0, kind, PageState.RESIDENT, False, 3.0, 0.0)
    return LruVec(table, 0, kind)


def test_empty_list():
    lru = lruvec()
    assert len(lru) == 0
    assert lru.tail(INACTIVE) is None
    assert lru.tail(ACTIVE) is None
    assert lru.scan_tail() == (None, False)
    assert lru.deactivate_one() is None


def test_head_insert_order():
    lru = lruvec()
    lru.insert_new(1)
    lru.insert_new(2)
    assert lru.tail(INACTIVE) == 1  # 1 is coldest


def test_readding_rotates_to_head():
    lru = lruvec()
    lru.insert_active(1)
    lru.insert_active(2)
    lru.touch(1)  # an active page's touch rotates it to the head
    assert lru.tail(ACTIVE) == 2
    assert lru.members(ACTIVE).tolist() == [2, 1]


def test_remove_and_discard():
    lru = lruvec()
    lru.insert_new(1)
    lru.remove(1)
    assert len(lru) == 0
    assert lru.table.seq[1] == UNLISTED
    lru.remove(1)  # absent: no error, lengths untouched
    assert lru.nr == [0, 0]


def test_iteration_cold_to_hot():
    lru = lruvec()
    for pid in range(3):
        lru.insert_new(pid)
    assert lru.members(INACTIVE).tolist() == [0, 1, 2]


def test_new_pages_enter_inactive():
    lru = lruvec(PageKind.FILE)
    lru.insert_new(1)
    assert not lru.table.active[1]
    assert lru.nr[INACTIVE] == 1
    assert lru.nr[ACTIVE] == 0


def test_second_touch_promotes():
    lru = lruvec(PageKind.FILE)
    lru.insert_new(1)
    assert not lru.touch(1)  # first touch: reference bit only
    assert lru.table.referenced[1]
    assert lru.touch(1)      # second touch: promotion
    assert lru.table.active[1]
    assert lru.nr[ACTIVE] == 1
    assert lru.nr[INACTIVE] == 0


def test_touch_active_page_rotates():
    lru = lruvec()
    lru.insert_active(1)
    lru.insert_active(2)
    lru.touch(1)
    assert lru.tail(ACTIVE) == 2


def test_insert_active_for_refaults():
    lru = lruvec(PageKind.FILE)
    lru.insert_active(1)
    assert lru.table.active[1]
    assert lru.nr[ACTIVE] == 1


def test_remove_from_either_list():
    lru = lruvec()
    lru.insert_new(1)
    lru.insert_active(2)
    lru.remove(1)
    lru.remove(2)
    assert len(lru) == 0


def test_needs_deactivation_ratio():
    lru = lruvec()
    for pid in range(5):
        lru.insert_active(pid)
    assert lru.needs_deactivation()  # 5 active vs 0 inactive
    lru.insert_new(10)
    lru.insert_new(11)
    lru.insert_new(12)
    assert not lru.needs_deactivation()  # 5 <= 2*3


def test_deactivate_one_moves_cold_active():
    lru = lruvec()
    lru.insert_active(1)
    lru.insert_active(2)
    demoted = lru.deactivate_one()
    assert demoted == 1
    assert not lru.table.active[1]
    assert lru.nr[INACTIVE] == 1


def test_deactivate_gives_referenced_page_second_chance():
    lru = lruvec()
    lru.insert_active(1)
    lru.table.referenced[1] = True
    assert lru.deactivate_one() is None  # rotated, bit cleared
    assert not lru.table.referenced[1]
    assert lru.table.active[1]


def test_scan_tail_evicts_unreferenced():
    lru = lruvec(PageKind.FILE)
    lru.insert_new(1)
    victim, evictable = lru.scan_tail()
    assert victim == 1
    assert evictable
    assert len(lru) == 0
    assert lru.table.seq[1] == UNLISTED  # isolated: on no list


def test_scan_tail_reactivates_referenced():
    lru = lruvec(PageKind.FILE)
    lru.insert_new(1)
    lru.table.referenced[1] = True
    victim, evictable = lru.scan_tail()
    assert victim == 1
    assert not evictable
    assert lru.table.active[1]  # second chance promoted it
    assert lru.nr[ACTIVE] == 1


def test_scan_tail_empty():
    lru = lruvec(PageKind.FILE)
    victim, evictable = lru.scan_tail()
    assert victim is None
    assert not evictable


def test_insert_new_many_matches_one_at_a_time():
    one, many = lruvec(npages=8), lruvec(npages=8)
    for pid in (3, 1, 7):
        one.insert_new(pid)
    many.insert_new_many(np.array([3, 1, 7]))
    assert many.members(INACTIVE).tolist() == [3, 1, 7]
    assert many.nr == one.nr
    assert many.table.seq[[3, 1, 7]].tolist() == one.table.seq[
        [3, 1, 7]
    ].tolist()


def test_tail_cursor_skips_pages_that_moved():
    """The cursor snapshot goes stale as pages rotate; the tail must
    still be the least recently inserted page on the list."""
    lru = lruvec(npages=64)
    for pid in range(64):
        lru.insert_active(pid)
    assert lru.tail(ACTIVE) == 0  # snapshot taken here
    for pid in range(0, 40):
        lru.touch(pid)  # rotate the 40 coldest to the head
    assert lru.tail(ACTIVE) == 40
    for pid in range(40, 64):
        lru.remove(pid)
    assert lru.tail(ACTIVE) == 0  # past the snapshot: a new one


def test_active_tail_sees_column_rotations():
    """The batched hit path rotates active pages by writing ``seq``
    directly; the active tail must follow the column, not a log."""
    lru = lruvec(npages=8)
    for pid in range(4):
        lru.insert_active(pid)
    assert lru.tail(ACTIVE) == 0
    table = lru.table
    first = table.take_seq(2)
    table.seq[[0, 1]] = first + np.arange(2)  # rotate 0, 1
    lru.insert_active(4)
    for pid in (2, 3):
        lru.remove(pid)
    assert lru.tail(ACTIVE) == 0
    assert lru.members(ACTIVE).tolist() == [0, 1, 4]


def test_walk_list_stays_bounded_under_churn():
    """Reclaim that keeps taking the tail while pages re-enter at the
    head must not grow the cursor's walk list without bound."""
    lru = lruvec(npages=64)
    for pid in range(64):
        lru.insert_new(pid)
    for _ in range(20_000):
        victim, evictable = lru.scan_tail()
        assert evictable
        lru.insert_new(victim)  # straight back at the head
    assert lru.members(INACTIVE).tolist() == [
        (20_000 + pid) % 64 for pid in range(64)
    ]
    assert lru.tail(INACTIVE) == 20_000 % 64
    assert len(lru._cursors[INACTIVE].ids) <= 4 * 64 + 256


def test_active_tail_past_the_cold_end_snapshot():
    """An active cursor snapshots only the list's cold end; as rotations
    and demotions use it up, the tail must stay the list's true
    coldest page (checked against a full sort of the table)."""
    rng = np.random.default_rng(3)
    lru = lruvec(npages=600)
    for pid in range(600):
        lru.insert_active(pid)
    for _ in range(3000):
        if rng.random() < 0.6:
            pid = int(rng.integers(0, 600))
            if lru.table.seq[pid] != UNLISTED:  # still on a list
                lru.touch(pid)
        else:
            assert lru.tail(ACTIVE) == lru.members(ACTIVE)[0]
            lru.deactivate_one()
            if lru.nr[INACTIVE] > 100:
                lru.scan_tail()
        if lru.nr[ACTIVE] == 0:
            break
    assert lru.tail(ACTIVE) == lru.members(ACTIVE)[0]
