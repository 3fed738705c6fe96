"""The slab pool (``repro.utils.slabs``): it never hands out memory that
something still views, and between jobs it keeps only what the last job
of the same program used.

Each test runs on a fresh pool (the module's one per-process pool is
swapped out), so what other tests left in this process does not count.
"""

from __future__ import annotations

import mmap
import os
import socket
import sys
import threading

import numpy as np
import pytest

from repro.kvpairs.records import RECORD_BYTES
from repro.kvpairs.teragen import teragen
from repro.runtime.transport import recv_msg, send_msg
from repro.utils import slabs
from repro.utils.slabs import SLAB_MIN, job_window, slab

BIG = 2 * SLAB_MIN


@pytest.fixture(autouse=True)
def pool(monkeypatch):
    fresh = slabs._Pool()
    monkeypatch.setattr(slabs, "_pool", fresh)
    return fresh


def address(buf) -> int:
    return np.frombuffer(buf, np.uint8).ctypes.data


def arena_of(arr: np.ndarray):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj


def held_slabs(pool) -> int:
    return sum(len(v) for v in pool.slabs.values())


def fill(view: memoryview, byte: int) -> None:
    np.frombuffer(view, np.uint8)[:] = byte


def holds(buf, byte: int) -> bool:
    return bool((np.frombuffer(buf, np.uint8) == byte).all())


class TestLease:
    def test_small_requests_are_plain_buffers(self, pool):
        view = slab(SLAB_MIN - 1)
        assert not isinstance(view.obj, mmap.mmap) and not pool.slabs
        assert len(view) == SLAB_MIN - 1 and not view.readonly

    def test_large_requests_are_writable_slab_prefixes(self):
        view = slab(SLAB_MIN + 5)
        assert isinstance(view.obj, mmap.mmap)
        assert len(view) == SLAB_MIN + 5 and not view.readonly
        assert len(view.obj) == 2 * SLAB_MIN  # rounded up to a power of two

    def test_a_free_slab_is_handed_out_again(self):
        first = address(slab(BIG))
        assert address(slab(BIG - 100)) == first  # same size class


class TestNothingViewedIsReused:
    """Each kind of view keeps its slab out of the next lease."""

    def check(self, hold):
        view = slab(BIG)
        fill(view, 0xAB)
        kept = hold(view)
        del view
        for _ in range(3):
            fill(slab(BIG), 0x11)
        assert holds(kept, 0xAB)

    def test_memoryview_slice(self):
        self.check(lambda view: view[100:200])

    def test_numpy_view(self):
        self.check(lambda view: np.frombuffer(view, np.uint8)[7:9000])

    def test_record_batch(self):
        data = teragen(3 * SLAB_MIN // RECORD_BYTES, seed=3)
        want = data.copy()
        batch = data.take(np.arange(len(data)))
        assert isinstance(arena_of(batch.array), mmap.mmap)
        for _ in range(3):
            data.take(np.arange(len(data))[::-1])
        assert batch == want

    def test_out_of_band_array_of_a_control_frame(self, out_of_band):
        arr = np.arange(BIG // 8, dtype=np.int64)
        a, b = socket.socketpair()
        try:
            sender = threading.Thread(target=send_msg, args=(a, ("r", arr)))
            sender.start()
            _, got = recv_msg(b)
            sender.join(10)
            assert not sender.is_alive() and out_of_band(got)
            for _ in range(3):  # the frame's size class
                fill(slab(arr.nbytes + 4096), 0xFF)
            assert np.array_equal(got, arr)
        finally:
            a.close()
            b.close()

    def test_a_view_held_by_another_thread(self):
        held = threading.Event()
        release = threading.Event()
        box = {}

        def holder():
            view = slab(BIG)
            fill(view, 0x5A)
            box["view"] = view[1:]
            held.set()
            release.wait(10)
            box["intact"] = holds(box.pop("view"), 0x5A)

        errors = []

        def reader(byte):
            # A reader thread's receive arenas: each is its own while held.
            for _ in range(50):
                view = slab(BIG)
                fill(view, byte)
                if not holds(view, byte):
                    errors.append(byte)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            owner = threading.Thread(target=holder)
            owner.start()
            assert held.wait(10)
            readers = [
                threading.Thread(target=reader, args=(byte,))
                for byte in (1, 2, 3, 4)
            ]
            for t in readers:
                t.start()
            for t in readers:
                t.join(10)
            release.set()
            owner.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [owner, *readers])
        assert errors == [] and box["intact"]


class TestRetention:
    def test_a_steady_job_keeps_its_slab(self, pool):
        for window in range(1, 6):
            job_window(window, "sort")
            slab(BIG)
            if window == 1:
                kept = list(pool.slabs[BIG])
        assert pool.slabs[BIG] == kept and len(kept) == 1

    def test_an_unused_free_slab_is_released_after_one_window(self, pool):
        job_window(1, "sort")
        slab(BIG)
        job_window(2, "sort")  # the slab was used in the window that ended
        assert held_slabs(pool) == 1
        job_window(2, "sort")  # the same job: not a new window
        assert held_slabs(pool) == 1
        job_window(3, "sort")  # nothing used it during job 2
        assert held_slabs(pool) == 0

    def test_a_job_of_another_program_starts_with_no_free_slab(self, pool):
        job_window(1, "uncoded")
        held = slab(BIG)
        slab(4 * SLAB_MIN)
        job_window(2, "coded")
        assert held_slabs(pool) == 1 and len(held) == BIG  # the held one

    def test_a_brief_peak_keeps_all_its_slabs(self, pool):
        job_window(1, "sort")
        peak = [slab(BIG) for _ in range(3)]
        del peak
        job_window(2, "sort")
        for _ in range(3):  # one at a time: each lease takes the oldest
            fill(slab(BIG), 0)
        job_window(3, "sort")
        assert held_slabs(pool) == 3

    def test_a_held_slab_is_kept_while_held(self, pool):
        job_window(1, "sort")
        view = slab(BIG)
        job_window(2, "sort")
        job_window(3, "sort")
        assert held_slabs(pool) == 1
        del view
        job_window(4, "sort")  # held into job 3's window
        assert held_slabs(pool) == 1
        job_window(5, "sort")
        assert held_slabs(pool) == 0


class TestFork:
    def test_free_slabs_are_released_before_a_fork_and_the_child_starts_empty(
        self, pool
    ):
        held = slab(BIG)
        fill(held, 0x42)
        slab(4 * SLAB_MIN)  # free by the time of the fork
        assert held_slabs(pool) == 2
        pid = os.fork()
        if pid == 0:  # the child: an empty pool, and a copy of the view
            code = 0 if not slabs._pool.slabs and holds(held, 0x42) else 1
            fill(held, 0)  # the parent's slab is not the child's to write
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert held_slabs(pool) == 1 and holds(held, 0x42)
        assert address(slab(BIG)) != address(held)
