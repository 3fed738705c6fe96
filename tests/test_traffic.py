"""Tests for traffic accounting (the paper's load convention)."""

from __future__ import annotations

import pytest

from repro.runtime.traffic import TrafficLog, TrafficRecord


class TestRecordSemantics:
    def test_unicast_load_equals_wire(self):
        r = TrafficRecord("shuffle", "unicast", 0, (1,), 100)
        assert r.load_bytes == 100
        assert r.wire_bytes == 100

    def test_multicast_load_counted_once(self):
        r = TrafficRecord("shuffle", "multicast", 0, (1, 2, 3), 100)
        assert r.load_bytes == 100
        assert r.wire_bytes == 300


class TestLog:
    def make_log(self):
        log = TrafficLog()
        log.record("shuffle", "unicast", 0, (1,), 10)
        log.record("shuffle", "multicast", 1, (0, 2), 20)
        log.record("other", "unicast", 2, (0,), 40)
        return log

    def test_totals(self):
        log = self.make_log()
        assert log.load_bytes() == 70
        assert log.wire_bytes() == 10 + 40 + 40

    def test_stage_filter(self):
        log = self.make_log()
        assert log.load_bytes("shuffle") == 30
        assert log.message_count("shuffle") == 2

    def test_by_stage(self):
        assert self.make_log().by_stage() == {"shuffle": 30, "other": 40}

    def test_by_sender(self):
        log = self.make_log()
        assert log.by_sender() == {0: 10, 1: 20, 2: 40}
        assert log.by_sender("shuffle") == {0: 10, 1: 20}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TrafficLog().record("s", "broadcastish", 0, (1,), 5)

    def test_extend_merges(self):
        a, b = self.make_log(), self.make_log()
        a.extend(b.records)
        assert a.load_bytes() == 140

    def test_thread_safety_smoke(self):
        import threading

        log = TrafficLog()

        def writer():
            for _ in range(500):
                log.record("s", "unicast", 0, (1,), 1)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.message_count() == 2000
