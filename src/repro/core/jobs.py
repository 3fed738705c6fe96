"""Ready-made Coded MapReduce jobs.

The paper motivates coding for shuffle-bound applications beyond sorting —
"we can apply the coding concept to develop coded versions of many other
distributed computing applications whose performance is limited by data
shuffling (e.g., Grep, SelfJoin)" (§VI) — and cites WordCount,
RankedInvertedIndex and SelfJoin as shuffle-heavy workloads [6].  These
jobs run on the coded pipeline under :class:`~repro.core.cmr.MapReduceLaw`:

* :class:`WordCountJob` — word frequencies, functions = hash buckets;
* :class:`GrepJob` — pattern matching, functions = match buckets;
* :class:`SelfJoinJob` — (key, value) pairs joined on key across files;
* :class:`InvertedIndexJob` — word -> sorted posting list of file ids;
* :class:`RankedInvertedIndexJob` — postings ranked by term frequency
  (the fourth workload [6] names).

All jobs emit deterministic, pickle-stable intermediate values (sorted dicts
/ lists of primitives), as the XOR coding requires, and cache ``Q`` in
``num_functions``, which the worker calls before any ``map_file`` /
``reduce``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.cmr import MapReduceJob


def _bucket(token: str, num_buckets: int) -> int:
    """Deterministic string -> bucket hash (stable across processes).

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), which
    would break replica determinism; use a fixed FNV-1a instead.
    """
    h = 2166136261
    for ch in token.encode("utf-8"):
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h % num_buckets


class WordCountJob(MapReduceJob):
    """Count word occurrences across text files.

    Files are strings; function ``q`` owns the words hashing to bucket
    ``q``.  Reduce output is a sorted ``{word: count}`` dict.
    """

    name = "wordcount"

    def __init__(self, buckets_per_node: int = 1) -> None:
        if buckets_per_node < 1:
            raise ValueError("buckets_per_node must be >= 1")
        self.buckets_per_node = buckets_per_node

    def num_functions(self, num_nodes: int) -> int:
        # The worker calls this once, before any map_file / reduce, so
        # caching Q here makes it available to map_file's bucket hashing.
        self._q_cache = num_nodes * self.buckets_per_node
        return self._q_cache

    def map_file(self, file_id: int, payload: str) -> Mapping[int, Any]:
        counts: Dict[int, Dict[str, int]] = {}
        for word in payload.split():
            q = _bucket(word, self._q_cache)
            bucket = counts.setdefault(q, {})
            bucket[word] = bucket.get(word, 0) + 1
        # Sort inner dicts for deterministic serialization.
        return {q: dict(sorted(c.items())) for q, c in sorted(counts.items())}

    def reduce(self, q: int, values: Sequence[Tuple[int, Any]]) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for _file_id, counts in values:
            for word, n in counts.items():
                total[word] = total.get(word, 0) + n
        return dict(sorted(total.items()))


class GrepJob(MapReduceJob):
    """Collect lines matching a regex, bucketed by line hash.

    Files are strings (newline-separated); reduce output is the sorted list
    of ``(file_id, line_no, line)`` matches in the bucket.
    """

    name = "grep"

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self._regex = re.compile(pattern)

    def map_file(self, file_id: int, payload: str) -> Mapping[int, Any]:
        out: Dict[int, List[Tuple[int, str]]] = {}
        for line_no, line in enumerate(payload.splitlines()):
            if self._regex.search(line):
                q = _bucket(line, self._q_cache)
                out.setdefault(q, []).append((line_no, line))
        return {q: sorted(v) for q, v in sorted(out.items())}

    def reduce(
        self, q: int, values: Sequence[Tuple[int, Any]]
    ) -> List[Tuple[int, int, str]]:
        matches: List[Tuple[int, int, str]] = []
        for file_id, lines in values:
            for line_no, line in lines:
                matches.append((file_id, line_no, line))
        return sorted(matches)

    def num_functions(self, num_nodes: int) -> int:
        self._q_cache = num_nodes
        return num_nodes


class SelfJoinJob(MapReduceJob):
    """Self-join of (key, value) records on key.

    Files are lists of ``(key, value)`` tuples; function ``q`` owns keys in
    bucket ``q``; reduce emits, per key with >= 2 values, the sorted list of
    joined value pairs — the SelfJoin benchmark of [6].
    """

    name = "selfjoin"

    def map_file(
        self, file_id: int, payload: Sequence[Tuple[str, Any]]
    ) -> Mapping[int, Any]:
        out: Dict[int, List[Tuple[str, Any]]] = {}
        for key, value in payload:
            q = _bucket(key, self._q_cache)
            out.setdefault(q, []).append((key, value))
        return {q: sorted(v) for q, v in sorted(out.items())}

    def reduce(
        self, q: int, values: Sequence[Tuple[int, Any]]
    ) -> Dict[str, List[Tuple[Any, Any]]]:
        by_key: Dict[str, List[Any]] = {}
        for _file_id, pairs in values:
            for key, value in pairs:
                by_key.setdefault(key, []).append(value)
        joined: Dict[str, List[Tuple[Any, Any]]] = {}
        for key, vals in sorted(by_key.items()):
            if len(vals) < 2:
                continue
            vals = sorted(vals)
            joined[key] = [
                (vals[i], vals[j])
                for i in range(len(vals))
                for j in range(i + 1, len(vals))
            ]
        return joined

    def num_functions(self, num_nodes: int) -> int:
        self._q_cache = num_nodes
        return num_nodes


class FixedSizeProbeJob(MapReduceJob):
    """A measurement probe: every (file, function) value serializes to
    exactly :data:`PROBE_UNIT` bytes.

    Used to measure communication loads in whole intermediate-value units —
    this is how the Fig. 1 example's 12 / 6 / 3 counts are reproduced
    exactly (see ``tests/test_cmr_fig1.py`` and
    :func:`repro.experiments.figures.fig1_loads`).
    """

    name = "fixed-size-probe"

    def num_functions(self, num_nodes: int) -> int:
        self._q_cache = num_nodes
        return num_nodes

    def map_file(self, file_id: int, payload: Any) -> Mapping[int, Any]:
        return {q: f"f{file_id}q{q}" for q in range(self._q_cache)}

    def reduce(self, q: int, values: Sequence[Tuple[int, Any]]) -> list:
        return sorted(values)

    def serialize(self, obj: Any) -> bytes:
        out = bytearray()
        for file_id, q, value in obj:
            cell = f"{file_id}|{q}|{value}".encode()
            if len(cell) > PROBE_UNIT:
                raise ValueError(f"probe cell exceeds {PROBE_UNIT} bytes")
            out.extend(cell.ljust(PROBE_UNIT, b"\x00"))
        return bytes(out)

    def deserialize(self, buf: bytes) -> Any:
        out = []
        # buf may be a zero-copy arena view (bytes-like, not bytes).
        for i in range(0, len(buf), PROBE_UNIT):
            cell = bytes(buf[i : i + PROBE_UNIT]).rstrip(b"\x00").decode()
            file_id, q, value = cell.split("|")
            out.append((int(file_id), int(q), value))
        return out


#: Serialized size of one FixedSizeProbeJob intermediate value entry.
PROBE_UNIT = 64


class InvertedIndexJob(MapReduceJob):
    """word -> sorted posting list of the file ids containing it."""

    name = "inverted_index"

    def map_file(self, file_id: int, payload: str) -> Mapping[int, Any]:
        words = sorted(set(payload.split()))
        out: Dict[int, List[str]] = {}
        for word in words:
            q = _bucket(word, self._q_cache)
            out.setdefault(q, []).append(word)
        return {q: sorted(v) for q, v in sorted(out.items())}

    def reduce(
        self, q: int, values: Sequence[Tuple[int, Any]]
    ) -> Dict[str, List[int]]:
        postings: Dict[str, List[int]] = {}
        for file_id, words in values:
            for word in words:
                postings.setdefault(word, []).append(file_id)
        return {w: sorted(ids) for w, ids in sorted(postings.items())}

    def num_functions(self, num_nodes: int) -> int:
        self._q_cache = num_nodes
        return num_nodes


class RankedInvertedIndexJob(MapReduceJob):
    """word -> postings ranked by in-file term frequency (desc, then id).

    The fourth shuffle-heavy workload named by [6] alongside TeraSort,
    WordCount and SelfJoin.  Unlike the plain inverted index, the map
    emits per-file term *counts* so the reducer can order each posting
    list by relevance — the shape used by search back-ends.
    """

    name = "ranked_inverted_index"

    def map_file(self, file_id: int, payload: str) -> Mapping[int, Any]:
        counts: Dict[str, int] = {}
        for word in payload.split():
            counts[word] = counts.get(word, 0) + 1
        out: Dict[int, Dict[str, int]] = {}
        for word in sorted(counts):
            q = _bucket(word, self._q_cache)
            out.setdefault(q, {})[word] = counts[word]
        return {q: dict(sorted(v.items())) for q, v in sorted(out.items())}

    def reduce(
        self, q: int, values: Sequence[Tuple[int, Any]]
    ) -> Dict[str, List[Tuple[int, int]]]:
        postings: Dict[str, List[Tuple[int, int]]] = {}
        for file_id, counts in values:
            for word, n in counts.items():
                postings.setdefault(word, []).append((file_id, n))
        # Rank: highest term frequency first; file id breaks ties.
        return {
            w: sorted(entries, key=lambda e: (-e[1], e[0]))
            for w, entries in sorted(postings.items())
        }

    def num_functions(self, num_nodes: int) -> int:
        self._q_cache = num_nodes
        return num_nodes
