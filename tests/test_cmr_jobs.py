"""Tests for the bundled Coded MapReduce jobs.

The invariant across all jobs: outputs are identical for every scheme
(uncoded r=1, uncoded r>1, coded r>1) and every cluster size — coding is
transparent to the application.
"""

from __future__ import annotations

import collections
import hashlib

import pytest

import repro
from repro import MapReduceSpec, Session
from repro.core.jobs import (
    FixedSizeProbeJob,
    GrepJob,
    InvertedIndexJob,
    RankedInvertedIndexJob,
    SelfJoinJob,
    WordCountJob,
    _bucket,
)
from repro.runtime.inproc import ThreadCluster

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "the five boxing wizards jump quickly at dawn",
    "a quick movement of the enemy will jeopardize five gunboats",
    "five quacking zephyrs jolt my wax bed today",
    "jinxed wizards pluck ivy from the big quilt",
]


def merged_outputs(run):
    merged = {}
    for out in run.outputs.values():
        if isinstance(out, dict):
            for key, val in out.items():
                assert key not in merged
                merged[key] = val
        else:
            merged.setdefault("__list__", []).extend(out)
    return merged


class TestBucketHash:
    def test_deterministic(self):
        assert _bucket("hello", 7) == _bucket("hello", 7)

    def test_range(self):
        for w in ["a", "bb", "ccc", "zzzz"]:
            assert 0 <= _bucket(w, 5) < 5

    def test_distributes(self):
        buckets = {_bucket(f"word{i}", 8) for i in range(100)}
        assert len(buckets) == 8


class TestWordCount:
    def expected(self):
        counts = {}
        for t in TEXTS:
            for w in t.split():
                counts[w] = counts.get(w, 0) + 1
        return counts

    @pytest.mark.parametrize("coded,r", [(False, 1), (False, 2), (True, 2), (True, 1)])
    def test_schemes_agree(self, coded, r):
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(
                WordCountJob(),
                TEXTS,
                redundancy=r,
                scheme="coded" if coded else "uncoded",
            ),
        )
        assert merged_outputs(run) == self.expected()

    def test_multiple_buckets_per_node(self):
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(
                WordCountJob(buckets_per_node=2),
                TEXTS,
                redundancy=2,
                scheme="coded",
            ),
        )
        assert len(run.outputs) == 6  # Q = 3 * 2 functions
        assert merged_outputs(run) == self.expected()

    def test_coded_load_smaller_than_uncoded(self):
        # The r-fold load cut is asymptotic: coded packets carry a ~54-byte
        # header and are zero-padded to the longest segment in the group, so
        # the win only shows once intermediate values dwarf that overhead.
        # Word-count intermediates are {word: count} dicts, so the payload
        # grows with *distinct* words — give each file 400 unique ones.
        texts = [
            " ".join(f"file{i}word{j}" for j in range(400)) for i in range(6)
        ]
        base = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(WordCountJob(), texts, redundancy=2),
        )
        coded = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(WordCountJob(), texts, redundancy=2, scheme="coded"),
        )
        assert (
            coded.traffic.load_bytes("shuffle")
            < base.traffic.load_bytes("shuffle")
        )

    def test_tiny_payload_overhead_documented(self):
        """At byte-scale payloads headers + padding can exceed the saving —
        the engine must still deliver correct outputs in that regime."""
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(WordCountJob(), TEXTS, redundancy=2, scheme="coded"),
        )
        assert merged_outputs(run) == self.expected()

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            WordCountJob(buckets_per_node=0)


class TestGrep:
    def test_finds_all_matches(self):
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(GrepJob(r"qu"), TEXTS, redundancy=2, scheme="coded"),
        )
        matches = [m for v in run.outputs.values() for m in v]
        expected = [
            (i, 0, t) for i, t in enumerate(TEXTS) if "qu" in t
        ]
        assert sorted(matches) == sorted(expected)

    def test_no_matches(self):
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(
                GrepJob(r"zzzzzz"),
                TEXTS,
                redundancy=2,
                scheme="coded",
            ),
        )
        assert all(v == [] for v in run.outputs.values())

    def test_regex_anchors(self):
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(GrepJob(r"^the"), TEXTS, redundancy=1),
        )
        matches = [m for v in run.outputs.values() for m in v]
        assert {m[0] for m in matches} == {0, 2}


class TestSelfJoin:
    def test_join_pairs(self):
        files = [
            [("k1", 1), ("k2", 10)],
            [("k1", 2), ("k3", 30)],
            [("k1", 3), ("k2", 20)],
        ]
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(SelfJoinJob(), files, redundancy=2, scheme="coded"),
        )
        joined = merged_outputs(run)
        assert joined["k1"] == [(1, 2), (1, 3), (2, 3)]
        assert joined["k2"] == [(10, 20)]
        assert "k3" not in joined  # single value: no pair

    def test_schemes_agree(self):
        files = [[(f"k{i % 4}", i)] for i in range(6)]
        runs = [
            repro.run(
                ThreadCluster(3, recv_timeout=30),
                MapReduceSpec(
                    SelfJoinJob(),
                    files,
                    redundancy=r,
                    scheme="coded" if c else "uncoded",
                ),
            )
            for c, r in [(False, 1), (True, 2)]
        ]
        assert merged_outputs(runs[0]) == merged_outputs(runs[1])


class TestInvertedIndex:
    def test_postings(self):
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(
                InvertedIndexJob(),
                TEXTS,
                redundancy=2,
                scheme="coded",
            ),
        )
        idx = merged_outputs(run)
        assert idx["five"] == [1, 2, 3, 4]
        assert idx["the"] == [0, 2, 3, 5]

    def test_each_word_once_per_file(self):
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(
                InvertedIndexJob(),
                ["dup dup dup", "dup other", "x y"],
                redundancy=1,
            ),
        )
        idx = merged_outputs(run)
        assert idx["dup"] == [0, 1]


class TestEngineValidation:
    def test_file_count_must_divide(self):
        with pytest.raises(ValueError, match="multiple"):
            repro.run(
                ThreadCluster(3, recv_timeout=30),
                MapReduceSpec(
                    WordCountJob(),
                    TEXTS[:4],
                    redundancy=2,
                    scheme="coded",
                ),
            )

    def test_zero_files_rejected(self):
        with pytest.raises(ValueError):
            repro.run(
                ThreadCluster(3, recv_timeout=30),
                MapReduceSpec(WordCountJob(), [], redundancy=1),
            )


class TestRankedInvertedIndex:
    def expected(self):
        from collections import Counter

        postings = {}
        for i, text in enumerate(TEXTS):
            for word, n in Counter(text.split()).items():
                postings.setdefault(word, []).append((i, n))
        return {
            w: sorted(entries, key=lambda e: (-e[1], e[0]))
            for w, entries in postings.items()
        }

    @pytest.mark.parametrize("coded,r", [(False, 1), (False, 2), (True, 2)])
    def test_schemes_agree(self, coded, r):
        from repro.core.jobs import RankedInvertedIndexJob

        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(
                RankedInvertedIndexJob(),
                TEXTS,
                redundancy=r,
                scheme="coded" if coded else "uncoded",
            ),
        )
        assert merged_outputs(run) == self.expected()

    def test_ranking_order(self):
        from repro.core.jobs import RankedInvertedIndexJob

        texts = [
            "apple apple apple banana",   # file 0: apple x3
            "apple banana banana",        # file 1: apple x1, banana x2
            "apple apple cherry",         # file 2: apple x2
        ]
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(RankedInvertedIndexJob(), texts, redundancy=1),
        )
        merged = merged_outputs(run)
        # apple ranked by term frequency: file 0 (3) > file 2 (2) > file 1.
        assert merged["apple"] == [(0, 3), (2, 2), (1, 1)]
        assert merged["banana"] == [(1, 2), (0, 1)]
        assert merged["cherry"] == [(2, 1)]

    def test_tie_broken_by_file_id(self):
        from repro.core.jobs import RankedInvertedIndexJob

        texts = ["tie word", "tie word", "other text"]
        run = repro.run(
            ThreadCluster(3, recv_timeout=30),
            MapReduceSpec(RankedInvertedIndexJob(), texts, redundancy=1),
        )
        merged = merged_outputs(run)
        assert merged["tie"] == [(0, 1), (1, 1)]


#: 12 files: a multiple of C(K, r) for every K in {3, 4} and r in {1, 2}.
PIN_TEXTS = TEXTS * 2
PIN_PAIRS = [[(f"k{(i + j) % 5}", 10 * i + j) for j in range(3)] for i in range(12)]
PIN_JOBS = {
    "wordcount": (WordCountJob, (), PIN_TEXTS),
    "grep": (GrepJob, (r"qu|five",), PIN_TEXTS),
    "selfjoin": (SelfJoinJob, (), PIN_PAIRS),
    "probe": (FixedSizeProbeJob, (), PIN_TEXTS),
    "inverted_index": (InvertedIndexJob, (), PIN_TEXTS),
    "ranked_inverted_index": (RankedInvertedIndexJob, (), PIN_TEXTS),
}
PIN_SCHEMES = {
    "uncoded-r1": dict(scheme="uncoded", redundancy=1),
    "uncoded-r2": dict(scheme="uncoded", redundancy=2),
    "coded-r1": dict(scheme="coded", redundancy=1),
    "coded-r2-serial": dict(scheme="coded", redundancy=2, schedule="serial"),
    "coded-r2-parallel": dict(
        scheme="coded", redundancy=2, schedule="parallel"
    ),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def cmr_pin(session, job: str, scheme: str):
    """``(traffic, outputs)`` digests of one cell: the sorted ``(stage,
    kind, src, dsts, payload_bytes)`` multiset and ``repr(outputs)``."""
    cls, args, files = PIN_JOBS[job]
    run = session.run(
        MapReduceSpec(job=cls(*args), files=files, **PIN_SCHEMES[scheme])
    )
    records = collections.Counter(
        (t.stage, t.kind, t.src, t.dsts, t.payload_bytes)
        for t in run.traffic.records
    )
    return _digest(sorted(records.items())), _digest(run.outputs)


#: (K, job) -> (outputs digest, traffic digest per PIN_SCHEMES entry),
#: taken on the engine Coded MapReduce had before it rode the sort's
#: pipeline (its own map / serialized store / reduce).  One outputs
#: digest per job: coding is transparent to the application.
CMR_PINS = {
    (3, "wordcount"): ("e06c969782936030", (
        "097315737bdf1e79", "3a8adf787d250a9e", "4de6e43f17b4d135",
        "97b91490ff8ea42d", "97b91490ff8ea42d",
    )),
    (3, "grep"): ("65654e77aadba191", (
        "34975993cb3be3d2", "1a843fe311417027", "8eb21a43beb54a09",
        "b0c25cb64722ada5", "b0c25cb64722ada5",
    )),
    (3, "selfjoin"): ("4cc27daca41dd9a5", (
        "197fc3ce65e239ba", "2587a47050fa0f67", "ed5f86e6087efcf2",
        "85e5998eae4f50aa", "85e5998eae4f50aa",
    )),
    (3, "probe"): ("44eaf019c506dab9", (
        "9fb7fc4bc094298a", "3a548827415eea95", "fe148dcac543ffff",
        "a60393c2dd268a5d", "a60393c2dd268a5d",
    )),
    (3, "inverted_index"): ("7ed104a550d108a3", (
        "b895e9dfa5bcdc13", "bfea9fad56189374", "abb514bafc646acf",
        "051752082e9e6b41", "051752082e9e6b41",
    )),
    (3, "ranked_inverted_index"): ("49f6325002910296", (
        "097315737bdf1e79", "3a8adf787d250a9e", "4de6e43f17b4d135",
        "97b91490ff8ea42d", "97b91490ff8ea42d",
    )),
    (4, "wordcount"): ("f99297612ec162cc", (
        "c88557a4f52cbc18", "ce602455f57571f1", "81c79dc7d3e6003a",
        "c7ab5d6fa2de98cf", "c7ab5d6fa2de98cf",
    )),
    (4, "grep"): ("890125609e84f455", (
        "756791bd226e1b55", "bb32b03b458609b5", "c319f9d94994caf7",
        "04eb4fb17a12797b", "04eb4fb17a12797b",
    )),
    (4, "selfjoin"): ("db1ef7ddc3e1014d", (
        "2362bc36b32671ce", "768284d203faacf5", "4c546f8d024ea8ae",
        "a8c13ca40a7cbea7", "a8c13ca40a7cbea7",
    )),
    (4, "probe"): ("ca93a81e6d8cb4c5", (
        "8b1aa382f1443af3", "bb0d5679b8d8b34e", "ed5e97b71f1e9740",
        "53eed06a08289689", "53eed06a08289689",
    )),
    (4, "inverted_index"): ("2eee2ec0c8db7799", (
        "a5c7066565f49a48", "685d8da676156255", "cad649d58930b1a6",
        "c021c427a44f8cb3", "c021c427a44f8cb3",
    )),
    (4, "ranked_inverted_index"): ("8dd49eb1cfe27e48", (
        "c88557a4f52cbc18", "ce602455f57571f1", "81c79dc7d3e6003a",
        "c7ab5d6fa2de98cf", "c7ab5d6fa2de98cf",
    )),
}


@pytest.fixture(scope="module")
def pin_sessions():
    sessions = {k: Session(repro.connect(f"inproc://{k}")) for k in (3, 4)}
    yield sessions
    for session in sessions.values():
        session.close()


class TestCMRPins:
    """Every bundled job x scheme x cluster: the same bytes on the wire
    and the same outputs, byte for byte."""

    @pytest.mark.parametrize("scheme", list(PIN_SCHEMES))
    @pytest.mark.parametrize("job", list(PIN_JOBS))
    @pytest.mark.parametrize("k", [3, 4])
    def test_pinned(self, pin_sessions, k, job, scheme):
        outputs, traffic = CMR_PINS[k, job]
        expected = traffic[list(PIN_SCHEMES).index(scheme)], outputs
        assert cmr_pin(pin_sessions[k], job, scheme) == expected
