#!/usr/bin/env python
"""Coded MapReduce beyond sorting: WordCount, Grep, and InvertedIndex.

The paper's conclusion (Section VI) points at applying the coding idea to
other shuffle-bound applications — "e.g., Grep, SelfJoin" — built on the
same generic Coded MapReduce engine (Section II).  This example opens one
:class:`repro.Session` (a standing worker pool) and submits nine
:class:`repro.MapReduceSpec` jobs to it — three text-analytics jobs over
a synthetic corpus, each under three shuffle schemes:

* scheme="uncoded", r=1 — plain MapReduce (every file mapped once);
* scheme="uncoded", r   — redundant placement, but unicast shuffle;
* scheme="coded",   r   — redundant placement + XOR multicast (Alg. 1/2);

and reports, per job, the measured shuffle payload bytes of each scheme
(traffic logs are isolated per job id on the shared session).  Outputs
are asserted identical across schemes: coding is transparent.

Usage::

    python examples/cmr_wordcount.py [--nodes K] [--redundancy r] [--files N]
"""

from __future__ import annotations

import argparse

from repro import MapReduceSpec, Session, connect
from repro.core.jobs import GrepJob, InvertedIndexJob, WordCountJob
from repro.utils.subsets import binomial
from repro.utils.tables import format_table

_WORDS = (
    "coded shuffle multicast terasort map reduce node packet key value "
    "sort network load speedup group subset segment decode encode index "
    "distributed computing redundancy communication bottleneck cluster"
).split()


def make_corpus(num_files: int, words_per_file: int, seed: int = 0) -> list:
    """Deterministic synthetic text files with a Zipf-ish word mix."""
    import random

    rng = random.Random(seed)
    files = []
    for _ in range(num_files):
        # Weight early vocabulary words more heavily (skewed frequencies).
        picks = rng.choices(
            _WORDS, weights=[1.0 / (i + 1) for i in range(len(_WORDS))],
            k=words_per_file,
        )
        files.append(" ".join(picks))
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", "-K", type=int, default=4)
    parser.add_argument("--redundancy", "-r", type=int, default=2)
    parser.add_argument("--files", "-N", type=int, default=None,
                        help="number of input files; must be a multiple of "
                             "C(K, r) (default: 4 * C(K, r))")
    parser.add_argument("--words-per-file", type=int, default=2000)
    args = parser.parse_args()

    k, r = args.nodes, args.redundancy
    if not 1 <= r < k:
        parser.error(f"redundancy must satisfy 1 <= r < K, got r={r}, K={k}")
    base_files = binomial(k, r)
    num_files = args.files if args.files is not None else 4 * base_files
    if num_files % base_files != 0:
        parser.error(f"--files must be a multiple of C({k},{r}) = {base_files}")

    corpus = make_corpus(num_files, args.words_per_file)
    print(f"Corpus: {num_files} files x {args.words_per_file} words, "
          f"K={k} nodes, r={r}\n")

    jobs = [
        ("WordCount", WordCountJob()),
        ("Grep /cod/", GrepJob(r"cod")),
        ("InvertedIndex", InvertedIndexJob()),
    ]
    schemes = [
        ("uncoded r=1", 1, "uncoded"),
        (f"uncoded r={r}", r, "uncoded"),
        (f"coded   r={r}", r, "coded"),
    ]

    # One standing worker pool serves all nine jobs; submissions are
    # futures, so the whole grid is queued up front and collected after.
    with Session(connect(f"inproc://{k}", timeout=60.0)) as session:
        handles = {
            (job_name, label): session.submit(
                MapReduceSpec(
                    job=job, files=corpus, redundancy=rr, scheme=scheme
                )
            )
            for job_name, job in jobs
            for label, rr, scheme in schemes
        }

        for job_name, _ in jobs:
            rows = []
            reference = None
            for label, rr, scheme in schemes:
                run = handles[(job_name, label)].result()
                if reference is None:
                    reference = run.outputs
                elif run.outputs != reference:
                    raise AssertionError(
                        f"{job_name}: scheme {label} changed the job output"
                    )
                shuffle = run.traffic.load_bytes("shuffle")
                rows.append(
                    [label, shuffle, run.traffic.message_count("shuffle")]
                )
            base_bytes = rows[0][1]
            for row in rows:
                row.append(base_bytes / row[1] if row[1] else float("inf"))
            print(f"== {job_name}: outputs identical under all schemes ==")
            print(format_table(
                ["scheme", "shuffle payload B", "messages", "reduction vs r=1"],
                rows, decimals=2,
            ))
            print()

    print("The coded scheme multicasts XOR packets that serve r nodes at")
    print("once; with payload-dominated intermediate values its shuffle")
    print("bytes approach (1/r) * (1 - r/K) / (1 - 1/K) of plain MapReduce.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
