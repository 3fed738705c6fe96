"""Group-based coding as a parameter: placement replication, plan
relabelling, validation by name, shrink-to-fit targets."""

from __future__ import annotations

import pytest

from repro.core.groups import build_coding_plan, check_coded_params
from repro.kvpairs.teragen import teragen
from repro.session import CodedTeraSortSpec
from repro.utils.subsets import binomial


def test_placement_replicated_per_group():
    """Rank ``j*g + m`` holds what rank ``m`` holds, subsets translated."""
    k, g, r = 8, 4, 2
    data = teragen(600, seed=0)
    job = CodedTeraSortSpec(data, r, group_size=g).prepare(k)
    files = [payload[1] for payload in job.payloads]
    subsets = [payload[2] for payload in job.payloads]
    assert all(payload[0].group_size == g for payload in job.payloads)
    for m in range(g):
        # C(g-1, r-1) files per node: r/g of the input, not r/K.
        assert len(files[m]) == binomial(g - 1, r - 1)
        for j in range(k // g):
            rank = j * g + m
            assert list(files[rank]) == list(files[m])
            for fid in files[m]:
                assert files[rank][fid] is files[m][fid]
                assert subsets[rank][fid] == tuple(
                    j * g + x for x in subsets[m][fid]
                )
                assert rank in subsets[rank][fid]
    # Every coding group stores every file, on r of its members.
    num_files = binomial(g, r)
    for j in range(k // g):
        members = range(j * g, (j + 1) * g)
        for fid in range(num_files):
            assert sum(fid in files[n] for n in members) == r
    distinct = {fid: src for n in range(g) for fid, src in files[n].items()}
    assert sum(src.num_records for src in distinct.values()) == len(data)


def test_plan_relabelling():
    plan = build_coding_plan(4, 2)
    assert plan.on(range(4)) is plan  # identity: no per-job copy
    moved = plan.on((4, 5, 6, 7))
    assert moved.groups == [tuple(4 + m for m in grp) for grp in plan.groups]
    assert moved.groups_of_node == {
        4 + m: idxs for m, idxs in plan.groups_of_node.items()
    }
    assert moved.schedule == [(i, 4 + s) for i, s in plan.schedule]
    assert [
        [(i, s - 4) for i, s in rnd] for rnd in moved.rounds_for("parallel")
    ] == plan.rounds_for("parallel")


class TestValidationByName:
    @pytest.mark.parametrize(
        "k,g", [(6, 4), (8, 1), (4, 8), (6, 0)]
    )
    def test_bad_group_size(self, k, g):
        spec = CodedTeraSortSpec(data=teragen(10), redundancy=1, group_size=g)
        for call in (
            lambda: spec.validate(k),
            lambda: spec.prepare(k),
            lambda: check_coded_params(k, 1, "serial", g),
        ):
            with pytest.raises(ValueError, match=r"^group_size: "):
                call()

    @pytest.mark.parametrize("r", [0, 3, 4])
    def test_redundancy_bounded_by_group(self, r):
        spec = CodedTeraSortSpec(data=teragen(10), redundancy=r, group_size=3)
        for call in (
            lambda: spec.validate(6),
            lambda: spec.prepare(6),
        ):
            with pytest.raises(
                ValueError, match=r"redundancy must be in \[1, g-1\] = \[1, 2\]"
            ):
                call()

    def test_ungrouped_text_unchanged(self):
        with pytest.raises(
            ValueError, match=r"redundancy must be in \[1, K-1\] = \[1, 3\]"
        ):
            CodedTeraSortSpec(data=teragen(10), redundancy=4).validate(4)


def test_shrink_lands_on_multiples_of_group_size():
    spec = CodedTeraSortSpec(data=teragen(10), redundancy=2, group_size=3)
    assert [spec.shrink_to(f) for f in range(1, 10)] == [
        None, None, 3, 3, 3, 6, 6, 6, 9,
    ]
