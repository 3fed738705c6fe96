"""Tests for multicast group enumeration and the CodeGen plan."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import CodedTeraSortSpec, connect
from repro.core.groups import (
    build_coding_plan,
    round_schedule,
    verify_plan,
)
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.utils.subsets import binomial


class TestPlanStructure:
    def test_group_count(self):
        plan = build_coding_plan(6, 2)
        assert plan.num_groups == binomial(6, 3) == 20

    def test_paper_scale_counts(self):
        assert build_coding_plan(16, 3).num_groups == 1820
        assert build_coding_plan(20, 5).num_groups == 38760

    def test_total_multicasts(self):
        plan = build_coding_plan(5, 2)
        assert plan.total_multicasts == binomial(5, 3) * 3
        assert len(plan.schedule) == plan.total_multicasts

    def test_invalid_redundancy(self):
        with pytest.raises(ValueError):
            build_coding_plan(4, 0)
        with pytest.raises(ValueError):
            build_coding_plan(4, 4)  # no groups of size 5 exist

    @given(st.integers(2, 9), st.data())
    def test_verify_plan_property(self, k, data):
        r = data.draw(st.integers(1, k - 1))
        verify_plan(build_coding_plan(k, r))


class TestSchedule:
    def test_fig9b_sender_order(self):
        """Node 0 sends all its packets, then node 1, etc. (Fig. 9(b))."""
        plan = build_coding_plan(4, 2)
        senders = [s for _, s in plan.schedule]
        assert senders == sorted(senders)

    def test_schedule_covers_each_group_sender_pair_once(self):
        plan = build_coding_plan(5, 3)
        pairs = set()
        for gidx, sender in plan.schedule:
            assert sender in plan.groups[gidx]
            pairs.add((gidx, sender))
        assert len(pairs) == plan.total_multicasts

    def test_within_sender_lexicographic_groups(self):
        plan = build_coding_plan(5, 2)
        for sender in range(5):
            groups = [plan.groups[g] for g, s in plan.schedule if s == sender]
            assert groups == sorted(groups)


class TestVerifyPlanCatchesCorruption:
    # build_coding_plan is memoised: corrupt a copy, never the shared plan.
    def test_duplicate_schedule_entry(self):
        plan = copy.deepcopy(build_coding_plan(4, 2))
        plan.schedule.append(plan.schedule[0])
        with pytest.raises(AssertionError):
            verify_plan(plan)

    def test_wrong_membership(self):
        plan = copy.deepcopy(build_coding_plan(4, 2))
        plan.groups_of_node[0].append(
            next(i for i, g in enumerate(plan.groups) if 0 not in g)
        )
        with pytest.raises(AssertionError):
            verify_plan(plan)

    def test_missing_group(self):
        plan = copy.deepcopy(build_coding_plan(4, 2))
        plan.groups.pop()
        with pytest.raises(AssertionError):
            verify_plan(plan)


class TestCodeGenOncePerProcess:
    def test_plan_is_memoised_per_k_and_r(self):
        assert build_coding_plan(6, 3) is build_coding_plan(6, 3)
        assert build_coding_plan(6, 3) is not build_coding_plan(6, 2)
        with pytest.raises(ValueError):  # a rejection is not cached
            build_coding_plan(4, 4)

    def test_identity_relabelling_shares_and_any_other_copies(self):
        plan = build_coding_plan(4, 2)
        assert plan.on(range(4)) is plan
        moved = plan.on(range(4, 8))
        assert moved.groups[0] == (4, 5, 6) and plan.groups[0] == (0, 1, 2)
        # The colouring rides along relabelled, not recomputed — and is
        # what recomputing it on the relabelled plan would give.
        assert moved.parallel_rounds() == round_schedule(moved)
        assert moved.parallel_rounds() == [
            [(idx, s + 4) for idx, s in rnd] for rnd in plan.parallel_rounds()
        ]

    def test_a_grouped_job_leaves_the_cached_plan_as_it_was(self):
        plan = build_coding_plan(3, 1)
        plan.parallel_rounds()
        before = copy.deepcopy(
            (plan.groups, plan.groups_of_node, plan.schedule,
             plan.parallel_rounds())
        )
        data = teragen(900, seed=5)
        run = repro.run(
            connect("inproc://6", timeout=30),
            CodedTeraSortSpec(data, 1, group_size=3),
        )
        validate_sorted_permutation(data, run.partitions)
        assert build_coding_plan(3, 1) is plan
        assert (
            plan.groups, plan.groups_of_node, plan.schedule,
            plan.parallel_rounds(),
        ) == before
