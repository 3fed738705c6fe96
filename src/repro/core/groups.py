"""Multicast groups and the CodeGen stage (§V-A).

CodedTeraSort's CodeGen stage enumerates the ``C(K, r+1)`` multicast groups
(every ``(r+1)``-subset of nodes), derives each node's encoding duties, and
fixes the *serial multicast schedule* of Fig. 9(b): senders take turns in
rank order, and during its turn a node multicasts one coded packet in every
group it belongs to, in lexicographic group order.

In the paper this stage also creates one MPI communicator per group via
``MPI_Comm_split`` and its cost grows as ``C(K, r+1)`` — the scaling that
ultimately limits ``r`` (§V-C).  Our runtime needs no communicator objects,
but the plan construction is kept an explicit, timed stage to preserve the
cost structure, and the closed-form model charges the calibrated per-group
cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.theory import CodedWorkload, check_params
from repro.utils.subsets import Subset, k_subsets

#: Valid shuffle-schedule modes for the real execution engine.
SCHEDULE_MODES = ("serial", "parallel")

#: Default first-fit window of the greedy round scheduler.
DEFAULT_ROUND_WINDOW = 64


def check_schedule(schedule: str) -> None:
    """Raise ``ValueError`` unless ``schedule`` is a known mode."""
    if schedule not in SCHEDULE_MODES:
        raise ValueError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULE_MODES}"
        )


def check_coded_params(
    size: int, redundancy: int, schedule: str, group_size: Optional[int] = None
) -> None:
    """Validate ``(K, r, schedule, g)``; raises :class:`ValueError` early.

    CodedPlacement itself allows r = K (one file everywhere), but the
    coded shuffle needs multicast groups of r+1 <= g nodes (``g = K``
    ungrouped) and coding groups that tile the cluster
    (:func:`repro.core.theory.check_params`); rejecting before any
    cluster work keeps the error free of job-failure wrapping.
    """
    check_params(size, redundancy, group_size)
    check_schedule(schedule)


def parallel_schedule_meta(
    num_nodes: int, redundancy: int, per_node_times: Sequence[Dict[str, float]]
) -> Dict[str, object]:
    """Driver-side metadata for a parallel-schedule run of the
    ``(num_nodes, redundancy)`` coding plan.

    Shared by the CodedTeraSort and CMR drivers so both report the same
    telemetry: turn/round counts, the theoretical turn-level speedup, and
    the slowest node's overlapped shuffle span (the ``shuffle_span``
    pseudo-stage the event-loop engine stamps).
    """
    plan = build_coding_plan(num_nodes, redundancy)
    spans = [t.get("shuffle_span", 0.0) for t in per_node_times]
    return {
        "schedule_turns": len(plan.schedule),
        "schedule_rounds": plan.num_rounds,
        "parallel_speedup": plan.parallel_speedup,
        "shuffle_span_seconds": max(spans, default=0.0),
    }


@dataclass
class CodingPlan:
    """Everything CodeGen produces.

    Attributes:
        num_nodes: ``K``.
        redundancy: ``r``.
        groups: all multicast groups (sorted ``(r+1)``-tuples, lex order).
        groups_of_node: node -> indices into ``groups`` it belongs to.
        schedule: the serial multicast schedule as ``(group_idx, sender)``
            pairs in transmission order (Fig. 9(b)).
    """

    num_nodes: int
    redundancy: int
    groups: List[Subset]
    groups_of_node: Dict[int, List[int]] = field(default_factory=dict)
    schedule: List[Tuple[int, int]] = field(default_factory=list)
    _parallel_rounds: Optional[List[List[Tuple[int, int]]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def total_multicasts(self) -> int:
        """Packets crossing the network: one per turn of the schedule."""
        return len(self.schedule)

    def on(self, nodes: Sequence[int]) -> "CodingPlan":
        """This plan with member ``m`` relabelled ``nodes[m]`` (ascending).

        Group-based coding (§VI) runs one plan over ``g`` members inside
        every coding group; relabelling puts ``groups``,
        ``groups_of_node``, the turn list and the rounds in that group's
        cluster ranks.  The identity relabelling returns ``self`` — the
        ungrouped job pays nothing; any other is a new plan, and this
        one (shared, see :func:`build_coding_plan`) is left as it was.
        """
        if tuple(nodes) == tuple(range(self.num_nodes)):
            return self
        return CodingPlan(
            num_nodes=self.num_nodes,
            redundancy=self.redundancy,
            groups=[tuple(nodes[m] for m in grp) for grp in self.groups],
            groups_of_node={
                nodes[m]: idxs for m, idxs in self.groups_of_node.items()
            },
            schedule=[(idx, nodes[s]) for idx, s in self.schedule],
        )

    # -- parallel (round) scheduling ------------------------------------------

    def parallel_rounds(
        self, window: int = DEFAULT_ROUND_WINDOW
    ) -> List[List[Tuple[int, int]]]:
        """The conflict-free round coloring of the multicast schedule.

        Greedily packs the ``(group, sender)`` turns into rounds of
        pairwise node-disjoint groups (see :func:`round_schedule`); cached
        after the first call (the default ``window`` only).
        """
        if window != DEFAULT_ROUND_WINDOW:
            return round_schedule(self, window)
        if self._parallel_rounds is None:
            self._parallel_rounds = round_schedule(self)
        return self._parallel_rounds

    @property
    def num_rounds(self) -> int:
        """Rounds needed by the parallel schedule (<= serial turn count)."""
        return len(self.parallel_rounds())

    @property
    def parallel_speedup(self) -> float:
        """Theoretical turn-level shuffle speedup of the parallel schedule.

        Serial turns divided by parallel rounds — the factor by which the
        shuffle's critical path shortens when node-disjoint multicasts run
        concurrently (capped at ``floor(K / (r+1))``).
        """
        return len(self.schedule) / max(1, self.num_rounds)

    def rounds_for(self, schedule: str) -> List[List[Tuple[int, int]]]:
        """The transmission schedule as rounds, for either mode.

        ``"serial"`` wraps each Fig. 9(b) turn in its own singleton round;
        ``"parallel"`` returns the conflict-free coloring.
        """
        check_schedule(schedule)
        if schedule == "serial":
            return [[turn] for turn in self.schedule]
        return self.parallel_rounds()


@lru_cache(maxsize=8)
def build_coding_plan(num_nodes: int, redundancy: int) -> CodingPlan:
    """Run CodeGen: enumerate groups, memberships, and the serial schedule.

    Memoised per ``(K, r)``: a process that runs job after job (standing
    worker, driver ``finalize``, service daemon) enumerates and colours a
    plan once.  The plan is therefore **shared: read-only** to callers.

    Args:
        num_nodes: ``K``.
        redundancy: ``r``; must satisfy ``1 <= r < K`` (with ``r = K`` there
            is no one left to talk to and no groups exist).

    Returns:
        The complete :class:`CodingPlan`.
    """
    check_params(num_nodes, redundancy)
    groups: List[Subset] = list(k_subsets(num_nodes, redundancy + 1))
    groups_of_node: Dict[int, List[int]] = {k: [] for k in range(num_nodes)}
    for idx, group in enumerate(groups):
        for member in group:
            groups_of_node[member].append(idx)

    # Fig. 9(b): node 0 multicasts in all its groups, then node 1, etc.
    schedule: List[Tuple[int, int]] = []
    for sender in range(num_nodes):
        for idx in groups_of_node[sender]:
            schedule.append((idx, sender))

    return CodingPlan(
        num_nodes=num_nodes,
        redundancy=redundancy,
        groups=groups,
        groups_of_node=groups_of_node,
        schedule=schedule,
    )


def round_schedule(
    plan: CodingPlan, window: int = DEFAULT_ROUND_WINDOW
) -> List[List[Tuple[int, int]]]:
    """Pack the multicast schedule into conflict-free concurrent rounds.

    The paper's Fig. 9(b) schedule is fully serial; §VI lists asynchronous
    execution with parallel communications as future work.  This scheduler
    realizes it: two multicasts can proceed concurrently iff their groups
    share no node (every member is either transmitting or receiving), so
    the ``C(K, r+1) * (r+1)`` transmissions are greedily packed into rounds
    of pairwise node-disjoint groups.  At most ``floor(K / (r+1))`` groups
    fit per round, so the shuffle shortens by up to that factor.

    Packing is first-fit over a bounded window of ``window`` open rounds
    (full first-fit is quadratic — 232k transmissions at K=20, r=5), using
    node bitmasks for O(1) conflict tests.  Rounds are returned in the
    order they were opened; every transmission appears exactly once.

    Args:
        plan: the coding plan whose schedule to parallelize.
        window: how many trailing open rounds first-fit may consider.

    Returns:
        Rounds of ``(group_idx, sender)`` pairs, pairwise node-disjoint
        within each round.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    group_masks = [sum(1 << m for m in group) for group in plan.groups]
    # The serial schedule lists each sender's transmissions consecutively —
    # all sharing that sender, hence pairwise conflicting — and lex group
    # order correlates across senders, so any structured order clogs the
    # first-fit window.  A seeded shuffle decorrelates neighbours (any
    # order is legal: packets are all encoded before shuffling), after
    # which greedy packing fills rounds to near the K/(r+1) cap.
    interleaved: List[Tuple[int, int]] = list(plan.schedule)
    random.Random(0xC0DED).shuffle(interleaved)
    rounds: List[List[Tuple[int, int]]] = []
    open_rounds: List[int] = []  # indices into rounds
    masks: List[int] = []  # occupied-node bitmask per round
    for item in interleaved:
        mask = group_masks[item[0]]
        for ridx in open_rounds:
            if not masks[ridx] & mask:
                rounds[ridx].append(item)
                masks[ridx] |= mask
                break
        else:
            rounds.append([item])
            masks.append(mask)
            open_rounds.append(len(rounds) - 1)
            if len(open_rounds) > window:
                open_rounds.pop(0)
    return rounds


def unicast_round_schedule(num_nodes: int) -> List[List[Tuple[int, int]]]:
    """Conflict-free rounds for TeraSort's all-to-all unicast exchange.

    The serial schedule of Fig. 9(a) sends the ``K (K-1)`` unicasts one at
    a time — that is the closed-form model's Fig. 9(a).  The live walk
    (:meth:`~repro.core.coded_terasort.CodedTeraSortProgram._turn_walk`)
    starts a turn as soon as its sender has heard from every earlier
    sender, each sender serving its targets in ring order, so turns
    overlap there.  Under half-duplex NICs (a transfer occupies both
    endpoints), the optimal parallel exchange follows a 1-factorization
    of the complete graph ``K_n`` (the circle method): ``K-1`` perfect
    matchings for even ``K`` (``K`` near-perfect ones for odd), each
    played in two half-duplex sub-rounds — once per direction.  Every
    ordered pair appears exactly once, and each sub-round's transfers are
    pairwise node-disjoint, so the shuffle shortens by ``~K/2``.

    Returns:
        Rounds of ``(src, dst)`` pairs, pairwise node-disjoint per round.
    """
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes}")
    k = num_nodes
    # Circle method: fix node 0 and rotate the rest; odd K adds a phantom
    # node whose partner sits the round out.
    n = k if k % 2 == 0 else k + 1
    others = list(range(1, n))
    rounds: List[List[Tuple[int, int]]] = []
    for _ in range(n - 1):
        ring = [0] + others
        pairs = [
            (ring[i], ring[n - 1 - i])
            for i in range(n // 2)
            if ring[i] < k and ring[n - 1 - i] < k
        ]
        rounds.append(list(pairs))
        rounds.append([(b, a) for a, b in pairs])
        others = others[1:] + others[:1]
    return rounds


def verify_plan(plan: CodingPlan) -> None:
    """Structural invariants of a coding plan (only tests call it).

    Raises:
        AssertionError: if any invariant fails.
    """
    k, r = plan.num_nodes, plan.redundancy
    work = CodedWorkload(k, r, 0)
    if len(plan.groups) != work.num_groups:
        raise AssertionError("wrong number of multicast groups")
    seen = set()
    for group in plan.groups:
        if len(group) != r + 1 or list(group) != sorted(set(group)):
            raise AssertionError(f"malformed group {group}")
        if group in seen:
            raise AssertionError(f"duplicate group {group}")
        seen.add(group)
    for node, idxs in plan.groups_of_node.items():
        if len(idxs) != work.groups_per_node:
            raise AssertionError(f"node {node} in wrong number of groups")
        for idx in idxs:
            if node not in plan.groups[idx]:
                raise AssertionError(f"membership list wrong for node {node}")
    if len(plan.schedule) != work.total_multicasts:
        raise AssertionError("schedule length != total multicasts")
    if len(set(plan.schedule)) != len(plan.schedule):
        raise AssertionError("schedule has duplicate transmissions")
    for idx, sender in plan.schedule:
        if sender not in plan.groups[idx]:
            raise AssertionError(
                f"scheduled sender {sender} not in group {plan.groups[idx]}"
            )
