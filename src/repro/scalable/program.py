"""Grouped CodedTeraSort: the node program and driver.

Each node runs the six CodedTeraSort stages *scoped to its group*: the
coding plan is built over the ``g`` group members, the retention rule
keeps intermediate values only for group-mates, and the multicast shuffle
walks the group's serial schedule — groups proceed concurrently since
they share no nodes (the intra-group serialization mirrors Fig. 9(b)
within each group).

Every record is mapped by ``r`` nodes in *each* of the ``G`` groups, but
is reduced exactly once: only the group owning the record's key partition
keeps its intermediate value; the other groups drop it at Map time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.coded_common import group_store_by_subset
from repro.core.decoding import recover_intermediate
from repro.core.encoding import CodedPacket, encode_packet
from repro.core.groups import CodingPlan, build_coding_plan
from repro.core.mapper import hash_file
from repro.core.partitioner import RangePartitioner
from repro.core.terasort import SortRun, _build_partitioner
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.sorting import sort_batches
from repro.runtime.api import Comm
from repro.runtime.program import ClusterResult, NodeProgram
from repro.scalable.grouping import NodeGrouping
from repro.scalable.placement import GroupedCodedPlacement
from repro.utils.subsets import Subset, binomial

#: Tag base for grouped multicast shuffle; must clear the plain sort tags.
GROUPED_TAG_BASE = 40_000

STAGES_GROUPED = ["codegen", "map", "encode", "shuffle", "decode", "reduce"]


class GroupedCodedTeraSortProgram(NodeProgram):
    """Per-node grouped CodedTeraSort execution.

    Args:
        comm: communication endpoint.
        grouping: the cluster's group structure.
        files: file id -> data for every file on this node.
        member_subsets: file id -> member-index subset of the file.
        partitioner: the shared ``K``-way range partitioner.
        redundancy: within-group computation load ``r``.
    """

    STAGES = STAGES_GROUPED

    def __init__(
        self,
        comm: Comm,
        grouping: NodeGrouping,
        files: Dict[int, RecordBatch],
        member_subsets: Dict[int, Subset],
        partitioner: RangePartitioner,
        redundancy: int,
    ) -> None:
        super().__init__(comm)
        self.grouping = grouping
        self.files = files
        self.member_subsets = member_subsets
        self.partitioner = partitioner
        self.redundancy = redundancy
        self.group = grouping.group_of(self.rank)
        self.member = grouping.member_index(self.rank)

    def _global_subset(self, member_subset: Subset) -> Subset:
        return self.grouping.to_global(self.group, member_subset)

    def run(self) -> RecordBatch:
        rank = self.rank
        g = self.grouping.group_size
        members = self.grouping.members(self.group)

        with self.stage("codegen"):
            # The plan is over member indices; every group builds the same
            # one and translates to its own ranks.
            plan: CodingPlan = build_coding_plan(g, self.redundancy)
            my_subgroups = plan.groups_of_node[self.member]
            global_groups: Dict[int, Subset] = {
                gidx: self._global_subset(plan.groups[gidx])
                for gidx in range(plan.num_groups)
            }

        with self.stage("map"):
            # Hash each file into all K partitions; keep the own partition
            # plus group-mates' partitions not already mapped by them.
            # Partitions owned by other groups are dropped: those groups
            # hold their own copy of the file.
            kept: Dict[int, Dict[int, RecordBatch]] = {}
            subsets_global: Dict[int, Subset] = {}
            for file_id in sorted(self.files):
                member_subset = self.member_subsets[file_id]
                if self.member not in member_subset:
                    raise ValueError(
                        f"node {rank} (member {self.member}) asked to map "
                        f"file {file_id} of member subset {member_subset}"
                    )
                parts = hash_file(self.files[file_id], self.partitioner)
                in_subset = set(member_subset)
                retained: Dict[int, RecordBatch] = {rank: parts[rank]}
                for mate in members:
                    m_idx = self.grouping.member_index(mate)
                    if mate != rank and m_idx not in in_subset:
                        retained[mate] = parts[mate]
                kept[file_id] = retained
                subsets_global[file_id] = self._global_subset(member_subset)
            store: Dict[Tuple[Subset, int], RecordBatch] = (
                group_store_by_subset(kept, subsets_global)
            )

        with self.stage("encode"):
            serialized: Dict[Tuple[Subset, int], bytes] = {
                key: batch.to_bytes() for key, batch in store.items()
            }

            def lookup(subset: Subset, target: int) -> bytes:
                return serialized[(subset, target)]

            # Gather-list wire form: header + XOR-arena view, never joined.
            packets_out = {
                gidx: encode_packet(
                    rank, global_groups[gidx], lookup
                ).to_parts()
                for gidx in my_subgroups
            }

        with self.stage("shuffle"):
            # Serial turns *within* the group (Fig. 9(b) scoped to g
            # members); groups share no nodes, so the G shuffles overlap.
            received_raw: Dict[int, Dict[int, bytes]] = {
                gidx: {} for gidx in my_subgroups
            }
            tag_stride = plan.num_groups
            for turn in range(g):
                sender = members[turn]
                for gidx in plan.groups_of_node[turn]:
                    group_ranks = global_groups[gidx]
                    if rank not in group_ranks:
                        continue
                    tag = GROUPED_TAG_BASE + self.group * tag_stride + gidx
                    if sender == rank:
                        self.comm.bcast(
                            group_ranks, rank, tag, packets_out[gidx]
                        )
                    else:
                        received_raw[gidx][sender] = self.comm.bcast(
                            group_ranks, sender, tag, copy=False
                        )

        with self.stage("decode"):
            decoded: List[RecordBatch] = []
            for gidx in my_subgroups:
                packets = {
                    sender: CodedPacket.from_bytes(raw)
                    for sender, raw in received_raw[gidx].items()
                }
                raw_value = recover_intermediate(
                    rank, global_groups[gidx], packets, lookup
                )
                decoded.append(RecordBatch.from_buffer(raw_value))

        with self.stage("reduce"):
            own = [
                batch
                for (subset, target), batch in store.items()
                if target == rank
            ]
            result = sort_batches(own + decoded)
        return result


def run_grouped_coded_terasort(
    cluster,
    data: RecordBatch,
    redundancy: int,
    group_size: int,
    batches_per_subset: int = 1,
    sampled_partitioner: bool = False,
    sample_size: int = 10000,
    sample_seed: int = 7,
) -> SortRun:
    """Sort ``data`` with grouped CodedTeraSort on ``cluster``.

    Args:
        cluster: any backend with ``size`` and ``run(factory)``.
        data: the full input batch.
        redundancy: within-group ``r`` (``1 <= r < group_size``).
        group_size: ``g``; must divide the cluster size.
        batches_per_subset: files per member subset.
        sampled_partitioner / sample_size / sample_seed: see
            :func:`repro.core.terasort.run_terasort`.

    Returns:
        A :class:`~repro.core.terasort.SortRun`; ``meta`` carries the
        grouped plan statistics (per-group CodeGen size, total
        multicasts, storage factor).
    """
    k = cluster.size
    grouping = NodeGrouping(num_nodes=k, group_size=group_size)
    partitioner = _build_partitioner(
        data, k, sampled_partitioner, sample_size, sample_seed
    )
    placement = GroupedCodedPlacement(grouping, redundancy, batches_per_subset)
    assignments = placement.place(data)
    views = placement.per_node_views(assignments)
    member_subsets = {
        fa.file_id: fa.member_subset for fa in assignments
    }

    def factory(comm: Comm) -> GroupedCodedTeraSortProgram:
        return GroupedCodedTeraSortProgram(
            comm,
            grouping,
            views[comm.rank],
            {f: member_subsets[f] for f in views[comm.rank]},
            partitioner,
            redundancy,
        )

    result: ClusterResult = cluster.run(factory)
    g = group_size
    per_group_codegen = binomial(g, redundancy + 1)
    return SortRun(
        partitions=list(result.results),
        stage_times=result.stage_times,
        traffic=result.traffic,
        partitioner=partitioner,
        meta={
            "algorithm": "grouped_coded_terasort",
            "num_nodes": k,
            "group_size": g,
            "num_groups": grouping.num_groups,
            "redundancy": redundancy,
            "batches_per_subset": batches_per_subset,
            "input_records": len(data),
            "num_files": placement.num_files,
            "files_per_node": placement.files_per_node(),
            "codegen_groups_per_group": per_group_codegen,
            "total_multicasts": grouping.num_groups
            * per_group_codegen
            * (redundancy + 1),
        },
    )
