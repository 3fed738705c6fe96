"""Event-driven network fabric: the oracle for the closed-form model.

The paper's shuffles are *serial*: only one node transmits at any instant
(Fig. 9), which we model with a single FIFO token resource covering the
whole fabric.  Scheduled parallelism (§VI future work) is modelled with
per-node NIC resources instead: transfers contend for their sender's and
receivers' NICs but independent pairs proceed concurrently.

Transfer durations come from the cost model; each transfer is a real event
in :mod:`repro.sim.des` (acquire resources, hold for the transfer time,
release), so a shuffle's time *emerges* from event execution.  The tables
come from the closed forms of :mod:`repro.sim.model`; the tests replay
each modelled shuffle on this fabric, transfer by transfer, and check the
two agree -- which also checks that every round of a schedule is
node-disjoint (a conflicting round would stall on a NIC).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.sim.costmodel import EC2CostModel
from repro.sim.des import Environment, Event, MultiLock, Resource, SimGenerator


class NetworkModel:
    """Fabric of K nodes with serial or parallel transfer scheduling.

    Args:
        env: the simulation environment.
        num_nodes: K.
        cost: the cost model supplying transfer durations.
        serial: if True (paper's setting), a single global token serializes
            every transfer; if False, per-node NICs are the only contention.
    """

    def __init__(
        self,
        env: Environment,
        num_nodes: int,
        cost: EC2CostModel,
        serial: bool = True,
    ) -> None:
        self.env = env
        self.num_nodes = num_nodes
        self.cost = cost
        self.serial = serial
        self._token: Optional[Resource] = Resource(env, 1) if serial else None
        self._nics: MultiLock = MultiLock(env, num_nodes)
        # Telemetry: transfers completed, busy time, per-kind byte counts.
        self.transfers = 0
        self.busy_time = 0.0
        self.unicast_payload = 0.0
        self.multicast_payload = 0.0

    # -- transfer processes -----------------------------------------------------

    def unicast(self, src: int, dst: int, nbytes: float) -> SimGenerator:
        """Process: one unicast of ``nbytes`` from src to dst."""
        self._check(src)
        self._check(dst)
        duration = self.cost.unicast_time(nbytes)
        yield from self._transfer([src, dst], duration)
        self.unicast_payload += nbytes
        return duration

    def multicast(
        self, src: int, dsts: Sequence[int], nbytes: float
    ) -> SimGenerator:
        """Process: one application-layer multicast of ``nbytes``."""
        self._check(src)
        for d in dsts:
            self._check(d)
        duration = self.cost.multicast_time(nbytes, len(dsts))
        yield from self._transfer([src, *dsts], duration)
        self.multicast_payload += nbytes
        return duration

    def batched_hold(
        self,
        participants: Iterable[int],
        duration: float,
        payload: float = 0.0,
        kind: str = "unicast",
    ) -> SimGenerator:
        """Process: hold the fabric for a pre-summed duration.

        Replays a whole sender turn as one event -- total times and payload
        telemetry match the per-transfer processes; only the event count
        changes.
        """
        yield from self._transfer(list(participants), duration)
        if kind == "multicast":
            self.multicast_payload += payload
        else:
            self.unicast_payload += payload
        return duration

    # -- internals -----------------------------------------------------------------

    def _transfer(self, participants: List[int], duration: float) -> SimGenerator:
        if self.serial:
            assert self._token is not None
            yield self._token.request()
            yield self.env.timeout(duration)
            self._token.release()
        else:
            # All-or-nothing NIC acquisition: incremental locking (even in a
            # global order) makes a waiting transfer hold NICs it is not yet
            # using, convoying overlapping transfers into a serial chain.
            nodes = sorted(set(participants))
            yield self._nics.acquire(nodes)
            yield self.env.timeout(duration)
            self._nics.release(nodes)
        self.transfers += 1
        self.busy_time += duration

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range({self.num_nodes})")
