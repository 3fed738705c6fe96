"""The shared wireless medium: TDMA broadcast with airtime accounting.

One transmitter holds the channel at a time (TDMA — there is no spatial
reuse in a single collision domain), and a transmission is *inherently
broadcast*: every addressed receiver hears the same airtime.  The channel
therefore charges each transmission once, regardless of how many users it
serves — the physical property coded multicast exploits.

Transmissions are tagged by direction (``uplink`` to the access point,
``downlink`` from it, ``d2d`` between users) so protocols can be compared
by where they spend air.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union


@dataclass
class AirtimeLog:
    """Accumulated channel usage.

    Attributes:
        transmissions: count per direction.
        payload_bytes: payload per direction (each counted once).
        airtime_s: channel-occupancy seconds per direction.
    """

    transmissions: Dict[str, int] = field(default_factory=dict)
    payload_bytes: Dict[str, float] = field(default_factory=dict)
    airtime_s: Dict[str, float] = field(default_factory=dict)

    def add(self, direction: str, nbytes: float, seconds: float) -> None:
        self.transmissions[direction] = (
            self.transmissions.get(direction, 0) + 1
        )
        self.payload_bytes[direction] = (
            self.payload_bytes.get(direction, 0.0) + nbytes
        )
        self.airtime_s[direction] = (
            self.airtime_s.get(direction, 0.0) + seconds
        )

    @property
    def total_bytes(self) -> float:
        return sum(self.payload_bytes.values())

    @property
    def total_airtime(self) -> float:
        return sum(self.airtime_s.values())

    @property
    def total_transmissions(self) -> int:
        return sum(self.transmissions.values())


class WirelessChannel:
    """A single collision domain shared by ``num_users`` users and an AP.

    Args:
        num_users: the mobile users 0..K-1; the access point is addressed
            as :attr:`AP`.
        rate_bytes_per_s: physical-layer goodput (default 2.5 MB/s — a
            20 Mbps WLAN).
        per_tx_overhead_s: per-transmission channel-access overhead
            (contention, preamble, ACK), charged once per transmission.
    """

    #: Address of the access point in transmit()/receiver lists.
    AP = -1

    def __init__(
        self,
        num_users: int,
        rate_bytes_per_s: float = 2.5e6,
        per_tx_overhead_s: float = 1.0e-3,
    ) -> None:
        if num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {num_users}")
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be > 0, got {rate_bytes_per_s}")
        if per_tx_overhead_s < 0:
            raise ValueError(
                f"overhead must be >= 0, got {per_tx_overhead_s}"
            )
        self.num_users = num_users
        self.rate = float(rate_bytes_per_s)
        self.per_tx_overhead = float(per_tx_overhead_s)
        self.log = AirtimeLog()
        #: chronological (src, receivers, direction, bytes) record.
        self.trace: List[Tuple[int, Tuple[int, ...], str, int]] = []

    def _check_party(self, party: int) -> None:
        if party != self.AP and not 0 <= party < self.num_users:
            raise ValueError(
                f"party {party} is neither a user in range"
                f"({self.num_users}) nor the AP"
            )

    def transmit(
        self, src: int, receivers: Sequence[int], payload: Union[bytes, int]
    ) -> float:
        """One TDMA transmission; returns the airtime spent.

        ``payload`` is the bytes on the air or just their count (only the
        size is charged — replayed traffic has no bytes to show).  The
        direction is inferred: to the AP = ``uplink``, from the AP =
        ``downlink``, user to users = ``d2d``.  Airtime is charged once
        no matter how many receivers are addressed (broadcast).
        """
        self._check_party(src)
        recv = tuple(receivers)
        if not recv:
            raise ValueError("transmission needs at least one receiver")
        for r in recv:
            self._check_party(r)
            if r == src:
                raise ValueError("transmitter cannot address itself")
        if src == self.AP:
            direction = "downlink"
        elif recv == (self.AP,):
            direction = "uplink"
        else:
            direction = "d2d"
        nbytes = payload if isinstance(payload, int) else len(payload)
        seconds = self.per_tx_overhead + nbytes / self.rate
        self.log.add(direction, nbytes, seconds)
        self.trace.append((src, recv, direction, nbytes))
        return seconds
