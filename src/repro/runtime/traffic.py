"""Traffic accounting for communication-load measurements.

The paper defines the communication load ``L`` as the total amount of
intermediate data *exchanged*, where a multicast packet counts **once** no
matter how many nodes it serves — that is exactly the quantity coding
reduces.  The wire, in contrast, carries an application-layer multicast as
``(group size - 1)`` unicasts (whether linear or tree-shaped: every non-root
member receives the payload exactly once).

:class:`TrafficLog` therefore tracks both quantities per record:

* ``load_bytes``  = payload size (multicast counted once);
* ``wire_bytes``  = payload size x number of receivers.

Records carry the stage name active when they were emitted, so per-stage
summaries (e.g. "Shuffle only") can be extracted.

A third record kind, ``"relay"``, logs one *physical hop* of an
application-layer multicast (root-to-member in LINEAR mode, every
parent-to-child tree edge in TREE mode) when a backend is created with
``record_relays=True``.  Relay records are supplementary detail: they are
excluded from the logical load/wire/message summaries (the one multicast
record already accounts for them) and surfaced through
:meth:`TrafficLog.relay_bytes` / :meth:`TrafficLog.link_bytes`, which let
tree and linear multicast be compared byte-for-byte per link.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class TrafficRecord:
    """One logical transfer (unicast / multicast) or one physical relay hop."""

    stage: str
    kind: str  # "unicast" | "multicast" | "relay"
    src: int
    dsts: Tuple[int, ...]
    payload_bytes: int

    @property
    def load_bytes(self) -> int:
        return self.payload_bytes

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes * len(self.dsts)


class TrafficLog:
    """Thread-safe append-only log of :class:`TrafficRecord`."""

    def __init__(self) -> None:
        self._records: List[TrafficRecord] = []
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Job results (and the TrafficLog inside them) travel the
        # service control port pickled; locks don't.
        with self._lock:
            return {"_records": list(self._records)}

    def __setstate__(self, state: dict) -> None:
        self._records = state["_records"]
        self._lock = threading.Lock()

    def record(
        self,
        stage: str,
        kind: str,
        src: int,
        dsts: Iterable[int],
        payload_bytes: int,
    ) -> None:
        if kind not in ("unicast", "multicast", "relay"):
            raise ValueError(f"unknown traffic kind {kind!r}")
        rec = TrafficRecord(
            stage=stage,
            kind=kind,
            src=src,
            dsts=tuple(dsts),
            payload_bytes=int(payload_bytes),
        )
        with self._lock:
            self._records.append(rec)

    def extend(self, records: Iterable[TrafficRecord]) -> None:
        with self._lock:
            self._records.extend(records)

    @property
    def records(self) -> List[TrafficRecord]:
        with self._lock:
            return list(self._records)

    # -- summaries -----------------------------------------------------------

    def _logical(self, stage: Optional[str]) -> Iterable[TrafficRecord]:
        """Logical transfers only (relay hops excluded), stage-filtered."""
        return (
            r
            for r in self.records
            if r.kind != "relay" and (stage is None or r.stage == stage)
        )

    def load_bytes(self, stage: Optional[str] = None) -> int:
        """Total load bytes, optionally restricted to one stage."""
        return sum(r.load_bytes for r in self._logical(stage))

    def wire_bytes(self, stage: Optional[str] = None) -> int:
        return sum(r.wire_bytes for r in self._logical(stage))

    def message_count(self, stage: Optional[str] = None) -> int:
        return sum(1 for _ in self._logical(stage))

    def by_stage(self) -> Dict[str, int]:
        """Stage name -> load bytes."""
        out: Dict[str, int] = {}
        for r in self._logical(None):
            out[r.stage] = out.get(r.stage, 0) + r.load_bytes
        return out

    def by_sender(self, stage: Optional[str] = None) -> Dict[int, int]:
        """Sender rank -> load bytes (for balance checks)."""
        out: Dict[int, int] = {}
        for r in self._logical(stage):
            out[r.src] = out.get(r.src, 0) + r.load_bytes
        return out

    # -- physical (per-hop) summaries ----------------------------------------

    def relay_records(self, stage: Optional[str] = None) -> List[TrafficRecord]:
        """All relay-hop records (requires a ``record_relays=True`` backend)."""
        return [
            r
            for r in self.records
            if r.kind == "relay" and (stage is None or r.stage == stage)
        ]

    def relay_bytes(self, stage: Optional[str] = None) -> int:
        """Total physical broadcast-hop bytes (one count per link crossed)."""
        return sum(r.payload_bytes for r in self.relay_records(stage))

    def link_bytes(
        self, stage: Optional[str] = None
    ) -> Dict[Tuple[int, int], int]:
        """``(src, dst) -> physical bytes`` over relay hops.

        With ``record_relays=True`` this is the per-link traffic matrix of
        the application-layer multicast, letting LINEAR and TREE modes be
        compared byte-for-byte (totals match the logical ``wire_bytes``;
        the *distribution* over links differs).
        """
        out: Dict[Tuple[int, int], int] = {}
        for r in self.relay_records(stage):
            for dst in r.dsts:
                key = (r.src, dst)
                out[key] = out.get(key, 0) + r.payload_bytes
        return out

