"""Wireless distributed computing — the paper's §VI mobile direction.

The paper's conclusion singles out mobile applications (augmented
reality, recommender systems) where shuffles cross *wireless* links, and
points to the authors' theoretical treatments: a scalable framework for
wireless distributed computing [24] and its edge-facilitated variant
[25].  This subpackage builds that setting from scratch:

* :mod:`repro.wireless.channel` — a TDMA shared broadcast medium: one
  transmitter at a time, every addressed user hears a transmission once,
  airtime is the resource being spent;
* :mod:`repro.wireless.wdc` — map-shuffle-reduce for sorting over the
  medium, with three shuffle protocols: uncoded relay through the access
  point (every intermediate value crosses the air twice), coded
  device-to-device broadcast (each coded packet crosses once and serves
  ``r`` users), and the edge-facilitated coded relay of [25]; each
  protocol's closed-form airtime load is its relay factor
  (:data:`repro.wireless.wdc.RELAY_FACTOR`) times Eq. (2)'s load in
  :mod:`repro.core.theory`, and grouped coding's is that load at
  ``K -> g``, *independent of the user count* — the scalability
  headline of [24].

The wireless medium serializes all traffic by nature, which is exactly
the regime where coded shuffling shines (cf. the paper's serial
Fig. 9(b) schedule, which gives the wired shuffle the same
one-sender-at-a-time shape).
"""

from repro.wireless.channel import AirtimeLog, WirelessChannel
from repro.wireless.wdc import (
    RELAY_FACTOR,
    WirelessSortOutcome,
    run_wireless_sort,
)

__all__ = [
    "WirelessChannel",
    "AirtimeLog",
    "run_wireless_sort",
    "WirelessSortOutcome",
    "RELAY_FACTOR",
]
