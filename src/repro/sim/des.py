"""A minimal generator-based discrete-event simulation engine.

The style follows SimPy's process-interaction model (built from scratch —
no external dependency): simulation processes are Python generators that
``yield`` awaitables; the environment advances virtual time through a heap
of scheduled events.

Supported awaitables:

* :class:`Timeout` — resume after a virtual delay;
* :class:`Event` — resume when someone calls :meth:`Event.succeed`;
* :class:`Process` — resume when another process finishes (join);
* the request events of :class:`Resource` (FIFO counting semaphore) and
  :class:`Barrier` (N-party synchronization).

Determinism: simultaneous events fire in schedule order (a monotonically
increasing sequence number breaks time ties), so simulations are exactly
reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimError(RuntimeError):
    """Raised on engine misuse (double-triggering, yielding junk, ...)."""


class Event:
    """A one-shot event; processes may wait on it before or after firing."""

    __slots__ = ("env", "_callbacks", "triggered", "value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, resuming all waiters at the current sim time."""
        if self.triggered:
            raise SimError("event already triggered")
        self.triggered = True
        self.value = value
        for cb in self._callbacks:
            self.env._schedule(0.0, cb, self)
        self._callbacks.clear()
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.env._schedule(0.0, cb, self)
        else:
            self._callbacks.append(cb)


class Timeout(Event):
    """An event that fires ``delay`` sim-seconds after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float) -> None:
        if delay < 0:
            raise SimError(f"negative timeout {delay}")
        super().__init__(env)
        env._schedule(delay, self._fire, None)

    def _fire(self, _evt: Optional[Event]) -> None:
        if not self.triggered:
            self.succeed()


SimGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process; itself an event that fires on return."""

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment", gen: SimGenerator) -> None:
        super().__init__(env)
        self._gen = gen
        env._schedule(0.0, self._resume, None)

    def _resume(self, evt: Optional[Event]) -> None:
        value = evt.value if evt is not None else None
        try:
            target = self._gen.send(value) if evt is not None else next(self._gen)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimError(
                f"process yielded {target!r}; expected an Event/Timeout/Process"
            )
        target.add_callback(self._resume)


class Environment:
    """The event loop: virtual clock plus a deterministic event heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[Optional[Event]], None], Optional[Event]]] = []
        self._seq = 0

    # -- scheduling ------------------------------------------------------------

    def _schedule(
        self,
        delay: float,
        cb: Callable[[Optional[Event]], None],
        evt: Optional[Event],
    ) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._seq, cb, evt))
        self._seq += 1

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: SimGenerator) -> Process:
        """Start a new process from a generator."""
        return Process(self, gen)

    # -- execution ----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains (or the clock passes ``until``)."""
        while self._heap:
            t, _seq, cb, evt = self._heap[0]
            if until is not None and t > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            if t < self.now:
                raise SimError("time went backwards (engine bug)")
            self.now = t
            cb(evt)

    def run_process(self, gen: SimGenerator) -> Any:
        """Convenience: start ``gen``, run to completion, return its value."""
        proc = self.process(gen)
        self.run()
        if not proc.triggered:
            raise SimError("process did not finish (deadlock?)")
        return proc.value


class Resource:
    """FIFO counting semaphore (e.g. the serial shuffle token, NICs)."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: List[Event] = []

    def request(self) -> Event:
        """Returns an event that fires when the resource is granted."""
        evt = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError("release without a matching request")
        if self._waiters:
            # Hand the slot directly to the next waiter (FIFO).
            self._waiters.pop(0).succeed()
        else:
            self._in_use -= 1


class MultiLock:
    """Atomic all-or-nothing acquisition of a set of integer-keyed locks.

    Incremental lock-by-lock acquisition (even in a global order) is
    deadlock-free but convoys: a waiting process holds the locks it already
    has, serializing chains of overlapping requests.  ``MultiLock`` instead
    grants a request only when *all* of its keys are free, seizing them
    together, so disjoint requests always proceed concurrently.

    Grant policy is FIFO-with-skip: on every release the wait queue is
    scanned in arrival order and any request whose key set is now fully free
    is granted (keys are marked busy as the scan proceeds, so earlier
    waiters shadow later conflicting ones).  A new request is granted
    immediately only when the queue is empty — arrivals never overtake
    waiters, which rules out starvation.
    """

    def __init__(self, env: Environment, num_keys: int) -> None:
        if num_keys < 1:
            raise SimError(f"num_keys must be >= 1, got {num_keys}")
        self.env = env
        self.num_keys = num_keys
        self._busy = [False] * num_keys
        self._queue: List[Tuple[Tuple[int, ...], Event]] = []

    def _validate(self, keys: Tuple[int, ...]) -> None:
        for k in keys:
            if not 0 <= k < self.num_keys:
                raise SimError(f"key {k} out of range({self.num_keys})")

    def acquire(self, keys) -> Event:
        """Returns an event firing once every key in ``keys`` is held."""
        keyset = tuple(sorted(set(keys)))
        if not keyset:
            raise SimError("acquire() needs at least one key")
        self._validate(keyset)
        evt = Event(self.env)
        if all(not self._busy[k] for k in keyset) and not self._queue:
            for k in keyset:
                self._busy[k] = True
            evt.succeed()
        else:
            self._queue.append((keyset, evt))
        return evt

    def release(self, keys) -> None:
        """Release ``keys`` and grant any now-satisfiable queued requests."""
        keyset = tuple(sorted(set(keys)))
        self._validate(keyset)
        for k in keyset:
            if not self._busy[k]:
                raise SimError(f"release of key {k} without a matching acquire")
            self._busy[k] = False
        if not self._queue:
            return
        still_waiting: List[Tuple[Tuple[int, ...], Event]] = []
        for waiting_keys, evt in self._queue:
            if all(not self._busy[k] for k in waiting_keys):
                for k in waiting_keys:
                    self._busy[k] = True
                evt.succeed()
            else:
                still_waiting.append((waiting_keys, evt))
        self._queue = still_waiting


class Barrier:
    """N-party reusable barrier for stage synchronization."""

    def __init__(self, env: Environment, parties: int) -> None:
        if parties < 1:
            raise SimError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self._arrived = 0
        self._gate = Event(env)

    def wait(self) -> Event:
        """Returns an event firing when all parties have arrived."""
        self._arrived += 1
        gate = self._gate
        if self._arrived == self.parties:
            self._arrived = 0
            self._gate = Event(self.env)
            gate.succeed()
        return gate
