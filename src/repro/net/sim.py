"""A deterministic discrete-event simulator.

The time base for every networked model in the package.  Events are
``(time, sequence, callback)`` triples in a heap; ``run_until_idle``
pumps them in order.  :meth:`Simulator.run_until` supports re-entrant
pumping, which lets :meth:`repro.net.network.Network.transact` offer a
synchronous request/response API on top of one-way message events --
protocol code reads like straight-line code while timestamps stay
globally consistent.

Callbacks may be any zero-argument callable.  The network schedules
slotted event objects (its ``_Delivery`` record) instead of
per-packet lambda closures: the object carries its arguments in slots
and is re-armed from a free list, so the steady state allocates no
closures and no cells.  ``_step`` dispatches both forms identically
via ``callback()``.

Deadline *markers* (:meth:`marker_at`) are events whose only purpose
is to wake the clock at a given time.  They are cancelable: a canceled
marker is dropped lazily when it reaches the top of the heap, without
counting as a processed event or running hooks, so synchronous
``transact`` calls that complete before their deadline no longer
accumulate dead heap entries.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry as _get_registry

__all__ = ["Simulator"]

#: Signature of a per-event hook: ``hook(time, callback)`` runs just
#: before the event's callback executes.
EventHook = Callable[[float, Callable[[], None]], None]


class _Marker:
    """A cancelable wake-at-time heap entry (no-op when it fires)."""

    __slots__ = ("canceled", "fired")

    def __init__(self) -> None:
        self.canceled = False
        self.fired = False

    def __call__(self) -> None:  # pragma: no cover - trivial
        pass


class Simulator:
    """An event queue with a monotonically advancing clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._canceled = 0
        self._hooks: List[EventHook] = []

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        """Live events still queued (canceled markers excluded)."""
        return len(self._queue) - self._canceled

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (self.now + delay, next(self._sequence), callback))

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time`` (>= now)."""
        self.schedule(time - self.now, callback)

    def marker_at(self, time: float) -> _Marker:
        """Queue a cancelable no-op event at absolute ``time``.

        Returns a handle for :meth:`cancel`.  Used to pin a wake-up at
        a transact deadline; canceling it on the success path keeps the
        heap free of dead entries.
        """
        marker = _Marker()
        self.at(time, marker)
        return marker

    def cancel(self, marker: _Marker) -> None:
        """Cancel a queued marker (idempotent).

        Cancellation is lazy: the heap entry stays until it surfaces,
        then is skipped without advancing ``events_processed`` or
        running hooks.  ``pending`` reflects the cancellation at once.
        Canceling a marker that already fired (e.g. a transact whose
        response arrived exactly at the deadline) is a no-op.
        """
        if not marker.canceled and not marker.fired:
            marker.canceled = True
            self._canceled += 1

    def add_hook(self, hook: EventHook) -> None:
        """Call ``hook(time, callback)`` before each event executes.

        Hooks are the profiling seam: an event-frequency profiler or a
        watchdog attaches here without subclassing the simulator.
        """
        self._hooks.append(hook)

    def remove_hook(self, hook: EventHook) -> None:
        self._hooks.remove(hook)

    def _step(self) -> bool:
        queue = self._queue
        while queue:
            time, _, callback = heapq.heappop(queue)
            if callback.__class__ is _Marker:
                if callback.canceled:
                    self._canceled -= 1
                    continue
                callback.fired = True
            if time < self.now:
                raise RuntimeError("event queue went backwards in time")
            self.now = time
            self._processed += 1
            if _obs.COUNTERS:
                _get_registry().events += 1
            if self._hooks:
                for hook in self._hooks:
                    hook(time, callback)
            callback()
            return True
        return False

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Pump events until the queue drains; returns events processed.

        At most ``max_events`` events run; if live events remain past
        that budget the simulation is declared an event storm.
        """
        count = 0
        while self._step():
            count += 1
            if count >= max_events and self.pending:
                raise RuntimeError(
                    f"simulation did not quiesce (event storm? "
                    f"{count} events processed, {self.pending} still pending)"
                )
        return count

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = 1_000_000
    ) -> None:
        """Pump events until ``predicate()`` holds.

        Safe to call re-entrantly from inside an event callback -- this
        is what makes synchronous ``transact`` possible.  Raises if the
        queue drains first, or if ``max_events`` events run without the
        predicate coming true.
        """
        count = 0
        while not predicate():
            if count >= max_events:
                raise RuntimeError(
                    f"predicate never satisfied (event storm? "
                    f"{count} events processed, {self.pending} still pending)"
                )
            if not self._step():
                raise RuntimeError(
                    "simulation went idle before the awaited condition held"
                )
            count += 1

    def advance(self, delta: float) -> None:
        """Move the clock forward with no events (pure think time)."""
        if delta < 0:
            raise ValueError("cannot advance backwards")
        self.now += delta
