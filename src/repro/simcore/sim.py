"""The simulation kernel: a time-ordered agenda of events.

:class:`Simulator` owns the clock, the event agenda, and a seeded
random number generator, so that every experiment in this repository is
deterministic given its seed.

The agenda holds ``(when, seq, call, event)`` tuples. ``seq`` is a
strictly increasing tie-breaker, so agenda ordering never compares the
last two fields. ``call is None`` marks an ordinary event whose
``callbacks`` the loop drains; otherwise the entry is a *direct call*
(``call(event)``) — the allocation-free path used for process
bootstraps, late callbacks, and interrupts (see ``events.py``).

Two agenda engines (see ``agenda.py``) pop the same ``(when, seq)``
order, so event order never depends on which one is running:

* the ``heapq`` heap — C-implemented push/pop that pure-Python bucket
  bookkeeping cannot beat while the agenda is small;
* a self-resizing calendar queue with a sorted far-future spill list:
  amortized O(1) push/pop, and the open bucket is a pre-sorted list, so
  ``run()`` drains same-timestamp batches (mesh config pushes, AVX-512
  crypto batches) writing ``self.now`` once per distinct timestamp.
  Fastest at fleet scale (tens of thousands of pending events and
  up), where heapq's O(log n) sifts dominate.

Every simulator starts on the heap and migrates — once, irreversibly,
O(n log n) — to the calendar queue the moment more than
``_AUTO_MIGRATE`` entries are pending. The engine is therefore chosen
only from what the run itself does: light testbed runs keep heapq's
small-agenda speed, fleet-scale runs get calendar throughput, and the
migration point is invisible in event order.

``run()`` inlines the event loop rather than calling :meth:`step` per
event: the loop is the hottest code in the repository and the per-event
method call, attribute reloads, and profiler check measurably cap
events/sec. :meth:`step` remains the single-event API (and the only
path when a profiler is attached).

Fired :class:`Timeout` objects that nothing else references are
recycled onto a per-simulator slab (``_timeout_slab``) and reused by
the next ``timeout()`` call, so steady-state scheduling allocates
nothing; a ``sys.getrefcount`` guard keeps any timeout the model still
holds out of the slab.
"""

from __future__ import annotations

import heapq
import random
import sys
from typing import Any, Generator, Optional

from .agenda import CalendarAgenda
from .hooks import new_profiler
from .events import AllOf, AnyOf, Event, Process, Timeout

__all__ = ["EmptySchedule", "Simulator"]

#: Pending-entry count above which a simulator migrates from the heap
#: engine to the calendar engine. Below it the C heap wins on constant
#: factors; above it heapq's O(log n) sifts lose to the calendar's
#: amortized O(1) bucket ops (see BENCH_simcore.json). Tests and
#: benchmarks force one engine by patching it (``inf``: heap forever;
#: ``-1``: calendar from the first push).
_AUTO_MIGRATE = 65_536

#: Max recycled Timeout objects parked per simulator.
_SLAB_CAP = 4096

# ``sys.getrefcount(event)`` at the recycle checkpoints when *nothing
# outside the loop* references the event. Heap loop: the popped tuple
# was freed by unpacking, so refs = the loop local + getrefcount's
# argument. Calendar loop: the consumed entry tuple is still parked in
# the open bucket, adding one. (Asserted empirically by the slab tests.)
_RECYCLE_RC_HEAP = 2
_RECYCLE_RC_CALENDAR = 3


class EmptySchedule(Exception):
    """Raised internally when the agenda runs dry before ``until``."""


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`. Model code
        should draw all randomness from :attr:`rng` (or generators seeded
        from it) so runs are reproducible.
    """

    def __init__(self, seed: Optional[int] = 0):
        self.now: float = 0.0
        #: The construction seed, kept so subsystems can derive their
        #: own independent streams (rng.derived_stream) — e.g. trace
        #: sampling — without consuming draws from :attr:`rng`.
        self.seed = seed
        self.rng = random.Random(seed)
        #: The heap engine until ``_migrate`` swaps in the calendar
        #: agenda (``_heap`` becomes None, ``_push`` its bound push).
        self._heap: Optional[list] = []
        self._agenda: Optional[CalendarAgenda] = None
        self._push = None
        #: Total agenda entries ever scheduled — also the agenda
        #: tie-breaker. ``benchmarks`` read this as the processed-event
        #: count after a run drains the agenda.
        self._sequence = 0
        #: Free list of fired, otherwise-unreferenced Timeout objects
        #: (each parked with an *empty* callbacks list), reused by
        #: ``timeout()`` so steady-state scheduling allocates nothing.
        self._timeout_slab: list = []
        #: Opt-in step profiler (repro.obs): ``None`` unless profiling
        #: was enabled via ``repro.obs.enable_profiling()`` when this
        #: simulator was constructed, keeping the default loop hot.
        self.profiler = new_profiler()

    @property
    def agenda_kind(self) -> str:
        """The agenda engine currently running this simulator:
        ``"heap"`` until (if ever) the fleet-scale migration trips,
        then ``"calendar"``."""
        return "heap" if self._heap is not None else "calendar"

    # -- scheduling --------------------------------------------------------
    def _migrate(self) -> None:
        """One-way heap → calendar migration (the ``_AUTO_MIGRATE`` trip).

        The heap list, sorted, *is* a clean spill list: hand it to a
        fresh calendar agenda whose first ``_advance`` rebuilds and
        tunes the window from the full pending distribution. Event
        order is unchanged — both engines pop the same total order —
        so the migration point is invisible to models.
        """
        agenda = CalendarAgenda()
        heap = self._heap
        heap.sort()
        agenda._spill = heap[:]
        agenda._size = len(heap)
        agenda.spilled = len(heap)
        # Empty the old list in place: a running ``_run_heap`` loop
        # holds it as a local and uses emptiness as its exit signal.
        del heap[:]
        self._heap = None
        self._agenda = agenda
        self._push = agenda.push

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        self._sequence += 1
        heap = self._heap
        if heap is None:
            self._push((self.now + delay, self._sequence, None, event))
        else:
            heapq.heappush(heap,
                           (self.now + delay, self._sequence, None, event))
            if len(heap) > _AUTO_MIGRATE:
                self._migrate()

    def _schedule_call(self, call, event: Any, delay: float = 0.0) -> None:
        """Schedule ``call(event)`` — no Event allocated, nothing drained."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        self._sequence += 1
        heap = self._heap
        if heap is None:
            self._push((self.now + delay, self._sequence, call, event))
        else:
            heapq.heappush(heap,
                           (self.now + delay, self._sequence, call, event))
            if len(heap) > _AUTO_MIGRATE:
                self._migrate()

    def call_later(self, delay: float, call, arg: Any = None) -> None:
        """Schedule ``call(arg)`` at ``now + delay`` on the direct-call path.

        The public face of the allocation-free agenda entry: no
        :class:`Event` is created, nothing can be waited on, and the
        loop invokes ``call(arg)`` directly when the entry fires. This
        is the right primitive for fixed-step model updates (the fluid
        tier in ``repro.fleet`` schedules every flow step through it)
        and other fire-and-forget callbacks: entries are plain 4-tuples,
        so the calendar agenda batches and drains them at full speed.

        Callbacks fire in ``(when, seq)`` order like everything else;
        exceptions propagate out of :meth:`run`/:meth:`step`. Unlike
        event callbacks there is no cancellation handle — model code
        that needs to cancel should keep its own epoch/generation
        counter and no-op stale firings.
        """
        self._schedule_call(call, arg, delay)

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now.

        Fast path: draws from the timeout slab via the shared
        slab-backed constructor (``Timeout._acquire`` — the same one
        ``Timeout(sim, d)`` routes through) and pushes the entry
        directly, skipping ``_schedule``'s redundant delay validation.
        """
        timeout = Timeout._acquire(self, delay, value)
        self._sequence += 1
        heap = self._heap
        if heap is None:
            self._push((self.now + delay, self._sequence, None, timeout))
        else:
            heapq.heappush(heap,
                           (self.now + delay, self._sequence, None, timeout))
            if len(heap) > _AUTO_MIGRATE:
                self._migrate()
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a process driving ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """An event that fires when every event in ``events`` succeeds."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process the single next entry on the agenda."""
        if self._heap is not None:
            if not self._heap:
                raise EmptySchedule()
            when, _seq, call, event = heapq.heappop(self._heap)
        else:
            try:
                when, _seq, call, event = self._agenda.pop()
            except IndexError:
                raise EmptySchedule() from None
        if call is not None:
            if self.profiler is not None:
                self.profiler.record_call(self, when, call, event)
            else:
                self.now = when
                call(event)
            return
        if self.profiler is not None:
            self.profiler.record_step(self, when, event)
        else:
            self.now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda is empty or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier, so utilization
        windows line up with experiment horizons.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        if self.profiler is not None:
            # Profiled path: per-event step() so attribution stays in
            # one place; the loop overhead is noise next to the timers.
            # Re-reads ``_heap`` every pass: the simulator may migrate
            # engines under us.
            while (self._heap if self._heap is not None
                   else len(self._agenda)):
                if until is not None and self.peek() > until:
                    break
                self.step()
        else:
            while True:
                if self._heap is not None:
                    self._run_heap(until)
                    if self._heap is None:
                        # The simulator migrated mid-run; resume on
                        # the calendar loop with the same limit.
                        continue
                else:
                    self._run_calendar(until)
                break
        if until is not None:
            self.now = until

    def _run_heap(self, until: Optional[float]) -> None:
        """The inlined heapq event loop (the PR 2 reference engine).

        Returns when the heap is drained or the limit is passed — or
        when a migration emptied the heap list mid-run (the
        caller re-dispatches onto the calendar loop).
        """
        heap = self._heap
        limit = float("inf") if until is None else until
        slab = self._timeout_slab
        getrefcount = sys.getrefcount
        pop = heapq.heappop
        while heap and heap[0][0] <= limit:
            when, _seq, call, event = pop(heap)
            self.now = when
            if call is not None:
                call(event)
                continue
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
            # Recycle a fired timeout nothing else references: the
            # refcount guard keeps model-held timeouts (and their
            # values) out of the slab, and the drained callbacks list
            # is cleared and reattached so a reused object can never
            # expose stale callbacks.
            if event.__class__ is Timeout and \
                    getrefcount(event) == _RECYCLE_RC_HEAP and \
                    len(slab) < _SLAB_CAP:
                del callbacks[:]
                event.callbacks = callbacks
                event._value = None
                slab.append(event)

    def _run_calendar(self, until: Optional[float]) -> None:
        """The calendar-queue event loop with batched same-time firing.

        The open bucket is a pre-sorted list consumed by index, so
        entries sharing a timestamp are adjacent: the loop writes
        ``self.now`` once and checks ``until`` once per *distinct*
        timestamp, then drains the whole batch. The agenda's cursor
        (``_pos``/``_size``) is committed once per batch (try/finally,
        so exceptions leave it consistent), not per event; pushes from
        model callbacks stay correct regardless (``CalendarAgenda.push``
        keys exceed every entry already consumed, so a stale ``lo``
        bound only widens ``insort``'s search), but model callbacks must
        not re-entrantly call ``step()``/``peek()`` mid-drain.
        """
        agenda = self._agenda
        limit = float("inf") if until is None else until
        slab = self._timeout_slab
        getrefcount = sys.getrefcount
        while True:
            open_ = agenda._open
            pos = agenda._pos
            if pos >= len(open_):
                if not agenda._advance():
                    break
                continue
            when = open_[pos][0]
            if when > limit:
                break
            self.now = when
            start = pos
            try:
                while True:
                    entry = open_[pos]
                    pos += 1
                    call = entry[2]
                    event = entry[3]
                    if call is not None:
                        call(event)
                    else:
                        callbacks, event.callbacks = event.callbacks, None
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise event._value
                        # Same recycle guard as the heap loop, one count
                        # higher: the consumed entry tuple still parked
                        # in the open bucket holds one extra reference.
                        if event.__class__ is Timeout and \
                                getrefcount(event) == _RECYCLE_RC_CALENDAR \
                                and len(slab) < _SLAB_CAP:
                            del callbacks[:]
                            event.callbacks = callbacks
                            event._value = None
                            slab.append(event)
                    # Zero-delay pushes insort into the open bucket at
                    # >= pos (their keys exceed everything consumed),
                    # so the live length re-check picks them up.
                    if pos < len(open_) and open_[pos][0] == when:
                        continue
                    break
            finally:
                agenda._pos = pos
                agenda._size -= pos - start

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        if heap is not None:
            return heap[0][0] if heap else float("inf")
        return self._agenda.peek()
