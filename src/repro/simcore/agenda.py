"""Agenda structures for the simulation kernel.

The :class:`Simulator` agenda is a priority queue of
``(when, seq, call, event)`` tuples ordered by ``(when, seq)`` — ``seq``
is unique, so comparisons never reach the last two fields. Two
implementations share that contract:

* :class:`HeapAgenda` — the reference: a plain ``heapq`` binary heap,
  O(log n) push/pop. The simulator inlines the same heap for small
  agendas; this class is the oracle the equivalence tests compare
  against.
* :class:`CalendarAgenda` — the fleet-scale engine: a calendar queue
  (R. Brown, CACM 1988) with amortized O(1) push/pop in the
  heavy-traffic regime, plus a sorted *spill list* for far-future
  entries (cert-rotation timers, daily-ops schedules) that would
  otherwise force an absurdly wide bucket window.

Calendar design
---------------
Simulated time is divided into a *window* of ``nbuckets`` consecutive
buckets of ``width`` seconds starting at ``base``. A push lands in
bucket ``int((when - base) / width)``; entries past the window go to
the spill list. Buckets are plain appended-to lists, sorted lazily
(timsort, in C) the moment the clock enters them; the open bucket is
then consumed by index, so a pop is a list subscript, not a heap sift.
Same-``when`` entries end up *adjacent* in the open bucket, which is
what lets the simulator drain them as one batch (see ``sim.run``).

Three details keep the structure honest at any scale:

* **Non-empty bucket index heap.** Instead of scanning empty buckets,
  the agenda keeps a tiny heap of indices of non-empty future buckets.
  Advancing to the next bucket is one ``heappop`` regardless of how
  sparse the window is, so a badly tuned width degrades smoothly
  instead of catastrophically.
* **Self-resizing width.** When the window is exhausted the agenda
  rebuilds from the spill list: it sorts the spill (usually a no-op —
  steady-state appends arrive in time order), then picks a new width
  from the density of a *front sample* of the sorted spill — the head
  is where the clock goes next, and a far-future tail (cert rotations)
  must not stretch the width until near-term events collapse into a
  single bucket. The window's *length* targets the 90th-percentile
  span; outliers beyond it stay spilled rather than stretching the
  window.
* **Late pushes stay ordered.** A push into the *open* (partially
  consumed) bucket — or before it, which can only happen after
  ``peek()`` opened a bucket early — is ``bisect.insort``-ed at or
  after the consumption point. Every such entry carries a ``(when,
  seq)`` key greater than everything already popped, so insertion
  order is exact.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

__all__ = ["CalendarAgenda", "HeapAgenda"]

_INF = float("inf")

#: One agenda entry: (when, seq, call, event).
Entry = Tuple[float, int, Any, Any]


class HeapAgenda:
    """Reference agenda: a binary heap of ``(when, seq, call, event)``."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Entry] = []

    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    def pop(self) -> Entry:
        return heappop(self._heap)

    def peek(self) -> float:
        """Time of the earliest entry, or ``inf`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def __len__(self) -> int:
        return len(self._heap)

    def stats(self) -> dict:
        return {"kind": "heap", "pending": len(self._heap)}


class CalendarAgenda:
    """Calendar-queue agenda with a far-future spill list.

    Parameters
    ----------
    nbuckets:
        Buckets per window. More buckets cover a longer horizon per
        rebuild; the index heap keeps sparse windows cheap either way.
    target_occupancy:
        Average entries per bucket the self-tuning width aims for.
        Larger values mean bigger (but fewer) lazy bucket sorts.
    """

    __slots__ = (
        "_nbuckets", "_min_buckets", "_target_occupancy", "_buckets",
        "_bheap", "_open", "_pos", "_cur", "_size", "_base", "_width",
        "_inv_width", "_window_cap", "_spill", "_spill_pos",
        "_spill_dirty", "rebuilds", "spilled",
    )

    #: Quantile of the pending-entry span used for window *length*
    #: tuning; entries beyond it stay spilled instead of stretching
    #: the window.
    _TUNE_QUANTILE = 0.9

    #: Entries sampled from the head of the sorted spill to estimate
    #: near-term density for bucket *width* tuning. A bimodal pending
    #: set (steady traffic plus far-future timers) would contaminate a
    #: quantile-based density estimate and collapse all near-term
    #: entries into one bucket.
    _DENSITY_SAMPLE = 8192

    #: Window length target, as a multiple of the pending-entry span.
    #: Steady-state models reschedule ~one span ahead of the clock, so
    #: covering two spans keeps those pushes in buckets (O(1) append)
    #: instead of routing them through the spill list's sort.
    _WINDOW_SPANS = 8.0

    #: Bucket-count ceiling per window (memory/alloc bound); windows
    #: that would need more simply spill the tail and rebuild sooner.
    _MAX_BUCKETS = 1 << 16

    def __init__(self, nbuckets: int = 512,
                 target_occupancy: float = 16.0) -> None:
        if nbuckets < 1:
            raise ValueError(f"nbuckets must be >= 1, got {nbuckets}")
        self._nbuckets = nbuckets
        self._min_buckets = nbuckets
        self._target_occupancy = float(target_occupancy)
        self._buckets: List[List[Entry]] = [[] for _ in range(nbuckets)]
        #: Min-heap of indices of non-empty, not-yet-opened buckets.
        self._bheap: List[int] = []
        #: The open (currently draining) bucket, sorted; consumed by
        #: index ``_pos`` so pops never shift list contents.
        self._open: List[Entry] = []
        self._pos = 0
        self._cur = -1  # index of the open bucket; -1 before first open
        self._size = 0
        # Window geometry. ``_window_cap`` is -inf until the first
        # rebuild, sending every early push to the spill list so the
        # first real window is tuned from the observed distribution
        # instead of a guessed width.
        self._base = 0.0
        self._width = 1.0
        self._inv_width = 1.0
        self._window_cap = -_INF
        # Far-future entries, consumed from ``_spill_pos`` once sorted.
        self._spill: List[Entry] = []
        self._spill_pos = 0
        self._spill_dirty = False
        # Introspection counters (tests assert the spill path runs).
        self.rebuilds = 0
        self.spilled = 0

    # -- core operations ----------------------------------------------------
    def push(self, entry: Entry) -> None:
        self._size += 1
        offset = (entry[0] - self._base) * self._inv_width
        if offset < self._window_cap:
            idx = int(offset)
            if idx <= self._cur:
                # Into (or before) the open bucket: keep sorted order
                # past the consumption point. The entry's (when, seq)
                # key exceeds everything already popped, so lo=_pos is
                # a valid left bound even when stale by a callback.
                insort(self._open, entry, lo=self._pos)
            else:
                bucket = self._buckets[idx]
                bucket.append(entry)
                if len(bucket) == 1:
                    heappush(self._bheap, idx)
        else:
            # Past the window horizon (or before the first rebuild).
            self._spill.append(entry)
            self._spill_dirty = True
            self.spilled += 1

    def pop(self) -> Entry:
        pos = self._pos
        open_ = self._open
        if pos < len(open_):
            self._pos = pos + 1
            self._size -= 1
            return open_[pos]
        if self._advance():
            self._pos = 1
            self._size -= 1
            return self._open[0]
        raise IndexError("pop from an empty agenda")

    def peek(self) -> float:
        """Time of the earliest entry, or ``inf`` when empty.

        May open the next bucket (sorting it) to find out; that keeps
        ``peek`` O(1) amortized and leaves the agenda ready to pop.
        """
        if self._pos < len(self._open):
            return self._open[self._pos][0]
        if self._advance():
            return self._open[0][0]
        return _INF

    def __len__(self) -> int:
        return self._size

    def stats(self) -> dict:
        return {"kind": "calendar", "pending": self._size,
                "width": self._width, "base": self._base,
                "rebuilds": self.rebuilds, "spilled": self.spilled,
                "spill_pending": len(self._spill) - self._spill_pos}

    # -- window maintenance --------------------------------------------------
    def _advance(self) -> bool:
        """Open the next non-empty bucket; False if the agenda is empty.

        Clears the exhausted open bucket in place (recycling its list)
        and, when the whole window is spent, rebuilds it from the
        spill list with a freshly tuned width.
        """
        old = self._open
        if old:
            del old[:]
        self._pos = 0
        bheap = self._bheap
        buckets = self._buckets
        while True:
            if bheap:
                idx = heappop(bheap)
                bucket = buckets[idx]
                self._cur = idx
                bucket.sort()
                self._open = bucket
                return True
            if self._spill_pos < len(self._spill):
                self._rebuild()
                continue
            return False

    def _rebuild(self) -> None:
        """Retune the window over the pending spill and distribute it."""
        self.rebuilds += 1
        spill = self._spill
        pos = self._spill_pos
        if self._spill_dirty:
            if pos:
                del spill[:pos]
                pos = 0
            # Steady-state appends arrive in time order, so this is
            # usually a two-run merge or a no-op for timsort.
            spill.sort()
            self._spill_dirty = False
        pending = len(spill) - pos
        base = spill[pos][0]
        # Tune width from near-term density and window length from the
        # quantile-trimmed span; the tail past the quantile stays
        # spilled rather than stretching the window.
        if pending > 1:
            hi_index = pos + int(self._TUNE_QUANTILE * (pending - 1))
            span = spill[hi_index][0] - base
            if span > 0.0:
                # Width from a front sample: the head of the sorted
                # spill is where the clock goes next, and a far-future
                # tail must not widen buckets until near-term entries
                # collapse into a single open bucket.
                front = pos + min(pending - 1, self._DENSITY_SAMPLE)
                front_span = spill[front][0] - base
                if front_span > 0.0:
                    width = (front_span * self._target_occupancy
                             / (front - pos))
                    # Extrapolate the front density across the whole
                    # pending set. When the quantile span is inflated
                    # by a sparse far-future tail, the extrapolation
                    # is the honest window target: the tail belongs in
                    # the spill list, not stretched across the window.
                    est_span = front_span * (pending - 1) / (front - pos)
                    window_span = span if span < est_span else est_span
                else:
                    # The whole front sample is one same-instant
                    # burst; fall back to the quantile span.
                    covered = hi_index - pos + 1
                    width = span * self._target_occupancy / covered
                    window_span = span
                if not width > 0.0 or width == _INF:  # denormal/overflow
                    width = 1.0
                # Size the window to cover _WINDOW_SPANS × the target
                # span: steady-state models reschedule about one span
                # ahead of the clock, and those pushes must land in
                # buckets, not cycle through the spill sort.
                want = self._WINDOW_SPANS * window_span / width + 1.0
                if not want < self._MAX_BUCKETS:  # inf/nan-safe clamp
                    nbuckets = self._MAX_BUCKETS
                    # The bucket-count ceiling would have shrunk the
                    # window below _WINDOW_SPANS coverage; widen the
                    # buckets instead. Occupancy rises above target,
                    # but a bigger bucket timsort (C) is far cheaper
                    # than cycling steady-state pushes through the
                    # spill list.
                    wide = self._WINDOW_SPANS * window_span / nbuckets
                    if width < wide < _INF:
                        width = wide
                else:
                    nbuckets = int(want)
                    if nbuckets < self._min_buckets:
                        nbuckets = self._min_buckets
                self._width = width
                buckets = self._buckets
                if nbuckets > len(buckets):
                    buckets.extend(
                        [] for _ in range(nbuckets - len(buckets)))
                elif nbuckets < len(buckets):
                    # Every bucket is empty here (rebuild only runs once
                    # the window is exhausted), so shrinking drops only
                    # empty lists.
                    del buckets[nbuckets:]
                self._nbuckets = nbuckets
        self._base = base
        self._inv_width = inv = 1.0 / self._width
        self._window_cap = cap = float(self._nbuckets)
        self._cur = -1
        buckets = self._buckets
        bheap = self._bheap
        index = pos
        end = len(spill)
        while index < end:
            entry = spill[index]
            offset = (entry[0] - base) * inv
            if not offset < cap:
                break  # spill is sorted: everything after stays spilled
            bucket = buckets[int(offset)]
            bucket.append(entry)
            if len(bucket) == 1:
                heappush(bheap, int(offset))
            index += 1
        if index == end:
            del spill[:]
            self._spill_pos = 0
        else:
            self._spill_pos = index
