"""Agenda engines: heap-vs-calendar order equivalence, auto migration,
spill/rebuild mechanics, and the timeout slab."""

import random

import pytest

from repro.simcore import (
    CalendarAgenda,
    EmptySchedule,
    HeapAgenda,
    Simulator,
    Timeout,
)
from repro.simcore import sim as simmod

#: Migration threshold that forces each engine: ``heap`` never
#: migrates, ``calendar`` migrates on the first push, ``auto`` keeps
#: the production threshold.
MIGRATE_AT = {"heap": float("inf"), "calendar": -1,
              "auto": simmod._AUTO_MIGRATE}
KINDS = tuple(MIGRATE_AT)


def _force_engine(monkeypatch, kind):
    monkeypatch.setattr(simmod, "_AUTO_MIGRATE", MIGRATE_AT[kind])


@pytest.fixture(params=KINDS)
def kind(request, monkeypatch):
    """Run the test once per engine, forced via the migration threshold."""
    _force_engine(monkeypatch, request.param)
    return request.param


# ---------------------------------------------------------------------------
# agenda-level: the two structures must pop the exact same total order.


def _random_ops(rng, npushes):
    """An interleaved push/pop schedule with bursts and far outliers."""
    ops = []
    outstanding = 0
    seq = 0
    now = 0.0
    while seq < npushes:
        if outstanding and rng.random() < 0.4:
            ops.append(("pop",))
            outstanding -= 1
            continue
        roll = rng.random()
        if roll < 0.15:
            when = now + rng.choice([1.0, 2.0, 5.0])  # same-when bursts
        elif roll < 0.25:
            when = now + 3600.0 + rng.random() * 86_400.0  # far future
        else:
            when = now + rng.random() * 3.0
        seq += 1
        ops.append(("push", (when, seq, None, None)))
        outstanding += 1
        now += rng.random() * 0.01
    ops.extend([("pop",)] * outstanding)
    return ops


class TestAgendaEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_randomized_interleaved_order(self, seed):
        rng = random.Random(seed)
        ops = _random_ops(rng, 1_500)
        reference = HeapAgenda()
        calendar = CalendarAgenda(nbuckets=8, target_occupancy=2.0)
        for op in ops:
            assert calendar.peek() == reference.peek()
            assert len(calendar) == len(reference)
            if op[0] == "push":
                reference.push(op[1])
                calendar.push(op[1])
            else:
                assert calendar.pop() == reference.pop()
        assert len(calendar) == len(reference) == 0
        assert calendar.peek() == reference.peek() == float("inf")

    def test_far_future_spill_path_runs(self):
        rng = random.Random(3)
        reference = HeapAgenda()
        calendar = CalendarAgenda()
        seq = 0
        for _ in range(9_000):  # near mode, inside the density sample
            seq += 1
            entry = (rng.random(), seq, None, None)
            reference.push(entry)
            calendar.push(entry)
        for _ in range(3_000):  # sparse far tail
            seq += 1
            entry = (3600.0 + rng.random() * 86_400.0, seq, None, None)
            reference.push(entry)
            calendar.push(entry)
        for _ in range(9_000):
            assert calendar.pop() == reference.pop()
        # The near mode is drained; the whole far tail must still be
        # pending, and the bimodal distribution must not have widened
        # the buckets to "one bucket swallows the near mode".
        assert len(calendar) == 3_000
        assert calendar.spilled >= 3_000
        assert calendar.rebuilds >= 1
        assert calendar.stats()["width"] < 60.0
        while len(reference):
            assert calendar.pop() == reference.pop()

    def test_same_when_entries_pop_in_seq_order(self):
        calendar = CalendarAgenda()
        entries = [(2.0, seq, None, None) for seq in range(50)]
        shuffled = entries[:]
        random.Random(5).shuffle(shuffled)
        for entry in shuffled:
            calendar.push(entry)
        assert [calendar.pop() for _ in range(50)] == entries

    def test_empty_agenda(self):
        calendar = CalendarAgenda()
        assert calendar.peek() == float("inf")
        assert len(calendar) == 0
        with pytest.raises(IndexError):
            calendar.pop()

    def test_bad_nbuckets_rejected(self):
        with pytest.raises(ValueError):
            CalendarAgenda(nbuckets=0)


# ---------------------------------------------------------------------------
# sim-level: every engine kind runs the same workload identically.


def _mixed_workload(sim, log):
    """Jittered re-arming timers, a same-instant burst, zero-delay
    chains, and far-future timers past the horizon."""
    rng = random.Random(99)

    def rearm(event):
        log.append((sim.now, "tick", event.value))
        if sim.now < 25.0:
            sim.timeout(0.5 + rng.random(), event.value).add_callback(rearm)

    def burst(event):
        log.append((sim.now, "burst", event.value))

    def chain(event):
        sim.timeout(0.0, "z").add_callback(
            lambda ev: log.append((sim.now, "zero", ev.value)))

    for index in range(40):
        sim.timeout(rng.random() * 2.0, index).add_callback(rearm)
    for index in range(25):
        sim.timeout(5.0, 100 + index).add_callback(burst)
    for index in range(10):
        sim.timeout(3600.0 + rng.random() * 100.0,
                    200 + index).add_callback(burst)
    sim.timeout(1.0).add_callback(chain)


def _run_workload():
    sim = Simulator(seed=1)
    log = []
    _mixed_workload(sim, log)
    sim.run(until=30.0)
    return sim, log


class TestEngineEquivalence:
    def test_all_kinds_identical_logs(self, monkeypatch):
        sims_and_logs = {}
        for kind in KINDS:
            _force_engine(monkeypatch, kind)
            sims_and_logs[kind] = _run_workload()
        heap_log = sims_and_logs["heap"][1]
        assert len(heap_log) > 500
        for kind in ("calendar", "auto"):
            assert sims_and_logs[kind][1] == heap_log
        for kind, (sim, _) in sims_and_logs.items():
            assert sim.now == 30.0
        # The forced engines really ran; the light workload stays on
        # the heap under the production threshold.
        assert sims_and_logs["heap"][0].agenda_kind == "heap"
        assert sims_and_logs["calendar"][0].agenda_kind == "calendar"
        assert sims_and_logs["auto"][0].agenda_kind == "heap"

    def test_auto_migrates_and_stays_identical(self, monkeypatch):
        monkeypatch.setattr(simmod, "_AUTO_MIGRATE", 40)
        sim, log = _run_workload()
        assert sim.agenda_kind == "calendar"  # the trip point fired
        assert sim._heap is None
        _force_engine(monkeypatch, "heap")
        assert log == _run_workload()[1]

    def test_auto_starts_on_heap(self):
        sim = Simulator()
        assert sim.agenda_kind == "heap"

    def test_run_until_boundary(self, kind):
        sim = Simulator()
        fired = []
        sim.timeout(1.0, "a").add_callback(lambda ev: fired.append(ev.value))
        sim.timeout(2.0, "b").add_callback(lambda ev: fired.append(ev.value))
        sim.timeout(2.5, "c").add_callback(lambda ev: fired.append(ev.value))
        sim.run(until=2.0)
        assert fired == ["a", "b"]  # events at exactly `until` fire
        assert sim.now == 2.0
        with pytest.raises(ValueError):
            sim.run(until=1.0)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_step_and_peek(self, kind):
        sim = Simulator()
        fired = []
        for delay in (2.0, 1.0, 1.0):
            sim.timeout(delay, delay).add_callback(
                lambda ev: fired.append(ev.value))
        assert sim.peek() == 1.0
        sim.step()
        assert sim.now == 1.0 and fired == [1.0]
        sim.step()
        sim.step()
        assert fired == [1.0, 1.0, 2.0]
        assert sim.peek() == float("inf")
        with pytest.raises(EmptySchedule):
            sim.step()


# ---------------------------------------------------------------------------
# the timeout slab and the shared constructor (satellite of the engine PR).


_TIMEOUT_FIELDS = ("sim", "_value", "_ok", "_defused", "delay")


class TestTimeoutSlab:
    def test_constructor_paths_identical_state(self):
        sim_a, sim_b = Simulator(seed=0), Simulator(seed=0)
        public = Timeout(sim_a, 2.5, "payload")
        fast = sim_b.timeout(2.5, "payload")
        for name in _TIMEOUT_FIELDS:
            if name != "sim":
                assert getattr(public, name) == getattr(fast, name), name
        assert (fast.delay, fast._value, fast._ok, fast._defused) == (
            2.5, "payload", True, False)
        assert public.callbacks == fast.callbacks == []
        assert public.sim is sim_a and fast.sim is sim_b
        # Both paths actually scheduled the event.
        for sim, timeout in ((sim_a, public), (sim_b, fast)):
            fired = []
            timeout.add_callback(lambda ev: fired.append(sim.now))
            sim.run()
            assert fired == [2.5]

    def test_recycled_state_matches_fresh(self):
        sim = Simulator(seed=0)
        sim.timeout(1.0, "old")
        sim.run()
        assert len(sim._timeout_slab) == 1
        recycled_id = id(sim._timeout_slab[0])
        reused = sim.timeout(2.0, "new")
        assert id(reused) == recycled_id  # the slab really was drawn
        assert not sim._timeout_slab
        assert reused.callbacks == []     # and carried no stale state
        assert reused._value == "new"
        assert reused.delay == 2.0

    @pytest.mark.parametrize("engine", ("heap", "calendar"))
    def test_slab_fills_on_both_engines(self, monkeypatch, engine):
        _force_engine(monkeypatch, engine)
        sim = Simulator(seed=0)
        for index in range(20):
            sim.timeout(float(index) + 1.0)
        sim.run()
        assert len(sim._timeout_slab) == 20

    def test_model_held_timeout_is_not_recycled(self):
        sim = Simulator(seed=0)
        held = sim.timeout(1.0, "keep")
        sim.run()
        assert held not in sim._timeout_slab
        assert held.value == "keep"  # value survives for the holder

    def test_negative_delay_rejected_on_both_paths(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            sim.timeout(-1.0)
        with pytest.raises(ValueError):
            Timeout(sim, -1.0)

    def test_slab_is_capped(self):
        sim = Simulator(seed=0)
        for _ in range(simmod._SLAB_CAP + 50):
            sim.timeout(1.0)
        sim.run()
        assert len(sim._timeout_slab) == simmod._SLAB_CAP
