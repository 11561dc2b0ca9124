"""The heap agenda: exact ``(when, seq)`` order at any scale, the
run-until boundary, step/peek, and the timeout slab."""

import random

import pytest

from repro.simcore import EmptySchedule, Simulator, Timeout
from repro.simcore import sim as simmod


def _timeout_logged(sim, delay, log, pushed):
    """Schedule a timeout and record its ``(when, seq)`` agenda key."""
    timeout = sim.timeout(delay)
    key = (sim.now + delay, sim._sequence)
    pushed.append(key)
    timeout.add_callback(lambda event: log.append(key))
    return timeout


# ---------------------------------------------------------------------------
# order: whatever the interleaving, entries fire in sorted (when, seq) order.


class TestAgendaEquivalence:
    """The agenda pops exactly the order of a sorted reference list."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_randomized_interleaved_order(self, seed):
        # Firings schedule follow-ups from inside the loop, so pushes
        # and pops interleave, with same-when bursts, zero delays and a
        # sparse far-future tail.
        rng = random.Random(seed)
        sim = Simulator(seed=seed)
        log, pushed = [], []

        def delay():
            roll = rng.random()
            if roll < 0.15:
                return rng.choice([0.0, 1.0, 2.0, 5.0])
            if roll < 0.25:
                return 3600.0 + rng.random() * 86_400.0
            return rng.random() * 3.0

        def fire(event):
            for _ in range(rng.choice([0, 1, 1, 2])):
                if len(pushed) < 1_500:
                    _timeout_logged(sim, delay(), log, pushed) \
                        .add_callback(fire)

        for _ in range(50):
            _timeout_logged(sim, delay(), log, pushed).add_callback(fire)
        sim.run()
        assert len(pushed) == 1_500
        assert log == sorted(pushed)

    def test_fleet_scale_pending_set_fires_in_order(self):
        # More pending timers than the 65,536 at which the engine used
        # to switch to a calendar queue: the heap alone keeps the order.
        rng = random.Random(11)
        sim = Simulator(seed=0)
        log, pushed = [], []
        for _ in range(70_000):
            # Coarse delays force many same-when ties onto ``seq``.
            _timeout_logged(sim, rng.randrange(5_000) / 100.0, log, pushed)
        assert len(sim._heap) > 65_536
        sim.run()
        assert sim.agenda_kind == "heap"
        assert log == sorted(pushed)
        assert len(log) == 70_000

    def test_same_when_entries_pop_in_seq_order(self):
        sim = Simulator()
        fired = []
        for index in range(50):
            sim.timeout(2.0, index).add_callback(
                lambda ev: fired.append(ev.value))
        sim.run()
        assert fired == list(range(50))

    def test_empty_agenda(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        with pytest.raises(EmptySchedule):
            sim.step()
        sim.run()
        assert sim.now == 0.0
        sim.run(until=5.0)
        assert sim.now == 5.0


# ---------------------------------------------------------------------------
# the run loop, step and peek.


class TestRunLoop:
    def test_run_until_boundary(self):
        sim = Simulator()
        fired = []
        sim.timeout(1.0, "a").add_callback(lambda ev: fired.append(ev.value))
        sim.timeout(2.0, "b").add_callback(lambda ev: fired.append(ev.value))
        sim.timeout(2.5, "c").add_callback(lambda ev: fired.append(ev.value))
        sim.run(until=2.0)
        assert fired == ["a", "b"]  # events at exactly `until` fire
        assert sim.now == 2.0
        for past in (1.0, float("nan")):
            with pytest.raises(ValueError):
                sim.run(until=past)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_step_and_peek(self):
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
# the timeout slab and the shared constructor.


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

    def test_slab_fills(self):
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
