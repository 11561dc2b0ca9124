"""Tests for the event/process primitives of the DES engine."""

import pytest

from repro.simcore import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Simulator,
    SimulationError,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_double_succeed_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_failed_event_not_ok(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        event.defuse()
        sim.run()
        assert not event.ok

    def test_callback_runs_on_processing(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        event.succeed("hello")
        sim.run()
        assert seen == ["hello"]

    def test_late_callback_still_runs(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()
        assert event.processed
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        sim.run()
        assert seen == ["early"]

    def test_uncaught_failure_raises_at_run(self, sim):
        event = sim.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()


class TestTimeout:
    def test_fires_at_delay(self, sim):
        timeout = sim.timeout(5.0, value="done")
        sim.run()
        assert sim.now == 5.0
        assert timeout.value == "done"

    def test_negative_delay_rejected(self, sim):
        for delay in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                sim.timeout(delay)
            with pytest.raises(ValueError):
                Timeout(sim, delay)
            with pytest.raises(ValueError):
                sim.event().succeed(delay=delay)
            with pytest.raises(ValueError):
                sim.call_later(delay, print)
        # A NaN entry at the top of the heap would end run() early,
        # silently dropping every event behind it.
        assert sim.peek() == float("inf")

    def test_cannot_be_manually_triggered(self, sim):
        timeout = sim.timeout(1.0)
        with pytest.raises(SimulationError):
            timeout.succeed()

    def test_zero_delay_fires_immediately(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0.0


class TestProcess:
    def test_returns_generator_value(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return "result"

        process = sim.process(worker())
        sim.run()
        assert process.value == "result"

    def test_sequential_timeouts_accumulate(self, sim):
        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.process(worker())
        sim.run()
        assert sim.now == 3.0

    def test_receives_event_value(self, sim):
        event = sim.event()

        def worker():
            value = yield event
            return value * 2

        process = sim.process(worker())
        event.succeed(21)
        sim.run()
        assert process.value == 42

    def test_failed_event_throws_into_generator(self, sim):
        event = sim.event()

        def worker():
            try:
                yield event
            except ValueError as exc:
                return f"caught {exc}"

        process = sim.process(worker())
        event.fail(ValueError("bad"))
        sim.run()
        assert process.value == "caught bad"

    def test_uncaught_generator_exception_fails_process(self, sim):
        def worker():
            yield sim.timeout(1.0)
            raise KeyError("oops")

        sim.process(worker())
        with pytest.raises(KeyError):
            sim.run()

    def test_yielding_non_event_fails(self, sim):
        def worker():
            yield 42

        sim.process(worker())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_process_waits_on_other_process(self, sim):
        def inner():
            yield sim.timeout(3.0)
            return "inner-done"

        def outer():
            result = yield sim.process(inner())
            return result

        process = sim.process(outer())
        sim.run()
        assert process.value == "inner-done"
        assert sim.now == 3.0

    def test_is_alive_transitions(self, sim):
        def worker():
            yield sim.timeout(1.0)

        process = sim.process(worker())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_interrupt_throws_interrupt(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                return f"interrupted: {interrupt.cause}"

        process = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt("because")

        sim.process(interrupter())
        sim.run()
        assert process.value == "interrupted: because"
        assert sim.now == pytest.approx(100.0)  # timeout still on agenda

    def test_interrupt_before_start_is_safe(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                return "stopped"

        process = sim.process(sleeper())
        process.interrupt()
        sim.run()
        assert process.value == "stopped"

    def test_interrupt_after_completion_is_noop(self, sim):
        def quick():
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(quick())
        sim.run()
        process.interrupt()
        sim.run()
        assert process.value == "done"

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """The race fixed during development: a pending wait target must
        not resume a process that an interrupt already terminated."""
        def sleeper():
            try:
                yield sim.timeout(0.001)
            except Interrupt:
                return "interrupted"
            return "timed-out"

        process = sim.process(sleeper())
        process.interrupt()
        sim.run()
        assert process.value == "interrupted"


class TestConditions:
    def test_all_of_collects_values(self, sim):
        timeouts = [sim.timeout(i, value=i) for i in (3.0, 1.0, 2.0)]

        def waiter():
            values = yield sim.all_of(timeouts)
            return values

        process = sim.process(waiter())
        sim.run()
        assert process.value == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self, sim):
        condition = sim.all_of([])
        sim.run()
        assert condition.value == []

    def test_all_of_fails_on_child_failure(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        bad.fail(ValueError("child failed"))
        # The failure is handled by the condition (subscribed below),
        # not by a direct waiter on `bad` itself.
        bad.defuse()

        def waiter():
            try:
                yield AllOf(sim, [good, bad])
            except ValueError:
                return "failed"

        process = sim.process(waiter())
        sim.run()
        assert process.value == "failed"

    def test_any_of_returns_first(self, sim):
        slow = sim.timeout(10.0, value="slow")
        fast = sim.timeout(1.0, value="fast")

        def waiter():
            winner, value = yield AnyOf(sim, [slow, fast])
            return value

        process = sim.process(waiter())
        sim.run()
        assert process.value == "fast"

    def test_any_of_requires_events(self, sim):
        with pytest.raises(ValueError):
            AnyOf(sim, [])


class TestWaitTargetBookkeeping:
    """The lazy O(1) stale-wakeup path: abandoned wait targets still
    fire, but must never resume the process that moved on."""

    def test_double_interrupt_delivers_both(self, sim):
        causes = []

        def stoic():
            for _ in range(2):
                try:
                    yield sim.timeout(10.0)
                except Interrupt as interrupt:
                    causes.append(interrupt.cause)
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(stoic())
        process.interrupt("first")
        process.interrupt("second")
        sim.run()
        assert causes == ["first", "second"]
        assert process.value == "done"

    def test_anyof_loser_wakeup_is_stale(self, sim):
        trace = []

        def racer():
            winner, value = yield AnyOf(
                sim, [sim.timeout(1.0, value="fast"),
                      sim.timeout(5.0, value="slow")])
            trace.append(("won", value, sim.now))
            yield sim.timeout(10.0)
            trace.append(("slept", sim.now))

        sim.process(racer())
        sim.run()
        # The losing 5.0 timeout fires at t=5 while the racer waits on
        # the 10.0 sleep; a non-stale delivery would cut the sleep short.
        assert trace == [("won", "fast", 1.0), ("slept", 11.0)]

    def test_interrupt_after_wait_target_triggered(self, sim):
        """Interrupt lands between the wait target triggering and its
        callbacks draining: the interrupt wins, the wake-up goes stale."""
        log = []
        gate = sim.event()

        def sleeper():
            try:
                yield gate
                log.append("woke")
            except Interrupt:
                log.append("interrupted")
            yield sim.timeout(1.0)
            log.append("done")

        process = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            # `gate` is now triggered but its drain is still queued
            # behind this turn; the interrupt must still suppress it.
            gate.succeed("opened")
            process.interrupt()

        sim.process(interrupter())
        sim.run()
        assert log == ["interrupted", "done"]
        assert sim.now == 2.0
