"""Discrete-event simulation core: events, processes, determinism."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulation


def test_timeout_advances_clock(sim):
    def proc(sim):
        yield sim.timeout(5.0)
        return sim.now

    assert sim.run_process(proc(sim)) == 5.0


def test_zero_timeout_allowed(sim):
    def proc(sim):
        yield sim.timeout(0.0)
        return "done"

    assert sim.run_process(proc(sim)) == "done"


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_at_fires_on_the_instant_a_relative_timeout_misses(sim):
    start, deadline = 4.283834201475301, 164.32292750093697
    assert start + (deadline - start) != deadline  # the rounding case

    def proc(sim):
        yield sim.timeout(start)
        yield sim.at(deadline)
        return sim.now

    assert sim.run_process(proc(sim)) == deadline


def test_at_rejects_the_past(sim):
    def proc(sim):
        yield sim.timeout(2.0)
        sim.at(1.0)

    with pytest.raises(SimulationError):
        sim.run_process(proc(sim))


def test_events_fire_in_time_order(sim):
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.process(proc(sim, "late", 10))
    sim.process(proc(sim, "early", 1))
    sim.process(proc(sim, "middle", 5))
    sim.run()
    assert log == ["early", "middle", "late"]


def test_simultaneous_events_fifo(sim):
    log = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in ("a", "b", "c"):
        sim.process(proc(sim, name))
    sim.run()
    assert log == ["a", "b", "c"]


def test_run_until_stops_clock(sim):
    def proc(sim):
        yield sim.timeout(100.0)

    sim.process(proc(sim))
    assert sim.run(until=10.0) == 10.0
    assert sim.now == 10.0


def test_process_return_value(sim):
    def proc(sim):
        yield sim.timeout(1)
        return {"answer": 42}

    assert sim.run_process(proc(sim)) == {"answer": 42}


def test_process_waits_on_manual_event(sim):
    gate = sim.event()
    result = []

    def waiter(sim):
        value = yield gate
        result.append((value, sim.now))

    def trigger(sim):
        yield sim.timeout(3)
        gate.succeed("go")

    sim.process(waiter(sim))
    sim.process(trigger(sim))
    sim.run()
    assert result == [("go", 3.0)]


def test_event_failure_raises_in_waiter(sim):
    gate = sim.event()

    def waiter(sim):
        try:
            yield gate
        except RuntimeError as exc:
            return f"caught {exc}"

    proc = sim.process(waiter(sim))
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert proc.value == "caught boom"


def test_uncaught_process_exception_propagates(sim):
    def broken(sim):
        yield sim.timeout(1)
        raise ValueError("bug")

    proc = sim.process(broken(sim))
    sim.run()
    assert proc.triggered
    with pytest.raises(ValueError):
        _ = proc.value


def test_double_trigger_rejected(sim):
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_yielding_non_event_is_an_error(sim):
    def bad(sim):
        yield 42

    proc = sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_waits_for_every_event(sim):
    def worker(sim, delay):
        yield sim.timeout(delay)
        return delay

    def supervisor(sim):
        procs = [sim.process(worker(sim, d)) for d in (3, 1, 2)]
        values = yield sim.all_of(procs)
        return (values, sim.now)

    values, when = sim.run_process(supervisor(sim))
    assert values == [3, 1, 2]
    assert when == 3.0


def test_all_of_empty(sim):
    def proc(sim):
        values = yield sim.all_of([])
        return values

    assert sim.run_process(proc(sim)) == []


def test_deadlock_detected_by_run_process(sim):
    gate = sim.event()  # never triggered

    def stuck(sim):
        yield gate

    with pytest.raises(SimulationError, match="did not finish"):
        sim.run_process(stuck(sim))


def test_chained_processes(sim):
    def inner(sim):
        yield sim.timeout(2)
        return "inner-done"

    def outer(sim):
        result = yield sim.process(inner(sim))
        return f"outer saw {result}"

    assert sim.run_process(outer(sim)) == "outer saw inner-done"


def test_determinism_across_runs():
    def build_and_run():
        sim = Simulation()
        log = []

        def proc(sim, name, delay):
            yield sim.timeout(delay)
            log.append((name, sim.now))

        for i in range(20):
            sim.process(proc(sim, f"p{i}", (i * 7) % 5 + 0.5))
        sim.run()
        return log

    assert build_and_run() == build_and_run()
