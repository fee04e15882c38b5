"""The determinism gate: seeded traces produce byte-identical logs."""

from repro.experiments import warmpool
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager
from repro.warmpool.predictor import PredictorPolicy


def drive(manager):
    """A fixed event trace exercising every decision-log line kind."""
    manager.on_launch("ep0", 0.0, cold_start_s=1.5)
    manager.on_dispatch("ep0", "m0", 0.0, launched=True)
    manager.on_complete("ep0", "m0", 1.0)
    manager.on_dispatch("ep0", "m0", 2.0)
    manager.on_complete("ep0", "m0", 2.5)
    manager.on_launch("ep1", 3.0, prewarmed=True)
    manager.on_dispatch("ep1", "m1", 3.5)
    manager.on_failure("ep1", "m1", 4.0)
    manager.prewarm_count(5.0)
    for victim in manager.sweep(60.0):
        manager.on_retire(victim, 60.0)
    manager.on_down("ep0", 70.0)
    return manager.log_text()


def test_replayed_trace_produces_an_identical_log():
    config = WarmPoolConfig(
        keep_alive_s=10.0, min_warm=0, predictive=True,
        predictor=PredictorPolicy(service_time_s=0.5),
    )
    first = drive(WarmPoolManager(config))
    second = drive(WarmPoolManager(config))
    assert first == second
    assert first  # the trace actually logged something


def test_seeded_simulation_log_is_byte_identical():
    # same seed, same decision log, byte for byte (a short trace)
    first = warmpool.decision_log_for(duration_s=20.0, seed=11)
    second = warmpool.decision_log_for(duration_s=20.0, seed=11)
    assert first == second
    assert first.count("\n") > 10
    # a different seed must actually change the trace
    assert warmpool.decision_log_for(duration_s=20.0, seed=12) != first
