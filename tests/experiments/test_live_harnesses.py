"""The four live (wall-clock) harnesses at tiny parameters.

Structure only, never a timing floor: every key ``run()`` returned
before the measurement layer was refactored (captured at commit
76fa924) is still there, a gated harness decides its verdict itself
(``gates`` + ``pass``, what ``repro run`` turns into the exit code), and
the report renders.  That the lanes tear down the scheduler workers they
started is the suite-wide leak check in ``tests/conftest.py``.
"""

import pytest

from repro.experiments import batching, concurrency, gateway, service

#: name -> (module, tiny kwargs, top-level keys at 76fa924, gated?)
CASES = {
    "concurrency": (
        concurrency,
        dict(requests=4, paced_ms=5, tcs_counts=(1, 2), queue_depths=(1,)),
        {"paced_ms", "queue_sweep", "requests", "speedup", "throughput"},
        False,
    ),
    "batching": (
        batching,
        dict(requests=4, paced_ms=5, max_batch=2, window_ms=10, tcs_count=2),
        {"batched", "paced_ms", "requests", "speedup", "tcs_count",
         "unbatched", "window_ms"},
        True,
    ),
    "gateway": (
        gateway,
        dict(requests=6, paced_ms=5, endpoint_counts=(1, 2), client_width=2),
        {"client_width", "models", "paced_ms", "requests", "runs", "speedup"},
        False,
    ),
    "service": (
        service,
        dict(duration_s=0.3, paced_ms=20, tcs_count=1, baseline_clients=1,
             saturated_clients=3),
        {"admission", "admitted_p99_ms", "baseline", "baseline_clients",
         "baseline_p99_ms", "duration_s", "gates", "hung", "max_inflight",
         "paced_ms", "pass", "saturated", "saturated_clients", "shed_count",
         "shed_p99_ms", "tcs_count"},
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_live_harness_structure_and_teardown(name):
    module, kwargs, parent_keys, gated = CASES[name]
    result = module.run(**kwargs)

    assert parent_keys <= set(result)
    if gated:
        gates = result["gates"]
        assert gates and all(type(ok) is bool for ok in gates.values())
        assert result["pass"] is all(gates.values())
    assert module.format_report(result).strip()
