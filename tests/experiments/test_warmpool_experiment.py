"""Smoke + shape checks for the warm-pool benchmark harness.

Short seeded traces through the real simulator: the paper-shape
properties (keep-alive beats no-keep-alive, the janitor scales to the
floor, the report renders) on grids small enough to stay fast.
"""

import numpy as np

from repro.experiments import fig13, warmpool
from repro.workloads.mlperf import build_fnpacker_workload


def _arrivals(duration_s=60.0, seed=5):
    from repro.workloads.arrival import poisson

    rng = np.random.default_rng(seed)
    return poisson(4.0, duration_s, "m0", user_id="u", rng=rng)


def test_no_keep_alive_pays_cold_starts_everywhere():
    row = warmpool.run_policy("none", _arrivals(), until=600.0)
    assert row["requests"] > 100
    # at 4 rps with ~0.5 s cold service some arrivals overlap a live
    # endpoint, but the vast majority land cold
    assert row["cold_ratio"] > 0.5
    assert row["janitor_retired"] == 0  # teardown, not janitor


def test_keep_alive_turns_the_stream_hot():
    none = warmpool.run_policy("none", _arrivals(), until=600.0)
    lcs = warmpool.run_policy("lcs", _arrivals(), until=600.0)
    assert lcs["cold_ratio"] < none["cold_ratio"] / 3
    assert lcs["hot"] > lcs["warm"]  # single model: reuse is hot
    assert lcs["p50_ms"] < none["p50_ms"]


def test_mru_holds_a_smaller_fleet_than_lcs():
    lcs = warmpool.run_policy("lcs", _arrivals(), until=600.0)
    mru = warmpool.run_policy("mru", _arrivals(), until=600.0)
    # MRU lets the idle tail expire: more janitor retires, never a
    # larger peak fleet
    assert mru["peak_fleet"] <= lcs["peak_fleet"]
    assert mru["janitor_retired"] >= lcs["janitor_retired"]


def test_scale_to_zero_reaches_the_floor():
    demo = warmpool.run_scale_to_zero(
        burst_rps=6.0, burst_s=10.0, idle_s=80.0, keep_alive_s=20.0
    )
    assert demo["peak_fleet"] > demo["min_warm"]
    assert demo["scaled_to_floor"]
    assert demo["final_fleet"] == demo["min_warm"]
    assert demo["janitor_retired"] >= demo["peak_fleet"] - demo["min_warm"]


def test_run_report_and_gates():
    result = warmpool.run(duration_s=40.0)
    assert result["pass"], result["gates"]
    report = warmpool.format_report(result)
    assert "scale-to-zero" in report
    for policy in warmpool.POLICIES:
        assert policy in report
    # every sweep row is internally consistent
    for workload in warmpool.WORKLOADS:
        for row in result["workloads"][workload].values():
            assert row["cold"] + row["warm"] + row["hot"] == row["requests"]


def test_poisson_workload_is_the_mix_streams_without_sessions():
    """The Poisson workload serves the FnPacker mix's two open-loop
    streams and none of its interactive sessions."""
    result = warmpool.run(duration_s=40.0, seed=9, keep_alive_s=20.0)
    mix = build_fnpacker_workload(duration_s=40.0, seed=9)
    assert mix.sessions  # the interactive sessions of Table IV
    assert {a.user_id for a in mix.arrivals} == {"alice", "bob"}
    for row in result["workloads"]["poisson"].values():
        assert row["requests"] == len(mix.arrivals)


def test_sweep_rows_are_run_policy_over_each_trace():
    """Poisson: the FnPacker mix's two streams; MMPP: the Figure 13
    trace with a 30 s warm-up, both drawn from ``seed``."""
    result = warmpool.run(duration_s=40.0, seed=9, keep_alive_s=20.0)
    poisson = build_fnpacker_workload(duration_s=40.0, seed=9).arrivals
    mmpp = fig13.mmpp_trace(40.0, warmup_s=30.0, seed=9, model_id="m0")
    for name, arrivals in (("poisson", poisson), ("mmpp", mmpp)):
        assert result["workloads"][name]["lcs"] == warmpool.run_policy(
            "lcs", arrivals, keep_alive_s=20.0, until=40.0 + 3600.0
        )
        assert result["workloads"][name]["none"]["requests"] == len(arrivals)


def test_the_decision_log_carries_each_container_startup():
    """A Controller container is launched still starting, and reported ready
    with its measured startup -- the sandbox plus the enclave launch --
    where its launch line used to read ``cold_start_s=0.000000``."""
    from repro.serverless.controller import PlatformConfig

    lines = warmpool.decision_log_for(duration_s=20.0, seed=11).splitlines()
    launched = [i for i, line in enumerate(lines) if line.startswith("launch ")]
    ready = {
        line.split()[1]: (i, float(line.rsplit("=", 1)[1]))
        for i, line in enumerate(lines) if line.startswith("ready ")
    }
    assert launched and len(ready) == len(launched)
    for i in launched:
        assert "cold_start_s=pending" in lines[i]
        at, startup = ready[lines[i].split()[1]]
        assert at > i and startup > PlatformConfig().sandbox_init_s


#: ``repro run warmpool``'s rows at its defaults (duration 240 s, seed
#: 2025, keep-alive 30 s): the decision-log digest and the cold / warm /
#: hot split of every keep-alive policy.  A change to any keep-alive
#: decision moves a digest; CI's double run only compares a commit with
#: itself, so this is where such a change shows.
PINNED_ROWS = {
    ("poisson", "none"): (
        "df717526f0aa2cd03dadec5a7638c4774bc4fc751a424f2dcebec9e20282fd85", 950, 0, 0
    ),
    ("poisson", "lcs"): (
        "e7f1ddc14bf901c4abfbc3893d19f3bc3a4ef035c24e77f5a59a65899635efeb", 14, 479, 457
    ),
    ("poisson", "mru"): (
        "884d297fbcbf4614246d30051eb62b45285c30ab8efbe54b21a0fff8b69750ba", 20, 463, 467
    ),
    ("mmpp", "none"): (
        "d59e12b321a798db619bcf0d0b34c27d51bf1ab4139c02fd967618b799c2937e", 3214, 0, 996
    ),
    ("mmpp", "lcs"): (
        "e8a1f859c9484afdff6ebddcfba471b04caf17020b63f5dfa91f5c0cdce99531", 68, 0, 4142
    ),
    ("mmpp", "mru"): (
        "448f981864fbea544c291c4af182d8af9ffb1f71e9f8c1b8711483497016f428", 68, 0, 4142
    ),
}


def test_the_default_run_keeps_every_pinned_keep_alive_decision():
    result = warmpool.run()
    rows = {
        (workload, policy): (row["decision_log_digest"], row["cold"], row["warm"], row["hot"])
        for workload, by_policy in result["workloads"].items()
        for policy, row in by_policy.items()
    }
    assert rows == PINNED_ROWS
    assert result["reduction"] == 950 / 14  # none vs lcs on Poisson
