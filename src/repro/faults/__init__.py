"""``repro.faults``: deterministic fault injection + the resilience layer.

Two halves of one subsystem:

- :mod:`repro.faults.plan` / :mod:`repro.faults.injector` break things
  *on purpose*, reproducibly: a seeded :class:`FaultPlan` schedules
  enclave crashes, KeyService shard outages, and wire-level
  drop/delay/corrupt faults, and a :class:`FaultInjector` executes them
  at interception sites on the serving path;
- :mod:`repro.faults.resilience` survives them: per-request deadlines,
  retries with exponential backoff + jitter, per-endpoint circuit
  breakers -- combined with KeyService fleet failover
  (:class:`repro.core.keyfleet.FailoverEndpoint`) and SeMIRT cold-path
  relaunch in :class:`repro.core.deployment.UserSession`.

``python -m repro run chaos`` sweeps fault rate against availability and
tail latency on this machinery; see ``docs/faults.md``.
"""
