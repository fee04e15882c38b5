"""Experiment harnesses: one module per measurement.

The protocol ``python -m repro run NAME`` (:mod:`repro.cli`) drives:

- ``run(**knobs) -> dict``: every knob is a keyword with the default
  the CLI runs; the result is a JSON-ready dict;
- ``format_report(result) -> str``: the paper-style rows;
- a paper module's ``ANCHORS``: each paper number or ordering it is held
  to, stated once as an :class:`~repro.experiments.common.Anchor`
  (label, paper value, a function of the result, and a band, order,
  threshold or report-only magnitude);
- a *gated* harness adds ``gates`` (name -> bool) and ``pass`` (their
  conjunction) to the result -- the one place its floor is decided;
  ``repro run`` exits 1 on ``pass: False`` and reports render the
  verdict with :func:`~repro.experiments.common.format_gates`;
- optional ``collect_trace() -> list``: the spans ``repro trace NAME``
  exports.

The benchmark suite under ``benchmarks/`` asserts every gated anchor,
and the EXPERIMENTS.md generator (:mod:`repro.experiments.report`)
prints every anchor's computed verdict; neither states a paper number.

| paper artifact | module |
|---|---|
| Table I        | :mod:`repro.experiments.table1` |
| Figure 8       | :mod:`repro.experiments.fig8` |
| Figure 9       | :mod:`repro.experiments.fig9` |
| Figure 10      | :mod:`repro.experiments.fig10` |
| Figure 11a/b   | :mod:`repro.experiments.fig11` |
| Figure 12a-d   | :mod:`repro.experiments.fig12` |
| Figures 13/14  | :mod:`repro.experiments.fig13` |
| Table II       | :mod:`repro.experiments.table2` |
| Tables III/IV  | :mod:`repro.experiments.table34` |
| Figures 15/16  | :mod:`repro.experiments.fig15` |
| Figures 17/18  | :mod:`repro.experiments.fig17` |

Beyond the paper's grid:

| extension | module | twin | gated |
|---|---|---|---|
| fault sweep            | :mod:`repro.experiments.chaos`       | logical clock | no |
| warm-pool policies     | :mod:`repro.experiments.warmpool`    | virtual time  | yes |

Every measurement here is deterministic.  The live functional twin's
structural claims (TCS overlap, batch merge, fleet spread, shed before
admission) are tier-1 tests; its speed is ``bench/`` (``BENCHMARK.json``).
"""
