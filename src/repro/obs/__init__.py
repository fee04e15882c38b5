"""repro.obs: end-to-end request tracing for both SeSeMI twins.

The paper's evaluation is built out of per-stage latency breakdowns
(Figures 8, 17, 18; the Prometheus deployment of Appendix F).  This
package makes that visibility first-class instead of ad hoc:

- :mod:`repro.obs.span` -- spans, span contexts, wall/virtual clocks;
- :mod:`repro.obs.tracer` -- the :class:`Tracer` (ambient nesting for
  the functional path, explicit parents for the simulation) plus the
  automatic bridge into :class:`~repro.serverless.telemetry.MetricsRegistry`;
- :mod:`repro.obs.export` -- JSON span dumps and ``chrome://tracing``
  files;
- :mod:`repro.obs.analysis` -- the critical-path analyzer that
  reproduces the paper's breakdown figures directly from span trees.
"""
