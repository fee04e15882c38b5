"""Benchmark-suite configuration.

``bench_paper_shape.py`` regenerates every table and figure of the
paper's evaluation through :mod:`repro.experiments` and asserts its
paper-shape floor; the ``bench_ablation_*`` / ``bench_ext_*`` modules
carry their own sweeps.  ``python -m pytest benchmarks -q`` runs them
all; add ``-s`` to see the rendered tables inline.
"""
