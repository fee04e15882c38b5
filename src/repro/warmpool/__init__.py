"""Warm-pool management: cold-start elimination for enclave fleets.

The paper's FnPacker story (Fig 13, Table 3) hides enclave cold starts
behind shared warm instances; this package manages the *pool of warm
instances itself*.  Three cooperating parts, composed by
:class:`WarmPoolManager`:

- **warm-instance strategies** (:mod:`repro.warmpool.strategy`): which
  warm endpoint with a free slot a new request should reuse.  ``lcs``
  reuses the least recently used endpoint so every endpoint's
  keep-alive stays fresh and the warm pool is maximised; ``mru`` reuses
  the most recently used one (OpenWhisk's pick) so the idle tail ages
  out and the janitor can retire it; ``affinity`` layers per-model warm
  sub-pools over either.
- a **scale-to-zero janitor** (:mod:`repro.warmpool.janitor`): sweeps
  endpoints idle past ``keep_alive_s`` (each has an exact expiry),
  respecting a ``min_warm`` floor and in-flight/pin protection; the
  caller retires what it nominates.
- a **predictive pre-warmer** (:mod:`repro.warmpool.predictor`):
  per-model EWMA arrival-rate estimators fed by dispatch events that
  size the warm fleet *ahead* of predicted demand (Little's law over
  the estimated rate and service time), so flash crowds land warm.

Layering rule (enforced by ``scripts/check_layering.py``): this package
imports only the stdlib, ``repro.errors``, and :mod:`repro.routing`
types.  It must never import ``repro.core``, ``repro.serverless``, or
``repro.faults`` -- the functional gateway adapts it onto live hosts,
and the simulated Controller onto containers in virtual time.  Every
method takes ``now`` explicitly; the package never reads a clock, so a
seeded trace replays to a byte-identical decision log (the determinism
CI gate depends on that).

See ``docs/warmpool.md``.
"""
