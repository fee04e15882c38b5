"""Warm-pool management: keep-alive for enclave fleets.

The paper's FnPacker story (Fig 13, Table 3) hides enclave cold starts
behind shared warm instances; this package manages the *pool of warm
instances itself*, in one module, :mod:`repro.warmpool.manager`: which
warm endpoint a new request reuses (``lcs`` or ``mru`` order), and which
endpoints idle past ``keep_alive_s`` the janitor retires, above a
``min_warm`` floor.

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
