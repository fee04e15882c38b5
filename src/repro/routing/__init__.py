"""One routing plane for both twins (FnPacker, Section IV-C).

``repro.routing`` holds every piece of routing *policy* -- the
:class:`FnPool` declaration, per-endpoint state, the FnPacker /
One-to-one / All-in-one routers, and the scale-out lifecycle -- with no
knowledge of what an endpoint actually is.  The simulated twin adapts
it onto the discrete-event ``Controller`` (``repro.workloads.driver``),
the functional twin onto live ``SemirtHost`` enclaves
(``repro.core.gateway``).

Layering rule (enforced by ``scripts/check_layering.py``): this package
imports only the stdlib and ``repro.errors``.  It must never import
``repro.core``, ``repro.serverless``, or ``repro.faults``.

One of the two packages whose ``__init__`` re-exports (every other one
is a docstring): ``bench/`` imports ``FnPool`` from here.
"""

from repro.routing.affinity import BatchAffinity
from repro.routing.lifecycle import PressureTracker, ScaleOutPolicy
from repro.routing.policy import (
    AllInOneRouter,
    FnPackerRouter,
    OneToOneRouter,
    Router,
)
from repro.routing.pool import EndpointState, FnPool

__all__ = [
    "AllInOneRouter",
    "BatchAffinity",
    "EndpointState",
    "FnPackerRouter",
    "FnPool",
    "OneToOneRouter",
    "PressureTracker",
    "Router",
    "ScaleOutPolicy",
]
