"""The HTTP service tier: SeSeMI's network front door.

The paper's serverless premise is that untrusted clients reach enclave
inference through a network boundary.  This package puts a threaded
HTTP/1.1 service (stdlib only, one thread per connection) in front of
:class:`~repro.core.gateway.InferenceGateway`:

- :class:`ServiceConfig` -- admission and deadline knobs;
- :mod:`repro.service.protocol` -- what both sides agree on (media
  types, ``/v1/stream`` record framing), defined once;
- :class:`InferenceService` / :func:`serve` -- the server: sync
  ``POST /v1/infer``, async ``POST /v1/submit`` + polled
  ``GET /v1/results/{req_id}``, KeyService proxying, grants, health,
  and stats, with admission control and fast load shedding;
- :class:`RemoteEnvironment` -- the client: its sessions are the one
  :class:`~repro.core.client.UserSession` class, dispatching through
  :class:`~repro.service.client.HttpGateway` instead of the in-process
  gateway, so examples and load drivers run unchanged against either
  transport.

Requests stay encrypted end to end: the client performs RA-TLS and key
release against KeyService *through* the service (``/v1/ks/*``), and
only AEAD ciphertext crosses ``/v1/infer``.  See ``docs/service.md``.

One of the two packages whose ``__init__`` re-exports (every other one
is a docstring): ``bench/`` imports the server, the client and the
config from here.  Importing any module below therefore loads the server;
``repro.service.client``'s "never the server" pin holds for its own
import lines only until those ``bench/`` imports name the modules.
"""

from repro.service.admission import AdmissionController
from repro.service.client import (
    HttpGateway,
    RemoteEnvironment,
    RemoteModelHandle,
    ServiceClient,
)
from repro.service.config import ServiceConfig
from repro.service.server import InferenceService, serve

__all__ = [
    "AdmissionController",
    "HttpGateway",
    "InferenceService",
    "RemoteEnvironment",
    "RemoteModelHandle",
    "ServiceClient",
    "ServiceConfig",
    "serve",
]
