"""repro: a full reproduction of SeSeMI (ICDE 2025) in Python.

SeSeMI is a secure serverless model-inference system built on Intel SGX
and Apache OpenWhisk.  This package reimplements the system and every
substrate it depends on -- see DESIGN.md for the inventory and the
paper-to-module substitution table.

Quick tour:

- :mod:`repro.core` -- the paper's contribution: KeyService (Algorithm 1),
  SeMIRT (Algorithm 2), FnPacker, owner/user clients, and simulation twins.
- :mod:`repro.sgx` -- functional Intel SGX: enclaves, MRENCLAVE,
  attestation, RA-TLS, EPC accounting.
- :mod:`repro.crypto` -- AES-GCM, DH, Schnorr signatures from scratch.
- :mod:`repro.mlrt` -- TVM- and TFLM-style inference runtimes + model zoo.
- :mod:`repro.serverless` -- an OpenWhisk-like platform on virtual time.
- :mod:`repro.sim` -- the discrete-event simulation core.
- :mod:`repro.workloads` -- arrival processes, drivers, metrics.
- :mod:`repro.obs` -- distributed tracing: spans, critical-path
  analysis, Chrome-trace export, in wall time or virtual time.

An import loads what it names: package ``__init__`` modules are
docstrings, so names come from the module that defines them
(``from repro.core.deployment import SeSeMIEnvironment``).
"""

__version__ = "1.0.0"
