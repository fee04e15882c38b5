#!/usr/bin/env python
"""Enforce the twin-agnostic packages' layering rules.

Two packages are kept importable by both twins -- the simulated
cluster (``repro.serverless``) and the functional runtime
(``repro.core``) -- and so may depend on nothing of theirs:

- ``repro.routing``: the routing plane.  Stdlib + ``repro.errors``
  only; never ``repro.core``, ``repro.serverless``, or ``repro.faults``
  (the latter reaches ``repro.core.wire`` transitively).
- ``repro.warmpool``: warm-pool management.  Stdlib +
  ``repro.errors`` + ``repro.routing`` types (it treats
  ``ScaleOutPolicy`` as one fleet-shape strategy among several).
- ``repro.scenarios``: the scenario registry.  The package ceiling
  admits both twins (its runner executes specs against them) but
  never the CLI or the service tier; on top of that the *read side*
  is pinned per module below, so stored manifests stay listable and
  diffable with nothing but the stdlib on the import path.

One package is pinned because of who imports it:

- ``repro.mlrt``: the model runtime.  Stdlib + numpy +
  ``repro.errors`` only: ``repro.core.semirt_enclave`` imports it, so
  every module in it is enclave TCB -- the op table, both runtimes and
  the decoder run on user plaintext inside the trust boundary and may
  reach nothing observable, configurable or host-side.

Single-file modules pinned the same way:

- ``repro.core.wire``: the versioned wire codecs.  Stdlib +
  ``repro.errors`` only -- every enclave boundary and the HTTP tier
  frame through it, so it must never grow a dependency on the
  runtime, the crypto stack, or numpy.
- ``repro.core.futures``: the ``Future`` protocol, the outcome cell
  and the derived-handle base.  Stdlib + ``repro.errors`` only -- every
  tier's handle (scheduler, gateway, session, service client) is built
  on it, so it can depend on none of them.
- ``repro.core.semirt_enclave``: the trusted half of SeMIRT.  The
  rule is the trust boundary: **the trusted module imports nothing
  that runs outside the enclave** -- stdlib, numpy, ``repro.errors``,
  ``repro.core.wire``, ``repro.core.stages``, ``repro.crypto``,
  ``repro.mlrt``, ``repro.sgx`` and ``repro.obs`` only; never the host
  (``repro.core.semirt``), its futures, the batch policy, the fault
  injector, the gateway, or either twin's platform code.  What the
  untrusted host can reach by importing it is exactly what an ECALL
  transport would have to carry.
- ``repro.service.protocol``: what the HTTP server and client must
  agree on (media types, stream record framing).  Stdlib +
  ``repro.errors`` + ``repro.core.wire`` -- both sides import it, so it
  can depend on neither.
- ``repro.service.client``: the remote client must stay a client --
  ``repro.errors``, ``repro.core.wire``, ``repro.core.client``,
  ``repro.core.futures``, ``repro.obs``, ``repro.sgx`` and the protocol
  module only; never the server, the deployment, the gateway or SeMIRT
  (what a user installs to *call* the service cannot need the fleet).
- ``repro.crypto.group`` / ``.dh`` / ``.signature``: the public-key
  floor under every RA-TLS handshake.  ``group`` is the standard library
  only; ``dh`` and ``signature`` add ``repro.crypto`` and
  ``repro.errors``.  All three are also barred from numpy
  (``STDLIB_ONLY``): the fixed-base table for ``G`` is plain integers
  and must never reach an array library, ``repro.obs`` or a config object.
- ``repro.scenarios.spec`` / ``.store`` / ``.compare`` / ``.table`` /
  ``.registry``: the scenario read side.  Stdlib + ``repro.errors`` +
  each other -- everything that *executes* a spec belongs in
  ``repro.scenarios.runner``, the one module of the package allowed
  to (lazily) import the twins.

Run from the repository root::

    python scripts/check_layering.py

Exits non-zero listing every violating import.  CI runs this next to
the test suite; see ``docs/routing.md`` and ``docs/warmpool.md``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: package name -> the only first-party prefixes it may import
#: (the AST walk below sees *lazy* function-level imports too, so the
#: scenarios ceiling must cover everything its runner defers)
PACKAGES = {
    "routing": ("repro.errors",),
    "warmpool": ("repro.errors", "repro.routing"),
    # enclave TCB (imported by core.semirt_enclave): numpy and errors only
    "mlrt": ("repro.errors",),
    "scenarios": (
        "repro.errors",
        "repro.core",
        "repro.experiments",
        "repro.faults",
        "repro.mlrt",
        "repro.routing",
        "repro.serverless",
        "repro.sgx",
        "repro.workloads",
    ),
}

#: single-file module (dotted, relative to repro) -> allowed prefixes
MODULES = {
    "core.wire": ("repro.errors",),
    # the outcome cell every handle is built on: no runtime, no crypto
    "core.futures": ("repro.errors",),
    # the enclave program: nothing that runs outside the enclave
    "core.semirt_enclave": (
        "repro.errors",
        "repro.core.wire",
        "repro.core.stages",
        "repro.crypto",
        "repro.mlrt",
        "repro.sgx",
        "repro.obs",
    ),
    # what server and client agree on: importable by both, owes neither
    "service.protocol": ("repro.errors", "repro.core.wire"),
    # the remote client stays a client: no server, no fleet
    "service.client": (
        "repro.errors",
        "repro.core.wire",
        "repro.core.client",
        "repro.core.futures",
        "repro.obs",
        "repro.sgx",
        "repro.service.protocol",
    ),
    # the public-key floor: plain integers, nothing observable or configurable
    "crypto.group": (),
    "crypto.dh": ("repro.crypto", "repro.errors"),
    "crypto.signature": ("repro.crypto", "repro.errors"),
    # the scenario read side: loadable without numpy or either twin
    "scenarios.spec": ("repro.errors",),
    "scenarios.table": (),
    "scenarios.store": ("repro.errors", "repro.scenarios.spec"),
    "scenarios.compare": ("repro.scenarios.store", "repro.scenarios.table"),
    "scenarios.registry": ("repro.errors", "repro.scenarios.spec"),
}

#: modules that may not import the tree's one third-party dependency either
STDLIB_ONLY = {"crypto.group", "crypto.dh", "crypto.signature"}

ROUTING_DIR = SRC_REPRO / "routing"

#: the only first-party prefixes repro.routing may import
#: (kept as a module-level name for callers of ``check()``)
ALLOWED_REPRO = PACKAGES["routing"]


def _imported_modules(tree: ast.AST):
    """Yield ``(lineno, dotted_module)`` for every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                continue  # relative: stays inside the package
            if node.module:
                yield node.lineno, node.module


def _allowed(module: str, package: str, allowed) -> bool:
    if not (module == "repro" or module.startswith("repro.")):
        return True  # stdlib (the tree has no third-party deps)
    if module == f"repro.{package}" or module.startswith(f"repro.{package}."):
        return True  # absolute self-imports
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in allowed
    )


def check(routing_dir: Path = ROUTING_DIR, allowed=ALLOWED_REPRO):
    """All layering violations under ``routing_dir`` as printable strings."""
    package = routing_dir.name
    violations = []
    for path in sorted(routing_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imported_modules(tree):
            if not _allowed(module, package, allowed):
                try:
                    shown = path.relative_to(routing_dir.parent.parent.parent)
                except ValueError:
                    shown = path
                violations.append(
                    f"{shown}:{lineno}: imports {module!r} "
                    f"(repro.{package} may import only the stdlib and "
                    f"{', '.join(allowed)})"
                )
    return violations


def check_module(path: Path, dotted: str, allowed):
    """All layering violations in one module file as printable strings."""
    full = f"repro.{dotted}"
    violations = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for lineno, module in _imported_modules(tree):
        if module == "repro" or module.startswith("repro."):
            permitted = module == full or any(
                module == prefix or module.startswith(prefix + ".")
                for prefix in allowed
            )
        else:  # the stdlib -- or numpy, the tree's one third-party dependency
            permitted = not (dotted in STDLIB_ONLY and module.split(".")[0] == "numpy")
        if permitted:
            continue
        try:
            shown = path.relative_to(SRC_REPRO.parent.parent)
        except ValueError:
            shown = path
        violations.append(
            f"{shown}:{lineno}: imports {module!r} "
            f"({full} may import only the stdlib and {', '.join(allowed) or 'nothing else'})"
        )
    return violations


def main() -> int:
    """CLI entry point; returns a process exit code."""
    exit_code = 0
    for package, allowed in PACKAGES.items():
        package_dir = SRC_REPRO / package
        if not package_dir.is_dir():
            print(f"missing package: {package_dir}", file=sys.stderr)
            return 2
        violations = check(package_dir, allowed)
        for violation in violations:
            print(violation, file=sys.stderr)
        if violations:
            print(
                f"repro.{package}: {len(violations)} layering violation(s)",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print(f"repro.{package} layering OK")
    for dotted, allowed in MODULES.items():
        module_path = SRC_REPRO / (dotted.replace(".", "/") + ".py")
        if not module_path.is_file():
            print(f"missing module: {module_path}", file=sys.stderr)
            return 2
        violations = check_module(module_path, dotted, allowed)
        for violation in violations:
            print(violation, file=sys.stderr)
        if violations:
            print(
                f"repro.{dotted}: {len(violations)} layering violation(s)",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print(f"repro.{dotted} layering OK")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
