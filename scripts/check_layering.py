#!/usr/bin/env python
"""An import loads what it names -- and the layering rules that rest on it.

Run from the repository root (CI does, next to the test suite)::

    python scripts/check_layering.py

Exits non-zero naming every offender.  Seven kinds of rule:

**1. A package ``__init__.py`` is a docstring.**  Importing
``repro.a.b`` runs ``repro/__init__.py`` and ``repro/a/__init__.py``
first, so a re-export there is loaded by *every* import below it and
silently widens each pin of rule 2.  No ``__init__.py`` may contain an
import statement, except the two façades in :data:`FACADES`:
``repro.routing`` and ``repro.service`` re-export their public names
because ``bench/`` (whose files a PR may not edit) imports them from the
package.

**2. Pins: who may import what** (:data:`PACKAGES`, :data:`MODULES`,
:data:`STDLIB_ONLY`).  Each pin is checked twice against one allow-list:
*statically*, by an AST walk that also sees deferred (function-level)
imports, and *at runtime*, by importing the pinned module in a fresh
interpreter and reading ``sys.modules`` -- which is what sees a leak
through somebody else's ``__init__.py`` or a dependency's own imports.
A pinned module below a façade (``repro.service.client`` and
``.protocol``) gets the static rule only: importing it runs the façade,
which loads the server.

- ``repro.routing`` / ``repro.warmpool``: twin-agnostic, importable by
  the simulated cluster and the functional runtime alike, so they depend
  on neither -- stdlib + ``repro.errors`` (warmpool adds ``repro.routing``),
  never ``repro.core``, ``repro.serverless`` or ``repro.faults``; no numpy.
- ``repro.mlrt``: enclave TCB (``core.semirt_enclave`` imports it) --
  stdlib + numpy + ``repro.errors``.
- ``repro.core.wire`` / ``repro.core.futures``: the codecs and the outcome
  cell under every tier -- stdlib + ``repro.errors``, no numpy.
- ``repro.core.semirt_enclave``: the trust boundary -- **the trusted
  module loads nothing that runs outside the enclave**: stdlib, numpy,
  ``repro.errors``, ``repro.core.wire``, ``repro.core.stages``,
  ``repro.crypto``, ``repro.mlrt``, ``repro.sgx``, ``repro.obs``; never
  the host, the gateway, the fault injector or either twin's platform.
  Its runtime closure is the manifest of an enclave child process.
- ``repro.core.client``: the one session class, which the HTTP client
  imports -- principals, sealing, the session and its handles, over
  ``repro.faults`` / ``repro.obs`` / ``repro.sim`` at most; never the
  gateway, the SeMIRT host, the deployment, ``repro.routing`` or
  ``repro.service``.
- ``repro.service.protocol`` / ``repro.service.client``: what both HTTP
  sides agree on owes neither; the client stays a client (no server,
  deployment, gateway or SeMIRT).
- ``repro.crypto.group`` / ``.dh`` / ``.signature``: the public-key floor
  is plain integers -- ``group`` is the stdlib only, the other two add
  ``repro.crypto`` + ``repro.errors``; never numpy, ``repro.obs`` or a
  config object.

**3. Reachability: nothing under ``src/repro`` lives on a re-export or a
test alone.**  Every module must be imported at runtime (not under
``TYPE_CHECKING``) by something reachable from a door -- ``python -m
repro`` (``repro.__main__``, ``repro.cli``), ``repro.service``, or a
``bench/*.py`` file.  :data:`KEPT` names the exceptions with their reason.

**4. No reaching into another object's privates by name.**
``getattr(x, "_name", ...)`` with a string-literal private name is how a
module reads state its owner never offered (the gateway once read the
router's ``_endpoints`` this way, twice): nothing under ``src/`` may do
it -- ask the owner for a public, read-only view instead.

**5. One HTTP implementation.**  Server and client speak the HTTP/1.1
subset whose head codec is :mod:`repro.service.protocol`, and one
server serves it: :mod:`repro.service.httpd`, a thread per connection.
Nothing under ``src/repro`` may import the stdlib's ``http.client`` or
``http.server``, nor ``asyncio``, so a second, event-loop server cannot
come back beside it (:data:`FOREIGN_HTTP`).  Tests may:
``tests/service/test_httpd_chunked.py`` reads the server's chunked
framing with ``http.client`` on purpose, as a reader independent of the
tree's own.

**6. The enclave boundary is declared.**  In every ``EnclaveCode``
subclass under ``src/repro``, each ``EC_*`` method is exported with its
row (``@ecall(...)``), and each ``self.ocall("OC_...")`` literal names a
key of that class's ``OCALLS`` -- so an ECALL someone forgot to export,
or an OCALL that only a failure path reaches, fails here rather than at
run time.

**7. One wire format.**  Every protocol message is a
:mod:`repro.core.wire` frame, so no second message codec may come back
beside it: only the modules in :data:`JSON_USERS`, each with its reason,
may import ``json`` under ``src/repro`` -- and an entry that no longer
imports it is reported too.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = ROOT / "src" / "repro"

#: package (relative to repro) whose __init__ may re-export -> why
FACADES = {
    "routing": "bench/workloads.py imports FnPool from the package",
    "service": (
        "bench/ imports InferenceService, RemoteEnvironment, ServiceConfig "
        "and AdmissionController from the package"
    ),
}

#: module no door reaches that stays anyway -> why
KEPT = {
    "mlrt.zoo_full": (
        "fixture of the seven-model bit-identity oracle in "
        "tests/mlrt/test_bound_plan.py; moving it under tests/ removes nothing"
    ),
}

#: module (relative to repro) that may import json -> why
JSON_USERS = {
    "core.wire": "the frame's field table is canonical JSON",
    "sgx.measurement": "MRENCLAVE folds in the enclave config as canonical JSON",
    "mlrt.model": "the model blob's header is JSON",
    "obs.export": "span dumps and chrome://tracing files are JSON",
    "cli": "`repro run --json` and `repro trace` print JSON",
}

#: modules (relative to repro) the reachability walk starts from, with bench/*.py
DOORS = ("__main__", "cli", "service")

#: package name -> the only first-party prefixes it may import
#: (the AST walk sees *lazy* function-level imports too)
PACKAGES = {
    "routing": ("repro.errors",),
    "warmpool": ("repro.errors", "repro.routing"),
    # enclave TCB (imported by core.semirt_enclave): numpy and errors only
    "mlrt": ("repro.errors",),
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
    # the one session both transports hand out: the HTTP client imports
    # it, so it reaches no gateway, host, deployment, router or service
    "core.client": (
        "repro.errors",
        "repro.core.wire",
        "repro.core.futures",
        "repro.core.semirt_enclave",
        "repro.core.stages",
        "repro.crypto",
        "repro.faults",
        "repro.mlrt",
        "repro.obs",
        "repro.sgx",
        "repro.sim",
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
}

#: pins that may not load the tree's one third-party dependency, numpy, either
STDLIB_ONLY = {
    "routing", "warmpool", "core.wire", "core.futures",
    "crypto.group", "crypto.dh", "crypto.signature",
}


def _shown(path: Path) -> str:
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def _under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _runtime_nodes(tree: ast.AST):
    """``ast.walk`` minus the bodies of ``if TYPE_CHECKING:`` blocks."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            todo.extend(node.orelse)
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


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


# -- rule 1: package __init__s are docstrings --------------------------------------


def check_inits(src_repro: Path = SRC_REPRO):
    """Every import statement in an ``__init__.py`` that is not a façade's."""
    violations = []
    for path in sorted(src_repro.rglob("__init__.py")):
        if ".".join(path.parent.relative_to(src_repro).parts) in FACADES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                violations.append(
                    f"{_shown(path)}:{node.lineno}: a package __init__ is a "
                    f"docstring -- import each name from the module that defines "
                    f"it (façades: {', '.join('repro.' + f for f in FACADES)})"
                )
    return violations


# -- rule 2: pins, static and runtime ----------------------------------------------


def _static(path: Path, own: str, allowed, numpy_free: bool):
    for lineno, module in _imported_modules(ast.parse(path.read_text(), filename=str(path))):
        if _under(module, "repro"):
            permitted = _under(module, own) or any(_under(module, p) for p in allowed)
        else:  # the stdlib -- or numpy, the tree's one third-party dependency
            permitted = not (numpy_free and module.split(".")[0] == "numpy")
        if not permitted:
            yield (
                f"{_shown(path)}:{lineno}: imports {module!r} ({own} may import "
                f"only the stdlib and {', '.join(allowed) or 'nothing else'})"
            )


def check(package_dir: Path = SRC_REPRO / "routing", allowed=PACKAGES["routing"]):
    """All static violations under ``package_dir`` as printable strings."""
    package = package_dir.name
    return [
        violation
        for path in sorted(package_dir.rglob("*.py"))
        for violation in _static(path, f"repro.{package}", allowed, package in STDLIB_ONLY)
    ]


def check_module(path: Path, dotted: str, allowed):
    """All static violations in one module file as printable strings."""
    return list(_static(path, f"repro.{dotted}", allowed, dotted in STDLIB_ONLY))


def _module_files(src_repro: Path):
    """``{dotted name: file}`` of every module and package under ``src_repro``."""
    files = {}
    for path in sorted(src_repro.rglob("*.py")):
        parts = path.relative_to(src_repro.parent).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return files


def loaded_modules(names, src_repro: Path = SRC_REPRO):
    """``sys.modules`` of a fresh interpreter after importing ``names``."""
    code = "import sys, " + ", ".join(names) + "\nprint(*sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src_repro.parent)),
    )
    return result.stdout.split()


def check_runtime(pin: str, allowed, src_repro: Path = SRC_REPRO):
    """What importing ``repro.<pin>`` in a fresh interpreter loads beyond its allow-list."""
    own = f"repro.{pin}"
    names = [name for name in _module_files(src_repro) if _under(name, own)]
    violations = []
    for module in loaded_modules(names, src_repro):
        if _under(module, "repro"):
            # an ancestor package of something permitted is a docstring (rule 1)
            permitted = any(
                _under(module, p) or _under(p, module) for p in (own, *allowed)
            )
        else:
            permitted = not (pin in STDLIB_ONLY and module == "numpy")
        if not permitted:
            violations.append(
                f"importing {own} loads {module!r} ({own} may load only "
                f"the stdlib and {', '.join(allowed) or 'nothing else'})"
            )
    return violations


# -- rule 3: reachability -----------------------------------------------------------


def _runtime_targets(path: Path, files):
    """The first-party modules ``path`` imports when it runs (absolute imports:
    the tree has no relative ones, and one would only make this rule stricter)."""
    for node in _runtime_nodes(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                yield submodule if submodule in files else node.module


def check_reachability(root: Path = ROOT):
    """Modules under ``src/repro`` that no door imports at runtime, :data:`KEPT` aside."""
    files = _module_files(root / "src" / "repro")
    reached = {f"repro.{door}" for door in DOORS} & set(files)
    todo = [files[name] for name in sorted(reached)] + sorted((root / "bench").glob("*.py"))
    while todo:
        for target in _runtime_targets(todo.pop(), files):
            parts = target.split(".")
            for depth in range(1, len(parts) + 1):  # importing a.b.c runs a and a.b too
                name = ".".join(parts[:depth])
                if name in files and name not in reached:
                    reached.add(name)
                    todo.append(files[name])
    kept = {f"repro.{dotted}" for dotted in KEPT}
    return [
        f"{_shown(files[name])}: {name} is imported by nothing reachable from "
        f"python -m repro, repro.service or bench/ (wire it in or delete it)"
        for name in sorted(set(files) - reached - kept)
    ] + [
        f"{name} is reachable (or gone): drop it from KEPT"
        for name in sorted(kept & reached | kept - set(files))
    ]


# -- rule 4: no getattr(x, "_private") ------------------------------------------------


def check_private_getattr(src_repro: Path = SRC_REPRO):
    """Every ``getattr(x, "_name", ...)`` call with a literal private name."""
    violations = []
    for path in sorted(src_repro.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and node.args[1].value.startswith("_")
                and not node.args[1].value.startswith("__")
            ):
                violations.append(
                    f"{_shown(path)}:{node.lineno}: getattr(..., {node.args[1].value!r}) "
                    f"reads another object's private state -- give its owner a public view"
                )
    return violations


# -- rule 5: one HTTP implementation ----------------------------------------------------

#: the stdlib HTTP stacks, and the event loop, ``src/repro`` may not import
FOREIGN_HTTP = ("http.client", "http.server", "asyncio")


def check_one_http(src_repro: Path = SRC_REPRO):
    """Every import of :data:`FOREIGN_HTTP` (``from http import client`` too)."""
    violations = []
    for path in sorted(src_repro.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                if any(_under(name, foreign) for foreign in FOREIGN_HTTP):
                    violations.append(
                        f"{_shown(path)}:{node.lineno}: imports {name!r} -- both ends "
                        f"speak the HTTP subset of repro.service.protocol, and "
                        f"repro.service.httpd serves it on threads"
                    )
                    break
    return violations


# -- rule 6: the enclave boundary is declared ---------------------------------------


def _is_ecall_export(decorator: ast.expr) -> bool:
    """``@ecall(...)``: a call, so the row is there (a bare ``@ecall`` is not)."""
    func = decorator.func if isinstance(decorator, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "ecall") or (
        isinstance(func, ast.Attribute) and func.attr == "ecall"
    )


def check_enclave_boundary(src_repro: Path = SRC_REPRO):
    """Every undeclared ``EC_*`` method and ``self.ocall`` literal of an enclave program."""
    violations = []
    for path in sorted(src_repro.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef) or "EnclaveCode" not in {
                getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases
            }:
                continue
            declared = {
                key.value
                for node in cls.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "OCALLS" for t in node.targets)
                and isinstance(node.value, ast.Dict)
                for key in node.value.keys
                if isinstance(key, ast.Constant)
            }
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and node.name.startswith("EC_")
                        and not any(map(_is_ecall_export, node.decorator_list))):
                    violations.append(
                        f"{_shown(path)}:{node.lineno}: {cls.name}.{node.name} is not "
                        f"exported with its row (@ecall(...))"
                    )
            for node in ast.walk(cls):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "ocall" and getattr(node.func.value, "id", None) == "self"
                        and node.args and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value not in declared):
                    violations.append(
                        f"{_shown(path)}:{node.lineno}: {cls.name} makes OCALL "
                        f"{node.args[0].value!r}, which is not a key of its OCALLS"
                    )
    return violations


# -- rule 7: one wire format --------------------------------------------------------


def check_one_wire_format(src_repro: Path = SRC_REPRO):
    """Every ``json`` import outside :data:`JSON_USERS`, and every stale entry."""
    violations, users = [], set()
    for name, path in _module_files(src_repro).items():
        dotted = name[len("repro."):]
        for lineno, module in _imported_modules(ast.parse(path.read_text(), filename=str(path))):
            if not _under(module, "json"):
                continue
            users.add(dotted)
            if dotted not in JSON_USERS:
                violations.append(
                    f"{_shown(path)}:{lineno}: imports {module!r} -- messages are "
                    f"repro.core.wire frames, and only JSON_USERS may import json"
                )
    violations += [
        f"repro.{dotted} imports no json (or is gone): drop it from JSON_USERS"
        for dotted in sorted(set(JSON_USERS) - users)
    ]
    return violations


def main() -> int:
    """CLI entry point; returns a process exit code."""
    pins = [(name, allowed, SRC_REPRO / name) for name, allowed in PACKAGES.items()]
    pins += [
        (name, allowed, SRC_REPRO / (name.replace(".", "/") + ".py"))
        for name, allowed in MODULES.items()
    ]
    checks = [("package __init__s", check_inits())]
    for name, allowed, path in pins:
        if not path.exists():
            print(f"missing pin: {path}", file=sys.stderr)
            return 2
        violations = check(path, allowed) if path.is_dir() else check_module(path, name, allowed)
        if not any(name.startswith(facade + ".") for facade in FACADES):
            violations += check_runtime(name, allowed)
        checks.append((f"repro.{name}", violations))
    checks.append(("reachability", check_reachability()))
    checks.append(("private getattr", check_private_getattr()))
    checks.append(("one HTTP implementation", check_one_http()))
    checks.append(("declared enclave boundary", check_enclave_boundary()))
    checks.append(("one wire format", check_one_wire_format()))
    for title, violations in checks:
        for violation in violations:
            print(violation, file=sys.stderr)
        if violations:
            print(f"{title}: {len(violations)} layering violation(s)", file=sys.stderr)
        else:
            print(f"{title} layering OK")
    return 1 if any(violations for _title, violations in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
