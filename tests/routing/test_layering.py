"""The layering gate: repro.routing stays twin-agnostic."""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO / "scripts" / "check_layering.py"


def _load_checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_routing_package_passes_the_gate():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], cwd=REPO, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_gate_catches_a_core_import(tmp_path):
    bad = tmp_path / "policy.py"
    bad.write_text(
        "import threading\n"
        "from repro.core.semirt import SemirtHost\n"
        "from repro.errors import RoutingError\n"
        "from . import pool\n"
    )
    checker = _load_checker()
    violations = checker.check(tmp_path)
    assert len(violations) == 1
    assert "repro.core.semirt" in violations[0]


def test_gate_catches_a_faults_import(tmp_path):
    (tmp_path / "guard.py").write_text("import repro.faults.resilience\n")
    checker = _load_checker()
    assert any("repro.faults" in v for v in checker.check(tmp_path))


def test_enclave_module_is_pinned_to_the_trust_boundary(tmp_path):
    """``core.semirt_enclave`` may import nothing that runs outside the
    enclave: a host import inside it is reported, its real imports pass."""
    checker = _load_checker()
    allowed = checker.MODULES["core.semirt_enclave"]
    assert set(allowed) == {
        "repro.errors", "repro.core.wire", "repro.core.stages",
        "repro.crypto", "repro.mlrt", "repro.sgx", "repro.obs",
    }
    bad = tmp_path / "semirt_enclave.py"
    bad.write_text(
        "import numpy as np\n"
        "import repro.core.wire as wire\n"
        "from repro.crypto.gcm import AESGCM\n"
        "from repro.core.semirt import SemirtHost\n"
        "def f():\n    from repro.faults.injector import maybe_wire\n"
    )
    violations = checker.check_module(bad, "core.semirt_enclave", allowed)
    assert len(violations) == 2
    assert "repro.core.semirt'" in violations[0]
    assert "repro.faults.injector" in violations[1]
    real = checker.SRC_REPRO / "core" / "semirt_enclave.py"
    assert checker.check_module(real, "core.semirt_enclave", allowed) == []


def test_model_runtime_package_is_pinned_as_enclave_tcb(tmp_path):
    """``repro.mlrt`` is imported by ``core.semirt_enclave``, so all of it
    runs inside the trust boundary: stdlib + numpy + ``repro.errors`` only."""
    checker = _load_checker()
    assert checker.PACKAGES["mlrt"] == ("repro.errors",)
    assert "repro.mlrt" in checker.MODULES["core.semirt_enclave"]
    package = tmp_path / "mlrt"
    package.mkdir()
    (package / "layers.py").write_text(
        "from functools import partial\n"
        "import numpy as np\n"
        "from repro.errors import ModelError\n"
        "from repro.mlrt.model import Model\n"
        "from repro.obs.tracer import maybe_span\n"
        "def bind():\n    from repro.core.semirt import SchedulerConfig\n"
    )
    violations = checker.check(package, checker.PACKAGES["mlrt"])
    assert [v.split("imports ")[1].split(" ")[0] for v in violations] == [
        "'repro.obs.tracer'", "'repro.core.semirt'",
    ]
    assert checker.check(checker.SRC_REPRO / "mlrt", checker.PACKAGES["mlrt"]) == []


def test_remote_client_and_protocol_module_are_pinned(tmp_path):
    """``service.client`` stays a client (no server, deployment, gateway
    or SeMIRT import) and ``service.protocol`` owes neither side."""
    checker = _load_checker()
    assert set(checker.MODULES["service.protocol"]) == {
        "repro.errors", "repro.core.wire",
    }
    allowed = checker.MODULES["service.client"]
    assert set(allowed) == {
        "repro.errors", "repro.core.wire", "repro.core.client",
        "repro.core.futures", "repro.obs", "repro.sgx",
        "repro.service.protocol",
    }
    bad = tmp_path / "client.py"
    bad.write_text(
        "import http.client\n"
        "import repro.core.wire as wire\n"
        "from repro.core.client import TokenStream\n"
        "from repro.service.protocol import read_record\n"
        "from repro.service.server import InferenceService\n"
        "from repro.core.deployment import SessionStream\n"
        "def f():\n    from repro.core.gateway import InferenceGateway\n"
        "    import repro.core.semirt\n"
    )
    violations = checker.check_module(bad, "service.client", allowed)
    assert [v.split("imports ")[1].split(" ")[0] for v in violations] == [
        "'repro.service.server'", "'repro.core.deployment'",
        "'repro.core.gateway'", "'repro.core.semirt'",
    ]
    for dotted in ("service.client", "service.protocol"):
        real = checker.SRC_REPRO / (dotted.replace(".", "/") + ".py")
        assert checker.check_module(real, dotted, checker.MODULES[dotted]) == []


def test_public_key_modules_are_pinned_to_plain_integers(tmp_path):
    """``crypto.group`` is the standard library only; ``dh`` and ``signature``
    add ``repro.crypto`` + ``repro.errors``; none of them may reach numpy,
    ``repro.obs`` or a config object (the comb table for ``G`` lives here)."""
    checker = _load_checker()
    assert checker.MODULES["crypto.group"] == ()
    for dotted in ("crypto.dh", "crypto.signature"):
        assert set(checker.MODULES[dotted]) == {"repro.crypto", "repro.errors"}
    assert {"crypto.group", "crypto.dh", "crypto.signature"} <= checker.STDLIB_ONLY

    bad = tmp_path / "group.py"
    bad.write_text(
        "import functools\n"
        "import secrets\n"
        "import numpy as np\n"
        "from repro.obs.tracer import maybe_span\n"
        "def g_pow(x):\n    from repro.core.semirt import SchedulerConfig\n"
    )
    violations = checker.check_module(bad, "crypto.group", ())
    assert [v.split("imports ")[1].split(" ")[0] for v in violations] == [
        "'numpy'", "'repro.obs.tracer'", "'repro.core.semirt'",
    ]
    bad = tmp_path / "signature.py"
    bad.write_text(
        "from repro.crypto import group\n"
        "from repro.crypto.hashes import sha256\n"
        "from repro.errors import InvalidSignature\n"
        "import numpy.typing\n"
        "from repro.sgx.attestation import Quote\n"
    )
    violations = checker.check_module(
        bad, "crypto.signature", checker.MODULES["crypto.signature"]
    )
    assert [v.split("imports ")[1].split(" ")[0] for v in violations] == [
        "'numpy.typing'", "'repro.sgx.attestation'",
    ]
    # numpy stays legal where the pin does not forbid it
    assert checker.check_module(bad, "core.semirt_enclave", ("repro",)) == []
    for dotted in ("crypto.group", "crypto.dh", "crypto.signature"):
        real = checker.SRC_REPRO / (dotted.replace(".", "/") + ".py")
        assert checker.check_module(real, dotted, checker.MODULES[dotted]) == []


# -- an import loads what it names: the three structural rules ---------------------


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_gate_catches_a_package_init_that_imports_a_sibling(tmp_path):
    checker = _load_checker()
    src_repro = _tree(tmp_path, {
        "src/repro/__init__.py": '"""Root."""\n\n__version__ = "1.0.0"\n',
        "src/repro/core/__init__.py": '"""Core."""\n\nfrom repro.core.host import Host\n',
        "src/repro/core/host.py": "class Host: pass\n",
        # a façade may: bench/ imports its names from the package
        "src/repro/routing/__init__.py": "from repro.routing.pool import FnPool\n",
        "src/repro/routing/pool.py": "class FnPool: pass\n",
    }) / "src" / "repro"
    violations = checker.check_inits(src_repro)
    assert len(violations) == 1
    assert "core/__init__.py:3" in violations[0]
    assert checker.check_inits() == []
    assert set(checker.FACADES) == {"routing", "service"}
    assert all(reason.startswith("bench/") for reason in checker.FACADES.values())


def test_gate_catches_a_module_only_tests_import(tmp_path):
    checker = _load_checker()
    root = _tree(tmp_path, {
        "src/repro/__init__.py": '"""Root."""\n',
        "src/repro/__main__.py": "from repro.cli import main\n",
        "src/repro/cli.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from repro.typed import Hint\n"
            "def main():\n    from repro.core import used\n"
        ),
        "src/repro/core/__init__.py": '"""Core."""\n',
        "src/repro/core/used.py": "import repro.core.deep\n",
        "src/repro/core/deep.py": "",
        "src/repro/benched.py": "",
        "src/repro/typed.py": "",
        "src/repro/orphan.py": "",
        "bench/run.py": "from repro.benched import x\n",
        "tests/test_orphan.py": "from repro.orphan import x\n",
    })
    violations = checker.check_reachability(root)
    # the allow-list cannot rot: its two entries do not exist in this tree
    stale = [v for v in violations if "drop it from KEPT" in v]
    assert len(stale) == len(checker.KEPT) == 2
    flagged = [v for v in violations if v not in stale]
    assert len(flagged) == 2
    assert "repro.orphan is imported by nothing reachable" in flagged[0]
    assert "repro.typed is imported by nothing reachable" in flagged[1]
    assert checker.check_reachability() == []
    assert set(checker.KEPT) == {"serverless.telemetry", "mlrt.zoo_full"}


def test_gate_catches_a_runtime_leak_through_a_package_init(tmp_path):
    """The defect this rule exists for: the pinned module's own import
    lines are clean, but importing it runs a package ``__init__`` that
    re-exports a sibling -- and the sibling's numpy."""
    checker = _load_checker()
    src_repro = _tree(tmp_path, {
        "src/repro/__init__.py": '"""Root."""\n',
        "src/repro/errors.py": "class WireError(Exception): pass\n",
        "src/repro/core/__init__.py": "from repro.core.host import Host\n",
        "src/repro/core/host.py": "import numpy\nclass Host: pass\n",
        "src/repro/core/wire.py": "import struct\nfrom repro.errors import WireError\n",
    }) / "src" / "repro"
    allowed = checker.MODULES["core.wire"]
    assert checker.check_module(src_repro / "core" / "wire.py", "core.wire", allowed) == []
    violations = checker.check_runtime("core.wire", allowed, src_repro)
    assert sorted(v.split("loads ")[1].split(" ")[0] for v in violations) == [
        "'numpy'", "'repro.core.host'",
    ]
    assert all(v.startswith("importing repro.core.wire loads") for v in violations)
    assert checker.check_runtime("core.wire", allowed) == []


def test_gate_catches_a_getattr_of_a_private_name(tmp_path):
    """How the gateway used to read the router's ``_endpoints``: a literal
    private name is refused; dunders, public names and computed names pass."""
    checker = _load_checker()
    src_repro = _tree(tmp_path, {
        "src/repro/core/gateway.py": (
            "def pending(router, endpoint, name):\n"
            "    states = getattr(router, '_endpoints', None)\n"
            "    return getattr(states, '__len__'), getattr(router, 'pool'), "
            "getattr(router, name)\n"
        ),
    }) / "src" / "repro"
    violations = checker.check_private_getattr(src_repro)
    assert len(violations) == 1
    assert "core/gateway.py:2" in violations[0] and "'_endpoints'" in violations[0]
    assert checker.check_private_getattr() == []


def test_a_violation_of_any_rule_fails_the_script(monkeypatch, capsys):
    checker = _load_checker()
    for rule in ("check_inits", "check_runtime", "check_reachability", "check_private_getattr"):
        with monkeypatch.context() as patch:
            patch.setattr(checker, rule, lambda *args: [f"offender named by {rule}"])
            assert checker.main() == 1
        assert f"offender named by {rule}" in capsys.readouterr().err


def test_pins_below_a_facade_are_static_only(monkeypatch):
    """``repro.service`` re-exports the server, so importing
    ``repro.service.client`` loads it: those two pins hold for the file's
    own import lines only, until ``bench/`` imports from the modules."""
    checker = _load_checker()
    checked = []
    monkeypatch.setattr(checker, "check_runtime", lambda pin, allowed: checked.append(pin) or [])
    assert checker.main() == 0
    assert set(checker.PACKAGES) | set(checker.MODULES) == set(checked) | {
        "service.client", "service.protocol",
    }


#: what a fresh interpreter holds after ``import repro.core.semirt_enclave``:
#: the manifest of the enclave child process (ROADMAP item 5)
ENCLAVE_CLOSURE = [
    "repro", "repro.core", "repro.core.semirt_enclave", "repro.core.stages",
    "repro.core.wire", "repro.crypto", "repro.crypto.aes", "repro.crypto.dh",
    "repro.crypto.gcm", "repro.crypto.group", "repro.crypto.hashes",
    "repro.crypto.keys", "repro.crypto.signature", "repro.errors", "repro.mlrt",
    "repro.mlrt.decoder", "repro.mlrt.framework", "repro.mlrt.layers",
    "repro.mlrt.model", "repro.mlrt.tensor", "repro.obs", "repro.obs.span",
    "repro.obs.tracer", "repro.sgx", "repro.sgx.attestation", "repro.sgx.enclave",
    "repro.sgx.measurement", "repro.sgx.ratls",
]


def test_the_trusted_modules_runtime_closure_is_pinned():
    checker = _load_checker()
    loaded = checker.loaded_modules(["repro.core.semirt_enclave"])
    assert sorted(m for m in loaded if m.split(".")[0] == "repro") == ENCLAVE_CLOSURE
    assert len(ENCLAVE_CLOSURE) <= 30


def test_the_numpy_free_pins_are_numpy_free_at_runtime():
    checker = _load_checker()
    assert "numpy" not in checker.loaded_modules(["repro.errors"])
    assert [m for m in checker.loaded_modules(["repro.errors"]) if m.startswith("repro")] == [
        "repro", "repro.errors",
    ]
    for pin in ("crypto.group", "crypto.dh", "crypto.signature", "core.wire",
                "core.futures", "scenarios.spec", "scenarios.store",
                "scenarios.compare", "scenarios.registry", "routing", "warmpool"):
        assert pin in checker.STDLIB_ONLY, pin
    assert "numpy" not in checker.loaded_modules(["repro.warmpool.manager"])
