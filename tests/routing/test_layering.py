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
