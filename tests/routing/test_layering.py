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
