"""The layering gate: repro.warmpool stays twin-agnostic."""

import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO / "scripts" / "check_layering.py"
WARMPOOL = REPO / "src" / "repro" / "warmpool"


def _load_checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_warmpool_is_a_checked_package():
    checker = _load_checker()
    assert "warmpool" in checker.PACKAGES
    assert "repro.routing" in checker.PACKAGES["warmpool"]


def test_warmpool_package_passes_its_gate():
    checker = _load_checker()
    assert checker.check(WARMPOOL, checker.PACKAGES["warmpool"]) == []


def test_gate_rejects_a_core_import_from_warmpool(tmp_path):
    # simulate a warmpool module reaching into the functional twin
    bad = tmp_path / "warmpool" / "hooks.py"
    bad.parent.mkdir()
    bad.write_text(
        "from repro.core.gateway import InferenceGateway\n"
        "from repro.routing import FnPool\n"
    )
    checker = _load_checker()
    violations = checker.check(
        tmp_path / "warmpool", checker.PACKAGES["warmpool"]
    )
    assert len(violations) == 1
    assert "repro.core.gateway" in violations[0]


def test_gate_allows_routing_types_in_warmpool(tmp_path):
    good = tmp_path / "warmpool" / "ok.py"
    good.parent.mkdir()
    good.write_text(
        "import threading\n"
        "from repro.errors import ConfigError\n"
        "from repro.routing import BatchAffinity\n"
        "from repro.warmpool.manager import WarmPoolConfig\n"
        "from . import manager\n"
    )
    checker = _load_checker()
    assert checker.check(tmp_path / "warmpool", checker.PACKAGES["warmpool"]) == []
