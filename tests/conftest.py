"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.mlrt.zoo import build_mobilenet
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGX2, SgxPlatform
from repro.sim.core import Simulation


def _scheduler_workers() -> set:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("semirt-")
    }


@pytest.fixture(scope="module", autouse=True)
def no_leaked_scheduler_workers():
    """Fail a module that leaves a SeMIRT scheduler worker running.

    Autouse at module scope, so it is set up before and torn down after
    every other fixture of the module: whatever hosts the tests and
    their fixtures launched must be ``destroy()``-ed by then.  A retired
    worker exits on its shutdown sentinel, so the leftovers get one
    bounded join before they count as leaked.
    """
    before = _scheduler_workers()
    yield
    leaked = _scheduler_workers() - before
    deadline = time.monotonic() + 10
    for worker in leaked:
        worker.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = sorted(worker.name for worker in leaked if worker.is_alive())
    assert not alive, f"{len(alive)} scheduler worker(s) outlived the module: {alive}"


@pytest.fixture()
def sim() -> Simulation:
    return Simulation()


@pytest.fixture()
def attestation() -> AttestationService:
    return AttestationService()


@pytest.fixture()
def sgx_platform(attestation) -> SgxPlatform:
    return SgxPlatform(SGX2, attestation_service=attestation)


@pytest.fixture(scope="module")
def env() -> SeSeMIEnvironment:
    """A functional SeSeMI deployment shared within a test module."""
    return SeSeMIEnvironment()


@pytest.fixture(scope="module")
def tiny_model():
    return build_mobilenet()


@pytest.fixture(scope="module")
def tiny_input(tiny_model):
    rng = np.random.default_rng(42)
    return rng.standard_normal(tiny_model.input_spec.shape).astype(np.float32)
