"""Shared fixtures for the test suite, and the one test-side ECALL gate."""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.core.gateway import InferenceGateway
from repro.core.semirt import SemirtHost
from repro.core.semirt_enclave import SemirtEnclaveCode
from repro.mlrt.zoo import build_mobilenet
from repro.service.httpd import THREAD_PREFIX
from repro.service.server import InferenceService
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGX2, SgxPlatform
from repro.sim.core import Simulation

#: how long a held ECALL waits for a permit before it lets itself go, so a
#: test that fails before its ``release()`` cannot wedge a scheduler worker
_HOLD_BOUND_S = 30.0


class HeldEcalls:
    """Parks calls of the named ECALLs inside the enclave until released.

    A held call runs its body first -- whatever it creates (an execution
    or stream context, a decoded token) exists while it is parked -- and
    then waits for a permit on the TCS it entered on, which is where the
    hardware would spend its execution time.  The state a test reads:
    ``entered`` (calls that reached the gate, per ECALL name), ``parked``
    (``(name, enclave code)`` of each call waiting now) and ``peak`` (the
    most that were ever parked at once).
    """

    def __init__(self) -> None:
        self._cv = threading.Condition()
        #: calls that may still pass; ``None`` once released for good
        self._permits: Optional[int] = 0
        self.entered: Counter = Counter()
        self.parked: List[Tuple[str, SemirtEnclaveCode]] = []
        self.peak = 0

    def _park(self, name: str, code: SemirtEnclaveCode) -> None:
        call = (name, code)
        with self._cv:
            self.entered[name] += 1
            self.parked.append(call)
            self.peak = max(self.peak, len(self.parked))
            self._cv.notify_all()
            self._cv.wait_for(
                lambda: self._permits is None or self._permits > 0, _HOLD_BOUND_S
            )
            if self._permits:
                self._permits -= 1
            self.parked.remove(call)
            self._cv.notify_all()

    def wait_entered(self, n: int, name: Optional[str] = None,
                     timeout_s: float = 10.0) -> None:
        """Block until ``n`` calls (of ``name``, or of any held ECALL) entered."""
        def count() -> int:
            return self.entered[name] if name else sum(self.entered.values())

        with self._cv:
            reached = self._cv.wait_for(lambda: count() >= n, timeout_s)
        assert reached, f"{count()} of {n} held ECALL(s) entered within {timeout_s}s"

    def release(self, n: Optional[int] = None) -> None:
        """Let ``n`` more calls through (parked ones first), or all from now on."""
        with self._cv:
            if n is None or self._permits is None:
                self._permits = None
            else:
                self._permits += n
            self._cv.notify_all()


@contextmanager
def held_ecalls(*names: str) -> Iterator[HeldEcalls]:
    """Hold every call of the named :class:`SemirtEnclaveCode` ECALLs.

    ``Enclave.ecall`` resolves the method on the code object per call,
    so wrapping the class attribute gates every live host at once.  On
    the way out the gate opens for good and the methods are restored.
    """
    gate = HeldEcalls()
    originals = {name: getattr(SemirtEnclaveCode, name) for name in names}

    def held(name, original):
        @functools.wraps(original)
        def call(code, *args, **kwargs):
            result = original(code, *args, **kwargs)
            gate._park(name, code)
            return result

        return call

    for name, original in originals.items():
        setattr(SemirtEnclaveCode, name, held(name, original))
    try:
        yield gate
    finally:
        gate.release()
        for name, original in originals.items():
            setattr(SemirtEnclaveCode, name, original)


#: name prefixes of the threads a module must not leave running: SeMIRT
#: scheduler workers, and the service tier's acceptor, connection and
#: sweeper threads
_WORKER_PREFIXES = ("semirt-", THREAD_PREFIX)


def _scheduler_workers() -> set:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith(_WORKER_PREFIXES)
    }


def _held_by(host: SemirtHost) -> Tuple[int, int, int]:
    """What ``host`` still holds: scheduler slots, enclave TCSs, reserved contexts."""
    return host.slots_in_use, host.enclave.tcs_in_use, host._contexts_in_flight


def _owed_by(built) -> Dict[str, int]:
    """The in-flight counts a gateway or a service still holds (non-zero only)."""
    if isinstance(built, InferenceService):
        owed = {"admission": built.admission.inflight_total}
    else:
        states = [built.router.state(name) for name, _ in built.router.endpoints()]
        owed = {
            "gateway.in_flight": built.in_flight,
            "router.pending": sum(state.pending for state in states if state is not None),
        }
        if built.warm_pool is not None:
            endpoints = built.warm_pool.stats(0.0)["endpoints"].values()
            owed["warm_pool.in_flight"] = sum(record["in_flight"] for record in endpoints)
    return {name: count for name, count in owed.items() if count}


def _recording(cls, built: list) -> None:
    """Make ``cls.__init__`` append every instance it builds to ``built``."""
    init = cls.__init__

    @functools.wraps(init)
    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    cls.__init__ = tracked


@pytest.fixture(scope="module", autouse=True)
def no_leaked_scheduler_workers():
    """Fail a module that leaves a SeMIRT scheduler worker or a service
    thread running, a SeMIRT host holding a slot, or a request counted in
    flight by a gateway or a service.

    Autouse at module scope, so it is set up before and torn down after
    every other fixture of the module: whatever hosts the tests and
    their fixtures launched must be ``destroy()``-ed, and every service
    ``close()``-d, by then.  A retired worker exits on its shutdown
    sentinel, so the leftovers get one bounded join before they count
    as leaked.  Every :class:`SemirtHost` launched in the module, alive
    or destroyed, must by then hold no TCS slot in its scheduler's count,
    no enclave TCS and no reserved execution context -- a slot claimed
    for a caller's thread and never served would show here.  Every
    :class:`InferenceGateway` built in the module must count nothing in
    flight (its own count, its router's pending responses, its warm
    pool's) and every :class:`InferenceService` no admission slot: a
    handle nobody settled holds all of them.  Both get the same bound
    for a serve still finishing.
    """
    before = _scheduler_workers()
    built = {SemirtHost: [], InferenceGateway: [], InferenceService: []}
    inits = {cls: cls.__init__ for cls in built}
    for cls, instances in built.items():
        _recording(cls, instances)
    try:
        yield
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    leaked = _scheduler_workers() - before
    deadline = time.monotonic() + 10
    for worker in leaked:
        worker.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = sorted(worker.name for worker in leaked if worker.is_alive())
    assert not alive, f"{len(alive)} worker thread(s) outlived the module: {alive}"
    hosts = built[SemirtHost]
    fleets = built[InferenceGateway] + built[InferenceService]
    while (
        any(map(any, map(_held_by, hosts))) or any(map(_owed_by, fleets))
    ) and time.monotonic() < deadline:
        time.sleep(0.01)
    held = {
        host.enclave.enclave_id: _held_by(host) for host in hosts if any(_held_by(host))
    }
    assert not held, f"hosts holding (slots, TCSs, contexts) after the module: {held}"
    owed = [(type(fleet).__name__, _owed_by(fleet)) for fleet in fleets if _owed_by(fleet)]
    assert not owed, f"gateways / services counting requests in flight after the module: {owed}"


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
