"""Functional enclave model: lifecycle, ECALL/OCALL dispatch, TCS slots.

An :class:`Enclave` hosts an :class:`EnclaveCode` program.  The contract
follows SGX:

- only methods explicitly exported with the :func:`ecall` decorator can be
  invoked from outside; everything else is unreachable (the "minimal
  attack surface" argument of the paper's Section IV-D);
- each concurrent ECALL occupies a Thread Control Structure (TCS); an
  enclave built with ``tcs_count=n`` admits at most *n* simultaneous
  ECALLs and raises :class:`TcsExhausted` beyond that;
- enclave code reaches back into the untrusted world only through
  registered OCALL handlers;
- the enclave identity (MRENCLAVE) covers the code and build config, and
  is reported via :meth:`Enclave.get_report` for attestation.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import EnclaveError, TcsExhausted
from repro.sgx.attestation import REPORT_DATA_SIZE, Report
from repro.sgx.measurement import EnclaveMeasurement, code_identity_of, measure

_enclave_ids = itertools.count(1)


def ecall(fn: Callable) -> Callable:
    """Mark a method of an :class:`EnclaveCode` subclass as an ECALL export."""
    fn.__is_ecall__ = True  # type: ignore[attr-defined]
    return fn


@dataclass(frozen=True)
class EnclaveBuildConfig:
    """Build-time enclave configuration (covered by MRENCLAVE).

    Mirrors the SGX enclave configuration file: number of TCSs, committed
    memory, security version, and debug attribute.  The paper configures
    per-model memory sizes (Appendix D) and TCS counts 1-8 here.
    """

    memory_bytes: int
    tcs_count: int = 1
    isv_svn: int = 1
    debug: bool = False

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise EnclaveError("enclave memory must be positive")
        if self.tcs_count < 1:
            raise EnclaveError("an enclave needs at least one TCS")

    def as_mapping(self) -> dict:
        """JSON-friendly form folded into the enclave measurement."""
        return {
            "memory_bytes": self.memory_bytes,
            "tcs_count": self.tcs_count,
            "isv_svn": self.isv_svn,
            "debug": self.debug,
        }


class EnclaveCode:
    """Base class for enclave programs.

    Subclasses export ECALLs with the :func:`ecall` decorator and may
    declare extra build-time settings in :attr:`SETTINGS`; these settings
    are folded into the measurement, which is how SeSeMI's execution
    restrictions (sequential isolation, key-cache off) become part of the
    enclave identity.
    """

    #: Code-level build settings folded into MRENCLAVE.
    SETTINGS: dict = {}

    def __init__(self) -> None:
        self._enclave: Optional["Enclave"] = None

    @property
    def enclave(self) -> "Enclave":
        if self._enclave is None:
            raise EnclaveError("enclave code is not loaded into an enclave")
        return self._enclave

    def settings(self) -> dict:
        """Build settings for this instance (override to parameterise)."""
        return dict(self.SETTINGS)

    def on_load(self, enclave: "Enclave") -> None:
        """Hook invoked once when the enclave finishes initialisation."""

    def on_destroy(self) -> None:
        """Hook invoked once at teardown: drop everything the heap held."""

    def ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke an untrusted OCALL handler registered on the enclave."""
        return self.enclave.dispatch_ocall(name, *args, **kwargs)


class _TcsPool:
    """Counting pool of TCS slots; non-blocking acquire, thread-safe."""

    def __init__(self, count: int) -> None:
        self._lock = threading.Lock()
        self._free = count
        self.capacity = count

    def acquire(self) -> None:
        with self._lock:
            if self._free == 0:
                raise TcsExhausted(
                    f"all {self.capacity} TCS slots are busy; "
                    "increase tcs_count or serialise requests"
                )
            self._free -= 1

    def release(self) -> None:
        with self._lock:
            if self._free >= self.capacity:
                raise EnclaveError("TCS released more times than acquired")
            self._free += 1

    @property
    def in_use(self) -> int:
        with self._lock:
            return self.capacity - self._free


class Enclave:
    """A loaded enclave instance; create through :class:`SgxPlatform`."""

    def __init__(
        self,
        code: EnclaveCode,
        config: EnclaveBuildConfig,
        platform_id: str,
        on_destroy: Callable[["Enclave"], None] | None = None,
        on_expand: Callable[["Enclave", int], None] | None = None,
    ) -> None:
        self.enclave_id = f"enclave-{next(_enclave_ids)}"
        self.code = code
        self.config = config
        self.platform_id = platform_id
        self._on_destroy = on_destroy
        self._on_expand = on_expand
        self._dynamic_bytes = 0
        self._destroyed = False
        self._tcs = _TcsPool(config.tcs_count)
        self._ocall_handlers: Dict[str, Callable] = {}
        self._ecalls = {
            name
            for name in dir(type(code))
            if getattr(getattr(type(code), name), "__is_ecall__", False)
        }
        identity = code_identity_of(code)
        build_view = dict(config.as_mapping())
        build_view["settings"] = code.settings()
        self.measurement: EnclaveMeasurement = measure(identity, build_view)
        code._enclave = self
        code.on_load(self)

    # -- lifecycle -------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._destroyed

    def destroy(self) -> None:
        """Tear the enclave down; further ECALLs fail.

        Like ``EREMOVE``, nothing the enclave held outlives this call: the
        code releases its heap and the OCALL table (bound methods of the
        host, the other half of a host <-> enclave reference cycle) is
        emptied, so an ECALL still in flight fails on its next OCALL.
        """
        if self._destroyed:
            return
        self._destroyed = True
        self.code.on_destroy()
        self._ocall_handlers.clear()
        if self._on_destroy is not None:
            self._on_destroy(self)

    # -- dynamic memory (SGX2 EDMM) ----------------------------------------------

    @property
    def dynamic_bytes(self) -> int:
        """Memory added after initialisation (EAUG/EACCEPT pages)."""
        return self._dynamic_bytes

    def expand_memory(self, nbytes: int) -> None:
        """Grow the enclave at runtime (SGX2's EDMM capability).

        Dynamically added pages are *not* measured -- MRENCLAVE covers
        only the build-time layout -- so the identity is unchanged, just
        as on real SGX2 hardware.  The platform accounts the pages
        against its EPC (set via ``on_expand`` at creation).
        """
        if self._destroyed:
            raise EnclaveError(f"{self.enclave_id} is destroyed")
        if nbytes <= 0:
            raise EnclaveError("expansion must be positive")
        if self._on_expand is None:
            raise EnclaveError(
                "this platform does not support dynamic enclave memory (EDMM)"
            )
        self._on_expand(self, nbytes)
        self._dynamic_bytes += nbytes

    # -- ECALL / OCALL dispatch --------------------------------------------------

    @property
    def exported_ecalls(self) -> frozenset:
        """Names of the ECALLs the untrusted world may invoke."""
        return frozenset(self._ecalls)

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke the exported ECALL ``name`` on one TCS.

        Anything not exported -- private helpers, plain methods, dunder
        attributes -- is rejected, no matter what the caller guesses.
        """
        if self._destroyed:
            raise EnclaveError(f"{self.enclave_id} is destroyed")
        if name not in self._ecalls:
            raise EnclaveError(f"{name!r} is not an exported ECALL")
        self._tcs.acquire()
        try:
            return getattr(self.code, name)(*args, **kwargs)
        finally:
            self._tcs.release()

    def register_ocall(self, name: str, handler: Callable) -> None:
        """Register the untrusted handler for OCALL ``name``."""
        self._ocall_handlers[name] = handler

    def dispatch_ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke the registered untrusted handler for an OCALL."""
        if self._destroyed:
            raise EnclaveError(f"{self.enclave_id} is destroyed")
        handler = self._ocall_handlers.get(name)
        if handler is None:
            raise EnclaveError(f"no OCALL handler registered for {name!r}")
        return handler(*args, **kwargs)

    @property
    def tcs_in_use(self) -> int:
        return self._tcs.in_use

    # -- attestation ---------------------------------------------------------------

    def get_report(self, report_data: bytes = b"") -> Report:
        """Produce a local report binding ``report_data`` to this identity."""
        if self._destroyed:
            raise EnclaveError(f"{self.enclave_id} is destroyed")
        if len(report_data) > REPORT_DATA_SIZE:
            raise EnclaveError(
                f"report_data limited to {REPORT_DATA_SIZE} bytes"
            )
        padded = report_data.ljust(REPORT_DATA_SIZE, b"\x00")
        return Report(
            mrenclave=self.measurement,
            isv_svn=self.config.isv_svn,
            debug=self.config.debug,
            report_data=padded,
            platform_id=self.platform_id,
        )
