"""Functional enclave model: lifecycle, ECALL/OCALL dispatch, TCS slots.

An :class:`Enclave` hosts an :class:`EnclaveCode` program.  The contract
follows SGX:

- only methods explicitly exported with the :func:`ecall` decorator can be
  invoked from outside; everything else is unreachable (the "minimal
  attack surface" argument of the paper's Section IV-D);
- the boundary is declared once, like an SGX EDL file: each ECALL's
  decorator names the :class:`Kind` of every argument and
  :attr:`EnclaveCode.OCALLS` the kind of every OCALL's reply, and the
  enclave checks both before any trusted code reads the value;
- each concurrent ECALL occupies a Thread Control Structure (TCS); an
  enclave built with ``tcs_count=n`` admits at most *n* simultaneous
  ECALLs and raises :class:`TcsExhausted` beyond that.  Thread-local
  storage belongs to the TCS, not to the untrusted thread: an ECALL
  reads its slot's :attr:`Enclave.tls`, so however many threads call
  in, there are at most *n* of it;
- enclave code reaches back into the untrusted world only through
  registered OCALL handlers;
- the enclave identity (MRENCLAVE) covers the code and build config, and
  is reported via :meth:`Enclave.get_report` for attestation.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional

from repro.errors import EnclaveError, TcsExhausted
from repro.sgx.attestation import REPORT_DATA_SIZE, Report
from repro.sgx.measurement import EnclaveMeasurement, code_identity_of, measure

_enclave_ids = itertools.count(1)


class Kind:
    """What one value crossing the enclave boundary may be (an EDL type).

    Exactly ``type`` -- a ``bool`` is no ``int`` -- or ``None`` when
    ``optional``; ``least``/``most`` bound an int's value or anything
    else's length; ``item`` is the kind of every element of a list and
    ``fields`` the kinds of a record's required keys.  A refusal raises
    ``error``, and its message is only built then.
    """

    __slots__ = ("type", "optional", "least", "most", "item", "fields", "error")

    def __init__(self, type_: type, *, optional=False, least=None, most=None, item=None,
                 fields=None, error: type = EnclaveError) -> None:
        self.type, self.optional, self.least, self.most = type_, optional, least, most
        self.item, self.fields, self.error = item, tuple((fields or {}).items()), error

    def refusal(self, value: Any) -> Optional[str]:
        """Why ``value`` is not of this kind; ``None`` when it is."""
        if type(value) is not self.type:
            allowed = value is None and self.optional
            return None if allowed else f"expected {self.type.__name__}, got {type(value).__name__}"
        if self.least is not None or self.most is not None:
            size, what = (value, "value") if self.type is int else (len(value), "length")
            if self.least is not None and size < self.least:
                return f"{what} {size} is below {self.least}"
            if self.most is not None and size > self.most:
                return f"{what} {size} is above {self.most}"
        if self.item is not None:
            for index, element in enumerate(value):
                reason = self.item.refusal(element)
                if reason is not None:
                    return f"item {index}: {reason}"
        for name, kind in self.fields:
            if name not in value:
                return f"missing field {name!r}"
            reason = kind.refusal(value[name])
            if reason is not None:
                return f"field {name!r}: {reason}"
        return None

    def check(self, value: Any, label: str) -> Any:
        """``value`` itself, or raise ``error`` saying what ``label`` got wrong."""
        reason = self.refusal(value)
        if reason is not None:
            raise self.error(f"{label}: {reason}")
        return value


def ecall(*kinds: Kind) -> Callable[[Callable], Callable]:
    """Export a method of an :class:`EnclaveCode` subclass as an ECALL.

    The decorator's arguments are the method's row: one :class:`Kind` per
    argument.  A bare ``@ecall``, or a row that does not match the
    method's arguments, is a ``TypeError`` when the class is defined.
    """
    if not all(isinstance(kind, Kind) for kind in kinds):
        raise TypeError("an ECALL declares its row: @ecall(Kind(...), ...)")

    def export(fn: Callable) -> Callable:
        names = fn.__code__.co_varnames[1:fn.__code__.co_argcount]
        if len(names) != len(kinds):
            raise TypeError(f"{fn.__name__} has {len(names)} argument(s) but a row of {len(kinds)}")
        # the labels a refusal names, built once per class
        fn.ecall_row = tuple((f"{fn.__name__} argument {n!r}", k) for n, k in zip(names, kinds))
        return fn

    return export


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

    Subclasses export ECALLs with the :func:`ecall` decorator, declare
    the OCALLs they make in :attr:`OCALLS`, and may
    declare extra build-time settings in :attr:`SETTINGS`; these settings
    are folded into the measurement, which is how SeSeMI's execution
    restrictions (sequential isolation, key-cache off) become part of the
    enclave identity.
    """

    #: Code-level build settings folded into MRENCLAVE.
    SETTINGS: dict = {}

    #: OCALL name -> the :class:`Kind` of its reply, or ``None`` for a reply
    #: the program ignores; an undeclared OCALL is refused
    OCALLS: Dict[str, Optional[Kind]] = {}

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

    def ocall(self, name: str, *args: Any) -> Any:
        """Invoke an untrusted OCALL handler registered on the enclave."""
        return self.enclave.dispatch_ocall(name, *args)


class _TcsPool:
    """The enclave's TCS slots: a non-blocking take of the lowest free one."""

    def __init__(self, count: int) -> None:
        self._lock = threading.Lock()
        self._free = list(range(count))  # a heap: the lowest free slot first
        self.capacity = count

    def acquire(self) -> int:
        with self._lock:
            if not self._free:
                raise TcsExhausted(
                    f"all {self.capacity} TCS slots are busy; "
                    "increase tcs_count or serialise requests"
                )
            return heapq.heappop(self._free)

    def release(self, slot: int) -> None:
        with self._lock:
            if slot in self._free:
                raise EnclaveError(f"TCS {slot} released but not held")
            heapq.heappush(self._free, slot)

    @property
    def in_use(self) -> int:
        with self._lock:
            return self.capacity - len(self._free)


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
        #: one thread-local storage area per TCS, as SGX lays it out: an
        #: ECALL reads the area of the TCS it entered on (:attr:`tls`),
        #: whichever untrusted thread made the call
        self._tls = [SimpleNamespace() for _ in range(config.tcs_count)]
        #: the TCS this thread is inside, per thread
        self._entered = threading.local()
        self._ocall_handlers: Dict[str, Callable] = {}
        #: ECALL name -> its row of ``(label, kind)`` pairs
        exports = {name: getattr(type(code), name) for name in dir(type(code))}
        self._ecalls = {n: f.ecall_row for n, f in exports.items() if hasattr(f, "ecall_row")}
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
        Every TCS's thread-local storage goes with the heap.
        """
        if self._destroyed:
            return
        self._destroyed = True
        self.code.on_destroy()
        self._tls = [SimpleNamespace() for _ in self._tls]
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

    def ecall(self, name: str, *args: Any) -> Any:
        """Invoke the exported ECALL ``name`` on one TCS.

        Anything not exported -- private helpers, plain methods, dunder
        attributes -- is rejected, no matter what the caller guesses, and
        so is a call whose arguments do not fit the ECALL's row: before a
        TCS is taken, so a refused call holds nothing.
        """
        if self._destroyed:
            raise EnclaveError(f"{self.enclave_id} is destroyed")
        row = self._ecalls.get(name)
        if row is None or len(args) != len(row):
            raise EnclaveError(f"{name!r} is not an exported ECALL of {len(args)} argument(s)")
        for value, (label, kind) in zip(args, row):
            kind.check(value, label)
        slot = self._tcs.acquire()
        entered = self._entered
        outer = getattr(entered, "tcs", None)  # a nested ECALL's caller
        entered.tcs = slot
        try:
            return getattr(self.code, name)(*args)
        finally:
            entered.tcs = outer
            self._tcs.release(slot)

    @property
    def tls(self) -> SimpleNamespace:
        """The thread-local storage of the TCS the calling ECALL runs on."""
        slot = getattr(self._entered, "tcs", None)
        if slot is None:
            raise EnclaveError("TCS-local storage exists only inside an ECALL")
        return self._tls[slot]

    def register_ocall(self, name: str, handler: Callable) -> None:
        """Register the untrusted handler for OCALL ``name``."""
        self._ocall_handlers[name] = handler

    def dispatch_ocall(self, name: str, *args: Any) -> Any:
        """Invoke the registered untrusted handler for a declared OCALL.

        The reply is the host's word: it is checked against the OCALL's
        declared kind before trusted code reads it (a declared ``None``
        reply is dropped).
        """
        if self._destroyed:
            raise EnclaveError(f"{self.enclave_id} is destroyed")
        if name not in self.code.OCALLS:
            raise EnclaveError(f"{name!r} is not a declared OCALL")
        handler = self._ocall_handlers.get(name)
        if handler is None:
            raise EnclaveError(f"no OCALL handler registered for {name!r}")
        reply, kind = handler(*args), self.code.OCALLS[name]
        return None if kind is None else kind.check(reply, f"{name} reply")

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
