"""Enclave lifecycle, ECALL surface, TCS limits, OCALL dispatch."""

import pytest

from repro.errors import EnclaveError, InvocationError, TcsExhausted
from repro.sgx.enclave import Enclave, EnclaveBuildConfig, EnclaveCode, Kind, ecall
from repro.sgx.platform import SGX2, SgxPlatform

MB = 1024 * 1024


class Adder(EnclaveCode):
    SETTINGS = {"program": "adder"}
    OCALLS = {"OC_DOUBLE": Kind(int)}

    def __init__(self):
        super().__init__()
        self.total = 0

    @ecall(Kind(int))
    def EC_ADD(self, x):
        self.total += x
        return self.total

    @ecall(Kind(int))
    def EC_ASK_HOST(self, value):
        return self.ocall("OC_DOUBLE", value)

    def _secret_helper(self):  # NOT an ecall
        return "secret"


@pytest.fixture()
def platform():
    return SgxPlatform(SGX2)


@pytest.fixture()
def enclave(platform):
    return platform.create_enclave(Adder(), EnclaveBuildConfig(memory_bytes=MB))


def test_ecall_dispatch(enclave):
    assert enclave.ecall("EC_ADD", 3) == 3
    assert enclave.ecall("EC_ADD", 4) == 7


def test_only_exported_ecalls_callable(enclave):
    assert enclave.exported_ecalls == {"EC_ADD", "EC_ASK_HOST"}
    for name in ("_secret_helper", "total", "__init__", "nonexistent", "ocall"):
        with pytest.raises(EnclaveError):
            enclave.ecall(name)


def test_ocall_roundtrip(enclave):
    enclave.register_ocall("OC_DOUBLE", lambda v: v * 2)
    assert enclave.ecall("EC_ASK_HOST", 21) == 42


def test_unregistered_ocall_fails(enclave):
    with pytest.raises(EnclaveError):
        enclave.ecall("EC_ASK_HOST", 1)


def test_an_ecall_without_a_row_cannot_be_defined():
    """A bare ``@ecall`` -- or a row that does not match the arguments --
    fails when the class is defined, so no ECALL is ever undeclared."""
    with pytest.raises(TypeError, match="declares its row"):
        class Bare(EnclaveCode):
            @ecall
            def EC_OPEN(self, x):
                return x
    with pytest.raises(TypeError, match=r"1 argument\(s\) but a row of 2"):
        class Short(EnclaveCode):
            @ecall(Kind(int), Kind(int))
            def EC_OPEN(self, x):
                return x


def test_arguments_outside_the_row_are_refused_before_a_tcs_is_taken(platform, enclave):
    """Exact types (a ``bool`` is no ``int``), the row's arity, and the
    row's own error type; the refused call ran nothing and holds no TCS."""
    for args in ((True,), ("1",), (None,), (1.0,), (), (1, 2)):
        with pytest.raises(EnclaveError):
            enclave.ecall("EC_ADD", *args)
    assert enclave.code.total == 0 and enclave.tcs_in_use == 0

    class Strict(EnclaveCode):
        @ecall(Kind(list, least=1, item=Kind(int, least=1), error=InvocationError))
        def EC_SUM(self, values):
            return sum(values)

    strict = platform.create_enclave(Strict(), EnclaveBuildConfig(memory_bytes=MB))
    assert strict.ecall("EC_SUM", [1, 2]) == 3
    for values, why in (([], "length 0 is below 1"), ([1, 0], "item 1: value 0 is below 1"),
                        ((1,), "expected list, got tuple")):
        with pytest.raises(InvocationError, match=f"EC_SUM argument 'values': {why}"):
            strict.ecall("EC_SUM", values)


def test_an_undeclared_ocall_is_refused_and_a_reply_is_checked(platform, enclave):
    """The host answers only what the program declared, in the declared
    shape: an OCALL missing from ``OCALLS`` never reaches a handler, and a
    reply of the wrong kind never reaches trusted code."""
    class Asker(EnclaveCode):
        @ecall()
        def EC_ASK(self):
            return self.ocall("OC_UNDECLARED")

    asker = platform.create_enclave(Asker(), EnclaveBuildConfig(memory_bytes=MB))
    asked = []
    asker.register_ocall("OC_UNDECLARED", lambda: asked.append(1))
    with pytest.raises(EnclaveError, match="not a declared OCALL"):
        asker.ecall("EC_ASK")
    assert asked == []
    enclave.register_ocall("OC_DOUBLE", lambda v: str(v * 2))
    with pytest.raises(EnclaveError, match="OC_DOUBLE reply: expected int, got str"):
        enclave.ecall("EC_ASK_HOST", 21)


def test_destroyed_enclave_rejects_ecalls(enclave):
    enclave.destroy()
    assert not enclave.alive
    with pytest.raises(EnclaveError):
        enclave.ecall("EC_ADD", 1)
    with pytest.raises(EnclaveError):
        enclave.get_report()


def test_destroy_idempotent(enclave):
    enclave.destroy()
    enclave.destroy()  # no error


def test_destroy_releases_epc(platform):
    enclave = platform.create_enclave(Adder(), EnclaveBuildConfig(memory_bytes=4 * MB))
    held = platform.epc.committed_bytes
    assert held >= 4 * MB
    enclave.destroy()
    assert platform.epc.committed_bytes < held


def test_tcs_exhaustion(platform):
    class Reenter(EnclaveCode):
        @ecall()
        def EC_OUTER(self):
            # Re-entering through another ECALL consumes a second TCS.
            return self.enclave.ecall("EC_INNER")

        @ecall()
        def EC_INNER(self):
            return "ok"

    one_tcs = platform.create_enclave(
        Reenter(), EnclaveBuildConfig(memory_bytes=MB, tcs_count=1)
    )
    with pytest.raises(TcsExhausted):
        one_tcs.ecall("EC_OUTER")

    two_tcs = platform.create_enclave(
        Reenter(), EnclaveBuildConfig(memory_bytes=MB, tcs_count=2)
    )
    assert two_tcs.ecall("EC_OUTER") == "ok"


def test_tcs_released_after_ecall(enclave):
    for _ in range(10):
        enclave.ecall("EC_ADD", 1)
    assert enclave.tcs_in_use == 0


def test_report_carries_identity_and_data(enclave):
    report = enclave.get_report(b"channel-binding")
    assert report.mrenclave == enclave.measurement
    assert report.report_data.startswith(b"channel-binding")
    assert len(report.report_data) == 64
    assert report.platform_id == enclave.platform_id


def test_report_data_too_long_rejected(enclave):
    with pytest.raises(EnclaveError):
        enclave.get_report(b"x" * 65)


def test_settings_affect_measurement(platform):
    class Configurable(EnclaveCode):
        def __init__(self, mode):
            super().__init__()
            self._mode = mode

        def settings(self):
            return {"mode": self._mode}

    config = EnclaveBuildConfig(memory_bytes=MB)
    a = platform.create_enclave(Configurable("fast"), config)
    b = platform.create_enclave(Configurable("safe"), config)
    assert a.measurement != b.measurement


def test_build_config_validation():
    with pytest.raises(EnclaveError):
        EnclaveBuildConfig(memory_bytes=0)
    with pytest.raises(EnclaveError):
        EnclaveBuildConfig(memory_bytes=MB, tcs_count=0)


def test_code_not_loaded_guard():
    code = Adder()
    with pytest.raises(EnclaveError):
        _ = code.enclave
