"""``code_identity_of`` hashes a class's source once per class object.

MRENCLAVE is a property of the *loaded* code, so the memo is keyed (weakly)
by the class object: never by name, and never re-read from a file that may
have been edited under the running process.
"""

import gc
import importlib
import inspect
import sys
import weakref

from repro.sgx import measurement
from repro.sgx.enclave import EnclaveCode
from repro.sgx.measurement import code_identity_of


class ProgramA(EnclaveCode):
    def work(self):
        return 1


class ProgramB(EnclaveCode):
    def work(self):
        return 2


def test_source_is_read_once_per_class(monkeypatch):
    class Fresh(EnclaveCode):
        pass

    calls = []
    real = inspect.getsource
    monkeypatch.setattr(inspect, "getsource", lambda obj: calls.append(obj) or real(obj))
    identities = {code_identity_of(Fresh), code_identity_of(Fresh()), code_identity_of(Fresh)}
    assert len(identities) == 1
    assert calls == [Fresh]


def test_distinct_classes_keep_distinct_identities():
    assert code_identity_of(ProgramA) != code_identity_of(ProgramB)
    assert code_identity_of(ProgramA()) == code_identity_of(ProgramA)
    assert code_identity_of(ProgramB()) == code_identity_of(ProgramB)


def test_a_class_redefined_under_the_same_name_is_measured_afresh(tmp_path, monkeypatch):
    """Reloading an edited module makes a *new* class object, which gets the
    new source's identity; the class loaded before keeps the one it had."""
    module_file = tmp_path / "memo_program.py"
    template = (
        "from repro.sgx.enclave import EnclaveCode\n\n"
        "class Program(EnclaveCode):\n    def work(self):\n        return {value}\n"
    )
    module_file.write_text(template.format(value=1))
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("memo_program")
    try:
        old_class = module.Program
        old_identity = code_identity_of(old_class)

        module_file.write_text(template.format(value=22))  # another size: linecache notices
        module = importlib.reload(module)
        assert module.Program is not old_class
        assert module.Program.__qualname__ == old_class.__qualname__
        assert code_identity_of(module.Program) != old_identity
        # the edit on disk does not reach the class that is still executing
        assert code_identity_of(old_class) == old_identity
        assert code_identity_of(old_class()) == old_identity
    finally:
        sys.modules.pop("memo_program", None)


def test_the_memo_does_not_keep_classes_alive():
    def define():
        class Ephemeral(EnclaveCode):
            pass

        code_identity_of(Ephemeral)
        assert Ephemeral in measurement._identities
        return weakref.ref(Ephemeral)

    ref = define()
    gc.collect()
    assert ref() is None
