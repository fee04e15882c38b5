"""The cold path's bookkeeping: KeyService's bounded channel table and the
once-per-class MRENCLAVE source hash.

Every cold start opens one RA-TLS channel to KeyService, and one-way
attestation lets anyone open one, so the enclave keeps at most
``keyservice.MAX_CHANNELS`` of them, least recently used first out.  An
evicted peer is told "unknown channel" and attests again: SeMIRT through
``_fetch_keys``, a client through ``KeyServiceConnection.call``.
"""

import gc
import inspect

import numpy as np
import pytest

from repro.core import keyservice as keyservice_module
from repro.core.client import KeyServiceConnection
from repro.core.deployment import SeSeMIEnvironment
from repro.core.keyservice import KeyServiceEnclaveCode
from repro.core.semirt_enclave import SemirtEnclaveCode
from repro.errors import EnclaveError
from repro.sgx.ratls import SecureChannel


def connect(env, name="probe"):
    return KeyServiceConnection(
        env.keyservice, env.attestation, env.keyservice.measurement, name=name,
        tracer=env.tracer,
    )


def handshake_spans(env, client):
    return [
        span for span in env.tracer.spans
        if span.name == "ratls_handshake" and span.attributes.get("client") == client
    ]


@pytest.fixture()
def small_table(monkeypatch):
    monkeypatch.setattr(keyservice_module, "MAX_CHANNELS", 4)
    return 4


def test_channel_table_never_exceeds_its_bound(small_table):
    env = SeSeMIEnvironment()
    table = env.keyservice.code._channels
    for i in range(10):
        connect(env)
        assert len(table) == min(i + 1, small_table)
    assert list(table) == [7, 8, 9, 10]  # the four most recent handshakes


def test_a_request_refreshes_recency(small_table):
    env = SeSeMIEnvironment()
    oldest = connect(env)
    others = [connect(env) for _ in range(3)]
    assert oldest.call({"op": "nonsense"})["ok"] is False  # served: channel 1 is now newest
    connect(env)  # evicts channel 2, not channel 1
    assert list(env.keyservice.code._channels) == [3, 4, 1, 5]
    with pytest.raises(EnclaveError, match="unknown channel 2"):
        env.keyservice.request(2, others[0]._channel.send(b"x"))


def test_an_evicted_client_attests_again_and_is_served(small_table, tiny_model):
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    handle = env.deploy(tiny_model, "m", owner=owner)
    users = [env.connect_user(f"u{i}") for i in range(small_table)]
    assert 1 not in env.keyservice.code._channels  # the owner sat idle
    assert len(handshake_spans(env, "owner")) == 1
    for user in users:  # grant = one owner op + one user op each
        handle.grant(user)
    assert len(handshake_spans(env, "owner")) > 1
    assert len(env.keyservice.code._channels) == small_table


def test_an_evicted_semirt_reattests_once_on_its_next_key_miss(small_table, tiny_model, tiny_input):
    env = SeSeMIEnvironment()
    handle = env.deploy(tiny_model, "m")
    handle.grant("alice").grant("bob")
    host = env.launch_semirt("tvm")
    try:
        want = tiny_model.run_reference(tiny_input).ravel()
        first = env.session("alice", "m", semirt=host).infer(tiny_input)
        assert np.allclose(first, want, atol=1e-5)
        semirt_channel = host.code._ks_session[0]
        for _ in range(small_table):
            connect(env)
        assert semirt_channel not in env.keyservice.code._channels

        marker = len(env.tracer.spans)
        second = env.session("bob", "m", semirt=host).infer(tiny_input)  # key-cache miss
        assert np.allclose(second, want, atol=1e-5)
        events = [
            event for span in env.tracer.spans[marker:] for event in span.events
            if event["name"] == "keyservice_reattest"
        ]
        assert len(events) == 1
        assert events[0]["attributes"] == {"error": "EnclaveError"}
        assert host.code._ks_session[0] in env.keyservice.code._channels
    finally:
        host.destroy()


def test_cold_cycles_do_not_accumulate_channels(tiny_model, tiny_input):
    """Object counts, not RSS: allocator behaviour cannot flake this."""

    def live_channels() -> int:
        gc.collect()
        return sum(type(obj) is SecureChannel for obj in gc.get_objects())

    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")
    before = live_channels()  # both ends of the owner's and alice's, plus other tests'
    for _ in range(30):
        host = env.launch_semirt("tvm")
        try:
            env.session("alice", "m", semirt=host).infer(tiny_input)
        finally:
            host.destroy()
    del host
    assert len(env.keyservice.code._channels) == keyservice_module.MAX_CHANNELS < 30
    assert live_channels() - before <= keyservice_module.MAX_CHANNELS


def test_class_source_is_hashed_once_per_class(monkeypatch, tiny_model, tiny_input):
    """Two launches and two sessions read each enclave class's source at
    most once (it was twice per launch: ``Enclave.__init__`` and
    ``expected_semirt_measurement``)."""
    calls = []
    real = inspect.getsource

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(inspect, "getsource", counting)
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")
    hosts = [env.launch_semirt("tvm") for _ in range(2)]
    try:
        for host in hosts:
            env.session("alice", "m", semirt=host).infer(tiny_input)
        assert hosts[0].measurement == hosts[1].measurement == env.expected_semirt("tvm")
    finally:
        for host in hosts:
            host.destroy()
    for cls in (SemirtEnclaveCode, KeyServiceEnclaveCode):
        assert calls.count(cls) <= 1
