"""Unit tests for the admission controller."""

from __future__ import annotations

import threading

import pytest

from repro.errors import QueueFull
from repro.service import AdmissionController, ServiceConfig, admission


def _controller(**overrides) -> AdmissionController:
    defaults = dict(max_inflight_total=4, max_inflight_per_tenant=2)
    defaults.update(overrides)
    return AdmissionController(ServiceConfig(**defaults))


def test_per_tenant_bound_sheds_the_third_request():
    controller = _controller()
    controller.admit("a")
    controller.admit("a")
    with pytest.raises(QueueFull, match="in flight"):
        controller.admit("a")
    # a different tenant still fits
    controller.admit("b")
    assert controller.shed_tenant == 1


def test_total_bound_sheds_across_tenants():
    controller = _controller(max_inflight_per_tenant=4)
    for tenant in ("a", "a", "b", "b"):
        controller.admit(tenant)
    with pytest.raises(QueueFull, match="max inflight"):
        controller.admit("c")
    assert controller.shed_total == 1


def test_release_is_idempotent_and_frees_the_slot():
    controller = _controller(max_inflight_per_tenant=1)
    release = controller.admit("a")
    with pytest.raises(QueueFull):
        controller.admit("a")
    release()
    release()  # second call must be a no-op, not a double-decrement
    assert controller.inflight_total == 0
    controller.admit("a")
    assert controller.inflight_total == 1
    assert controller.released == 1


def test_racing_releases_of_one_handle_count_once(monkeypatch):
    """Four threads releasing one handle at once free exactly one slot.

    If the handle's released flag were an ``Event`` checked outside the
    controller's lock, the gated ``is_set`` below would hold every racer
    between the check and the set, so each would release -- every time,
    not by luck.
    """
    racers = 4
    gate = threading.Barrier(racers, timeout=10)

    class GatedEvent(threading.Event):
        def is_set(self) -> bool:
            seen = super().is_set()
            gate.wait()  # every racer has read the flag before any sets it
            return seen

    controller = _controller(max_inflight_per_tenant=4)
    keep = controller.admit("a")
    with monkeypatch.context() as patch:
        patch.setattr(admission.threading, "Event", GatedEvent)
        release = controller.admit("a")
    threads = [threading.Thread(target=release) for _ in range(racers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    stats = controller.stats()
    assert stats["released"] == 1
    assert stats["inflight_total"] == 1
    assert stats["inflight_by_tenant"] == {"a": 1}
    keep()
    assert controller.inflight_total == 0


def test_stats_snapshot_counts_by_tenant():
    controller = _controller()
    keep = controller.admit("a")
    controller.admit("b")()
    stats = controller.stats()
    assert stats["inflight_by_tenant"] == {"a": 1}
    assert stats["admitted"] == 2
    assert stats["released"] == 1
    assert stats["shed"] == 0
    keep()
