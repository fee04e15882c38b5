"""Blob storage: real bytes plus the latency model."""

import pytest

from repro.errors import StorageError
from repro.serverless.storage import AZURE_BLOB, NFS, BlobStore, StorageProfile

MB = 1024 * 1024


def test_put_get_roundtrip():
    store = BlobStore()
    store.put("models/m1", b"encrypted-bytes")
    assert store.get("models/m1") == b"encrypted-bytes"
    assert "models/m1" in store


def test_missing_object_raises():
    with pytest.raises(StorageError):
        BlobStore().get("ghost")


def test_overwrite():
    store = BlobStore()
    store.put("k", b"v1")
    store.put("k", b"v2")
    assert store.get("k") == b"v2"


def test_delete():
    store = BlobStore()
    store.put("k", b"v")
    store.delete("k")
    assert "k" not in store
    store.delete("k")  # idempotent


def test_head_reports_size():
    store = BlobStore()
    store.put("k", b"12345")
    assert store.head("k").nbytes == 5


def test_download_time_scales_with_size():
    profile = StorageProfile("test", base_latency_s=0.01, bandwidth_bytes_per_s=100.0)
    assert profile.download_time(0) == pytest.approx(0.01)
    assert profile.download_time(200) == pytest.approx(2.01)


def test_azure_profile_matches_paper_downloads():
    """Section VI-A: MBNET ~180ms, DSNET ~360ms, RSNET ~2100ms in-region.

    The three published points do not sit on one line, so the linear
    profile is a fit: each point must land within ~45%.
    """
    assert AZURE_BLOB.download_time(17 * MB) == pytest.approx(0.180, rel=0.45)
    assert AZURE_BLOB.download_time(44 * MB) == pytest.approx(0.360, rel=0.45)
    assert AZURE_BLOB.download_time(170 * MB) == pytest.approx(2.100, rel=0.45)


def test_nfs_much_faster_than_azure():
    assert NFS.download_time(44 * MB) < AZURE_BLOB.download_time(44 * MB) / 5


def test_store_exposes_latency_helpers():
    store = BlobStore(NFS)
    store.put("k", b"x" * 1024)
    assert store.download_time("k") == NFS.download_time(1024)
