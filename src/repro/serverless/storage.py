"""Cloud blob storage: real bytes, modelled download latency.

The model owner uploads *encrypted* model artifacts here; serverless
instances download them during the model-loading stage.  The store keeps
the actual bytes (so functional paths decrypt real artifacts) and models
download latency as ``base + size / bandwidth``, with two presets:

- :data:`NFS` -- the cluster network file system the paper's testbed used
  to emulate cloud storage;
- :data:`AZURE_BLOB` -- calibrated against the in-region download times
  quoted in Section VI-A (MBNET ~180 ms, DSNET ~360 ms, RSNET ~2100 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import StorageError

MB = 1024 * 1024


@dataclass(frozen=True)
class StorageProfile:
    """Latency parameters of one storage tier."""

    name: str
    base_latency_s: float
    bandwidth_bytes_per_s: float

    def download_time(self, nbytes: int) -> float:
        """Seconds to fetch an object of ``nbytes``."""
        return self.base_latency_s + nbytes / self.bandwidth_bytes_per_s


#: Cluster NFS over 10 Gbps Ethernet (the testbed's storage emulation).
#: 10 Gbps ~ 1.25 GB/s of aggregate payload bandwidth.
NFS = StorageProfile(name="nfs", base_latency_s=0.004, bandwidth_bytes_per_s=1250 * MB)

#: Azure Blob, same region; a least-squares fit of the paper's published
#: 180/360/2100 ms downloads for the 17/44/170 MB models.
AZURE_BLOB = StorageProfile(
    name="azure-blob", base_latency_s=0.05, bandwidth_bytes_per_s=95 * MB
)


@dataclass(frozen=True)
class BlobMeta:
    """Metadata of one stored object."""

    key: str
    nbytes: int


class BlobStore:
    """A key/value object store with a latency model attached."""

    def __init__(self, profile: StorageProfile = NFS) -> None:
        self.profile = profile
        self._objects: Dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> BlobMeta:
        """Upload ``data`` under ``key`` (overwrites)."""
        self._objects[key] = bytes(data)
        return BlobMeta(key=key, nbytes=len(data))

    def get(self, key: str) -> bytes:
        """Fetch the object bytes; raises :class:`StorageError` if absent."""
        try:
            return self._objects[key]
        except KeyError:
            raise StorageError(f"no object stored under {key!r}") from None

    def head(self, key: str) -> BlobMeta:
        """Metadata without transferring the payload."""
        return BlobMeta(key=key, nbytes=len(self.get(key)))

    def delete(self, key: str) -> None:
        """Remove an object (idempotent)."""
        self._objects.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def download_time(self, key: str) -> float:
        """Modelled latency for downloading ``key`` in full."""
        return self.profile.download_time(self.head(key).nbytes)
