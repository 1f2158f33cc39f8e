"""Performance subsystem: content-addressed artifact caching.

:class:`ArtifactCache` is a content-addressed store keyed by
``(graph content hash, params hash, stage)`` that memoizes scenario
construction, k-hop neighbourhood tables and Voronoi flood artifacts
across runners (in-memory LRU with an optional on-disk tier whose keys
are versioned, so stale entries self-invalidate).  Fan-out over worker
processes lives in the one executor,
:class:`~repro.resilience.ResilientRunner`, which hands each task the
caller's cache.

Cache lookups report hits and misses to the observability
:class:`~repro.observability.tracer.Tracer`, so a
:class:`~repro.observability.metrics.MetricsReport` carries the artifact
cache hit rate next to the message-passing and traversal metrics.

Disk entries are digest-verified on every read: corrupt artifacts are
quarantined and recomputed, never deserialized (see
:mod:`repro.perf.cache` and ``python -m repro.perf fsck``).
"""

from .cache import (
    ARTIFACT_MAGIC,
    ArtifactCache,
    CACHE_VERSION,
    decode_artifact,
    encode_artifact,
    stable_digest,
)

__all__ = [
    "ARTIFACT_MAGIC",
    "ArtifactCache",
    "CACHE_VERSION",
    "decode_artifact",
    "encode_artifact",
    "stable_digest",
]
