"""The sha256-framed entry format of the artifact cache's disk tier.

A disk cache entry is stored as one self-verifying frame::

    MAGIC (7 bytes) | sha256(payload) (32 bytes) | payload (pickle)

The frame makes integrity *checkable before unpickling*: the disk
tier verifies on every read and ``repro cache scrub`` re-verifies
whole directories, so a truncated or bit-rotten entry degrades to a
cache miss, never to corrupt artifacts (see ``docs/ROBUSTNESS.md``).

This module is an import leaf (only :mod:`repro.resilience.errors`
below it), so the ``core`` cache, the ``cache`` package, and the CLI
can all share one definition without cycles.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any

from ..resilience.errors import CacheCorruptionError

__all__ = [
    "MAGIC",
    "DIGEST_LEN",
    "HEADER_LEN",
    "encode_entry",
    "decode_entry",
    "verify_frame",
]

#: Frame header: magic + format version.  Bump on layout changes so
#: stale entries from older builds quarantine cleanly everywhere.
MAGIC = b"RPRAC2\0"
DIGEST_LEN = 32  # sha256
HEADER_LEN = len(MAGIC) + DIGEST_LEN


def encode_entry(value: Any) -> bytes:
    """Serialize a cache value with an integrity checksum."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return MAGIC + hashlib.sha256(payload).digest() + payload


def verify_frame(data: bytes) -> None:
    """Check a frame's header and checksum *without* unpickling.

    Raises :class:`CacheCorruptionError` on any defect.  This is the
    whole verification a scrub (which must never unpickle the entries
    it merely checks) needs.
    """
    if len(data) < HEADER_LEN:
        raise CacheCorruptionError("truncated cache entry")
    if not data.startswith(MAGIC):
        raise CacheCorruptionError("unrecognized cache entry header")
    digest = data[len(MAGIC):HEADER_LEN]
    if hashlib.sha256(data[HEADER_LEN:]).digest() != digest:
        raise CacheCorruptionError("cache entry checksum mismatch")


def decode_entry(data: bytes) -> Any:
    """Inverse of :func:`encode_entry`; raises on any corruption."""
    verify_frame(data)
    try:
        return pickle.loads(data[HEADER_LEN:])
    except Exception as exc:
        raise CacheCorruptionError(f"cache entry does not unpickle: {exc}") from exc
