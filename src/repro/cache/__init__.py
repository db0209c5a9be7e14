"""Artifact-cache entry format and maintenance (``repro.cache``).

:class:`repro.core.artifacts.ArtifactCache` stores its disk-tier
entries in one sha256-framed format, verified on every read so
corruption degrades to a cache miss, never to a wrong artifact.

* :mod:`repro.cache.framing` — the self-verifying entry frame;
* :mod:`repro.cache.scrub` — ``repro cache scrub`` integrity sweeps
  over the disk tier.

Layering: below ``core`` (which imports :mod:`repro.cache.framing`),
above ``resilience`` and ``obs``.
"""

from .framing import decode_entry, encode_entry, verify_frame
from .scrub import scrub_disk

__all__ = [
    "decode_entry",
    "encode_entry",
    "verify_frame",
    "scrub_disk",
]
