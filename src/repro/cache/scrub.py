"""Integrity scrubbing for the disk cache tier (``repro cache scrub``).

Bit rot is silent until the read that trips over it; a scrub turns it
into scheduled maintenance instead.  :func:`scrub_disk` walks a disk
tier directory and re-verifies every ``*.pkl`` frame the way
:class:`repro.core.artifacts.ArtifactCache` would on a lookup —
corrupt entries are quarantined (renamed ``*.corrupt``) so they can
never poison a run, and the counts come back for reporting.

Safe to run concurrently with live readers/writers: a quarantine is an
atomic rename, and an entry written *during* the walk is either
skipped or verified — never half-read into a false positive (torn
reads fail verification and the fresh atomic replace reinstates the
entry on the next write anyway).
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .. import obs
from ..resilience.errors import CacheCorruptionError
from .framing import verify_frame

__all__ = ["scrub_disk"]


def scrub_disk(cache_dir: str | os.PathLike) -> dict[str, int]:
    """Re-verify every disk-tier entry under ``cache_dir``.

    Returns ``{"checked": N, "ok": N, "corrupt": N, "quarantined": N}``.
    ``corrupt`` counts every entry that failed verification;
    ``quarantined`` those of them actually moved aside — a corrupt
    entry whose rename failed is still on disk, so ``corrupt`` is the
    number to alarm on.  Unreadable files count as corrupt: an entry
    that cannot be read cannot serve a hit either.
    """
    root = Path(cache_dir).expanduser()
    checked = ok = corrupt = quarantined = 0
    for path in sorted(root.glob("*.pkl")):
        checked += 1
        try:
            verify_frame(path.read_bytes())
        except (OSError, CacheCorruptionError):
            corrupt += 1
            with contextlib.suppress(OSError):
                os.replace(path, path.with_suffix(".corrupt"))
                quarantined += 1
                obs.count("cache.scrub.quarantined")
        else:
            ok += 1
    obs.count("cache.scrub.checked", checked)
    return {
        "checked": checked, "ok": ok, "corrupt": corrupt,
        "quarantined": quarantined,
    }
