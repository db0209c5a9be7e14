"""The artifact-cache entry format and ``repro cache scrub``.

* the sha256 frame verifies without unpickling (no lookup or scrub
  ever ``pickle.loads`` unverified bytes);
* :func:`repro.cache.scrub_disk` quarantines corrupt disk entries and
  reports every entry that failed verification — including one it
  could not move aside — so ``repro cache scrub`` exits 1 on bit rot.
"""

import os
import pickle

import pytest

from repro.cache import decode_entry, encode_entry, scrub_disk, verify_frame
from repro.cache.framing import HEADER_LEN, MAGIC
from repro.core import ArtifactCache
from repro.resilience.errors import CacheCorruptionError

# Exact checked/ok/quarantined bookkeeping throughout; ambient
# cache-site fault plans would legitimately perturb it.
pytestmark = pytest.mark.no_chaos


def _refuse_replace(*_args, **_kwargs):
    raise OSError("read-only cache directory")


class TestFraming:
    def test_roundtrip(self):
        value = {"cells": ["inv", "nand2"], "t": 10.0}
        frame = encode_entry(value)
        assert frame.startswith(MAGIC)
        verify_frame(frame)
        assert decode_entry(frame) == value

    def test_truncation_detected_without_unpickle(self):
        frame = encode_entry([1, 2, 3])
        for cut in (0, 3, HEADER_LEN - 1, HEADER_LEN, len(frame) - 1):
            with pytest.raises(CacheCorruptionError):
                verify_frame(frame[:cut])

    def test_bitflip_detected(self):
        frame = bytearray(encode_entry("payload"))
        frame[-1] ^= 0x01
        with pytest.raises(CacheCorruptionError):
            verify_frame(bytes(frame))

    def test_wrong_magic_rejected(self):
        frame = encode_entry("x")
        with pytest.raises(CacheCorruptionError):
            verify_frame(b"X" + frame[1:])

    def test_verify_does_not_unpickle(self):
        # A frame around a bomb payload must verify (checksum is fine)
        # without ever executing pickle machinery.
        import hashlib

        bomb = b"cos\nsystem\n(S'true'\ntR."  # classic RCE pickle
        frame = MAGIC + hashlib.sha256(bomb).digest() + bomb
        verify_frame(frame)  # fine: checksum math only
        with pytest.raises(Exception):
            pickle.loads(bomb.replace(b"cos", b"cnosuch", 1))


class TestScrubCLI:
    def test_cache_scrub_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:a", 1)
        assert main(["cache", "scrub", "--cache-dir", str(tmp_path)]) == 0
        assert "1 checked, 1 ok, 0 quarantined" in capsys.readouterr().out
        bad = cache._disk_path("k:a")
        bad.write_bytes(bad.read_bytes()[:4])
        assert main(["cache", "scrub", "--cache-dir", str(tmp_path)]) == 1
        assert "1 quarantined" in capsys.readouterr().out

    def test_corrupt_entry_left_in_place_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        (tmp_path / ("ab" * 20 + ".pkl")).write_bytes(b"garbage")
        monkeypatch.setattr(os, "replace", _refuse_replace)
        assert main(["cache", "scrub", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 checked, 0 ok, 0 quarantined, 1 corrupt left in place" in out


class TestScrub:
    def test_scrub_disk_quarantines_corrupt_entries(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:good", {"v": 1})
        cache.put("k:bad", {"v": 2})
        bad = cache._disk_path("k:bad")
        bad.write_bytes(bad.read_bytes()[:-5])
        report = scrub_disk(tmp_path)
        assert report == {"checked": 2, "ok": 1, "corrupt": 1, "quarantined": 1}
        assert not bad.exists()
        assert bad.with_suffix(".corrupt").exists()
        # Idempotent: a second sweep finds only the good entry.
        assert scrub_disk(tmp_path) == {
            "checked": 1, "ok": 1, "corrupt": 0, "quarantined": 0,
        }

    def test_failed_quarantine_still_counts_as_corrupt(self, tmp_path, monkeypatch):
        garbage = tmp_path / ("ab" * 20 + ".pkl")
        garbage.write_bytes(b"garbage")
        monkeypatch.setattr(os, "replace", _refuse_replace)
        report = scrub_disk(tmp_path)
        assert report == {"checked": 1, "ok": 0, "corrupt": 1, "quarantined": 0}
        assert garbage.exists()  # the rename failed; the entry is still there
