"""DiskCache behavior: round-trips, corruption tolerance, counters."""

import logging

import pytest

from repro.engine import DiskCache

KEY = "ab" * 32
OTHER = "cd" * 32


def mttdl_valid(payload):
    """A payload schema for these tests: a numeric ``mttdl_hours``."""
    mttdl = payload.get("mttdl_hours")
    return isinstance(mttdl, (int, float)) and not isinstance(mttdl, bool)


class TestDiskCache:
    def test_miss_then_hit(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get(KEY) is None
        cache.put(KEY, {"mttdl_hours": 1.5})
        assert cache.get(KEY) == {"mttdl_hours": 1.5}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_float_round_trip_is_exact(self, tmp_path):
        cache = DiskCache(tmp_path)
        value = 1.234567890123456789e17 / 3.0
        cache.put(KEY, {"mttdl_hours": value})
        assert cache.get(KEY)["mttdl_hours"] == value

    def test_lazy_directory_creation(self, tmp_path):
        root = tmp_path / "sub" / "cache"
        cache = DiskCache(root)
        assert not root.exists()
        assert len(cache) == 0
        cache.put(KEY, {"x": 1})
        assert root.is_dir()
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(KEY, {"x": 1})
        (tmp_path / f"{KEY}.json").write_text("{not json", encoding="utf-8")
        assert cache.get(KEY) is None
        assert cache.misses == 1

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        (tmp_path / f"{KEY}.json").write_text("[1, 2]", encoding="utf-8")
        assert cache.get(KEY) is None

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(KEY, {"x": 1})
        cache.put(OTHER, {"x": 2})
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(KEY) is None

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(ValueError):
            cache.get("../escape")
        with pytest.raises(ValueError):
            cache.put("UPPER", {})

    def test_no_temp_file_left_behind(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(KEY, {"x": 1})
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestCorruptionHardening:
    """Planted garbage must degrade to a logged miss and be overwritten —
    never raise, never return a damaged payload."""

    PLANTS = {
        "garbage-bytes": b"\x00\xffnot json at all\xfe",
        "truncated": b'{"mttdl_hours": 1.5, "eve',
        "empty": b"",
        "non-dict": b"[1, 2, 3]",
        "wrong-unicode": b"\xff\xfe\x00j",
    }

    @pytest.mark.parametrize("mode", sorted(PLANTS))
    def test_planted_damage_is_a_rejected_miss(self, tmp_path, mode, caplog):
        cache = DiskCache(tmp_path)
        (tmp_path / f"{KEY}.json").write_bytes(self.PLANTS[mode])
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            assert cache.get(KEY) is None
        assert cache.misses == 1
        assert cache.rejected == 1
        assert any("discarding cache entry" in r.message for r in caplog.records)
        # The damaged file is gone, so a recompute can overwrite it.
        assert not (tmp_path / f"{KEY}.json").exists()

    @pytest.mark.parametrize("mode", sorted(PLANTS))
    def test_overwrite_after_damage_round_trips(self, tmp_path, mode):
        cache = DiskCache(tmp_path)
        (tmp_path / f"{KEY}.json").write_bytes(self.PLANTS[mode])
        assert cache.get(KEY) is None
        cache.put(KEY, {"mttdl_hours": 42.0})
        assert cache.get(KEY) == {"mttdl_hours": 42.0}
        assert cache.hits == 1

    def test_schema_mismatch_with_validator(self, tmp_path, caplog):
        cache = DiskCache(tmp_path, validator=mttdl_valid)
        # Valid JSON dict, but not the validator's schema.
        (tmp_path / f"{KEY}.json").write_text(
            '{"mttdl_hours": "not a number"}', encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            assert cache.get(KEY) is None
        assert cache.rejected == 1
        assert any("schema mismatch" in r.message for r in caplog.records)

    def test_validator_accepts_good_payload(self, tmp_path):
        cache = DiskCache(tmp_path, validator=mttdl_valid)
        cache.put(KEY, {"mttdl_hours": 7.0})
        assert cache.get(KEY) == {"mttdl_hours": 7.0}
        assert cache.rejected == 0

    def test_clean_miss_is_not_rejected(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.misses == 1
        assert cache.rejected == 0


class TestConcurrentWriters:
    """Same-key races: concurrent put/get must never surface torn data,
    and a reader must never delete a writer's fresh entry."""

    def test_thread_hammer_one_key(self, tmp_path):
        """Many writer and reader threads on one key: every observed
        payload is complete, nothing is rejected, no temp files leak."""
        import threading

        cache = DiskCache(tmp_path, validator=mttdl_valid)
        stop = threading.Event()
        seen = []
        errors = []

        def writer(worker):
            i = 0
            while not stop.is_set():
                # Payload is internally consistent: a torn read could
                # not produce matching fields and still parse.
                cache.put(
                    KEY, {"mttdl_hours": float(i), "worker": worker, "i": i}
                )
                i += 1

        def reader():
            while not stop.is_set():
                payload = cache.get(KEY)
                if payload is None:
                    continue
                try:
                    assert set(payload) == {"mttdl_hours", "worker", "i"}
                    assert payload["mttdl_hours"] == float(payload["i"])
                except AssertionError as exc:
                    errors.append(exc)
                    return
                seen.append(payload["i"])

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ] + [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()

        assert not errors, errors[0]
        assert seen, "readers never observed a stored payload"
        assert cache.rejected == 0
        leftovers = list(tmp_path.glob(".tmp-*"))
        assert leftovers == [], leftovers
        # The surviving entry is whole.
        final = cache.get(KEY)
        assert final is not None and mttdl_valid(final)

    def test_reject_spares_concurrently_replaced_entry(
        self, tmp_path, monkeypatch
    ):
        """A reader that saw a corrupt entry must not unlink the fresh
        valid entry a concurrent put() raced in behind its back."""
        import json

        cache = DiskCache(tmp_path)
        path = tmp_path / f"{KEY}.json"
        path.write_text("{torn", encoding="utf-8")

        real_load = json.load

        def racing_load(fh, *args, **kwargs):
            # The reader holds the corrupt file open; before it decides
            # to reject, a concurrent writer replaces the entry.
            DiskCache(tmp_path).put(KEY, {"mttdl_hours": 9.0})
            return real_load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", racing_load)
        assert cache.get(KEY) is None  # the corrupt bytes: a miss
        monkeypatch.undo()
        assert cache.rejected == 1
        # The freshly written entry survived the rejection's unlink.
        assert path.exists()
        assert cache.get(KEY) == {"mttdl_hours": 9.0}

    def test_reject_still_unlinks_unreplaced_corruption(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = tmp_path / f"{KEY}.json"
        path.write_text("{torn", encoding="utf-8")
        assert cache.get(KEY) is None
        assert cache.rejected == 1
        assert not path.exists()
