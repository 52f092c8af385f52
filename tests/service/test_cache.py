"""The content-addressed LRU result cache."""

import pytest

from repro.core.montecarlo import MCEstimate
from repro.service.cache import ResultCache
from repro.service.runner import ric_payload


class TestLRU:
    def test_hit_miss_stats(self):
        cache = ResultCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_existing_key(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_len_and_maxsize_validation(self):
        cache = ResultCache(maxsize=3)
        for key in "abc":
            cache.put(key, key)
        assert len(cache) == 3
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(maxsize=8)
        cache.put("k1", {"value": 0.875})
        cache.put("k2", {"pairs": [["a", "b"]]})
        estimate = MCEstimate(mean=0.1 + 0.2, stderr=1 / 3, samples=60)
        cache.put("k3", ric_payload(estimate))
        cache.save(path)

        loaded = ResultCache.load(path)
        assert loaded.maxsize == 8
        assert loaded.get("k1") == {"value": 0.875}
        assert loaded.get("k2") == {"pairs": [["a", "b"]]}
        mc = loaded.get("k3")
        assert mc == ric_payload(estimate)
        # Bit-identical floats, not merely close ones.
        assert mc["mean"].hex() == estimate.mean.hex()
        assert mc["stderr"].hex() == estimate.stderr.hex()

    def test_load_preserves_recency_order(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(maxsize=2)
        cache.put("old", 1)
        cache.put("new", 2)
        cache.save(path)

        loaded = ResultCache.load(path)
        loaded.put("newest", 3)  # must evict "old", not "new"
        assert "old" not in loaded
        assert loaded.get("new") == 2
