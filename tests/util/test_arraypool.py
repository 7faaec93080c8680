"""Tests for the LRU-bounded scratch array pool."""

import numpy as np
import pytest

from repro.util.arraypool import ArrayPool


class TestScratch:
    def test_first_request_is_a_miss(self):
        pool = ArrayPool()
        buf = pool.scratch((4, 3))
        assert buf.shape == (4, 3)
        assert buf.dtype == np.dtype(float)
        assert pool.stats() == {"hits": 0, "misses": 1, "entries": 1}

    def test_same_key_returns_same_buffer(self):
        pool = ArrayPool()
        a = pool.scratch((8,), np.float32, tag="halo")
        b = pool.scratch((8,), np.float32, tag="halo")
        assert a is b
        assert pool.hits == 1 and pool.misses == 1

    def test_int_shape_matches_tuple_shape(self):
        pool = ArrayPool()
        a = pool.scratch(5)
        b = pool.scratch((5,))
        assert a is b

    def test_distinct_tags_get_distinct_buffers(self):
        pool = ArrayPool()
        a = pool.scratch((4,), tag="u")
        b = pool.scratch((4,), tag="v")
        assert a is not b
        assert pool.misses == 2
        assert len(pool) == 2

    def test_distinct_dtypes_get_distinct_buffers(self):
        pool = ArrayPool()
        a = pool.scratch((4,), np.float64)
        b = pool.scratch((4,), np.float32)
        assert a is not b
        assert b.dtype == np.dtype(np.float32)

    def test_contents_survive_until_rerequest(self):
        pool = ArrayPool()
        a = pool.scratch((3,))
        a[:] = [1.0, 2.0, 3.0]
        b = pool.scratch((3,))
        np.testing.assert_array_equal(b, [1.0, 2.0, 3.0])


class TestLRUEviction:
    def test_evicts_least_recently_used(self):
        pool = ArrayPool(max_entries=2)
        pool.scratch((1,), tag="a")
        pool.scratch((1,), tag="b")
        pool.scratch((1,), tag="a")  # refresh "a"
        pool.scratch((1,), tag="c")  # evicts "b"
        assert ((1,), np.dtype(float).str, "a") in pool
        assert ((1,), np.dtype(float).str, "b") not in pool
        assert ((1,), np.dtype(float).str, "c") in pool
        assert len(pool) == 2

    def test_evicted_key_is_a_fresh_miss(self):
        pool = ArrayPool(max_entries=1)
        a = pool.scratch((2,), tag="a")
        pool.scratch((2,), tag="b")
        c = pool.scratch((2,), tag="a")
        assert c is not a
        assert pool.misses == 3 and pool.hits == 0

    def test_pool_never_exceeds_max_entries(self):
        pool = ArrayPool(max_entries=3)
        for i in range(10):
            pool.scratch((1,), tag=i)
            assert len(pool) <= 3


class TestLifecycle:
    def test_clear_drops_buffers_and_counters(self):
        pool = ArrayPool()
        pool.scratch((2,))
        pool.scratch((2,))
        pool.clear()
        assert pool.stats() == {"hits": 0, "misses": 0, "entries": 0}
        pool.scratch((2,))
        assert pool.misses == 1

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="must be positive"):
            ArrayPool(max_entries=0)
        with pytest.raises(TypeError, match="positive integer"):
            ArrayPool(max_entries=2.5)
