"""Unit tests for the deterministic sharding primitives."""

import pytest

from repro.dse.partition import effective_shards, ring_bounds, ring_ranges


class TestEffectiveShards:
    def test_caps_at_item_count(self):
        assert effective_shards(3, 8) == 3

    def test_caps_at_jobs(self):
        assert effective_shards(100, 4) == 4

    def test_at_least_one(self):
        assert effective_shards(0, 4) == 1

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            effective_shards(5, 0)


class TestRingBounds:
    def test_mirrors_serial_loop(self):
        # initial_bound=12, alpha=4, max_bound=21:
        # serial: x_prev=-1, x=12 -> ring [0,12]; [13,16]; [17,20]; [21,21]
        assert list(ring_bounds(12, 4, 21)) == [
            (0, 12), (13, 16), (17, 20), (21, 21),
        ]

    def test_clamps_first_ring_to_max_bound(self):
        assert list(ring_bounds(50, 5, 10)) == [(0, 10)]

    def test_windows_partition_the_range(self):
        windows = list(ring_bounds(7, 3, 40))
        assert windows[0][0] == 0
        assert windows[-1][1] == 40
        for (_, hi), (lo2, _) in zip(windows, windows[1:]):
            assert lo2 == hi + 1

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            next(ring_bounds(5, 0, 10))


class TestRingRanges:
    @pytest.mark.parametrize("total,shards", [
        (10, 3), (7, 7), (1, 4), (23, 4), (100, 16),
    ])
    def test_contiguous_cover_in_order(self, total, shards):
        ranges = ring_ranges(total, shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == total
        for (_, stop), (start2, _) in zip(ranges, ranges[1:]):
            assert start2 == stop
        assert [i for a, b in ranges for i in range(a, b)] == list(range(total))

    def test_balanced_within_one(self):
        sizes = [b - a for a, b in ring_ranges(23, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_never_produces_empty_ranges(self):
        assert len(ring_ranges(2, 5)) == 2
        assert all(b > a for a, b in ring_ranges(2, 5))

    def test_empty_total(self):
        assert ring_ranges(0, 4) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ring_ranges(5, 0)
        with pytest.raises(ValueError):
            ring_ranges(-1, 2)
