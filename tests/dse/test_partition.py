"""Unit tests for the deterministic sharding primitives."""

import pytest

from repro.dse.partition import (
    ShardAutotuner,
    effective_shards,
    ring_bounds,
    ring_ranges,
)


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


class TestShardAutotuner:
    def test_first_ring_is_a_serial_probe(self):
        tuner = ShardAutotuner(jobs=8)
        assert tuner.shards_for(1000) == 1

    def test_cheap_rings_stay_serial(self):
        tuner = ShardAutotuner(jobs=8)
        tuner.observe(1000, 0.001)  # 1 us per candidate
        assert tuner.shards_for(2000) == 1  # predicted 2 ms << fan-out bar

    def test_expensive_rings_fan_out(self):
        tuner = ShardAutotuner(jobs=8)
        tuner.observe(100, 1.0)  # 10 ms per candidate
        assert tuner.shards_for(200) == 8  # predicted 2 s >> target/shard

    def test_fanout_sized_to_target_not_always_max(self):
        tuner = ShardAutotuner(jobs=16)
        tuner.observe(1000, 0.1)  # 0.1 ms per candidate
        # Predicted 0.2 s: above the fan-out bar, but only worth
        # ceil(0.2 / 0.05) = 4 shards, not all 16 workers.
        assert tuner.shards_for(2000) == 4

    def test_counts_only_decisions_that_differ_from_baseline(self):
        tuner = ShardAutotuner(jobs=4)
        tuner.shards_for(100)  # probe: 1 != baseline 4
        assert tuner.autotuned == 1
        tuner.observe(100, 10.0)
        tuner.shards_for(100)  # expensive: 4 == baseline 4
        assert tuner.autotuned == 1

    def test_jobs_1_is_always_baseline(self):
        tuner = ShardAutotuner(jobs=1)
        tuner.shards_for(50)
        tuner.observe(50, 5.0)
        tuner.shards_for(50)
        assert tuner.autotuned == 0

    def test_deterministic_replay(self):
        # Identical observation sequences yield identical decisions —
        # the property checkpoint resume depends on.
        a = ShardAutotuner(jobs=4)
        b = ShardAutotuner(jobs=4)
        decisions_a, decisions_b = [], []
        for total, secs in [(100, 0.5), (200, 0.9), (50, 0.01), (400, 2.0)]:
            decisions_a.append(a.shards_for(total))
            a.observe(total, secs)
            decisions_b.append(b.shards_for(total))
            b.observe(total, secs)
        assert decisions_a == decisions_b

    def test_rejects_negative_observations(self):
        tuner = ShardAutotuner(jobs=2)
        with pytest.raises(ValueError):
            tuner.observe(-1, 0.0)
        with pytest.raises(ValueError):
            tuner.observe(1, -0.5)

    def test_shard_cap_stays_at_enumerated_count(self):
        # Fan-out is capped by how many candidates can be dealt.
        tuner = ShardAutotuner(jobs=8)
        tuner.observe(10, 10.0)  # 1 s per candidate: always fan out
        assert tuner.shards_for(3) == 3


class TestAutotunerAccounting:
    """The adaptive engine's serial-probe ring is counted exactly once."""

    ALGO_MU = 4
    SPACE = ((1, 1, -1),)

    def test_adaptive_counts_equal_serial(self):
        from repro import matrix_multiplication
        from repro.core.optimize import procedure_5_1
        from repro.dse.executor import explore_schedule

        algo = matrix_multiplication(self.ALGO_MU)
        serial = procedure_5_1(algo, self.SPACE)
        for jobs in (1, 2):
            adaptive = explore_schedule(algo, self.SPACE, jobs=jobs, adaptive=True)
            assert adaptive == serial
            assert adaptive.stats.counter_dict() == serial.stats.counter_dict()

    def test_probed_ring_wall_time_counted_once(self):
        """One wall-time sample per dispatched shard — the probe ring
        contributes exactly one, never a probe + re-deal pair."""
        from repro import matrix_multiplication
        from repro.dse.executor import explore_schedule

        result = explore_schedule(
            matrix_multiplication(self.ALGO_MU), self.SPACE, jobs=2, adaptive=True
        )
        rings_scanned = result.stats.rings_expanded + 1
        assert len(result.stats.shard_wall_times) >= rings_scanned
        assert (
            len(result.stats.shard_wall_times)
            <= rings_scanned * result.stats.shards
        )
