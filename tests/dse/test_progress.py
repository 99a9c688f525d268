"""Unit tests for the uniform SearchStats telemetry."""

from repro.dse.progress import SearchStats, format_stats


class TestEqualitySemantics:
    def test_telemetry_excluded_from_equality(self):
        serial = SearchStats(
            candidates_enumerated=100, candidates_checked=10,
            conflicts_rejected=9, rings_expanded=2,
        )
        parallel = SearchStats(
            candidates_enumerated=100, candidates_checked=10,
            conflicts_rejected=9, rings_expanded=2,
            shards=4, cache_hits=1, wall_time=1.5,
            shard_wall_times=(0.3, 0.4, 0.4, 0.4),
        )
        assert serial == parallel

    def test_deterministic_counters_participate(self):
        assert SearchStats(candidates_checked=1) != SearchStats(
            candidates_checked=2
        )


class TestAccumulation:
    def test_cache_hit_rate(self):
        assert SearchStats().cache_hit_rate == 0.0
        assert SearchStats(cache_hits=3, cache_misses=1).cache_hit_rate == 0.75


class TestSerialization:
    def test_round_trip_full(self):
        stats = SearchStats(
            candidates_enumerated=5, candidates_checked=3,
            conflicts_rejected=1, routing_rejected=1, rings_expanded=2,
            shards=2, cache_hits=1, cache_misses=1, wall_time=0.5,
            shard_wall_times=(0.2, 0.3),
        )
        rebuilt = SearchStats.from_dict(stats.to_dict())
        assert rebuilt == stats  # deterministic counters
        assert rebuilt.shards == 2 and rebuilt.shard_wall_times == (0.2, 0.3)

    def test_counter_dict_round_trip_zeroes_telemetry(self):
        stats = SearchStats(candidates_checked=7, shards=4, wall_time=9.0)
        rebuilt = SearchStats.from_dict(stats.counter_dict())
        assert rebuilt == stats
        assert rebuilt.shards == 1 and rebuilt.wall_time == 0.0

    def test_from_dict_ignores_unknown_keys(self):
        assert SearchStats.from_dict(
            {"candidates_checked": 2, "bogus": 1}
        ) == SearchStats(candidates_checked=2)


class TestFormatting:
    def test_format_mentions_core_counters(self):
        text = format_stats(
            SearchStats(candidates_enumerated=10, candidates_checked=4,
                        conflicts_rejected=3, rings_expanded=1,
                        cache_hits=1, shard_wall_times=(0.1, 0.2))
        )
        assert "enumerated" in text and "10" in text
        assert "rings expanded" in text
        assert "cache" in text
        assert "shard times" in text
