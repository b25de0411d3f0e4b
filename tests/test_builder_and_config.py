"""Tests for PASSConfig validation and the PASS builder."""

from __future__ import annotations

import pytest

from repro.core.builder import (
    PartitionerFallbackWarning,
    build_leaf_boxes,
    build_leaf_samples,
    build_pass,
    resolve_partitioner,
)
from repro.core.config import PARTITIONER_CHOICES, PASSConfig
from repro.query.aggregates import AggregateType

import oracle


class TestPASSConfig:
    def test_defaults_are_valid(self):
        config = PASSConfig()
        assert config.n_partitions == 64
        assert config.partitioner == "adp"
        assert config.agg_template == AggregateType.SUM

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PASSConfig(n_partitions=0)
        with pytest.raises(ValueError):
            PASSConfig(sample_rate=None, sample_size=None)
        with pytest.raises(ValueError):
            PASSConfig(sample_rate=0.1, sample_size=10)
        with pytest.raises(ValueError):
            PASSConfig(sample_rate=2.0)
        with pytest.raises(ValueError):
            PASSConfig(partitioner="bogus")
        with pytest.raises(ValueError):
            PASSConfig(allocation="bogus")
        with pytest.raises(ValueError):
            PASSConfig(mode="bogus")
        with pytest.raises(ValueError):
            PASSConfig(bss_multiplier=0.0)
        with pytest.raises(ValueError):
            PASSConfig(delta=0.0)

    def test_agg_template_parsed_from_string(self):
        assert PASSConfig(agg_template="avg").agg_template == AggregateType.AVG

    def test_with_overrides(self):
        config = PASSConfig().with_overrides(n_partitions=8)
        assert config.n_partitions == 8
        assert config.sample_rate == 0.005

    def test_total_sample_budget(self):
        config = PASSConfig(sample_rate=0.01)
        assert config.total_sample_budget(10_000) == 100
        bss = PASSConfig(sample_rate=0.01, mode="bss", bss_multiplier=2.0)
        assert bss.total_sample_budget(10_000) == 200
        absolute = PASSConfig(sample_rate=None, sample_size=50)
        assert absolute.total_sample_budget(10_000) == 50
        assert absolute.total_sample_budget(10) == 10

    def test_from_time_budgets(self):
        config = PASSConfig.from_time_budgets(
            n_rows=100_000, construction_seconds=8.0, query_milliseconds=2.0
        )
        assert config.n_partitions >= 2
        assert config.sample_size is not None and config.sample_size > 0
        with pytest.raises(ValueError):
            PASSConfig.from_time_budgets(100, 0.0, 1.0)

    def test_partitioner_choices_exposed(self):
        assert "adp" in PARTITIONER_CHOICES and "kd" in PARTITIONER_CHOICES


class TestBuildLeafBoxes:
    @pytest.mark.parametrize("partitioner", ["adp", "equal", "count_optimal", "hill"])
    def test_one_dimensional_partitioners(self, skewed_table, partitioner):
        config = PASSConfig(
            n_partitions=8, partitioner=partitioner, opt_sample_size=300
        )
        boxes = build_leaf_boxes(skewed_table, "value", ["key"], config)
        key = skewed_table.column("key")
        total = sum(int(box.mask({"key": key}).sum()) for box in boxes)
        assert total == skewed_table.n_rows

    def test_multi_dimensional_falls_back_to_kd(self, multi_table):
        config = PASSConfig(n_partitions=8, partitioner="adp", opt_sample_size=500)
        with pytest.warns(PartitionerFallbackWarning, match="k-d construction"):
            boxes = build_leaf_boxes(multi_table, "value", ["a", "b"], config)
        assert len(boxes) >= 8
        assert any(len(box.columns) == 2 for box in boxes)

    @pytest.mark.parametrize("partitioner", ["adp", "equal", "count_optimal", "hill"])
    def test_fallback_warns_for_every_one_dimensional_partitioner(
        self, multi_table, partitioner
    ):
        config = PASSConfig(
            n_partitions=4, partitioner=partitioner, opt_sample_size=300
        )
        with pytest.warns(PartitionerFallbackWarning):
            build_leaf_boxes(multi_table, "value", ["a", "b"], config)

    def test_no_warning_when_partitioner_matches_dimensionality(
        self, skewed_table, multi_table
    ):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", PartitionerFallbackWarning)
            build_leaf_boxes(
                skewed_table,
                "value",
                ["key"],
                PASSConfig(n_partitions=4, partitioner="adp", opt_sample_size=200),
            )
            build_leaf_boxes(
                multi_table,
                "value",
                ["a", "b"],
                PASSConfig(n_partitions=4, partitioner="kd", opt_sample_size=300),
            )

    def test_resolve_partitioner(self):
        config = PASSConfig(n_partitions=4, partitioner="adp")
        assert resolve_partitioner(config, ["key"]) == "adp"
        assert resolve_partitioner(config, ["a", "b"]) == "kd"
        kd = PASSConfig(n_partitions=4, partitioner="kd")
        assert resolve_partitioner(kd, ["a", "b"]) == "kd"

    def test_kd_us_policy(self, multi_table):
        config = PASSConfig(n_partitions=8, partitioner="kd_us", opt_sample_size=500)
        boxes = build_leaf_boxes(multi_table, "value", ["a", "b"], config)
        assert len(boxes) >= 8

    def test_requires_predicate_columns(self, skewed_table):
        with pytest.raises(ValueError):
            build_leaf_boxes(skewed_table, "value", [], PASSConfig())


class TestBuildLeafSamples:
    def test_ess_mode_per_leaf_budget(self, skewed_table):
        config = PASSConfig(
            n_partitions=4, sample_rate=0.1, mode="ess", partitioner="equal"
        )
        boxes = build_leaf_boxes(skewed_table, "value", ["key"], config)
        samples = build_leaf_samples(skewed_table, "value", ["key"], boxes, config)
        budget = config.total_sample_budget(skewed_table.n_rows)
        for stratum in samples:
            assert stratum.sample_size <= max(1, budget // 2)

    def test_bss_mode_caps_total_samples(self, skewed_table):
        config = PASSConfig(
            n_partitions=8,
            sample_rate=0.05,
            mode="bss",
            bss_multiplier=2.0,
            partitioner="equal",
        )
        boxes = build_leaf_boxes(skewed_table, "value", ["key"], config)
        samples = build_leaf_samples(skewed_table, "value", ["key"], boxes, config)
        total = sum(stratum.sample_size for stratum in samples)
        budget = config.total_sample_budget(skewed_table.n_rows)
        assert total <= budget + len(boxes)  # rounding slack of one per leaf

    def test_proportional_allocation(self, adversarial_small):
        config = PASSConfig(
            n_partitions=8,
            sample_rate=0.01,
            mode="bss",
            allocation="proportional",
            partitioner="adp",
            opt_sample_size=400,
        )
        boxes = build_leaf_boxes(adversarial_small, "value", ["key"], config)
        samples = build_leaf_samples(adversarial_small, "value", ["key"], boxes, config)
        sizes = [stratum.size for stratum in samples]
        sample_sizes = [stratum.sample_size for stratum in samples]
        # The largest leaf must receive the largest share of the budget.
        assert sample_sizes[sizes.index(max(sizes))] == max(sample_sizes)

    def test_samples_keep_predicate_columns(self, multi_table):
        config = PASSConfig(
            n_partitions=4, sample_rate=0.05, partitioner="kd", opt_sample_size=500
        )
        boxes = build_leaf_boxes(multi_table, "value", ["a", "b"], config)
        samples = build_leaf_samples(
            multi_table, "value", ["a", "b", "c"], boxes, config
        )
        for stratum in samples:
            if stratum.sample_size:
                assert {"value", "a", "b", "c"} <= set(stratum.sample_columns)


class TestBuildPass:
    def test_build_records_time_and_structure(self, skewed_table):
        config = PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=300)
        synopsis = build_pass(skewed_table, "value", ["key"], config)
        assert synopsis.build_seconds > 0
        assert synopsis.n_partitions <= 8
        assert synopsis.population_size == skewed_table.n_rows

    def test_prebuilt_leaf_boxes_skip_optimizer(self, skewed_table):
        from repro.partitioning.equal import equal_depth_partition

        boxes = equal_depth_partition(skewed_table, "key", 4)
        config = PASSConfig(n_partitions=4, sample_rate=0.05)
        synopsis = build_pass(skewed_table, "value", ["key"], config, leaf_boxes=boxes)
        assert synopsis.n_partitions == len(boxes)

    def test_default_config_used_when_none(self, skewed_table):
        synopsis = build_pass(
            skewed_table,
            "value",
            ["key"],
            PASSConfig(n_partitions=4, opt_sample_size=200),
        )
        assert synopsis.population_size == skewed_table.n_rows

    def test_multi_column_fanout(self, multi_table):
        config = PASSConfig(
            n_partitions=16, sample_rate=0.02, partitioner="kd", opt_sample_size=800
        )
        synopsis, objects = oracle.built_with_objects(
            build_pass, multi_table, "value", ["a", "b", "c"], config
        )
        assert synopsis.n_partitions == objects.tree.n_leaves >= 16
        objects.tree.validate()
        oracle.objects_of(synopsis).tree.validate()

    def test_effective_partitioner_recorded(self, skewed_table, multi_table):
        one_d = build_pass(
            skewed_table,
            "value",
            ["key"],
            PASSConfig(n_partitions=4, partitioner="adp", opt_sample_size=200),
        )
        assert one_d.effective_partitioner == "adp"
        with pytest.warns(PartitionerFallbackWarning):
            fallen_back = build_pass(
                multi_table,
                "value",
                ["a", "b"],
                PASSConfig(n_partitions=4, partitioner="adp", opt_sample_size=300),
            )
        assert fallen_back.effective_partitioner == "kd"

    def test_effective_partitioner_precomputed_and_persisted(self, skewed_table):
        from repro.partitioning.equal import equal_depth_partition

        boxes = equal_depth_partition(skewed_table, "key", 4)
        config = PASSConfig(n_partitions=4, sample_rate=0.05)
        synopsis = build_pass(skewed_table, "value", ["key"], config, leaf_boxes=boxes)
        assert synopsis.effective_partitioner == "precomputed"
        header, arrays = synopsis.export_buffers()
        assert header["effective_partitioner"] == "precomputed"
        from repro.core.pass_synopsis import PASSSynopsis

        reloaded = PASSSynopsis.from_buffers(header, arrays)
        assert reloaded.effective_partitioner == "precomputed"
