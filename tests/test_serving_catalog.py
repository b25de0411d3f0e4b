"""Tests for the synopsis catalog: registration, routing, and fallback."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving.catalog import SynopsisCatalog, route_query
from repro.serving.shm import PublishedEntry


@pytest.fixture(scope="module")
def serving_table() -> Table:
    rng = np.random.default_rng(17)
    n = 4000
    return Table(
        {
            "a": rng.uniform(0.0, 100.0, size=n),
            "b": rng.uniform(0.0, 10.0, size=n),
            "value": np.abs(rng.normal(50.0, 15.0, size=n)),
            "other": np.abs(rng.normal(5.0, 1.0, size=n)),
        },
        name="serving",
    )


@pytest.fixture(scope="module")
def catalog(serving_table: Table) -> SynopsisCatalog:
    config = PASSConfig(
        n_partitions=16, partitioner="equal", opt_sample_size=500, seed=0
    )
    catalog = SynopsisCatalog()
    catalog.register(
        "value_by_a",
        build_pass(serving_table, "value", ["a"], config),
        table_name="serving",
    )
    catalog.register(
        "value_by_ab",
        build_pass(
            serving_table, "value", ["a", "b"], config.with_overrides(partitioner="kd")
        ),
        table_name="serving",
    )
    catalog.register(
        "other_by_a",
        build_pass(serving_table, "other", ["a"], config),
        table_name="serving",
    )
    catalog.register_table(serving_table, "serving")
    return catalog


class TestRegistration:
    def test_names_and_lookup(self, catalog):
        assert set(catalog.names()) == {"value_by_a", "value_by_ab", "other_by_a"}
        assert catalog.get("value_by_a").value_column == "value"
        assert "value_by_a" in catalog
        assert len(catalog) == 3

    def test_predicate_columns_inferred_from_tree(self, catalog):
        assert catalog.get("value_by_a").predicate_columns == ("a",)
        assert catalog.get("value_by_ab").predicate_columns == ("a", "b")

    def test_duplicate_name_rejected(self, catalog, serving_table):
        synopsis = catalog.get("value_by_a").synopsis
        with pytest.raises(ValueError, match="already registered"):
            catalog.register("value_by_a", synopsis)

    def test_unknown_name_raises_with_known_names(self, catalog):
        with pytest.raises(KeyError, match="value_by_a"):
            catalog.get("missing")

    def test_unregister(self, serving_table):
        catalog = SynopsisCatalog()
        config = PASSConfig(n_partitions=4, partitioner="equal", seed=0)
        catalog.register("tmp", build_pass(serving_table, "value", ["a"], config))
        catalog.unregister("tmp")
        assert "tmp" not in catalog
        with pytest.raises(KeyError):
            catalog.unregister("tmp")

    def test_dynamic_entries_report_staleness(self, serving_table):
        catalog = SynopsisCatalog()
        dynamic = DynamicPASS(
            serving_table,
            "value",
            ["a"],
            PASSConfig(n_partitions=4, partitioner="equal", seed=0),
        )
        entry = catalog.register("dyn", dynamic)
        assert entry.is_dynamic
        assert entry.staleness == 0.0
        dynamic.insert({"a": 1.0, "b": 1.0, "value": 3.0, "other": 1.0})
        assert entry.staleness > 0.0


class TestRouting:
    def test_routes_to_matching_synopsis(self, catalog):
        query = AggregateQuery.sum("value", RectPredicate.from_bounds(a=(10.0, 50.0)))
        assert catalog.route(query).name == "value_by_a"

    def test_prefers_tightest_predicate_column_fit(self, catalog):
        # Both value synopses can answer a predicate on `a` alone, but the 1-D
        # synopsis has no surplus partitioning columns and wins.
        query = AggregateQuery.avg("value", RectPredicate.from_bounds(a=(0.0, 30.0)))
        assert catalog.route(query).name == "value_by_a"

    def test_multidim_predicate_needs_multidim_synopsis(self, catalog):
        query = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(a=(10.0, 50.0), b=(1.0, 5.0))
        )
        assert catalog.route(query).name == "value_by_ab"

    def test_routes_on_value_column(self, catalog):
        query = AggregateQuery.sum("other", RectPredicate.from_bounds(a=(10.0, 50.0)))
        assert catalog.route(query).name == "other_by_a"

    def test_unbounded_predicate_columns_do_not_block_routing(self, catalog):
        from repro.query.predicate import Interval

        query = AggregateQuery.sum(
            "value",
            RectPredicate({"a": Interval(0.0, 50.0), "b": Interval.unbounded()}),
        )
        assert catalog.route(query).name == "value_by_a"

    def test_no_match_returns_none(self, catalog):
        query = AggregateQuery.sum("value", RectPredicate.from_bounds(other=(0.0, 1.0)))
        assert catalog.route(query) is None

    def test_table_name_filter(self, catalog):
        query = AggregateQuery.sum("value", RectPredicate.from_bounds(a=(10.0, 50.0)))
        assert catalog.route(query, table_name="serving") is not None
        assert catalog.route(query, table_name="elsewhere") is None


class _Candidate(NamedTuple):
    """The five attributes ``route_query`` reads, nothing else."""

    name: str
    predicate_columns: tuple[str, ...]
    n_partitions: int = 8
    table_name: str | None = "t"
    value_column: str = "value"
    supports_sketches: bool = False


class TestRouteQuery:
    """The one routing function, over plain records (no catalog, no pool)."""

    @staticmethod
    def query(agg="SUM", columns=("a",), **kwargs):
        predicate = RectPredicate.from_bounds(**{c: (0.0, 1.0) for c in columns})
        return AggregateQuery(agg, "value", predicate, **kwargs)

    def test_tightest_fit_beats_partition_count(self):
        wide = _Candidate("wide", ("a", "b"), n_partitions=1024)
        tight = _Candidate("tight", ("a",), n_partitions=2)
        assert route_query([wide, tight], self.query()) is tight
        # ...but only among candidates covering the constrained columns.
        assert route_query([wide, tight], self.query(columns=("a", "b"))) is wide
        assert route_query([tight], self.query(columns=("a", "b"))) is None

    def test_partition_count_breaks_surplus_ties_then_order(self):
        coarse = _Candidate("coarse", ("a",), n_partitions=4)
        fine = _Candidate("fine", ("a",), n_partitions=16)
        twin = _Candidate("twin", ("a",), n_partitions=16)
        assert route_query([coarse, fine, twin], self.query()) is fine
        assert route_query([coarse, twin, fine], self.query()) is twin

    def test_table_filter_and_the_none_wildcard(self):
        ours = _Candidate("ours", ("a",), table_name="t")
        theirs = _Candidate("theirs", ("a",), n_partitions=99, table_name="u")
        anywhere = _Candidate("anywhere", ("a",), n_partitions=2, table_name=None)
        candidates = [ours, theirs, anywhere]
        assert route_query(candidates, self.query(), "t") is ours
        assert route_query(candidates, self.query(), "u") is theirs
        # A candidate published without a table matches any requested table.
        assert route_query(candidates, self.query(), "v") is anywhere
        # An unnamed request considers every table.
        assert route_query(candidates, self.query()) is theirs

    def test_value_column_must_match(self):
        other = _Candidate("other", ("a",), value_column="other")
        assert route_query([other], self.query()) is None

    def test_sketch_aggregates_need_sketch_support(self):
        plain = _Candidate("plain", ("a",), n_partitions=64)
        sketched = _Candidate("sketched", ("a",), supports_sketches=True)
        p95 = self.query("QUANTILE", quantile=0.95)
        assert route_query([plain, sketched], p95) is sketched
        assert route_query([plain], p95) is None
        assert route_query([plain, sketched], self.query("SUM")) is plain

    def test_catalog_entries_and_published_entries_are_candidates(self, catalog):
        query = self.query()
        entry = route_query(catalog.entries(), query, "serving")
        assert entry is catalog.route(query, "serving")
        published = PublishedEntry(
            name="p",
            segment="pass-seg-x",
            table_name=None,
            value_column="value",
            predicate_columns=["a"],
            n_partitions=4,
            population_size=10,
            supports_sketches=False,
        )
        assert route_query([published], query, "serving") is published
        # On the wire: a worker routes sketch aggregates by the manifest's flag.
        assert published._asdict()["supports_sketches"] is False
        p95 = self.query("QUANTILE", quantile=0.95)
        assert route_query([published], p95, "serving") is None
        sketched = published._replace(supports_sketches=True)
        assert route_query([published, sketched], p95, "serving") is sketched


class TestFallback:
    def test_exact_engine_by_name(self, catalog, serving_table):
        engine = catalog.exact_engine("serving")
        assert engine is not None
        assert engine.table is serving_table

    def test_sole_table_is_the_default_fallback(self, catalog):
        assert catalog.exact_engine() is catalog.exact_engine("serving")

    def test_missing_table_returns_none(self, catalog):
        assert catalog.exact_engine("elsewhere") is None
