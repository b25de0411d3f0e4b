"""repro — a reproduction of PASS: Precomputation-Assisted Stratified Sampling.

This package implements the SIGMOD 2021 paper "Combining Aggregation and
Sampling (Nearly) Optimally for Approximate Query Processing" end to end:

* the numpy-backed data substrate and surrogate dataset generators
  (:mod:`repro.data`);
* the rectangular query model and exact engine (:mod:`repro.query`);
* the classical sampling synopses — uniform and stratified sampling —
  (:mod:`repro.sampling`) and stratified aggregation with deterministic hard
  bounds (:mod:`repro.aggregation`);
* the partitioning optimizers, including the paper's approximate dynamic
  program and the k-d tree construction (:mod:`repro.partitioning`);
* the PASS synopsis itself: the partition tree, the MCF algorithm, the query
  processor and the builder (:mod:`repro.core`);
* the comparison systems — AQP++, a VerdictDB-style scramble, a DeepDB-style
  factorized model — (:mod:`repro.baselines`);
* the evaluation harness regenerating every table and figure of the paper's
  experiment section (:mod:`repro.evaluation`);
* the serving layer — synopsis catalog with query routing, persistence, and a
  concurrent caching query engine (:mod:`repro.serving`);
* the distributed layer — shard planning, per-shard builds stitched into
  one tree, and a streaming shard router (:mod:`repro.distributed`).

Quickstart
----------
>>> from repro import load_dataset, PASSConfig, build_pass, AggregateQuery, RectPredicate
>>> dataset = load_dataset("intel", n_rows=20_000)
>>> synopsis = build_pass(dataset.table, dataset.value_column,
...                       dataset.predicate_columns, PASSConfig(n_partitions=32))
>>> query = AggregateQuery.sum(dataset.value_column,
...                            RectPredicate.from_bounds(time=(0.5, 2.0)))
>>> result = synopsis.query(query)
>>> result.estimate  # doctest: +SKIP
"""

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.updates import DynamicPASS
from repro.data.loaders import load_dataset
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan, build_sharded_pass
from repro.distributed.planner import ShardPlan, ShardPlanner
from repro.distributed.router import StreamingShardRouter
from repro.distributed.sharded import ShardedSynopsis
from repro.query.aggregates import AggregateType
from repro.query.predicate import Box, Interval, RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.result import AQPResult, LAMBDA_95, LAMBDA_99
from repro.sampling.stratified import StratifiedSampleSynopsis
from repro.sampling.uniform import UniformSampleSynopsis
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.serving.persistence import (
    load_catalog,
    load_synopsis,
    save_catalog,
    save_synopsis,
)
from repro.sketches import DistinctSketch, QuantileSketch

__version__ = "1.0.0"

__all__ = [
    "build_pass",
    "PASSConfig",
    "PASSSynopsis",
    "DynamicPASS",
    "load_dataset",
    "Table",
    "AggregateType",
    "Box",
    "Interval",
    "RectPredicate",
    "AggregateQuery",
    "ExactEngine",
    "AQPResult",
    "LAMBDA_95",
    "LAMBDA_99",
    "StratifiedSampleSynopsis",
    "UniformSampleSynopsis",
    "SynopsisCatalog",
    "ServingEngine",
    "ShardPlan",
    "ShardPlanner",
    "build_sharded_from_plan",
    "build_sharded_pass",
    "ShardedSynopsis",
    "StreamingShardRouter",
    "save_synopsis",
    "load_synopsis",
    "save_catalog",
    "load_catalog",
    "QuantileSketch",
    "DistinctSketch",
    "__version__",
]
