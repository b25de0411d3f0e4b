"""The paper's primary contribution: the PASS synopsis and its builder."""

from repro.core.batching import (
    batch_query,
    grouped_query,
)
from repro.core.builder import (
    PartitionerFallbackWarning,
    build_leaf_boxes,
    build_leaf_samples,
    build_pass,
    resolve_partitioner,
)
from repro.core.config import PARTITIONER_CHOICES, PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatFrontier, FlatSamples, FlatSynopsis
from repro.core.tree import PartitionNode, PartitionTree
from repro.core.updates import DynamicPASS

__all__ = [
    "batch_query",
    "grouped_query",
    "build_leaf_boxes",
    "build_leaf_samples",
    "build_pass",
    "resolve_partitioner",
    "PartitionerFallbackWarning",
    "PARTITIONER_CHOICES",
    "PASSConfig",
    "PASSSynopsis",
    "FlatFrontier",
    "FlatSamples",
    "FlatSynopsis",
    "PartitionNode",
    "PartitionTree",
    "DynamicPASS",
]
