"""Configuration of a PASS synopsis build.

Section 3.1: the user hands the system a construction time budget ``tau_c``
and a query latency budget ``tau_q``; internally these become the number of
leaf partitions ``k`` and the sampling budget ``K``.  :class:`PASSConfig`
exposes the internal knobs directly (the form every experiment uses) plus a
:meth:`PASSConfig.from_time_budgets` helper implementing a simple, documented
cost model for the budget-to-knob translation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.query.aggregates import AggregateType
from repro.result import LAMBDA_99

__all__ = ["PASSConfig", "PARTITIONER_CHOICES"]

#: Valid values of :attr:`PASSConfig.partitioner`.
PARTITIONER_CHOICES = (
    "adp",          # approximate dynamic programming (1-D, the paper's ** algorithm)
    "equal",        # equal-depth partitioning (EQ baseline)
    "count_optimal",  # equal-count optimum for COUNT templates
    "hill",         # AQP++-style hill climbing
    "kd",           # k-d tree, max-variance expansion (KD-PASS)
    "kd_us",        # k-d tree, breadth-first expansion (KD-US baseline)
)


@dataclass(frozen=True)
class PASSConfig:
    """All knobs of a PASS build (Section 4.5's knob table).

    Attributes
    ----------
    n_partitions:
        Number of leaf partitions ``k``.  More partitions improve accuracy
        and data skipping at the cost of construction time.
    sample_rate / sample_size:
        Sampling budget ``K`` as a fraction of the table or as an absolute
        count.  Exactly one of the two must be set.
    partitioner:
        Which leaf-partitioning optimizer to run (see
        :data:`PARTITIONER_CHOICES`).  1-D partitioners require a single
        predicate column; the k-d variants handle any dimensionality.
    agg_template:
        The query template (SUM / COUNT / AVG) the partitioning optimizes for.
    delta:
        Meaningful-query fraction of Section 4.2 (minimum partial-overlap
        size as a fraction of the optimization sample).
    opt_sample_size:
        Size ``m`` of the uniform sample the optimizer runs on.  ``None``
        selects the per-optimizer default: ``min(1000, N)`` for ADP and hill
        climbing, ``min(5000, N)`` for the k-d optimizers.
    allocation:
        Per-leaf sampling allocation in BSS mode: ``"equal"`` (``K/k`` per
        leaf, default — matching the ST baseline and concentrating samples in
        the small, high-variance leaves ADP creates) or ``"proportional"``
        (per-leaf budget proportional to leaf size).
    mode:
        ``"ess"`` — effective-sample-size mode: every leaf holds
        ``K / (2 d)`` samples so any query's partially-overlapped leaves
        together contain roughly the uniform-sampling budget ``K`` (per-query
        IO is controlled; total storage may exceed ``K``); or ``"bss"`` —
        bounded-sample-size mode: the total number of stored samples is
        capped at ``bss_multiplier`` times the uniform budget (Section 5.1.4).
    bss_multiplier:
        Storage multiplier for BSS mode (2x / 10x in Table 1).
    zero_variance_rule:
        Enable the 0-variance MCF shortcut for AVG queries (Section 3.4).
    with_fpc:
        Apply finite-population corrections to per-leaf estimates.
    lam:
        Confidence-interval multiplier (2.576 for the paper's 99% intervals).
    fanout:
        Fan-out of the internal partition-tree nodes; ``None`` picks 2 for
        one predicate column and ``2^d`` (capped at 8) otherwise.
    seed:
        Seed for every random choice of the build (optimization sample and
        per-leaf samples).
    with_sketches:
        Attach mergeable per-leaf sketches (:mod:`repro.sketches`) so the
        synopsis can answer QUANTILE / COUNT_DISTINCT queries.  Costs one
        extra pass over the aggregation column at build time plus
        ``O(k log n)`` floats per leaf of storage.
    sketch_quantile_k:
        Compactor capacity of the per-leaf quantile sketches (rank error
        shrinks roughly as ``log(n/k) * n / k``; each sketch certifies its
        own bound).
    sketch_distinct_k:
        Minimum-hash capacity of the per-leaf distinct-count sketches
        (exact up to ``k`` distinct values, ``1/sqrt(k-2)`` relative
        standard error beyond).
    """

    n_partitions: int = 64
    sample_rate: float | None = 0.005
    sample_size: int | None = None
    partitioner: str = "adp"
    agg_template: AggregateType = AggregateType.SUM
    delta: float = 0.05
    opt_sample_size: int | None = None
    allocation: str = "equal"
    mode: str = "ess"
    bss_multiplier: float = 1.0
    zero_variance_rule: bool = True
    with_fpc: bool = False
    lam: float = LAMBDA_99
    fanout: int | None = None
    seed: int = 0
    with_sketches: bool = True
    sketch_quantile_k: int = 200
    sketch_distinct_k: int = 1024

    def __post_init__(self) -> None:
        if self.n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if (self.sample_rate is None) == (self.sample_size is None):
            raise ValueError("set exactly one of sample_rate or sample_size")
        if self.sample_rate is not None and not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if self.sample_size is not None and self.sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if self.partitioner not in PARTITIONER_CHOICES:
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; "
                f"choices: {', '.join(PARTITIONER_CHOICES)}"
            )
        if self.allocation not in ("proportional", "equal"):
            raise ValueError("allocation must be 'proportional' or 'equal'")
        if self.mode not in ("ess", "bss"):
            raise ValueError("mode must be 'ess' or 'bss'")
        if self.bss_multiplier <= 0:
            raise ValueError("bss_multiplier must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.sketch_quantile_k < 8:
            raise ValueError("sketch_quantile_k must be at least 8")
        if self.sketch_distinct_k < 16:
            raise ValueError("sketch_distinct_k must be at least 16")
        object.__setattr__(self, "agg_template", AggregateType.parse(self.agg_template))

    def with_overrides(self, **overrides) -> "PASSConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **overrides)

    def total_sample_budget(self, n_rows: int) -> int:
        """The total number of samples the budget allows for ``n_rows`` tuples."""
        if self.sample_size is not None:
            base = self.sample_size
        else:
            base = max(1, int(round(self.sample_rate * n_rows)))
        if self.mode == "bss":
            base = max(1, int(round(base * self.bss_multiplier)))
        return min(base, n_rows)

    @classmethod
    def from_time_budgets(
        cls,
        n_rows: int,
        construction_seconds: float,
        query_milliseconds: float,
        partitions_per_second: float = 8.0,
        tuples_per_millisecond: float = 2000.0,
        **overrides,
    ) -> "PASSConfig":
        """Translate (tau_c, tau_q) time budgets into internal knobs.

        The cost model is deliberately simple and documented rather than
        tuned: construction time is dominated by the per-partition
        optimization work (``partitions_per_second`` partitions per second of
        budget), and query latency is dominated by scanning samples
        (``tuples_per_millisecond`` samples per millisecond of budget).  The
        resulting ``k`` and ``K`` are clamped to sensible ranges.
        """
        if construction_seconds <= 0 or query_milliseconds <= 0:
            raise ValueError("time budgets must be positive")
        n_partitions = int(
            max(2, min(4096, construction_seconds * partitions_per_second))
        )
        sample_size = int(
            max(16, min(n_rows, query_milliseconds * tuples_per_millisecond))
        )
        return cls(
            n_partitions=n_partitions,
            sample_rate=None,
            sample_size=sample_size,
            **overrides,
        )
