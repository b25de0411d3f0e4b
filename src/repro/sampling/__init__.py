"""Sampling substrate: estimators, uniform and stratified sampling synopses."""

from repro.sampling.estimators import (
    EstimateWithVariance,
    finite_population_correction,
    stratum_count_contribution,
    stratum_mean_estimate,
    stratum_sum_contribution,
    uniform_estimate,
)
from repro.sampling.reservoir import reservoir_slot
from repro.sampling.stratified import StratifiedSampleSynopsis, Stratum
from repro.sampling.uniform import UniformSampleSynopsis

__all__ = [
    "EstimateWithVariance",
    "finite_population_correction",
    "stratum_count_contribution",
    "stratum_mean_estimate",
    "stratum_sum_contribution",
    "uniform_estimate",
    "reservoir_slot",
    "StratifiedSampleSynopsis",
    "Stratum",
    "UniformSampleSynopsis",
]
