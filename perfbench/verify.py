"""Answer verification: cross-tier identity, certified bounds, accuracy.

Every run re-checks a verification sample of its workload's answers:

* **identity** — each answer must equal the in-process reference
  (``ServingEngine.execute`` on the same synopsis state) on every
  :class:`~repro.result.AQPResult` field, bit for bit and NaN-aware; a
  relative tolerance applies only where the serving tier documents
  summation-order freedom (``BatchPlan.execute_vectorized``);
* **bounds** — ``[hard_lower, hard_upper]`` must contain the
  :class:`~repro.query.query.ExactEngine` answer;
* **accuracy** — median relative error and confidence-interval coverage
  against the same exact answers, so a speed-up bought with accuracy shows.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Sequence

from repro.result import AQPResult

__all__ = ["Verification", "same_result", "verify_answers"]

_FIELDS = tuple(field.name for field in dataclasses.fields(AQPResult))

#: Slack for comparing a bound or an interval edge with an exact answer that
#: was summed in another order (a fully covered region is answered from
#: precomputed partition sums, the exact engine sums the rows).
_EDGE_REL = 1e-9


@dataclasses.dataclass(frozen=True)
class Verification:
    """Outcome of checking one verification sample."""

    answers: int
    mismatch_count: int
    bound_violation_count: int
    median_rel_error: float
    ci_coverage: float

    @property
    def ok(self) -> bool:
        """True when no answer differed from the reference or broke its bounds."""
        return self.mismatch_count == 0 and self.bound_violation_count == 0


def _same_value(a: object, b: object, rel: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if rel:
            return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    return a == b


def same_result(
    a: AQPResult, b: AQPResult, rel: float = 0.0, skip: Sequence[str] = ()
) -> bool:
    """Field-wise equality of two results (NaN equals NaN; ``rel`` = 0 is bitwise)."""
    return all(
        _same_value(getattr(a, name), getattr(b, name), rel)
        for name in _FIELDS
        if name not in skip
    )


def verify_answers(
    answers: Sequence[AQPResult],
    expected: Sequence[AQPResult],
    truths: Sequence[float],
    rel: float = 0.0,
    skip: Sequence[str] = (),
) -> Verification:
    """Check the measured tier's answers to one list of queries.

    ``expected`` holds the in-process reference's answers and ``truths`` the
    exact engine's, both aligned with ``answers``.  Answers whose exact value
    is NaN (an aggregate over an empty region) are checked for identity
    only; they have no bound or error to measure.
    """
    mismatches = violations = covered = with_interval = 0
    errors: list[float] = []
    for answer, reference, truth in zip(answers, expected, truths):
        if not same_result(answer, reference, rel=rel, skip=skip):
            mismatches += 1
        truth = float(truth)
        if math.isnan(truth):
            continue
        slack = _EDGE_REL * max(1.0, abs(truth))
        if not answer.hard_lower - slack <= truth <= answer.hard_upper + slack:
            violations += 1
        miss = abs(answer.estimate - truth)
        if not math.isnan(answer.ci_half_width):
            with_interval += 1
            covered += miss <= answer.ci_half_width + slack
        if truth != 0.0 and not math.isnan(miss):
            errors.append(miss / abs(truth))
    return Verification(
        answers=len(answers),
        mismatch_count=mismatches,
        bound_violation_count=violations,
        median_rel_error=statistics.median(errors) if errors else 0.0,
        ci_coverage=covered / with_interval if with_interval else 0.0,
    )
