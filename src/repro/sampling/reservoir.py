"""Reservoir sampling (Vitter's Algorithm R).

Section 4.5 of the paper keeps per-stratum samples statistically consistent
under insertions with reservoir sampling [Vitter 1985]: a fixed-capacity
reservoir that is, at any point of the stream, a uniform sample of all tuples
seen so far.  :func:`reservoir_slot` is the accept / evict rule and nothing
else: a leaf's reservoir rows are its slice of the flat CSR sample columns,
and :class:`repro.core.updates.DynamicPASS` keeps ``capacity`` / ``seen``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reservoir_slot"]


def reservoir_slot(
    held: int, capacity: int, seen: int, rng: np.random.Generator
) -> int | None:
    """Where the ``seen``-th row offered to a reservoir goes, if anywhere.

    While the reservoir holds fewer than ``capacity`` rows the answer is
    ``held`` (append: the first ``capacity`` rows are all kept, and ``rng`` is
    not consumed).  Afterwards it is a uniformly drawn slot to overwrite — the
    row is accepted with probability ``capacity / seen`` — or ``None`` when
    the row is rejected.  ``seen`` counts this row.
    """
    if held < capacity:
        return held
    slot = int(rng.integers(0, seen))
    return slot if slot < capacity else None
