"""Shared deterministic value hashing (SplitMix64 finalizer).

One implementation of the SplitMix64 mixing core serves both consumers that
must agree on a value's hash forever:

* shard routing (:func:`repro.distributed.planner.hash_assign`) — workers,
  reloads, and the streaming router all need the same owner for a key;
* distinct-count sketching (:class:`repro.sketches.distinct.DistinctSketch`)
  — merged KMV sketches are only comparable because every shard hashes a
  value identically.

The function is pure (no process salt) and hashes the float's bit pattern,
with ``-0.0`` collapsed onto ``+0.0`` so numerically equal keys always
collide on purpose.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["splitmix64", "splitmix64_scalar"]

#: SplitMix64 finalizer multipliers, as Python ints and as numpy scalars.
_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MIX_1, _MIX_2 = (np.uint64(multiplier) for multiplier in _MULTIPLIERS)

_MASK_64 = (1 << 64) - 1
_FLOAT64 = struct.Struct("<d")
_UINT64 = struct.Struct("<Q")


def splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64-mixed 64-bit hashes of an array of float values."""
    # +0.0 collapses -0.0 onto +0.0 so numerically equal values share a hash.
    normalized = np.asarray(values, dtype=np.float64) + 0.0
    bits = np.ascontiguousarray(normalized).view(np.uint64)
    with np.errstate(over="ignore"):
        mixed = bits.copy()
        mixed ^= mixed >> np.uint64(30)
        mixed *= _MIX_1
        mixed ^= mixed >> np.uint64(27)
        mixed *= _MIX_2
        mixed ^= mixed >> np.uint64(31)
    return mixed


def splitmix64_scalar(value: float) -> int:
    """:func:`splitmix64` of one value, as a Python int (no array round trip)."""
    (bits,) = _UINT64.unpack(_FLOAT64.pack(value + 0.0))
    bits ^= bits >> 30
    bits = (bits * _MULTIPLIERS[0]) & _MASK_64
    bits ^= bits >> 27
    bits = (bits * _MULTIPLIERS[1]) & _MASK_64
    return bits ^ (bits >> 31)
