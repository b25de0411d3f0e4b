"""The segmented KMV build equals one ``update_array`` per segment, bit for bit.

:meth:`DistinctSketch.from_segments` is how the builder makes every leaf's
distinct-count sketch.  Hypothesis draws the segments: each is a number of
distinct values (below, at and above ``k``, or none) flooded with
duplicates, ``-0.0`` / ``+0.0`` pairs and NaNs, shuffled; the comparison is
on ``to_arrays()`` — the ``hashes`` dtype, shape and contents and the
``state`` — against a fresh sketch fed the segment alone.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import DistinctSketch


@st.composite
def segment_shape(draw, k: int) -> tuple[int, int, int, bool]:
    """(distinct values, duplicates, NaNs, signed zeros) of one segment."""
    distinct = draw(
        st.sampled_from([0, 1, 2, k - 1, k, k + 1, 2 * k + 3])
        | st.integers(min_value=0, max_value=k + 5)
    )
    duplicates = draw(st.sampled_from([0, 1, 3 * k]) | st.integers(0, 40))
    nans = draw(st.sampled_from([0, 0, 1, 7]))
    zeros = draw(st.booleans())
    return distinct, duplicates, nans, zeros


def _segment(rng: np.random.Generator, shape: tuple[int, int, int, bool]):
    distinct, duplicates, nans, zeros = shape
    grid = np.arange(-5 * distinct - 5, 5 * distinct + 5) * 0.25
    pool = rng.choice(grid, distinct, replace=False)
    parts = [pool]
    if distinct and duplicates:
        parts.append(rng.choice(pool, duplicates))
    parts.append(np.full(nans, np.nan))
    if zeros:
        parts.append(np.array([-0.0, 0.0, -0.0]))
    values = np.concatenate(parts)
    rng.shuffle(values)
    return values


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    k=st.sampled_from([16, 1024]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_from_segments_matches_one_sketch_per_segment(data, k, seed):
    shapes = data.draw(st.lists(segment_shape(k), min_size=1, max_size=6))
    rng = np.random.default_rng(seed)
    segments = [_segment(rng, shape) for shape in shapes]
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([segment.shape[0] for segment in segments], out=offsets[1:])

    built = DistinctSketch.from_segments(np.concatenate(segments), offsets, k)

    assert len(built) == len(segments)
    for sketch, segment in zip(built, segments):
        alone = DistinctSketch(k)
        alone.update_array(segment)
        got, want = sketch.to_arrays(), alone.to_arrays()
        assert got["hashes"].dtype == want["hashes"].dtype
        assert got["hashes"].shape == want["hashes"].shape
        assert got["hashes"].tobytes() == want["hashes"].tobytes()
        assert got["state"].dtype == want["state"].dtype
        assert got["state"].tolist() == want["state"].tolist()


def test_from_segments_covers_saturation_and_empty_segments():
    k = 16
    segments = [
        np.arange(k - 1, dtype=float),
        np.full(5, np.nan),
        np.zeros(0),
        np.arange(k, dtype=float),
        np.repeat(np.arange(k + 1, dtype=float), 3),
    ]
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([segment.shape[0] for segment in segments], out=offsets[1:])
    built = DistinctSketch.from_segments(np.concatenate(segments), offsets, k)
    assert [sketch.is_exact for sketch in built] == [True, True, True, True, False]
    assert [sketch.estimate() for sketch in built[:4]] == [k - 1, 0.0, 0.0, k]
    assert built[4].to_arrays()["hashes"].shape == (k,)
