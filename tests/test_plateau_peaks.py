"""Property tests: the run-based seeding helpers equal their dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densehist
import reference
from ca_segment import ContractError
from ca_segment.seeding import _run_peaks, _window_means, select_ranges


def as_runs(values):
    """The runs of equal neighbours of a dense signal: (starts, values)."""
    values = np.asarray(values)
    starts = np.flatnonzero(np.diff(values, prepend=np.nan) != 0)
    return starts, values[starts]


def dense(starts, values, length):
    return np.repeat(values, np.diff(np.append(starts, length)))


# runs of small integer levels, so equal neighbours and plateaus are common
runs = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), max_size=25)


@settings(max_examples=500, deadline=None)
@given(runs)
def test_plateau_peaks_match_loop_oracle(spec):
    values = np.array([v for v, n in spec for _ in range(n)], dtype=np.float64)
    starts, levels = as_runs(values)
    _, peaks = _run_peaks(starts, levels, values.size)
    assert peaks.tolist() == reference.plateau_peaks_by_loop(values)


# odd windows from 1 up to wider than the longest histogram drawn; zeros are
# common, so there are gaps between occupied bins
@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(0, 10**6) | st.just(0), min_size=1, max_size=60),
    st.integers(0, 40).map(lambda half: 2 * half + 1),
)
def test_smooth_matches_gather_oracle_bitwise(counts, window):
    hist = np.array(counts, dtype=np.int64)
    occupied = np.flatnonzero(hist)
    starts, means = _window_means(occupied, hist[occupied], hist.size, window)
    assert starts[0] == 0 and (means[1:] != means[:-1]).all()
    want = reference.smooth_by_gather(hist, window)
    assert dense(starts, means, hist.size).tobytes() == want.tobytes()


@st.composite
def sparse_histograms(draw):
    """A wide histogram of a few occupied bins, and a smoothing window.

    Neighbouring occupied bins are often exactly ``window`` apart, so their
    windows touch, or ``window + 1``, leaving one empty bin between them;
    occupied bins come in plateaus of equal counts, and the first and last
    bins of the domain are often occupied.
    """
    window = 2 * draw(st.integers(0, 15)) + 1
    gaps = st.sampled_from([window, window + 1]) | st.integers(1, 3 * window) | st.integers(1, 5000)
    blocks = draw(st.lists(st.tuples(gaps, st.integers(1, 60), st.integers(1, 4)), max_size=12))
    pos = draw(st.just(0) | st.integers(0, 5000))
    bins, counts = [], []
    for i, (gap, count, width) in enumerate(blocks):
        pos += gap if i else 0
        bins.extend(range(pos, pos + width))
        counts.extend([count] * width)
        pos += width - 1
    hist = np.zeros(pos + 1 + draw(st.just(0) | st.integers(0, 10000)), dtype=np.int64)
    hist[bins] = counts
    return hist, window


@settings(max_examples=80, deadline=None)
@given(
    sparse_histograms(),
    st.floats(0.01, 0.9),
    st.integers(1, 40),
    st.integers(1, 12),
    st.integers(1, 8),
)
def test_select_ranges_matches_scan_oracle_on_sparse_domains(
    case, prominence, min_separation, half_width, max_peaks
):
    hist, window = case
    params = (window, prominence, min_separation, half_width, max_peaks)
    if not hist.any():  # every pixel has a sum, so a histogram occupies some bin
        with pytest.raises(ContractError, match="at least one occupied bin"):
            densehist.sparse(hist)
        return
    got = select_ranges(densehist.sparse(hist), *params)
    assert [(r.lo, r.hi, r.peak) for r in got] == reference.select_ranges_by_scan(hist, *params)
