"""Property tests: the vectorised seeding helpers equal their oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ca_segment.seeding import _plateau_peaks, _smooth

# runs of small integer levels, so equal neighbours and plateaus are common
runs = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), max_size=25)


@settings(max_examples=500, deadline=None)
@given(runs)
def test_plateau_peaks_match_loop_oracle(spec):
    values = np.array([v for v, n in spec for _ in range(n)], dtype=np.float64)
    assert _plateau_peaks(values).tolist() == reference.plateau_peaks_by_loop(values)


# odd windows from 1 up to wider than the longest histogram drawn
@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
    st.integers(0, 40).map(lambda half: 2 * half + 1),
)
def test_smooth_matches_gather_oracle_bitwise(counts, window):
    hist = np.array(counts, dtype=np.int64)
    got = _smooth(hist, window)
    want = reference.smooth_by_gather(hist, window)
    assert got.tobytes() == want.tobytes()
