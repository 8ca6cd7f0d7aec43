"""Property test: the run-length peak scan equals the loop oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ca_segment.seeding import _plateau_peaks

# runs of small integer levels, so equal neighbours and plateaus are common
runs = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), max_size=25)


@settings(max_examples=500, deadline=None)
@given(runs)
def test_plateau_peaks_match_loop_oracle(spec):
    values = np.array([v for v, n in spec for _ in range(n)], dtype=np.float64)
    assert _plateau_peaks(values).tolist() == reference.plateau_peaks_by_loop(values)
