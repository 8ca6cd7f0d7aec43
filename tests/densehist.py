"""Dense count arrays to and from the package's SumHistogram.

Tests written against a histogram as one count per bin go through these,
so each keeps its dense arrays and its comparisons with the oracles of
``reference``, which share no code with the package.
"""

import numpy as np

from ca_segment import SumHistogram


def sparse(counts):
    """The SumHistogram of a dense count array: its nonzero bins and length."""
    counts = np.asarray(counts, dtype=np.int64)
    bins = np.flatnonzero(counts)
    return SumHistogram(bins=bins, counts=counts[bins], size=counts.size)


def dense(hist):
    """One count per bin of the histogram's domain."""
    counts = np.zeros(hist.size, dtype=np.int64)
    counts[hist.bins] = hist.counts
    return counts
