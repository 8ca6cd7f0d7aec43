"""Unsupervised construction of the automaton's initial state.

Seeds are chosen by brightness and spectral shape: the histogram of
per-pixel band sums is scanned for representative sum ranges around its
local maxima, pixels falling in a range are classified as spectrally
balanced or dominated by one band, and every occupied (range, region)
combination becomes one label. The seeds are a label raster, the
automaton's initial labels: each seed pixel holds its label's id and every
other pixel 0. Every rule here is deterministic; ties always resolve
toward the lowest index or sum value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .raster import LabelRaster, MultibandImage

#: Spectral-region code for pixels whose bands carry similar digital levels.
#: Dominant regions are coded by the dominating band index (0-based), so an
#: N-band image has N + 1 possible regions.
BALANCED = -1


@dataclass(frozen=True)
class SumRange:
    """An inclusive band-sum interval grown around one histogram peak."""

    lo: int
    hi: int
    peak: int

    def __post_init__(self):
        if not (self.lo <= self.peak <= self.hi):
            raise ContractError(f"range peak {self.peak} outside [{self.lo}, {self.hi}]")


@dataclass
class SeedMap:
    """The seed raster and the (range index, spectral region) key of each id.

    ``labels`` is a (height, width) uint32 raster holding each seed's id and
    0 where there is no seed; ``keys[i - 1]`` is the key of id i. Ids are
    consecutive from 1 in order of first encounter during the row-major
    scan, and only the keys that actually occur get ids.
    """

    labels: np.ndarray
    keys: list

    def __post_init__(self):
        LabelRaster(labels=self.labels)  # a seed raster is a label raster: 2-D uint32
        top = int(self.labels.max(initial=0))
        if top > len(self.keys):
            raise ContractError(f"seed id {top} has no key")

    def __len__(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def label_count(self) -> int:
        return len(self.keys)


def region_name(region) -> str:
    return "balanced" if region == BALANCED else f"band{region}"


def compute_sum_histogram(image: MultibandImage) -> np.ndarray:
    """Count occurrences of each per-pixel band sum.

    The returned array spans the full representable domain
    [0, bands * (2**depth - 1)], so its length is fixed by the image
    geometry and the counts total width * height.
    """
    sums = np.zeros((image.height, image.width), dtype=np.int64)
    for band in range(image.bands):
        sums += image.data[:, :, band]
    domain = image.bands * image.max_level + 1
    return np.bincount(sums.ravel(), minlength=domain).astype(np.int64, copy=False)


def _smooth(counts, window):
    # centered moving average over an odd window; the window shrinks at the
    # domain edges so the denominator only counts bins that exist. Interior
    # bins take one in-place slice of the prefix sums (a 16-bit histogram's
    # temporaries are megabytes); only the 2 * half edge bins need clipping.
    half = window // 2
    n = len(counts)
    csum = np.zeros(n + 1, dtype=np.float64)
    np.cumsum(counts, dtype=np.float64, out=csum[1:])
    out = np.empty(n, dtype=np.float64)
    np.subtract(csum[window:], csum[:-window], out=out[half : n - half])
    out[half : n - half] /= window
    edge = np.concatenate((np.arange(min(half, n)), np.arange(max(half, n - half), n)))
    lo = np.maximum(edge - half, 0)
    hi = np.minimum(edge + half, n - 1)
    out[edge] = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    return out


def _plateau_peaks(smoothed):
    """Indices of local maxima, one per maximal run of equal values.

    A run qualifies when every existing outside neighbor is strictly
    smaller; a run covering the whole domain (flat signal) never does.
    The reported index is the run's middle bin (lower-middle for even
    runs), so a smoothed spike stays centered on its source bin.
    """
    s = np.asarray(smoothed)
    change = np.flatnonzero(s[1:] != s[:-1])
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [s.size - 1]))
    if starts.size < 2:  # one run spans the whole domain
        return np.empty(0, dtype=np.int64)
    vals = s[starts]
    # neighbouring runs differ, so a run's outside neighbours are the values
    # of the runs before and after it
    left_ok = np.concatenate(([True], vals[:-1] < vals[1:]))
    right_ok = np.concatenate((vals[1:] < vals[:-1], [True]))
    keep = left_ok & right_ok
    return (starts[keep] + ends[keep]) // 2


def select_ranges(
    hist: np.ndarray,
    smooth_window: int = 5,
    prominence_frac: float = 0.05,
    min_separation: int = 10,
    half_width: int = 5,
    max_peaks: int = 8,
) -> list[SumRange]:
    """Pick representative band-sum ranges at local maxima of the histogram.

    The counts are smoothed with a centered moving average, plateau-aware
    local maxima at least ``prominence_frac`` of the global smoothed maximum
    are collected, peaks closer than ``min_separation`` bins to a taller
    accepted peak are dropped (ties keep the lower sum), at most
    ``max_peaks`` tallest survive, and each survivor grows to
    ``peak +- half_width`` clamped to the domain. Overlapping ranges merge,
    keeping the taller constituent's peak. If no peak qualifies the whole
    domain is returned as a single range.
    """
    counts = np.asarray(hist, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ContractError("histogram must be a non-empty 1-D array")
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ContractError("smooth_window must be a positive odd bin count")
    if not 0.0 < prominence_frac < 1.0:
        raise ContractError("prominence_frac must be in (0, 1)")
    if min_separation < 1 or half_width < 1 or max_peaks < 1:
        raise ContractError("min_separation, half_width and max_peaks must be positive")

    smoothed = _smooth(counts, smooth_window)
    floor = prominence_frac * smoothed.max()
    peaks = _plateau_peaks(smoothed)
    candidates = peaks[smoothed[peaks] >= floor]

    last = len(counts) - 1
    if candidates.size == 0:
        top = int(np.argmax(smoothed))
        return [SumRange(0, last, top)]

    # tallest first, ties toward the lower sum; an acceptance never depends
    # on later candidates, so the scan stops once max_peaks are accepted
    candidates = candidates[np.lexsort((candidates, -smoothed[candidates]))]
    accepted = []
    for p in candidates.tolist():
        if all(abs(p - q) >= min_separation for q in accepted):
            accepted.append(p)
            if len(accepted) == max_peaks:
                break

    ranges = sorted(
        (max(0, p - half_width), min(last, p + half_width), p) for p in accepted
    )
    merged = [ranges[0]]
    for lo, hi, peak in ranges[1:]:
        mlo, mhi, mpeak = merged[-1]
        if lo <= mhi:
            if (smoothed[peak], -peak) > (smoothed[mpeak], -mpeak):
                mpeak = peak
            merged[-1] = (mlo, max(mhi, hi), mpeak)
        else:
            merged.append((lo, hi, peak))
    return [SumRange(lo, hi, peak) for lo, hi, peak in merged]


def classify_spectral_region(v, delta_rel: float = 0.1):
    """Classify pixel vectors as BALANCED or by their dominating band.

    The vector runs along the last axis of ``v``; a 1-D vector gives an
    int, a stack of vectors an int64 array of their regions. Balanced
    means the spread max - min stays within ``delta_rel`` times the mean
    level; otherwise the lowest band index attaining the maximum wins. An
    all-zero vector is balanced.
    """
    levels = np.asarray(v).astype(np.int64, copy=False)
    if levels.ndim < 1 or levels.shape[-1] < 1:
        raise ContractError("spectral vector must have at least one band")
    if delta_rel < 0:
        raise ContractError("delta_rel must be >= 0")
    spread = levels.max(axis=-1) - levels.min(axis=-1)
    mean = levels.sum(axis=-1) / levels.shape[-1]
    region = np.where(spread <= delta_rel * mean, BALANCED, levels.argmax(axis=-1))
    return int(region) if region.ndim == 0 else region


def _validate_ranges(ranges):
    if not ranges:
        raise ContractError("at least one sum range is required")
    ordered = sorted(ranges, key=lambda r: r.lo)
    for a, b in zip(ordered, ordered[1:]):
        if b.lo <= a.hi:
            raise ContractError(f"ranges overlap: [{a.lo},{a.hi}] and [{b.lo},{b.hi}]")
    return ordered


def generate_seeds(
    image: MultibandImage,
    ranges,
    delta_rel: float = 0.1,
    stride: int = 1,
) -> SeedMap:
    """Place a seed on every in-range pixel of the subsampled lattice.

    Pixels are visited in row-major order, subsampled by ``stride`` along
    both axes. A pixel whose band sum falls in one of the (disjoint) ranges
    gets the id of its (range index, spectral region) key in the seed
    raster; ids are assigned consecutively from 1 in first-encounter order.
    """
    if stride < 1:
        raise ContractError("stride must be >= 1")
    ordered = _validate_ranges(ranges)

    data = image.data[::stride, ::stride]
    n = image.bands
    sums = data.sum(axis=2, dtype=np.int64)

    range_idx = np.full(sums.shape, -1, dtype=np.int64)
    for i, r in enumerate(ordered):
        inside = (sums >= r.lo) & (sums <= r.hi)
        range_idx[inside] = i

    rows, cols = np.nonzero(range_idx >= 0)  # row-major scan order
    region = classify_spectral_region(data[rows, cols], delta_rel)
    codes = range_idx[rows, cols] * (n + 1) + (region + 1)

    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.uint32)
    rank[by_first] = np.arange(1, len(uniq) + 1)
    labels = np.zeros((image.height, image.width), dtype=np.uint32)
    labels[rows * stride, cols * stride] = rank[inverse]
    keys = [(int(code) // (n + 1), int(code) % (n + 1) - 1) for code in uniq[by_first]]
    return SeedMap(labels=labels, keys=keys)
