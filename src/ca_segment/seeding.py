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


@dataclass
class SumHistogram:
    """The histogram of per-pixel band sums, as its occupied bins.

    ``bins`` holds the band sums that occur, in ascending order, and
    ``counts`` how many pixels have each; ``size`` is the domain's bin
    count, bands * (2**depth - 1) + 1, so every bin lies in [0, size).
    """

    bins: np.ndarray
    counts: np.ndarray
    size: int

    def __post_init__(self):
        self.bins = bins = np.asarray(self.bins)
        self.counts = counts = np.asarray(self.counts)
        if bins.ndim != 1 or bins.size == 0:
            raise ContractError("histogram must have at least one occupied bin")
        if counts.shape != bins.shape:
            raise ContractError(f"{counts.size} counts for {bins.size} bins")
        if (bins[1:] <= bins[:-1]).any():
            raise ContractError("histogram bins must be strictly ascending")
        if bins[0] < 0 or bins[-1] >= self.size:
            raise ContractError(f"histogram bins outside [0, {self.size})")
        if counts.min() < 1:
            raise ContractError("histogram counts must be >= 1")


def compute_sum_histogram(image: MultibandImage) -> SumHistogram:
    """Count occurrences of each per-pixel band sum.

    The band planes are summed in ``image.sum_dtype()`` into one buffer,
    sorted in place and cut into runs of equal sums: O(p log p) in the p
    pixels, and no array spans the domain, whose size the image geometry
    fixes (524 281 bins for 8 bands of 16 bits). The counts total w * h.
    """
    size = image.bands * image.max_level + 1
    sums = image.planes.sum(axis=0, dtype=image.sum_dtype()).ravel()
    sums.sort()
    ends = np.append(np.flatnonzero(sums[1:] != sums[:-1]) + 1, sums.size)  # of the runs of equal sums
    return SumHistogram(bins=sums[ends - 1], counts=np.diff(ends, prepend=0), size=size)


def _window_means(occupied, counts, length, window):
    """The centered moving average of a histogram, as runs of equal means.

    ``occupied`` holds the histogram's nonzero bins in ascending order,
    ``counts`` their counts and ``length`` its bin count. The window
    shrinks at the domain edges, so the denominator only counts bins that
    exist. Returns ``(starts, means)``: the bins from ``starts[i]`` up to
    the next start (or the domain end) all have the mean ``means[i]``, and
    neighbouring runs differ; the first run starts at bin 0.

    A window sum changes only where an occupied bin enters the window,
    ``half`` bins before it, or leaves it, ``half + 1`` bins after it, and
    the denominator only within ``half`` bins of an edge, so only those
    bins can start a run. The sums are exact integers, so each mean is the
    same quotient the float cumulative sums of a dense average gave.
    """
    half = min(window // 2, length)  # a wider window covers the domain all the same
    index = np.int32 if length < 2**30 else np.int64  # bins, and sums of two bins, fit
    occupied = occupied.astype(index, copy=False)
    k = occupied.size
    leave = occupied.searchsorted(length - half - 1)  # bins that leave inside the domain
    at = np.concatenate((
        np.maximum(occupied - half, 0),
        occupied[:leave] + (half + 1),
        np.arange(min(half + 1, length), dtype=index),
        np.arange(max(length - half, 0), length, dtype=index),
    ))
    step = np.zeros(at.size, dtype=np.int64)
    step[:k] = counts
    np.negative(counts[:leave], out=step[k : k + leave])
    order = at.argsort(kind="stable")
    at = at[order]
    sums = step[order].cumsum()
    # each bin's sum is the running sum after its last step
    last = np.empty(at.size, dtype=bool)
    last[-1] = True
    np.not_equal(at[1:], at[:-1], out=last[:-1])
    last = last.nonzero()[0]
    starts = at[last]
    width = np.minimum(starts + half, length - 1) - np.maximum(starts - half, 0) + 1
    means = sums[last] / width
    differ = np.empty(means.size, dtype=bool)
    differ[0] = True
    np.not_equal(means[1:], means[:-1], out=differ[1:])
    differ = differ.nonzero()[0]
    return starts[differ], means[differ]


def _run_peaks(starts, values, length):
    """Local maxima of a signal given as runs; one middle bin per run.

    The run ``i`` covers bins ``starts[i]`` up to the next start (or
    ``length``) and holds ``values[i]``; neighbouring runs differ. A run
    qualifies when every existing outside neighbour is strictly smaller;
    a run covering the whole domain (flat signal) never does. Returns the
    qualifying runs' indices and middle bins (lower-middle for even runs),
    so a smoothed spike stays centered on its source bin.
    """
    if starts.size < 2:  # one run spans the whole domain
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_ok = np.concatenate(([True], values[:-1] < values[1:]))
    right_ok = np.concatenate((values[1:] < values[:-1], [True]))
    runs = np.flatnonzero(left_ok & right_ok)
    ends = np.append(starts[1:], length) - 1
    return runs, (starts[runs] + ends[runs]) // 2


def select_ranges(
    hist: SumHistogram,
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

    A smoothed value is nonzero only within ``smooth_window // 2`` bins of
    an occupied bin, and between the bins where an occupied bin enters or
    leaves the window it is constant. So the smoothed histogram is built
    from the occupied bins as runs of equal values, zero runs filling the
    gaps between them, and the peaks are found among those runs. The cost
    is O(k log k + smooth_window) in the k occupied bins, so O(p log p)
    at most in the p pixels, never O(bins): a 16-bit, 8-band histogram
    has 524 281 bins, of which a scene may occupy a few percent.
    """
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ContractError("smooth_window must be a positive odd bin count")
    if not 0.0 < prominence_frac < 1.0:
        raise ContractError("prominence_frac must be in (0, 1)")
    if min_separation < 1 or half_width < 1 or max_peaks < 1:
        raise ContractError("min_separation, half_width and max_peaks must be positive")

    length = hist.size
    starts, means = _window_means(hist.bins, hist.counts, length, smooth_window)
    runs, peaks = _run_peaks(starts, means, length)
    tall = means[runs] >= prominence_frac * means.max()
    candidates, heights = peaks[tall], means[runs[tall]]

    last = length - 1
    if candidates.size == 0:
        return [SumRange(0, last, int(starts[means.argmax()]))]

    # tallest first, ties toward the lower sum (candidates ascend); an
    # acceptance never depends on later candidates, so the scan stops once
    # max_peaks are accepted
    order = np.argsort(-heights, kind="stable")
    accepted = {}  # peak bin -> smoothed height
    for i in order:
        p = int(candidates[i])
        if all(abs(p - q) >= min_separation for q in accepted):
            accepted[p] = float(heights[i])
            if len(accepted) == max_peaks:
                break

    ranges = sorted(
        (max(0, p - half_width), min(last, p + half_width), p) for p in accepted
    )
    merged = [ranges[0]]
    for lo, hi, peak in ranges[1:]:
        mlo, mhi, mpeak = merged[-1]
        if lo <= mhi:
            if (accepted[peak], -peak) > (accepted[mpeak], -mpeak):
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
    both axes. A pixel whose band sum, in ``image.sum_dtype()``, falls in
    one of the (disjoint) ranges gets the id of its (range index, spectral
    region) key in the seed raster; ids are assigned consecutively from 1
    in first-encounter order.
    """
    if stride < 1:
        raise ContractError("stride must be >= 1")
    ordered = _validate_ranges(ranges)

    n = image.bands
    top = n * image.max_level  # the largest possible sum
    sums = image.planes[:, ::stride, ::stride].sum(axis=0, dtype=image.sum_dtype())

    # ranges starting above every sum are a suffix of the ordered ones and
    # match nothing; the others, clipped to the domain, fit the sums' dtype
    live = [r for r in ordered if r.lo <= top]
    lo = np.array([max(r.lo, 0) for r in live], dtype=sums.dtype)
    hi = np.array([-1] + [min(r.hi, top) for r in live], dtype=sums.dtype)
    after = lo.searchsorted(sums, side="right")  # 1 + the index of the last range with lo <= sum
    rows, cols = np.nonzero(sums <= hi[after])  # row-major scan order; hi[0] = -1 matches no sum
    region = classify_spectral_region(image.planes[:, rows * stride, cols * stride].T, delta_rel)
    codes = (after[rows, cols] - 1) * (n + 1) + (region + 1)

    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.uint32)
    rank[by_first] = np.arange(1, len(uniq) + 1)
    labels = np.zeros((image.height, image.width), dtype=np.uint32)
    labels[rows * stride, cols * stride] = rank[inverse]
    keys = [(int(code) // (n + 1), int(code) % (n + 1) - 1) for code in uniq[by_first]]
    return SeedMap(labels=labels, keys=keys)
