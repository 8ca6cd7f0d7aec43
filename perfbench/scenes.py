"""Seeded synthetic scenes with a known planted region map.

The region count and the region sizes are fixed by the workload; the seed
moves boundaries, picks the region spectra and draws the texture and the
noise. That keeps the work a scene asks for (capped medoids, segment
counts, histogram spread) nearly the same from seed to seed, so run-to-run
spread measures the program, not the dice. ``build`` returns the image as a
(height, width, bands) array, the planted region map and the bit depth;
``write_envi_bsq`` writes the image the way any ENVI tool would, so the
segmenter receives nothing but files.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree


def _voronoi(rng, height, width, rows, cols, jitter):
    """Region map of a ``rows`` x ``cols`` lattice of jittered centres."""
    cy, cx = height / rows, width / cols
    gy, gx = np.mgrid[0:rows, 0:cols]
    centres = np.stack([(gy + 0.5) * cy, (gx + 0.5) * cx], axis=-1).reshape(-1, 2)
    centres += rng.uniform(-jitter, jitter, centres.shape) * (cy, cx)
    yy, xx = np.mgrid[0:height, 0:width]
    _, region = cKDTree(centres).query(np.stack([yy.ravel(), xx.ravel()], axis=1))
    return region.reshape(height, width).astype(np.int32)


def _spread_means(rng, count, bands, lo, hi, min_dist, sum_gap, margin=0):
    """Region mean vectors in [lo, hi]: band sums on a shuffled ladder
    ``sum_gap`` apart, shapes drawn by seeded rejection until every pair is
    at least ``min_dist`` apart in spectral space. A positive ``margin``
    also keeps each mean that far from the balanced/dominant boundary of
    seeding's 0.1 spread rule and its top band that far above the second,
    so noise of less than margin / 2 per band cannot flip a pixel's
    spectral region and split the region between two labels."""
    centre = bands * (lo + hi) / 2
    ladder = np.rint(centre + (np.arange(count) - (count - 1) / 2) * sum_gap)
    if ladder[0] < bands * lo or ladder[-1] > bands * hi:
        raise ValueError("band-sum ladder does not fit the level range")
    means = []
    for total in rng.permutation(ladder).astype(np.int64):
        while True:
            v = total / bands + rng.uniform(-1, 1, bands) * (hi - lo) / 4
            v = np.rint(v - (v.sum() - total) / bands).astype(np.int64)
            v[0] += total - v.sum()
            top, second = np.sort(v)[::-1][:2]
            clear = not margin or (top - second >= margin and np.ptp(v) - 0.1 * v.mean() >= margin)
            if clear and v.min() >= lo and v.max() <= hi and all(
                np.linalg.norm(v - m) >= min_dist for m in means
            ):
                means.append(v)
                break
    return np.array(means, dtype=np.int64)


def _texture(rng, height, width, bands, sigma):
    """Smooth random field per band, scaled to a peak magnitude of 1."""
    field = rng.standard_normal((bands, height, width))
    field = np.stack([ndimage.gaussian_filter(f, sigma, mode="wrap") for f in field], axis=-1)
    return field / np.abs(field).max()


def planted_u8x4(seed, size=256, backgrounds=2, discs=3, radius=16, speck=8):
    """``backgrounds`` wavy vertical bands, each far above the medoid
    sample cap, with a ``discs`` x ``discs`` lattice of small discs on top;
    flat discs and gently ramped backgrounds plus uniform integer noise in
    [-5, 5]. Between the discs sit ``speck`` x ``speck`` squares painted
    with a disc's spectrum: they seed segments below the study scale, so
    every scene goes through one elimination round and a reconvergence.
    The region map counts them as the background they sit in."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    truth = np.zeros((size, size), dtype=np.int32)
    for k in range(1, backgrounds):
        edge = size * k / backgrounds + rng.uniform(-0.05, 0.05) * size
        edge = edge + 0.04 * size * np.sin(2 * np.pi * yy / size * rng.uniform(1, 2) + rng.uniform(0, 2 * np.pi))
        truth[xx >= edge] = k
    cell = size / discs
    for i in range(discs):
        for j in range(discs):
            cy, cx = (np.array([i, j]) + 0.5) * cell + rng.uniform(-0.15, 0.15, 2) * cell
            inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
            truth[inside] = backgrounds + i * discs + j
    means = _spread_means(rng, backgrounds + discs * discs, 4, 20, 235, 60, 50, margin=18)
    painted = truth.copy()
    for i in range(1, discs):
        for j in range(1, discs):
            r, c = int(i * cell) - speck // 2, int(j * cell) - speck // 2
            painted[r : r + speck, c : c + speck] = backgrounds + rng.integers(discs * discs)
    noise = rng.integers(-5, 6, (size, size, 4))
    # a top-to-bottom ramp of +-3 levels, up on band 0 and down on band 1,
    # gives the capped background medoids a position-dependent answer, so a
    # wrong subsample shows, while band sums and seeding stay as they were
    ramp = np.rint(6 * (yy / (size - 1) - 0.5)).astype(np.int64) * (truth < backgrounds)
    tilt = ramp[..., None] * np.array([1, -1, 0, 0])
    return (means[painted] + noise + tilt).astype(np.uint8), truth, 8


def sparse_u16x8(seed, height=96, width=128, rows=2, cols=4, patch=7, speck=3, amplitude=8000):
    """Strongly textured 16-bit regions whose band sums spread over tens of
    thousands of histogram bins, each holding one small flat patch below
    the textured sums with its own dominant band. The patches give the only
    histogram peaks the default 5-bin windows can select, so seeds are
    about 3 % of the pixels and each region is colonized by a wavefront
    from its patch. The centre of each patch is a ``speck`` x ``speck``
    square with the next patch's spectrum; walled in by full-strength
    seeds it stays below the study scale, so every scene goes through one
    elimination round and a reconvergence."""
    rng = np.random.default_rng(seed)
    truth = _voronoi(rng, height, width, rows, cols, jitter=0.1)
    means = _spread_means(rng, rows * cols, 8, 18000, 50000, 12000, 6000)
    tex = _texture(rng, height, width, 8, sigma=1.5) * amplitude
    data = means[truth] + np.rint(tex).astype(np.int64)
    count = rows * cols
    flats = 1500 + 600 * np.arange(count)[:, None] + 9000 * np.eye(count, 8, dtype=np.int64)
    for region in range(count):
        r, c = np.argwhere(truth == region).mean(axis=0).astype(int) - patch // 2
        data[r : r + patch, c : c + patch] = flats[region]
        s = patch // 2 - speck // 2
        data[r + s : r + s + speck, c + s : c + s + speck] = flats[(region + 1) % count]
        data[r : r + patch, c : c + patch] += rng.integers(-1, 2, (patch, patch, 8))
    return np.clip(data, 0, 65535).astype(np.uint16), truth, 16


SCENES = {
    "planted-u8x4": planted_u8x4,
    "sparse-u16x8": sparse_u16x8,
}


def build(workload, seed):
    """(image array, planted region map, bit depth) for one workload seed."""
    return SCENES[workload](seed)


def write_envi_bsq(data, depth, path):
    """Write ``path`` (payload) and ``path.hdr`` as little-endian ENVI BSQ."""
    h, w, n = data.shape
    dtype = "<u1" if depth == 8 else "<u2"
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(data.transpose(2, 0, 1)).astype(dtype).tobytes())
    with open(path + ".hdr", "w", encoding="utf-8") as fh:
        fh.write(
            f"ENVI\nsamples = {w}\nlines = {h}\nbands = {n}\n"
            f"data type = {1 if depth == 8 else 12}\ninterleave = bsq\nbyte order = 0\n"
        )
