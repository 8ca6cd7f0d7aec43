"""Post-convergence analysis of the label grid.

Segments are maximal connected components of equal nonzero label. The
scale filter nulls every segment smaller than the study scale and lets the
automaton recolonize the freed cells, repeating until the grid carries no
undersized segment. Each surviving segment is summarized by the member
pixel vector with the least total Euclidean distance to the rest of the
segment.

Extraction labels all values at once: row runs of equal label are linked
to touching equal runs one row down, and each root is hooked under the
smallest root it touches until no link crosses two roots. Run ids are
row-major, so a component's root, its smallest run, holds its first pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automaton import AutomatonGrid, NeighborhoodKind, run_to_convergence
from .errors import ContractError
from .raster import LabelRaster, MultibandImage


@dataclass
class Segment:
    """One connected same-label region; pixels are ascending flat indices."""

    id: int
    label: int
    pixels: np.ndarray
    area: int


@dataclass
class SegmentSet:
    """Segments plus the (height, width) map from pixel to segment id (0 = none)."""

    segments: list[Segment] = field(default_factory=list)
    seg_map: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.segments)

    def areas(self) -> np.ndarray:
        return np.array([s.area for s in self.segments], dtype=np.int64)


def _segment_ids(lab: np.ndarray, connectivity: NeighborhoodKind) -> np.ndarray:
    """Per-pixel segment ids (0 = null), numbered from 1 by first pixel."""
    h, w = lab.shape
    start = np.ones((h, w), dtype=bool)
    np.not_equal(lab[:, 1:], lab[:, :-1], out=start[:, 1:])
    run_of = np.cumsum(start.ravel()).reshape(h, w) - 1
    run_label = lab[start]

    # cell (r, c) links its run to the run at (r + 1, c + dc) when both
    # hold the same nonzero label; its left neighbour links the same two
    # runs unless one of them starts at this cell, so only those are kept
    dcs = (-1, 0, 1) if connectivity is NeighborhoodKind.MOORE8 else (0,)
    tops, bottoms = [], []
    for dc in dcs:
        tc = slice(max(0, -dc), w - max(0, dc))
        bc = slice(max(0, dc), w - max(0, -dc))
        top = lab[:-1, tc]
        link = (top == lab[1:, bc]) & (top != 0) & (start[:-1, tc] | start[1:, bc])
        tops.append(run_of[:-1, tc][link])
        bottoms.append(run_of[1:, bc][link])
    u = np.concatenate(tops)
    v = np.concatenate(bottoms)

    parent = np.arange(run_label.size)
    while u.size:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        u, v = u[cross], v[cross]
        # hooking under the smallest root merges all teeth of a comb in one
        # round; an arbitrary one of them would merge one tooth per round
        np.minimum.at(parent, np.maximum(ru, rv)[cross], np.minimum(ru, rv)[cross])
        while (parent[parent] != parent).any():
            parent = parent[parent]

    # counting roots in run order numbers components by first pixel
    is_root = (parent == np.arange(run_label.size)) & (run_label != 0)
    seg_of_run = np.where(run_label != 0, np.cumsum(is_root)[parent], 0)
    return seg_of_run.astype(np.uint32)[run_of]


def extract_segments(labels: LabelRaster, connectivity: NeighborhoodKind) -> SegmentSet:
    """Decompose the raster into connected components of equal nonzero label.

    Segment ids are assigned from 1 in row-major order of each component's
    first pixel, so extraction is deterministic.
    """
    lab = labels.labels
    seg_map = _segment_ids(lab, connectivity)

    flat = seg_map.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.cumsum(np.bincount(flat))
    flat_labels = lab.ravel()
    segments = []
    for sid in range(1, bounds.size):
        pixels = order[bounds[sid - 1] : bounds[sid]]
        segments.append(
            Segment(
                id=sid,
                label=int(flat_labels[pixels[0]]),
                pixels=pixels,
                area=int(pixels.size),
            )
        )
    return SegmentSet(segments=segments, seg_map=seg_map)


def null_small_segments(grid: AutomatonGrid, segs: SegmentSet, min_area: int):
    """Null every segment below ``min_area``; returns (grid, cleared segment count)."""
    if min_area < 1:
        raise ContractError("min_area must be >= 1")
    if segs.seg_map is not None and segs.seg_map.shape != grid.labels.shape:
        raise ContractError("segment set does not match the grid dimensions")
    freed = np.zeros(grid.labels.size, dtype=bool)
    cleared = 0
    for seg in segs.segments:
        if seg.area < min_area:
            freed[seg.pixels] = True
            cleared += 1
    return grid.nulled(freed.reshape(grid.labels.shape)), cleared


def eliminate_oversegmentation(
    grid: AutomatonGrid,
    weights,
    connectivity: NeighborhoodKind,
    min_area: int,
    max_iters: int,
    max_rounds: int = 5,
    threads: int = 1,
    segs: SegmentSet | None = None,
):
    """Repeat {null undersized, reconverge, extract} until the scale holds.

    ``weights`` are the automaton's planes from ``neighbor_weights`` and
    ``connectivity`` decides which cells form one segment. Requires at
    least one segment at or above ``min_area`` to regrow from. ``segs`` may
    carry the caller's extraction of ``grid`` so it is not labelled again.
    Returns (grid, rounds_used, cleared_per_round, segs), where ``segs`` is
    the extraction of the returned grid; a round only counts when it
    cleared something, so a clean grid reports 0 rounds.
    """
    if max_rounds < 1:
        raise ContractError("max_rounds must be >= 1")
    if segs is None:
        segs = extract_segments(LabelRaster(labels=grid.labels), connectivity)

    rounds_used = 0
    cleared_per_round = []
    for _ in range(max_rounds):
        if not segs.segments:
            raise ContractError("grid carries no labeled segments; nothing to grow from")
        small = [s for s in segs.segments if s.area < min_area]
        if not small:
            break
        if len(small) == len(segs.segments):
            raise ContractError(
                f"every segment is below min_area={min_area}; nothing to grow from "
                "(lower min_area or loosen the seeding parameters)"
            )
        grid, cleared = null_small_segments(grid, segs, min_area)
        grid, _, _ = run_to_convergence(grid, weights, max_iters, threads=threads)
        segs = extract_segments(LabelRaster(labels=grid.labels), connectivity)
        rounds_used += 1
        cleared_per_round.append(cleared)
    return grid, rounds_used, cleared_per_round, segs


# Bytes of distances per matmul: 32 rows of a 4 096-member segment.
_BLOCK_BYTES = 1024 * 1024
# Segments with fewer members skip the bounds and compute every row:
# bounded, 8-band 16-bit textured segments of 1 339 to 1 773 members still
# computed 70 to 100 % of their rows and 4-band discs of 800 about half,
# and they took up to 1.4 and 1.3 times as long as with no bounds.
_PRUNE_MIN_ROWS = 2048
# Bounds stop being updated after a batch that newly prunes fewer members
# than this share of its own row count.
_PRUNE_MIN_YIELD = 0.75


def _distance_rows(left, right_t, rows):
    """Distances from the members ``rows`` to every member, and their sums.

    Each row of the result is a C-contiguous array of length m, so its
    sum does not depend on which batch or block computes it.
    """
    dist = left[rows] @ right_t
    np.sqrt(dist, out=dist)
    return dist, dist.sum(axis=1)


def _bounded_rows(left, right_t, vectors, sums, block, slack):
    """Compute rows in batches while their bounds prune; return the rows left.

    Fills ``sums`` at each computed row. A member is dropped once its
    lower bound on the mean distance exceeds the best mean so far plus
    ``slack``, so the rows returned are the members not yet computed
    whose sums may still equal the minimum.
    """
    m = sums.size
    bound = np.zeros(m)
    live = np.ones(m, dtype=bool)
    near = ((vectors - vectors.mean(axis=0)) ** 2).sum(axis=1)
    batch = np.argpartition(near, block - 1)[:block]
    first = True
    while True:
        dist, sums[batch] = _distance_rows(left, right_t, batch)
        live[batch] = False
        before = np.count_nonzero(live)
        # S(i)/m - d(i, j) <= S(j)/m by the triangle inequality
        np.subtract((sums[batch] / m)[:, None], dist, out=dist)
        np.maximum(bound, dist.max(axis=0), out=bound)
        live &= ~(bound > sums.min() / m + slack)
        rest = np.flatnonzero(live)
        if rest.size == 0 or (not first and before - rest.size < _PRUNE_MIN_YIELD * batch.size):
            return rest
        first = False
        batch = rest
        if rest.size > block:
            batch = rest[np.argpartition(bound[rest], block - 1)[:block]]


def medoid_signature(image: MultibandImage, pixels, sample_cap: int = 4096) -> np.ndarray:
    """Member vector minimizing the summed Euclidean distance to the segment.

    Ties break toward the lowest pixel index. Segments larger than
    ``sample_cap`` are reduced to a deterministic evenly strided subsample
    of exactly ``sample_cap`` members before the quadratic scan.

    Each block of squared distances is one matmul over augmented vectors,
    [-2a, |a|², 1] · [b, 1, |b|²]ᵀ = |a|² + |b|² − 2·a·b. This is exact:
    samples are integers of at most 16 bits, so every term is an integer
    and every partial sum is bounded by the sum of the terms' magnitudes,
    |a|² + |b|² + 2·|a·b| ≤ 4·bands·(2^depth − 1)², which stays below 2⁵³
    for any band count under about 5·10⁵, whatever order BLAS sums them
    in. The correctly rounded square root then matches the direct
    difference form bit for bit. Each row of distances is a C-contiguous
    array of length m summed with ``sum(axis=1)``; numpy's pairwise
    summation depends on that layout, so the sums, and the argmin on a
    tie, are fixed by it.

    Segments of at least ``_PRUNE_MIN_ROWS`` members skip the rows that
    cannot hold the minimum, as trimed does (Newling & Fleuret, AISTATS
    2017). With S(j) the distance sum of member j, the triangle
    inequality gives S(j)/m ≥ S(i)/m − d(i, j) for every computed row i,
    and the largest such value is kept as a lower bound on each member.
    Rows are computed in batches of one block: first the members nearest
    the band-wise mean, then the live members with the lowest bounds. A
    member is dropped only when its bound is strictly greater than the
    best sum so far divided by m plus a slack of
    8·(m + 2)·2⁻⁵²·√bands·(2^depth − 1). With D = √bands·(2^depth − 1),
    the largest distance, the computed sums, roots and quotients that the
    test compares are off by at most about (2m + 5)·2⁻⁵³·D in all, under a
    seventh of the slack, so a dropped member's computed sum is strictly
    greater than the best. Once a batch after the first drops fewer
    members than ``_PRUNE_MIN_YIELD`` of its own row count, the bounds
    stop and the live members left are computed in blocks. Every
    computed row is the row described above, and every member whose sum
    could equal the minimum is computed, so the argmin, lowest index
    first, is the one over all m rows.
    """
    idx = np.asarray(pixels, dtype=np.int64)
    if idx.size == 0:
        raise ContractError("medoid of an empty pixel list")
    if sample_cap < 1:
        raise ContractError("sample_cap must be >= 1")
    idx = np.sort(idx)
    if idx.size > sample_cap:
        take = (np.arange(sample_cap, dtype=np.int64) * idx.size) // sample_cap
        idx = idx[take]

    flat = image.data.reshape(-1, image.bands)
    vectors = flat[idx].astype(np.float64)
    m = vectors.shape[0]
    norms = (vectors * vectors).sum(axis=1)[:, None]
    ones = np.ones((m, 1), dtype=np.float64)
    left = np.hstack((-2.0 * vectors, norms, ones))
    right_t = np.hstack((vectors, ones, norms)).T
    sums = np.full(m, np.inf)
    block = max(1, min(m, _BLOCK_BYTES // (8 * m)))
    rest = np.arange(m)
    if m >= _PRUNE_MIN_ROWS:
        slack = 8 * (m + 2) * 2.0**-52 * np.sqrt(image.bands) * image.max_level
        rest = _bounded_rows(left, right_t, vectors, sums, block, slack)
    for start in range(0, rest.size, block):
        rows = rest[start : start + block]
        _, sums[rows] = _distance_rows(left, right_t, rows)
    best = int(np.argmin(sums))  # first minimum = lowest pixel index
    return flat[idx[best]].copy()
