"""Post-convergence analysis of the label grid.

Segments are maximal connected components of equal nonzero label. The
scale filter nulls every segment smaller than the study scale and lets the
automaton recolonize the freed cells, repeating until the grid carries no
undersized segment. Each surviving segment is summarized by the member
pixel vector with the least total Euclidean distance to the rest of the
segment.

A segment is its row runs: the ascending flat starts and the lengths of
the maximal same-label stretches of one row that it holds. Extraction
finds the nonzero runs in one pass over the pixels and links each run to
the equal runs it touches one row up, then hooks each root under the
smallest root it touches until no link crosses two roots. Run ids are
row-major, so a component's root, its smallest run, holds its first pixel.
No per-pixel map of segment ids is kept; ``SegmentSet.id_raster`` paints
one on demand.

A segment's signature is its medoid. Only the rows of distances that could
hold the least sum are computed: a second-order bound around a Weiszfeld
point bounds every member's sum before the first row, and the tangent
planes of computed rows refine it. ``medoid_signature`` derives both bounds
and the rounding slack that keeps the result exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import AutomatonGrid, NeighborhoodKind, run_to_convergence
from .errors import ContractError
from .raster import LabelRaster, MultibandImage


@dataclass
class Segment:
    """One connected same-label region as its row runs.

    ``starts`` holds the ascending flat indices where its runs begin and
    ``lengths`` their lengths; a run never leaves its row.
    """

    id: int
    label: int
    starts: np.ndarray
    lengths: np.ndarray

    @property
    def area(self) -> int:
        return int(self.lengths.sum())


def _members_at(starts, lengths, places):
    """Flat indices of the members at ``places`` counted through the runs in order."""
    ends = np.cumsum(lengths)
    run = np.searchsorted(ends, places, side="right")
    return starts[run] + places - (ends[run] - lengths[run])


@dataclass
class SegmentSet:
    """The segments of a raster of ``shape`` (height, width), in id order."""

    segments: list[Segment]
    shape: tuple[int, int]

    def __len__(self) -> int:
        return len(self.segments)

    def id_raster(self) -> np.ndarray:
        """Paint the uint32 raster of segment ids, 0 outside every segment."""
        # each run adds its id where it starts and takes it back where it ends
        marks = np.zeros(int(np.prod(self.shape)) + 1, dtype=np.int64)
        for seg in self.segments:
            marks[seg.starts] += seg.id
            marks[seg.starts + seg.lengths] -= seg.id
        return np.cumsum(marks[:-1]).astype(np.uint32).reshape(self.shape)


def _row_runs(lab: np.ndarray):
    """Flat starts, lengths and labels of the nonzero row runs, ascending."""
    h, w = lab.shape
    start = np.ones((h, w), dtype=bool)
    np.not_equal(lab[:, 1:], lab[:, :-1], out=start[:, 1:])
    starts = np.flatnonzero(start)
    lengths = np.diff(starts, append=h * w)
    labels = lab.reshape(-1)[starts]
    keep = labels != 0
    return starts[keep], lengths[keep], labels[keep]


def _links(starts, lengths, labels, w: int, connectivity: NeighborhoodKind):
    """(upper, lower) run pairs of equal label that touch across a row.

    The runs a run touches one row up overlap its columns, widened by one
    on each side under Moore connectivity but never past its own row's
    ends, so no link wraps from column w − 1 to column 0. Runs ascend and
    are disjoint, so the touched runs are the contiguous range of those
    ending after its first touched cell and starting before its last.
    """
    reach = 1 if connectivity is NeighborhoodKind.MOORE8 else 0
    ends = starts + lengths
    row_start = starts - starts % w
    lo = np.maximum(starts - w - reach, row_start - w)
    hi = np.minimum(ends - w + reach, row_start)
    first = np.searchsorted(ends, lo, side="right")
    count = np.maximum(np.searchsorted(starts, hi, side="left") - first, 0)
    lower = np.repeat(np.arange(starts.size), count)
    upper = np.arange(lower.size) - np.repeat(np.cumsum(count) - count - first, count)
    same = labels[upper] == labels[lower]
    return upper[same], lower[same]


def extract_segments(labels: LabelRaster, connectivity: NeighborhoodKind) -> SegmentSet:
    """Decompose the raster into connected components of equal nonzero label.

    Segment ids are assigned from 1 in row-major order of each component's
    first pixel, so extraction is deterministic.
    """
    lab = labels.labels
    starts, lengths, run_label = _row_runs(lab)
    u, v = _links(starts, lengths, run_label, lab.shape[1], connectivity)

    parent = np.arange(starts.size)
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
    seg_of_run = np.cumsum(parent == np.arange(starts.size))[parent]
    order = np.argsort(seg_of_run, kind="stable")
    bounds = np.cumsum(np.bincount(seg_of_run))
    segments = []
    for sid in range(1, bounds.size):
        runs = order[bounds[sid - 1] : bounds[sid]]
        segments.append(Segment(
            id=sid, label=int(run_label[runs[0]]), starts=starts[runs], lengths=lengths[runs]
        ))
    return SegmentSet(segments=segments, shape=lab.shape)


def null_small_segments(grid: AutomatonGrid, segs: SegmentSet, min_area: int) -> int:
    """Null every segment below ``min_area`` in place; returns how many it cleared.

    A refused call, or one with nothing to clear, writes nothing.
    """
    if min_area < 1:
        raise ContractError("min_area must be >= 1")
    if segs.shape != grid.labels.shape:
        raise ContractError("segment set does not match the grid dimensions")
    small = [seg for seg in segs.segments if seg.area < min_area]
    if small:
        runs = np.concatenate([(seg.starts, seg.lengths) for seg in small], axis=1)
        freed = np.zeros(grid.labels.size, dtype=bool)
        freed[_members_at(*runs, np.arange(runs[1].sum()))] = True
        grid.null(freed.reshape(grid.labels.shape))
    return len(small)


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
    cleared something, so a clean grid reports 0 rounds. Like
    ``run_to_convergence``, it overwrites its grid; a round that refuses
    writes nothing.
    """
    if max_rounds < 1:
        raise ContractError("max_rounds must be >= 1")
    if segs is None:
        segs = extract_segments(LabelRaster(labels=grid.labels), connectivity)

    cleared_per_round = []
    for _ in range(max_rounds):
        # checked every round: after a capped colonization a round can
        # change cells it did not free, and shrink the segments to regrow from
        if all(seg.area < min_area for seg in segs.segments):
            raise ContractError(
                f"every segment is below min_area={min_area}; nothing to grow from "
                "(lower min_area or loosen the seeding parameters)"
            )
        cleared = null_small_segments(grid, segs, min_area)
        if not cleared:
            break
        grid, _, _ = run_to_convergence(grid, weights, max_iters, threads=threads)
        segs = extract_segments(LabelRaster(labels=grid.labels), connectivity)
        cleared_per_round.append(cleared)
    return grid, len(cleared_per_round), cleared_per_round, segs


_BATCH_ROWS = 16  # rows per bounded batch
_BUCKETS = 8  # distance buckets of the curvature bound
_TINY = 2.0**-1022  # the smallest normal float


def _distance_rows(right_t, rows):
    """Distances from the members ``rows`` to every member, and their sums.

    ``right_t`` holds the m members' augmented columns [b, 1, |b|²]. Only
    the batch's own augmented rows [−2a, |a|², 1] are built, from its
    columns. Each row of the result is a C-contiguous array of length m,
    so its sum does not depend on which batch computes it.
    """
    n = right_t.shape[0] - 2
    left = np.empty((rows.size, n + 2))
    np.multiply(right_t[:-2, rows].T, -2.0, out=left[:, :n])
    left[:, n] = right_t[-1].take(rows)
    left[:, n + 1] = 1.0
    dist = left @ right_t
    np.sqrt(dist, out=dist)
    return dist, dist.sum(axis=1)


def _tangent_bounds(dist, sums, points, rows, targets, max_dist):
    """Lower bounds, less each row's slack, on the distance sums of ``targets``.

    ``dist`` and ``sums`` are what ``_distance_rows`` returned for ``rows``,
    ``points`` the members as columns; ``dist`` is overwritten.
    ``medoid_signature`` derives the bound and slack.
    """
    bands, m = points.shape
    dist[dist == 0] = np.inf  # coincident members add nothing to the subgradient
    weights = np.reciprocal(dist, out=dist)
    wsum = weights.sum(axis=1)
    at = points[:, rows].T
    grad = at * wsum[:, None] - weights @ points.T
    slack = 2.0**-48 * (m + bands + 6) * max_dist * (m + max_dist * wsum)
    tangents = grad @ np.take(points, targets, axis=1)
    tangents += (sums - (grad * at).sum(axis=1) - slack)[:, None]
    return tangents.max(axis=0)


def _curvature_bounds(points, norms, max_dist):
    """The members by distance from μ, and lower bounds, less the slack, on their sums.

    ``points`` holds the member vectors as C-contiguous columns and
    ``norms`` their squared norms. ``medoid_signature`` derives the bound
    and slack.
    """
    n, m = points.shape
    mu = points.sum(axis=1) / m
    # Weiszfeld steps from the mean; distances floored at 1 keep a member at
    # the point from taking an infinite weight
    for _ in range(2):
        w = norms - 2 * (mu @ points)
        w += mu @ mu
        w = np.reciprocal(np.sqrt(np.maximum(w, 1.0, out=w), out=w), out=w)
        mu = points @ w / w.sum()
    h = points - mu[:, None]  # column j is x_j − μ
    h2 = h * h
    dist = np.sqrt(h2.sum(axis=0))
    order = np.argsort(dist)
    ranked = dist[order]
    units = np.take(h, order, axis=1)
    units /= np.maximum(ranked, _TINY)  # −u_k by rank, 0 for a member at μ
    buckets = min(_BUCKETS, m)
    size = m // buckets  # the m mod buckets farthest members join no bucket
    blocks = units[:, : buckets * size].reshape(n, buckets, size).transpose(1, 0, 2)
    gram = blocks @ blocks.transpose(0, 2, 1)
    half = 0.5 * (size - np.abs(gram).sum(axis=2))
    curv = np.maximum(half @ h2, 0.0)  # each bucket's true term is never negative
    curv /= np.add.outer(ranked[size - 1 : buckets * size : size] + _TINY, dist)
    slack = 2.0**-48 * np.sqrt(n) * m * (m + n + 8) * max_dist
    low = curv.sum(axis=0) - units.sum(axis=1) @ h + (dist.sum() - slack)
    return order, low[order]


def medoid_signature(image: MultibandImage, segment: Segment, sample_cap: int = 4096) -> np.ndarray:
    """Member vector minimizing the summed Euclidean distance to the segment.

    Ties break toward the lowest pixel index, as a segment's runs ascend. A
    segment of area A over ``sample_cap`` keeps for the quadratic scan the
    m = ``sample_cap`` members at places ⌊k·A/m⌋ in run order, found from its runs.

    Each batch of squared distances is one matmul over augmented vectors,
    [-2a, |a|², 1] · [b, 1, |b|²]ᵀ = |a|² + |b|² − 2·a·b. The members are
    gathered once, straight into the band-major columns [b, 1, |b|²], which
    every bound reads too; each batch builds only its own rows
    [-2a, |a|², 1] from them. Every operand holds the same floats whichever
    batch builds it. This is exact:
    samples are integers of at most 16 bits, so every term is an integer
    and every partial sum is bounded by the sum of the terms' magnitudes,
    |a|² + |b|² + 2·|a·b| ≤ 4·bands·(2^depth − 1)², which stays below 2⁵³
    for any band count under about 5·10⁵, whatever order BLAS sums them
    in. The correctly rounded square root then matches the direct
    difference form bit for bit. Each row of distances is a C-contiguous
    array of length m summed with ``sum(axis=1)``; numpy's pairwise
    summation depends on that layout, so the sums, and the argmin on a
    tie, are fixed by it.

    Only rows that could hold the minimum are computed, ``_BATCH_ROWS``
    at a time. A member equal to a computed one has that row bit for bit,
    so it takes its sum; one whose bound less the slack is strictly above
    the best sum is dropped. Two lower bounds on the sum S(j) of member j
    serve.

    The curvature bound seeds every member's bound before any row is
    computed. Take μ two Weiszfeld steps from the band-wise mean (the bound
    holds for any μ) and, for each member, aₖ = μ − xₖ, dₖ = ‖aₖ‖ and
    uₖ = aₖ/dₖ (0 where dₖ = 0). For y = μ + h, ‖aₖ + h‖ = √(A² + p²) with
    A = dₖ + uₖ·h and p² = ‖h‖² − (uₖ·h)², and √(A² + p²) − A is at least
    p²/(√(A² + p²) + |A|), where √(A² + p²) and |A| are at most dₖ + ‖h‖, so
    ‖aₖ + h‖ ≥ dₖ + uₖ·h + (‖h‖² − (uₖ·h)²)/(2(dₖ + ‖h‖)).
    The last term is never negative, so it may be dropped or shrunk. By
    rank of dₖ the members fill G = min(``_BUCKETS``, m) buckets of ⌊m/G⌋,
    and the m mod G farthest, whose terms are dropped, fill none. A bucket
    g of |g| members, reach D_g = max dₖ and Gram matrix M_g = Σ uₖuₖᵀ adds
    at least (|g|·‖h‖² − hᵀM_g h)/(2(D_g + ‖h‖)), and by Gershgorin's
    theorem hᵀM_g h ≤ Σᵢ c_gi·hᵢ² with c_gi = Σₗ |(M_g)ᵢₗ|. So
    S(μ + h) ≥ Σdₖ + h·Σuₖ + Σ_g max(0, Σᵢ (|g| − c_gi)·hᵢ²)/(2(D_g + ‖h‖)).
    Each D_g is raised by the smallest normal float, so a bucket and a
    member both at μ give 0 rather than 0/0. The first batch is the
    members nearest μ.

    Each batch then gives the tangent bound. F(y) = Σₖ‖y − xₖ‖ is convex
    and S(j) = F(xⱼ), so row i gives S(j) ≥ S(i) + gᵢ·(xⱼ − xᵢ), where the
    subgradient (Weiszfeld's slope) gᵢ = Σ (xᵢ − xₖ)/d(i, k) over xₖ ≠ xᵢ is
    xᵢ·Σw − w·X with w = 1/d. Only a batch that leaves members live
    computes it, for them alone, in one matmul, and the next batch takes
    the lowest bounds, until no member is live. After a refinement that
    drops no member the next 1, then 2, 4, … batches skip it, and one that
    drops a member resets the wait: unrefined bounds are still bounds, and
    inputs no bound prunes, such as a permutation orbit, refine O(log m) times.

    The slack covers rounding. Let u = 2⁻⁵³, L = 2^depth − 1 and D = √n·L
    for n bands, the largest distance; ‖gᵢ‖ < m and |gᵢ·x| ≤ m·D. Roots are
    off by u·d and a sum of m terms in any order by (m − 1)·u·Σ|terms|, so a
    computed sum is off by m²·u·D. Weights off by 2u relative and the last
    subtraction move gᵢ by 3m·u; both terms of xᵢ·Σw − w·X reach L·Σw and
    lose up to m·u·L·Σw each, which moves gᵢ by (2m + 1)·u·D·Σw more in
    norm. Times ‖xⱼ − xᵢ‖ ≤ D, plus n·m·u·D for each dot product with gᵢ and
    3m·u·D for each of three additions, a bound and the two sums compared
    are off by at most u·D·(2m² + (2m + 1)·D·Σw + (2n + 12)·m). The slack,
    2⁻⁴⁸·(m + n + 6)·D·(m + D·Σw), is 16 times that or more, term by term.

    Only evaluating the curvature bound rounds: μ is whatever float vector
    the steps give. It is a convex combination of the members, so each dₖ
    and ‖h‖ is at most D up to a factor 1 + (m + 2)·u. Computed distances
    are off by (n + 2)·u·D and units by (n + 4)·u, so Σdₖ is off by
    (m² + (n + 2)·m)·u·D and h·Σuₖ by (m² + (2n + 5)·m)·u·D. A unit's
    1-norm is at most √n, so c_gi ≤ √n·|g|, and the units' error with the
    Gram product's rounding moves c_gi by √n·|g|·(|g| + 3n + 10)·u/2.
    Through the product with hᵢ², the division by D_g + ‖h‖ ≥ ‖h‖ and the
    sum over the buckets, the curvature term is off by
    √n·u·D·(m²/2 + (4.5n + 25)·m). With the last three additions and the
    computed sum compared, the two are off by at most
    u·D·((3 + √n)·m² + (3n + 13 + √n·(5n + 28))·m). The slack,
    2⁻⁴⁸·√n·m·(m + n + 8)·D, is more than 4 times that, term by term.

    So a dropped member's computed sum exceeds the best: every member that
    could hold the minimum is computed or copied, and the argmin, lowest
    index first, is the one over all m rows.
    """
    area = segment.area
    if area == 0:
        raise ContractError("medoid of an empty segment")
    if sample_cap < 1:
        raise ContractError("sample_cap must be >= 1")
    m = min(area, sample_cap)
    idx = _members_at(segment.starts, segment.lengths, np.arange(m, dtype=np.int64) * area // m)

    flat = image.data.reshape(-1, image.bands)
    right_t = np.empty((image.bands + 2, m))  # C order: each band is one contiguous row
    points, norms = right_t[:-2], right_t[-1]
    points[...] = flat[idx].T
    right_t[-2] = 1.0
    np.einsum("ij,ij->j", points, points, out=norms)
    max_dist = image.max_distance
    sums = np.full(m, np.inf)
    skip, wait = 0, 1  # batches left unrefined, and the next such wait
    # the members neither settled nor dropped, nearest μ first, and lower bounds on their sums
    rest, low = _curvature_bounds(points, norms, max_dist)
    batch = rest[:_BATCH_ROWS]
    while True:
        dist, sums[batch] = _distance_rows(right_t, batch)
        copy = np.flatnonzero(dist == 0)  # a member equal to a computed one has its row
        sums[copy % m] = sums[batch[copy // m]]
        best = sums.min()
        live = (sums[rest] == np.inf) & ~(low > best)
        if skip:
            skip -= 1
        elif live.any():
            kept = np.count_nonzero(live)
            low[live] = np.maximum(
                low[live],
                _tangent_bounds(dist, sums[batch], points, batch, rest[live], max_dist),
            )
            live &= ~(low > best)
            skip, wait = (0, 1) if np.count_nonzero(live) < kept else (wait, 2 * wait)
        rest, low = rest[live], low[live]
        if not rest.size:
            break
        batch = rest[np.argpartition(low, min(_BATCH_ROWS, rest.size) - 1)[:_BATCH_ROWS]]
    best = int(np.argmin(sums))  # first minimum = lowest pixel index
    return flat[idx[best]].copy()
