"""Slow, independent reference implementations used as test oracles.

Everything here is written as plain loops over Python scalars (or the
most direct possible numpy expression), sharing no code with the package,
so agreement between the two routes is meaningful.
"""

import math

import numpy as np

BALANCED = -1

MOORE8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
VONNEUMANN4 = ((-1, 0), (0, -1), (0, 1), (1, 0))


def histogram_by_loop(data, depth):
    """Band-sum histogram via a per-pixel loop."""
    h, w, n = data.shape
    counts = [0] * (n * ((1 << depth) - 1) + 1)
    for r in range(h):
        for c in range(w):
            s = 0
            for b in range(n):
                s += int(data[r, c, b])
            counts[s] += 1
    return counts


def classify_by_rule(vector, delta_rel):
    """Balanced/dominant classification straight from the rule."""
    values = [int(v) for v in vector]
    spread = max(values) - min(values)
    mean = sum(values) / len(values)
    if spread <= delta_rel * mean:
        return BALANCED
    best = 0
    for b in range(1, len(values)):
        if values[b] > values[best]:
            best = b
    return best


def smooth_by_gather(counts, window):
    """Centered moving average with every bin's clipped bounds gathered."""
    half = window // 2
    csum = np.concatenate(([0.0], np.cumsum(counts, dtype=np.float64)))
    idx = np.arange(len(counts))
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, len(counts) - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def plateau_peaks_by_loop(smoothed):
    """Local-maximum runs by a left-to-right scan; one middle index per run.

    A run of equal values qualifies when every existing outside neighbor is
    strictly smaller and it does not span the whole array.
    """
    peaks = []
    n = len(smoothed)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and smoothed[j + 1] == smoothed[i]:
            j += 1
        left_ok = i == 0 or smoothed[i - 1] < smoothed[i]
        right_ok = j == n - 1 or smoothed[j + 1] < smoothed[i]
        if left_ok and right_ok and not (i == 0 and j == n - 1):
            peaks.append((i + j) // 2)
        i = j + 1
    return peaks


def select_ranges_by_scan(counts, smooth_window, prominence_frac, min_separation,
                          half_width, max_peaks):
    """List-based reimplementation of the documented range-selection rule.

    Returns (lo, hi, peak) tuples.
    """
    length = len(counts)
    # float64 prefix sums of integer counts are exact, so every quotient is
    # the exact window sum over the window length
    smoothed = smooth_by_gather(counts, smooth_window).tolist()
    floor = prominence_frac * max(smoothed)
    peaks = [p for p in plateau_peaks_by_loop(smoothed) if smoothed[p] >= floor]
    if not peaks:
        return [(0, length - 1, smoothed.index(max(smoothed)))]

    peaks.sort(key=lambda p: (-smoothed[p], p))
    # a peak's acceptance depends only on the taller peaks before it, so the
    # scan stops once max_peaks are kept
    kept = []
    for p in peaks:
        if len(kept) == max_peaks:
            break
        if all(abs(p - q) >= min_separation for q in kept):
            kept.append(p)

    spans = sorted(
        (max(0, p - half_width), min(length - 1, p + half_width), p) for p in kept
    )
    merged = [spans[0]]
    for lo, hi, peak in spans[1:]:
        mlo, mhi, mpeak = merged[-1]
        if lo <= mhi:
            if smoothed[peak] > smoothed[mpeak] or (
                smoothed[peak] == smoothed[mpeak] and peak < mpeak
            ):
                mpeak = peak
            merged[-1] = (mlo, max(mhi, hi), mpeak)
        else:
            merged.append((lo, hi, peak))
    return merged


def seeds_by_loop(data, ranges, delta_rel, stride):
    """(pixel index, label) seed pairs plus the (range, region) -> id table."""
    h, w, n = data.shape
    entries = []
    table = {}
    for r in range(0, h, stride):
        for c in range(0, w, stride):
            s = sum(int(v) for v in data[r, c])
            hit = None
            for i, (lo, hi) in enumerate(ranges):
                if lo <= s <= hi:
                    hit = i
                    break
            if hit is None:
                continue
            region = classify_by_rule(data[r, c], delta_rel)
            key = (hit, region)
            if key not in table:
                table[key] = len(table) + 1
            entries.append((r * w + c, table[key]))
    return entries, table


def weight_planes_by_loop(data, offsets, epsilon, d_max):
    """Per-offset attack factors via per-cell loops; 0 where the neighbor is off-grid."""
    h, w, n = data.shape
    planes = []
    for dr, dc in offsets:
        plane = np.zeros((h, w), dtype=np.float64)
        for r in range(h):
            for c in range(w):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    acc = 0.0
                    for b in range(n):
                        diff = float(data[r, c, b]) - float(data[rr, cc, b])
                        acc += diff * diff
                    plane[r, c] = max(epsilon, 1.0 - math.sqrt(acc) / d_max)
        planes.append(plane)
    return planes


def evolve_by_loop(labels, theta, data, offsets, epsilon, d_max):
    """One synchronous attack step via per-cell loops; returns new state."""
    h, w = labels.shape
    n = data.shape[2]
    new_labels = labels.copy()
    new_theta = theta.copy()
    for r in range(h):
        for c in range(w):
            cur_label = labels[r, c]
            cur_theta = theta[r, c]
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if rr < 0 or rr >= h or cc < 0 or cc >= w:
                    continue
                acc = 0.0
                for b in range(n):
                    diff = float(data[r, c, b]) - float(data[rr, cc, b])
                    acc += diff * diff
                g = max(epsilon, 1.0 - math.sqrt(acc) / d_max)
                attack = g * float(theta[rr, cc])
                if attack > cur_theta:
                    cur_theta = attack
                    cur_label = labels[rr, cc]
            new_labels[r, c] = cur_label
            new_theta[r, c] = cur_theta
    return new_labels, new_theta


def run_by_loop(labels, theta, data, offsets, epsilon, d_max, max_iters):
    """Full sequential simulation; returns (labels, theta, steps, converged)."""
    steps = 0
    converged = False
    while steps < max_iters:
        new_labels, new_theta = evolve_by_loop(labels, theta, data, offsets, epsilon, d_max)
        steps += 1
        if (new_labels == labels).all() and (new_theta == theta).all():
            converged = True
            labels, theta = new_labels, new_theta
            break
        labels, theta = new_labels, new_theta
    return labels, theta, steps, converged


def components_by_bfs(labels, offsets):
    """Connected same-label components via BFS in row-major seed order.

    Returns a list of sorted flat-index lists, ordered by first pixel.
    """
    h, w = labels.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for r in range(h):
        for c in range(w):
            if labels[r, c] == 0 or seen[r, c]:
                continue
            value = labels[r, c]
            queue = [(r, c)]
            seen[r, c] = True
            members = []
            while queue:
                cr, cc = queue.pop()
                members.append(cr * w + cc)
                for dr, dc in offsets:
                    nr, nc = cr + dr, cc + dc
                    if 0 <= nr < h and 0 <= nc < w and not seen[nr, nc] \
                            and labels[nr, nc] == value:
                        seen[nr, nc] = True
                        queue.append((nr, nc))
            comps.append(sorted(members))
    return comps


def segment_by_loop(data, depth, config):
    """The whole segment run of ``config`` over the (h, w, bands) ``data``.

    Chains the loop stages above: the band-sum histogram, the range scan,
    the seeds, the colonization, then elimination rounds (null every
    component below ``config.min_area``, rerun the colonization, relabel)
    and each final component's medoid. ``config`` needs the attributes of a
    pipeline configuration. A reconvergence stopped by the iteration cap is
    not reported, as in the package.

    Returns a dict of the label raster, the first colonization's steps and
    convergence, the component counts before and after elimination, the
    cleared count per round and the segment rows (id, label, area,
    signature), or None where the package refuses the run: no seeds, no
    labeled segment or every segment below ``min_area`` in some round.
    """
    h, w, n = data.shape
    counts = histogram_by_loop(data, depth)
    ranges = select_ranges_by_scan(
        counts, config.smooth_window, config.prominence_frac, config.min_separation,
        config.half_width, config.max_peaks,
    )
    entries, _ = seeds_by_loop(data, [(lo, hi) for lo, hi, _ in ranges],
                               config.delta_rel, config.stride)
    if not entries:
        return None
    labels = np.zeros((h, w), dtype=np.uint32)
    theta = np.zeros((h, w), dtype=np.float64)
    for p, label in entries:
        labels[p // w, p % w] = label
        theta[p // w, p % w] = 1.0

    offsets = MOORE8 if config.neighborhood.value == "moore" else VONNEUMANN4
    d_max = ((1 << depth) - 1) * math.sqrt(n)
    max_iters = config.max_iters or 10 * (w + h)

    def colonize(labels, theta):
        return run_by_loop(labels, theta, data, offsets, config.epsilon, d_max, max_iters)

    labels, theta, steps, converged = colonize(labels, theta)
    comps = components_by_bfs(labels, offsets)
    before = len(comps)
    cleared = []
    for _ in range(config.max_rounds):
        small = [members for members in comps if len(members) < config.min_area]
        if len(small) == len(comps):  # no segment, or none to regrow from
            return None
        if not small:
            break
        for members in small:
            for p in members:
                labels[p // w, p % w] = 0
                theta[p // w, p % w] = 0.0
        labels, theta, _, _ = colonize(labels, theta)
        comps = components_by_bfs(labels, offsets)
        cleared.append(len(small))

    vectors = data.reshape(-1, n)
    rows = []
    for sid, members in enumerate(comps, start=1):
        sample = members
        if len(members) > 4096:  # the documented even-stride subsample
            sample = [members[i * len(members) // 4096] for i in range(4096)]
        best = sample[medoid_by_bruteforce(vectors[sample])]
        rows.append({
            "id": sid,
            "label": int(labels.flat[members[0]]),
            "area": len(members),
            "signature": [int(v) for v in vectors[best]],
        })
    return {
        "labels": labels,
        "steps": steps,
        "converged": converged,
        "segments_before": before,
        "segments_after": len(comps),
        "cleared_per_round": cleared,
        "segments": rows,
    }


def row_runs(pixels, width):
    """Ascending int64 (starts, lengths) of the flat indices ``pixels``, cut at row ends."""
    starts, lengths = [], []
    for p in sorted(int(p) for p in pixels):
        if starts and p == starts[-1] + lengths[-1] and p % width:
            lengths[-1] += 1
        else:
            starts.append(p)
            lengths.append(1)
    return np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64)


def expand_runs(starts, lengths):
    """The flat indices the runs cover, run by run."""
    return [p for s, n in zip(starts.tolist(), lengths.tolist()) for p in range(s, s + n)]


def medoid_by_bruteforce(vectors):
    """Index of the medoid by the full pairwise-distance matrix."""
    arr = np.asarray(vectors, dtype=np.float64)
    diff = arr[:, None, :] - arr[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    sums = dist.sum(axis=1)
    return int(np.argmin(sums))


def medoid_by_blocks(vectors):
    """Index of the medoid by every row of distances, one ~1 MiB block at a time.

    The unpruned blocked kernel: augmented-vector matmul, root, and a
    ``sum(axis=1)`` over each C-contiguous row of length m, so its sums
    and tie order are the ones every pruned computation must reproduce.
    """
    return int(np.argmin(distance_sums_by_blocks(vectors)))


def distance_sums_by_blocks(vectors):
    """Every member's distance sum, as the blocked kernel of ``medoid_by_blocks`` computes it."""
    vectors = np.asarray(vectors, dtype=np.float64)
    m = vectors.shape[0]
    norms = (vectors * vectors).sum(axis=1)[:, None]
    ones = np.ones((m, 1), dtype=np.float64)
    left = np.hstack((-2.0 * vectors, norms, ones))
    right = np.hstack((vectors, ones, norms))
    sums = np.empty(m, dtype=np.float64)
    chunk = max(1, min(m, 1024 * 1024 // (8 * m)))
    for start in range(0, m, chunk):
        stop = start + chunk
        dist = left[start:stop] @ right.T
        np.sqrt(dist, out=dist)
        sums[start:stop] = dist.sum(axis=1)
    return sums


def best_match_agreement(predicted, truth):
    """Pixel agreement under the best many-to-one label-to-region map."""
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    total = 0
    for lab in np.unique(predicted):
        overlap = np.bincount(truth[predicted == lab])
        total += int(overlap.max())
    return total / truth.size
