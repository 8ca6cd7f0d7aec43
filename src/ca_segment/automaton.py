"""Competitive label colonization on a synchronous cellular grid.

Each cell carries a label (0 = null) and a strength in [0, 1]. At every
evolution step all cells update simultaneously: a cell is attacked by each
neighbor with the neighbor's previous strength scaled by a factor that
decays linearly with the spectral distance between the two pixels, and
adopts the attacker's label whenever the attack strictly exceeds its
running strength. Neighbors are scanned in a fixed row-major offset order,
all reads use the previous step's buffers, and comparisons are exact, so
results are bit-identical for any parallel partitioning of the grid.

A cell whose own state and neighbors' states did not move cannot move, so
each step evaluates only the frontier next to the previous step's changes,
as the active-cell variants of GrowCut (Vezhnevets & Konouchine, 2005) do.
"""

from __future__ import annotations

import enum
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .raster import MultibandImage
from .seeding import SeedMap

# Frontier cells per kernel call: bounds the temporaries (about 50 B per
# cell) and is the grain of threading, so a one-chunk frontier runs on the
# calling thread. Chosen by timing whole colonizations of 96x128 to 512x512
# scenes at 8192 to 262144 cells per chunk.
_CHUNK = 32768


class NeighborhoodKind(enum.Enum):
    MOORE8 = "moore"
    VONNEUMANN4 = "vonneumann"

    def offsets(self):
        """Neighbor offsets in fixed row-major order, center excluded."""
        if self is NeighborhoodKind.MOORE8:
            return ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
        return ((-1, 0), (0, -1), (0, 1), (1, 0))


@dataclass(frozen=True)
class AttenuationParams:
    """Linear attack decay: factor 1 at distance 0, floored at epsilon.

    ``d_max`` is the largest possible spectral distance for the image,
    (2**depth - 1) * sqrt(bands); the strictly positive ``epsilon`` floor
    keeps every attack alive so colonization always completes.
    """

    d_max: float
    epsilon: float = 1e-6

    def __post_init__(self):
        if not self.d_max > 0:
            raise ContractError("d_max must be positive")
        if not 0 < self.epsilon < 1:
            raise ContractError("epsilon must lie strictly between 0 and 1")

    @classmethod
    def for_image(cls, image: MultibandImage, epsilon: float = 1e-6) -> "AttenuationParams":
        return cls(d_max=image.max_level * math.sqrt(image.bands), epsilon=epsilon)


@dataclass
class AutomatonGrid:
    """Cell state buffers: uint32 labels (0 = null), float64 strengths.

    ``changed`` is a bool mask of the cells that moved since the last state
    known to be stable under the attack rule; ``None`` means unknown, and
    the next step then evaluates every cell.
    """

    labels: np.ndarray
    theta: np.ndarray
    changed: np.ndarray | None = None

    def __post_init__(self):
        if self.labels.shape != self.theta.shape or self.labels.ndim != 2:
            raise ContractError("label and strength buffers must share a 2-D shape")
        if self.labels.dtype != np.uint32 or self.theta.dtype != np.float64:
            raise ContractError("grid buffers must be uint32 labels and float64 theta")
        if self.changed is not None and (
            self.changed.shape != self.labels.shape or self.changed.dtype != np.bool_
        ):
            raise ContractError("changed must be a bool mask of the grid's shape")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def nulled(self, cells: np.ndarray) -> "AutomatonGrid":
        """Copy of the grid with the ``cells`` mask set to null and marked changed.

        The mask joins ``changed`` rather than replacing it: a grid stopped
        short of convergence still has a moving wavefront to evaluate.
        """
        labels, theta = self.labels.copy(), self.theta.copy()
        labels[cells] = 0
        theta[cells] = 0.0
        changed = None if self.changed is None else self.changed | cells
        return AutomatonGrid(labels=labels, theta=theta, changed=changed)


def attenuation(d, params: AttenuationParams):
    """Attack factor for spectral distance ``d``: max(epsilon, 1 - d/d_max).

    ``d`` may be a scalar or an array of distances; the factor is taken
    elementwise.
    """
    if np.any(np.asarray(d) < 0):
        raise ContractError("spectral distance must be >= 0")
    return np.maximum(params.epsilon, 1.0 - d / params.d_max)


def init_from_seeds(width: int, height: int, seeds: SeedMap) -> AutomatonGrid:
    """Grid at step 0: seed cells at full strength, everything else null."""
    idx = np.asarray(seeds.pixel_indices, dtype=np.int64)
    if idx.size:
        ordered = np.sort(idx)
        if ordered[0] < 0 or ordered[-1] >= width * height:
            raise ContractError("seed pixel index out of range")
        if (ordered[1:] == ordered[:-1]).any():
            raise ContractError("duplicate seed pixel index")
    labels = np.zeros(width * height, dtype=np.uint32)
    theta = np.zeros(width * height, dtype=np.float64)
    labels[idx] = seeds.labels
    theta[idx] = 1.0
    # the all-null grid is a fixpoint, so only the seeds have moved from it
    changed = np.zeros(width * height, dtype=bool)
    changed[idx] = True
    shape = (height, width)
    return AutomatonGrid(
        labels=labels.reshape(shape), theta=theta.reshape(shape),
        changed=changed.reshape(shape),
    )


def neighbor_weights(
    image: MultibandImage, nb: NeighborhoodKind, params: AttenuationParams
):
    """Precompute per-offset attack attenuation between every cell pair.

    For each neighbor offset the returned plane holds, at cell (r, c), the
    attenuation of an attack arriving from (r + dr, c + dc); it is zero
    where that neighbor falls outside the grid, which silences the attack
    because strengths are non-negative and comparisons are strict. The
    planes depend only on the image, so one set serves a whole run.
    """
    data = image.data.astype(np.float64)
    h, w, n = data.shape
    planes = {}
    for dr, dc in nb.offsets():
        r0, r1 = max(0, -dr), h - max(0, dr)
        c0, c1 = max(0, -dc), w - max(0, dc)
        plane = np.zeros((h, w), dtype=np.float64)
        mirror = planes.get((-dr, -dc))
        if mirror is not None:
            # (x - y)**2 == (y - x)**2 bit for bit, so the attack from q on
            # p weighs exactly what the attack from p on q does
            plane[r0:r1, c0:c1] = mirror[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        else:
            cell = data[r0:r1, c0:c1]
            neigh = data[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
            sq = np.zeros(cell.shape[:2], dtype=np.float64)
            for b in range(n):  # fixed band order keeps sums bit-reproducible
                diff = cell[:, :, b] - neigh[:, :, b]
                sq += diff * diff
            plane[r0:r1, c0:c1] = attenuation(np.sqrt(sq), params)
        planes[dr, dc] = plane
    return [(dr, dc, plane) for (dr, dc), plane in planes.items()]


def _attack(weights, labels, theta, idx, new_labels, new_theta):
    """Apply the attack rule to the flat cells ``idx``; returns those that moved.

    ``weights`` holds (flat offset, flat plane) pairs. An offset that leaves
    the grid, clipped at its ends or wrapped into the next row, lands where
    the plane is 0, so that attack is +0.0 and never wins. Taking the
    running maximum gives the same strengths as strict replacement, and the
    last strict win is the first neighbor to reach the maximum, so the
    labels match the sequential scan too.
    """
    old = theta[idx]
    cur = old.copy()
    src = np.zeros(idx.size, dtype=np.int64)
    for off, plane in weights:
        att = plane.take(idx) * theta.take(idx + off, mode="clip")
        src[att > cur] = off
        np.maximum(cur, att, out=cur)
    moved = cur > old  # every win raises the strength strictly
    hit = idx[moved]
    new_theta[hit] = cur[moved]
    new_labels[hit] = labels[hit + src[moved]]
    return hit


@functools.lru_cache(maxsize=None)
def _pool(workers):
    """One thread pool per worker count, kept for the life of the process."""
    return ThreadPoolExecutor(max_workers=workers)


def _frontier(changed, weights):
    """Flat indices of the cells within one neighbor offset of a changed cell."""
    h, w = changed.shape
    front = changed.copy()
    for dr, dc, _ in weights:
        r0, r1 = max(0, -dr), h - max(0, dr)
        c0, c1 = max(0, -dc), w - max(0, dc)
        front[r0:r1, c0:c1] |= changed[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    return np.flatnonzero(front)


def evolve_step(grid: AutomatonGrid, weights, threads: int = 1):
    """One synchronous evolution step; returns (grid at t+1, whether any cell moved).

    ``weights`` are the planes from :func:`neighbor_weights`. Only the
    frontier is evaluated: a cell whose own state and neighbors' states did
    not move cannot move, so cells outside one neighbor offset of
    ``grid.changed`` keep their state (every cell when it is ``None``). The
    frontier is cut into chunks of ``_CHUNK`` cells, which run on up to
    ``threads`` workers; the result is independent of both.
    """
    if threads < 1:
        raise ContractError("threads must be >= 1")
    if any(plane.shape != grid.labels.shape for _, _, plane in weights):
        raise ContractError("grid and weight plane dimensions do not match")

    h, w = grid.height, grid.width
    if grid.changed is None:
        idx = np.arange(h * w, dtype=np.int64)
    else:
        idx = _frontier(grid.changed, weights)
    flat = [(dr * w + dc, plane.ravel()) for dr, dc, plane in weights]
    labels, theta = grid.labels.ravel(), grid.theta.ravel()
    new_labels, new_theta = labels.copy(), theta.copy()
    chunks = [idx[i : i + _CHUNK] for i in range(0, idx.size, _CHUNK)]

    def run(chunk):
        return _attack(flat, labels, theta, chunk, new_labels, new_theta)

    workers = min(threads, len(chunks))
    hits = list(_pool(workers).map(run, chunks) if workers > 1 else map(run, chunks))
    changed = np.zeros(h * w, dtype=bool)
    for hit in hits:
        changed[hit] = True
    new_grid = AutomatonGrid(
        labels=new_labels.reshape(h, w), theta=new_theta.reshape(h, w),
        changed=changed.reshape(h, w),
    )
    return new_grid, any(hit.size for hit in hits)


def run_to_convergence(grid: AutomatonGrid, weights, max_iters: int, threads: int = 1):
    """Evolve until a step changes nothing or ``max_iters`` is reached.

    Returns (grid, steps_executed, converged); the count includes the final
    verification pass that observes no change.
    """
    if max_iters < 1:
        raise ContractError("max_iters must be >= 1")
    steps = 0
    converged = False
    while steps < max_iters:
        grid, changed = evolve_step(grid, weights, threads=threads)
        steps += 1
        if not changed:
            converged = True
            break
    return grid, steps, converged
