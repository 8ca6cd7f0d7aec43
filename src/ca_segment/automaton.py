"""Competitive label colonization on a synchronous cellular grid.

Each cell carries a label (0 = null) and a strength in [0, 1]. At every
evolution step all cells update simultaneously: a cell is attacked by each
neighbor with the neighbor's previous strength scaled by a factor that
decays linearly with the spectral distance between the two pixels, and
adopts the attacker's label whenever the attack strictly exceeds its
running strength. Neighbors are scanned in a fixed row-major offset order,
all reads use the previous step's buffers, and comparisons are exact, so
results are bit-identical for any parallel partitioning of the grid.
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
    """Cell state buffers: uint32 labels (0 = null), float64 strengths."""

    labels: np.ndarray
    theta: np.ndarray
    step: int = 0

    def __post_init__(self):
        if self.labels.shape != self.theta.shape or self.labels.ndim != 2:
            raise ContractError("label and strength buffers must share a 2-D shape")
        if self.labels.dtype != np.uint32 or self.theta.dtype != np.float64:
            raise ContractError("grid buffers must be uint32 labels and float64 theta")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


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
        if idx.min() < 0 or idx.max() >= width * height:
            raise ContractError("seed pixel index out of range")
        if np.unique(idx).size != idx.size:
            raise ContractError("duplicate seed pixel index")
    labels = np.zeros(width * height, dtype=np.uint32)
    theta = np.zeros(width * height, dtype=np.float64)
    labels[idx] = seeds.labels
    theta[idx] = 1.0
    return AutomatonGrid(
        labels=labels.reshape(height, width), theta=theta.reshape(height, width), step=0
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
    planes = []
    for dr, dc in nb.offsets():
        r0, r1 = max(0, -dr), h - max(0, dr)
        c0, c1 = max(0, -dc), w - max(0, dc)
        cell = data[r0:r1, c0:c1]
        neigh = data[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        sq = np.zeros(cell.shape[:2], dtype=np.float64)
        for b in range(n):  # fixed band order keeps sums bit-reproducible
            diff = cell[:, :, b] - neigh[:, :, b]
            sq += diff * diff
        plane = np.zeros((h, w), dtype=np.float64)
        plane[r0:r1, c0:c1] = attenuation(np.sqrt(sq), params)
        planes.append((dr, dc, plane))
    return planes


def _attack_rows(weights, lab_pad, th_pad, old_labels, old_theta, new_labels, new_theta, r0, r1, width):
    """Update rows [r0, r1) of the new buffers from the padded old state."""
    cur = new_theta[r0:r1]
    lab = new_labels[r0:r1]
    for dr, dc, plane in weights:
        att = plane[r0:r1] * th_pad[1 + r0 + dr : 1 + r1 + dr, 1 + dc : 1 + width + dc]
        win = att > cur
        if win.any():
            cur[win] = att[win]
            lab[win] = lab_pad[1 + r0 + dr : 1 + r1 + dr, 1 + dc : 1 + width + dc][win]
    return bool(
        (cur != old_theta[r0:r1]).any() or (lab != old_labels[r0:r1]).any()
    )


@functools.lru_cache(maxsize=None)
def _pool(workers):
    """One thread pool per worker count, kept for the life of the process."""
    return ThreadPoolExecutor(max_workers=workers)


def _row_blocks(height, threads):
    blocks = max(1, min(threads, height))
    bounds = np.linspace(0, height, blocks + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if b > a]


def evolve_step(grid: AutomatonGrid, weights, threads: int = 1):
    """One synchronous evolution step; returns (grid at t+1, changed).

    ``weights`` are the planes from :func:`neighbor_weights`. Row blocks are
    processed in parallel when ``threads`` > 1; the result is independent
    of the block layout.
    """
    if any(plane.shape != grid.labels.shape for _, _, plane in weights):
        raise ContractError("grid and weight plane dimensions do not match")

    h, w = grid.height, grid.width
    lab_pad = np.zeros((h + 2, w + 2), dtype=np.uint32)
    th_pad = np.zeros((h + 2, w + 2), dtype=np.float64)
    lab_pad[1:-1, 1:-1] = grid.labels
    th_pad[1:-1, 1:-1] = grid.theta

    new_labels = grid.labels.copy()
    new_theta = grid.theta.copy()
    blocks = _row_blocks(h, threads)
    if len(blocks) == 1:
        changed = _attack_rows(
            weights, lab_pad, th_pad, grid.labels, grid.theta, new_labels, new_theta, 0, h, w
        )
    else:
        flags = list(
            _pool(len(blocks)).map(
                lambda rr: _attack_rows(
                    weights, lab_pad, th_pad, grid.labels, grid.theta,
                    new_labels, new_theta, rr[0], rr[1], w,
                ),
                blocks,
            )
        )
        changed = any(flags)
    return AutomatonGrid(labels=new_labels, theta=new_theta, step=grid.step + 1), changed


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
