"""Competitive label colonization on a synchronous cellular grid.

Each cell carries a label (0 = null) and a strength in [0, 1]. At every
evolution step all cells update simultaneously: a cell is attacked by each
neighbor with the neighbor's previous strength scaled by a factor that
decays linearly with the spectral distance between the two pixels, and
adopts the attacker's label whenever the attack strictly exceeds its
running strength. Neighbors are scanned in a fixed row-major offset order,
all reads use the previous step's buffers, and comparisons are exact, so
results are bit-identical for any parallel partitioning of the grid.

After a step every cell is at least as strong as each attack its neighbors
made on it, so an attack from a cell whose strength did not move cannot
strictly win the next step. Each step therefore pushes attacks only from
the cells the previous step moved, as the active-cell variants of GrowCut
(Vezhnevets & Konouchine, 2005) do.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .raster import MultibandImage
from .seeding import SeedMap

# Attacking cells per kernel call: bounds the temporaries (about 40 B per
# cell) and is the grain of threading, so a step with one chunk of
# attackers runs on the calling thread. Chosen by timing whole
# colonizations of 256x256 to 1024x1024 scenes at 2048 to 65536 cells per
# chunk.
_CHUNK = 16384


class NeighborhoodKind(enum.Enum):
    MOORE8 = "moore"
    VONNEUMANN4 = "vonneumann"

    def offsets(self):
        """Neighbor offsets in fixed row-major order, center excluded."""
        if self is NeighborhoodKind.MOORE8:
            return ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
        return ((-1, 0), (0, -1), (0, 1), (1, 0))


@dataclass
class AutomatonGrid:
    """Cell state buffers: uint32 labels (0 = null), float64 strengths.

    ``changed`` is a bool mask of the cells whose attacks the next step must
    evaluate. Every other cell's attacks are known not to win: each of its
    neighbors is at least as strong as the attack it would make. A grid
    built without one knows nothing of its history, so every cell is marked.
    All three buffers are C-contiguous, so any grid can take a step's writes.
    """

    labels: np.ndarray
    theta: np.ndarray
    changed: np.ndarray | None = None

    def __post_init__(self):
        if self.labels.shape != self.theta.shape or self.labels.ndim != 2:
            raise ContractError("label and strength buffers must share a 2-D shape")
        if self.labels.dtype != np.uint32 or self.theta.dtype != np.float64:
            raise ContractError("grid buffers must be uint32 labels and float64 theta")
        if self.changed is None:
            self.changed = np.ones(self.labels.shape, dtype=bool)
        elif self.changed.shape != self.labels.shape or self.changed.dtype != np.bool_:
            raise ContractError("changed must be a bool mask of the grid's shape")
        if not all(a.flags.c_contiguous for a in (self.labels, self.theta, self.changed)):
            raise ContractError("grid buffers must be C-contiguous")

    def null(self, cells: np.ndarray) -> None:
        """Null the cells of the bool mask ``cells`` in place, refusing any other mask first.

        A freed cell loses its strength, so its neighbors' attacks on it can
        win again: the freed cells and their Moore ring, which holds the von
        Neumann one, join ``changed``. They join rather than replace it: a
        grid stopped short of convergence still has moved cells to evaluate.
        """
        if not isinstance(cells, np.ndarray) or cells.dtype != np.bool_ or cells.shape != self.labels.shape:
            raise ContractError("cells must be a bool mask of the grid's shape")
        self.labels[cells] = 0
        self.theta[cells] = 0.0
        # the 3x3 box dilation, one axis at a time
        rows = cells.copy()
        rows[1:] |= cells[:-1]
        rows[:-1] |= cells[1:]
        self.changed |= rows
        self.changed[:, 1:] |= rows[:, :-1]
        self.changed[:, :-1] |= rows[:, 1:]


def init_from_seeds(seeds: SeedMap) -> AutomatonGrid:
    """Grid at step 0: the seed raster's cells at full strength, the rest null."""
    # the all-null grid is a fixpoint, so only the seeds have moved from it
    seeded = seeds.labels != 0
    return AutomatonGrid(
        labels=seeds.labels.copy(), theta=seeded.astype(np.float64), changed=seeded
    )


class NeighborWeights(tuple):
    """The ``(dr, dc, plane)`` triples of the attack weights, checked against a grid shape.

    The only form of weights the automaton takes. Every plane must have
    ``shape`` and the offsets must come in mirrored pairs. ``attacks`` pairs
    each offset's flat shift dr·w + dc with the flat plane of its mirrored
    offset, in the triples' order: what a step pushes, looked up once.
    """

    def __new__(cls, triples, shape):
        self = super().__new__(cls, triples)
        if any(plane.shape != shape for _, _, plane in self):
            raise ContractError("grid and weight plane dimensions do not match")
        planes = {(dr, dc): plane.ravel() for dr, dc, plane in self}
        if any((-dr, -dc) not in planes for dr, dc in planes):
            raise ContractError("weight planes must come in mirrored pairs")
        self.shape = shape
        self.attacks = tuple((dr * shape[1] + dc, planes[-dr, -dc]) for dr, dc, _ in self)
        return self


def neighbor_weights(image: MultibandImage, nb: NeighborhoodKind, epsilon: float):
    """Precompute per-offset attack attenuation between every cell pair.

    For each neighbor offset the returned plane holds, at cell (r, c), the
    factor max(ε, 1 − d/D) of an attack arriving from (r + dr, c + dc),
    where d is the spectral distance between the two pixels and D is
    ``image.max_distance``. The floor ``epsilon``, strictly between 0 and
    1, keeps every attack alive so colonization always completes. A plane
    is zero where the neighbor falls outside the grid, which silences the
    attack because strengths are non-negative and comparisons are strict.
    The planes depend only on the image, so one set serves a whole run;
    they come as ``NeighborWeights``, a tuple of ``(dr, dc, plane)`` in
    offset order that carries its checked flat lookup.

    Squared distances are summed over the image's integer band planes.
    Samples are integers of at most 16 bits, so their differences fit
    int32 and a sum is at most bands·(2^depth − 1)²: ``image.sum_dtype(2)``
    holds it (int32 for 8-bit data under about 33 000 bands). The band
    limit of ``MultibandImage`` keeps it below 2⁵³, so float64 holds every
    partial sum exactly too, and the correctly rounded square root equals
    that of a float64 sum in any order bit for bit, slice by slice.

    Only the first half of the offsets is computed, each plane into one
    zeroed buffer with w + 1 cells of padding on either side. A half
    offset's flat shift off = dr·w + dc is at most 0, so the last
    k = max(0, h·w + off) cells are those whose flat neighbor p + off lies
    in the grid, and each band is one pair of flat slices; where dc ≠ 0,
    one edge column's neighbors wrap into the next or previous row, and
    that column is zeroed after. The attack from q on p weighs what the
    attack from p on q does, so the plane of the mirrored offset
    (−dr, −dc) is the computed one read off cells earlier, a view of the
    buffer: a neighbor off the top or bottom reads padding, and one off the
    left or right edge the zeroed column in the next or previous row.
    """
    if not 0 < epsilon < 1:
        raise ContractError("epsilon must lie strictly between 0 and 1")
    n, h, w = image.planes.shape
    kind = image.sum_dtype(2)
    data = image.planes.reshape(n, h * w).astype(np.int32)
    offsets = nb.offsets()
    half = offsets[: len(offsets) // 2]
    pad = w + 1
    buf = np.zeros((len(half), h * w + 2 * pad), dtype=np.float64)
    sq_buf, diff_buf = np.empty(h * w, dtype=kind), np.empty(h * w, dtype=kind)
    planes = {}
    for (dr, dc), row in zip(half, buf):
        off = dr * w + dc
        k = max(0, h * w + off)
        sq, diff = sq_buf[:k], diff_buf[:k]
        sq[...] = 0
        for cell, neigh in zip(data[:, h * w - k :], data[:, :k]):
            sq += np.square(np.subtract(cell, neigh, out=diff), out=diff)
        d = row[pad + h * w - k : pad + h * w]
        np.sqrt(sq, out=d)
        d /= image.max_distance
        np.subtract(1.0, d, out=d)
        np.maximum(epsilon, d, out=d)
        planes[dr, dc] = row[pad : pad + h * w].reshape(h, w)
        if dc:
            planes[dr, dc][:, 0 if dc < 0 else w - 1] = 0.0
        planes[-dr, -dc] = row[pad - off : pad - off + h * w].reshape(h, w)
    return NeighborWeights([(dr, dc, planes[dr, dc]) for dr, dc in offsets], (h, w))


def _attack(off, plane, new_labels, new_theta, changed, cells, labels, theta):
    """Push the attacks of the flat ``cells`` on their neighbors ``cells - off``.

    ``plane`` is the flat plane of the mirrored offset −off, so
    ``plane[p]`` weighs the attack of p on q = p − off: every index is in
    range. Where q leaves the grid, past its ends or wrapped into the next
    row, that weight is 0, so the attack is +0.0 and never wins.
    ``labels`` and ``theta`` are the attackers' old states. Targets are
    distinct, so writing each strict win keeps the running maximum and the
    last strict win in ``new_theta`` and ``new_labels``, as the sequential
    scan does. Each target won is marked in ``changed``; returns how many
    were won. The chunk's own arguments come last, so that one partial
    binds the rest for every chunk of an offset.
    """
    target = cells - off
    att = plane.take(cells)
    att *= theta
    # wrapping reads an in-range cell, and is faster than clipping
    win = (att > new_theta.take(target, mode="wrap")).nonzero()[0]
    if not win.size:
        return 0
    hit = target.take(win)
    new_theta[hit] = att.take(win)
    new_labels[hit] = labels.take(win)
    changed[hit] = True
    return hit.size


@functools.lru_cache(maxsize=None)
def _pool(workers):
    """One thread pool per worker count, kept for the life of the process."""
    from concurrent.futures import ThreadPoolExecutor  # loaded by the first pool only

    return ThreadPoolExecutor(max_workers=workers)


def evolve_step(grid: AutomatonGrid, weights, threads: int = 1, *, spare: AutomatonGrid | None = None):
    """One synchronous evolution step; returns (grid at t+1, whether any cell moved).

    ``weights`` are ``NeighborWeights`` of the grid's shape. Only the cells
    in ``grid.changed`` attack: an attack from any other cell is no
    stronger than its target, so it cannot strictly win. The offsets are
    taken in their fixed order; for each, the attackers are cut into chunks
    of ``_CHUNK`` cells, which hit disjoint targets. One loop maps them for
    every thread count: a step of several chunks on ``threads`` > 1 maps
    them onto a pool of that many workers, and any other step maps them on
    the calling thread. The pool changes only which thread runs a chunk,
    not the loop that runs it, so the result is independent of both. Each
    chunk marks the targets it wins in the new grid's ``changed``: the
    cells that moved, the only ones whose attacks can win the next step.
    The input grid is left untouched.

    The new grid has fresh buffers unless ``spare`` is given: the grid that
    ``grid`` was stepped from, which differs from it only at the cells
    ``grid.changed`` marks. Its buffers are brought up to ``grid`` at those
    cells, its mask is cleared, and it is overwritten and returned as the
    grid at t+1, so a caller that owns both grids steps between them
    without allocating. It must be another grid of the same shape.
    """
    if threads < 1:
        raise ContractError("threads must be >= 1")
    shape = grid.labels.shape
    if not isinstance(weights, NeighborWeights) or weights.shape != shape:
        raise ContractError("weights must be NeighborWeights of the grid's shape")
    labels, theta = grid.labels.ravel(), grid.theta.ravel()
    cells = np.flatnonzero(grid.changed)
    old_labels, old_theta = labels.take(cells), theta.take(cells)
    if spare is None:
        spare = AutomatonGrid(grid.labels.copy(), grid.theta.copy(), np.zeros(shape, dtype=bool))
    elif spare is grid or spare.labels.shape != shape:
        raise ContractError("spare must be another grid of the same shape")
    new_labels, new_theta, changed = (a.ravel() for a in (spare.labels, spare.theta, spare.changed))
    new_labels[cells] = old_labels
    new_theta[cells] = old_theta
    changed.fill(False)
    starts = range(0, cells.size, _CHUNK)
    parts = [[array[i : i + _CHUNK] for i in starts] for array in (cells, old_labels, old_theta)]
    jobs = _pool(threads).map if threads > 1 and len(starts) > 1 else map
    moved = 0
    for off, plane in weights.attacks:
        # every chunk of one offset lands before the next offset starts
        moved += sum(jobs(functools.partial(_attack, off, plane, new_labels, new_theta, changed), *parts))
    return spare, moved > 0


def run_to_convergence(grid: AutomatonGrid, weights, max_iters: int, threads: int = 1):
    """Evolve until a step changes nothing or ``max_iters`` is reached.

    Returns (grid, steps_executed, converged); the count includes the final
    verification pass that observes no change. The run steps between the
    grid it is given and one grid of its own, built by the first step: each
    later step is written into the grid from two steps back, its ``spare``.
    So the given grid is overwritten from the second step on; each step's
    input is intact when that step returns.
    """
    if max_iters < 1:
        raise ContractError("max_iters must be >= 1")
    older = None  # the grid ``grid`` was stepped from, once there is one
    for steps in range(1, max_iters + 1):
        older, (grid, moved) = grid, evolve_step(grid, weights, threads=threads, spare=older)
        if not moved:
            return grid, steps, True
    return grid, max_iters, False
