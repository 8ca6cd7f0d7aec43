import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ca_segment import automaton
from ca_segment import (
    AutomatonGrid,
    ContractError,
    MultibandImage,
    NeighborhoodKind,
    SeedMap,
    evolve_step,
    init_from_seeds,
    neighbor_weights,
    run_to_convergence,
)


EPSILON = 1e-6


def image_from(data, depth=8):
    dtype = np.uint8 if depth == 8 else np.uint16
    return MultibandImage(data=np.asarray(data, dtype=dtype), depth=depth)


def seed_map(width, height, pairs):
    """Seed raster with label l at each flat index p of the (p, l) pairs."""
    labels = np.zeros(height * width, dtype=np.uint32)
    for p, l in pairs:
        labels[p] = l
    keys = [(0, l) for l in range(1, int(labels.max(initial=0)) + 1)]
    return SeedMap(labels=labels.reshape(height, width), keys=keys)


def weights_for(image, nb=NeighborhoodKind.MOORE8):
    return neighbor_weights(image, nb, EPSILON)


def copied(grid, changed=True):
    """A grid of copies of ``grid``'s buffers; with ``changed`` false, one of unknown history."""
    mask = grid.changed.copy() if changed else None
    return AutomatonGrid(labels=grid.labels.copy(), theta=grid.theta.copy(), changed=mask)


def random_setup(rng, max_side=32, max_bands=4):
    h = int(rng.integers(2, max_side + 1))
    w = int(rng.integers(2, max_side + 1))
    bands = int(rng.integers(1, max_bands + 1))
    image = image_from(rng.integers(0, 256, size=(h, w, bands)))
    count = int(rng.integers(1, min(h * w, 8) + 1))
    idx = rng.choice(h * w, size=count, replace=False)
    labels = rng.integers(1, 6, size=count)
    return image, seed_map(w, h, zip(idx.tolist(), labels.tolist()))


def reference_trajectory(grid, image, nb, min_steps=1):
    """Loop-oracle states after each step, up to the first unchanged one."""
    states = [(grid.labels.copy(), grid.theta.copy())]
    while len(states) <= min_steps or not (
        (states[-1][0] == states[-2][0]).all() and (states[-1][1] == states[-2][1]).all()
    ):
        states.append(
            reference.evolve_by_loop(
                *states[-1], image.data, nb.offsets(), EPSILON, image.max_distance
            )
        )
    return states[1:]


def attack_factors(image):
    """Factor of the attack from (1, c) on (0, c) for each column c."""
    weights = weights_for(image, NeighborhoodKind.VONNEUMANN4)
    (plane,) = [plane for dr, dc, plane in weights if (dr, dc) == (1, 0)]
    return plane[0]


class TestAttenuation:
    # D is 255 * 2 for 4-band 8-bit data, so these distances are exact
    def test_zero_distance(self):
        image = image_from(np.full((2, 1, 4), 77))
        assert attack_factors(image).tolist() == [1.0]

    def test_floor_at_max_distance(self):
        image = image_from([[[0, 0, 0, 0]], [[255, 255, 255, 255]]])
        assert attack_factors(image).tolist() == [EPSILON]

    def test_linear_midpoint(self):
        image = image_from([[[0, 0, 0, 0]], [[255, 0, 0, 0]]])
        assert attack_factors(image).tolist() == [0.5]

    def test_monotone_non_increasing(self):
        # row 0 is black, row 1 a ramp from black to white in every band
        ramp = np.linspace(0, 255, 50).astype(np.uint8)
        data = np.zeros((2, ramp.size, 4), dtype=np.uint8)
        data[1] = ramp[:, None]
        values = attack_factors(image_from(data)).tolist()
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert (values[0], values[-1]) == (1.0, EPSILON)

    def test_max_distance(self):
        assert image_from(np.zeros((1, 1, 3))).max_distance == pytest.approx(255 * np.sqrt(3))
        image = image_from(np.zeros((1, 1, 8)), depth=16)
        assert image.max_distance == pytest.approx(65535 * np.sqrt(8))

    def test_invalid_params(self):
        image = image_from(np.zeros((2, 2, 1)))
        for epsilon in (0.0, 1.0, -1e-6, 1.5, float("nan")):
            with pytest.raises(ContractError, match="epsilon"):
                neighbor_weights(image, NeighborhoodKind.MOORE8, epsilon)


class TestNeighborWeights:
    @pytest.mark.parametrize("nb", list(NeighborhoodKind))
    @pytest.mark.parametrize(
        "shape, depth", [((5, 7, 3), 8), ((6, 4, 8), 16), ((1, 9, 2), 8), ((9, 1, 2), 16)]
    )
    def test_every_entry_matches_loop_oracle(self, nb, shape, depth):
        rng = np.random.default_rng(67)
        top = (1 << depth) - 1
        data = rng.integers(0, top + 1, size=shape)
        # two adjacent extremes are max_distance apart, which drives the factor
        # between them down to the epsilon floor
        data[0, 0] = 0
        data[(0, 1) if shape[1] > 1 else (1, 0)] = top
        image = image_from(data, depth=depth)
        weights = weights_for(image, nb)
        want = reference.weight_planes_by_loop(
            image.data, nb.offsets(), EPSILON, image.max_distance
        )
        assert [(dr, dc) for dr, dc, _ in weights] == list(nb.offsets())
        assert any((plane == EPSILON).any() for plane in want)
        for (_, _, plane), expected in zip(weights, want):
            assert plane.dtype == np.float64
            assert (plane == expected).all()

    @pytest.mark.parametrize("nb", list(NeighborhoodKind))
    @pytest.mark.parametrize("shape", [(5, 7, 2), (1, 9, 2), (9, 1, 2), (1, 1, 1)])
    def test_mirrored_planes_are_shifted_views(self, nb, shape):
        # the plane of (dr, dc) at (r, c) is its partner's at (r + dr, c + dc)
        # and zero where that cell is off the grid; both are views of one
        # buffer, though on a 1-row or 1-column grid they need not overlap
        h, w, _ = shape
        image = image_from(np.random.default_rng(71).integers(0, 256, size=shape))
        planes = {(dr, dc): plane for dr, dc, plane in weights_for(image, nb)}
        offsets = nb.offsets()
        for dr, dc in offsets[len(offsets) // 2 :]:
            plane, partner = planes[dr, dc], planes[-dr, -dc]
            assert plane.base is not None and plane.base is partner.base
            padded = np.zeros((h + 2, w + 2))
            padded[1:-1, 1:-1] = partner
            want = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
            assert plane.tobytes() == want.tobytes()


class TestAutomatonGrid:
    def test_changed_mask_checked(self):
        labels = np.zeros((2, 3), dtype=np.uint32)
        theta = np.zeros((2, 3), dtype=np.float64)
        with pytest.raises(ContractError):
            AutomatonGrid(labels=labels, theta=theta, changed=np.zeros((3, 2), dtype=bool))
        with pytest.raises(ContractError):
            AutomatonGrid(labels=labels, theta=theta, changed=np.zeros((2, 3), dtype=np.uint8))

    def test_buffers_must_be_c_contiguous(self):
        # a step writes through flat views of any grid it is handed as spare
        labels = np.zeros((2, 3), dtype=np.uint32)
        theta = np.zeros((2, 3), dtype=np.float64)
        changed = np.zeros((2, 3), dtype=bool)
        for args in (
            (np.zeros((3, 2), dtype=np.uint32).T, theta, changed),
            (labels, np.zeros((2, 6), dtype=np.float64)[:, ::2], changed),
            (labels, theta, np.zeros((3, 2), dtype=bool).T),
        ):
            with pytest.raises(ContractError, match="C-contiguous"):
                AutomatonGrid(*args)

    def test_nulled_joins_the_freed_cells_and_their_ring(self):
        # the freed cells and their Moore ring join the seed already marked
        grid = init_from_seeds(seed_map(6, 4, [(5, 1), (9, 2), (23, 3)]))
        freed = np.zeros((4, 6), dtype=bool)
        freed[1, 3] = freed[3, 5] = True
        out = copied(grid)
        out.null(freed)
        assert out.labels.ravel().tolist() == [0] * 5 + [1] + [0] * 18
        assert (out.theta == (out.labels != 0)).all()
        assert out.changed.astype(int).tolist() == [
            [0, 0, 1, 1, 1, 1],
            [0, 0, 1, 1, 1, 0],
            [0, 0, 1, 1, 1, 1],
            [0, 0, 0, 0, 1, 1],
        ]
        assert grid.labels.ravel()[[5, 9, 23]].tolist() == [1, 2, 3]
        unknown = copied(grid, changed=False)
        unknown.null(freed)
        assert unknown.changed.all()

    def test_null_refuses_a_mask_before_writing(self):
        # an index array would null whole rows through labels[idx] before
        # the ring marking failed, leaving the grid half nulled
        grid = init_from_seeds(seed_map(4, 4, [(0, 1), (5, 2), (10, 3), (15, 4)]))
        before = [a.tobytes() for a in (grid.labels, grid.theta, grid.changed)]
        for cells in (
            np.ones((4, 4), dtype=np.uint8),
            np.array([1, 2]),
            np.ones((4, 5), dtype=bool),
            np.ones(16, dtype=bool),
        ):
            with pytest.raises(ContractError, match="bool mask"):
                grid.null(cells)
            assert [a.tobytes() for a in (grid.labels, grid.theta, grid.changed)] == before


class TestInitFromSeeds:
    def test_single_seed(self):
        grid = init_from_seeds(seed_map(2, 2, [(0, 1)]))
        assert grid.labels.ravel().tolist() == [1, 0, 0, 0]
        assert grid.theta.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]
        assert grid.changed.ravel().tolist() == [True, False, False, False]

    def test_no_seeds_is_immediate_fixpoint(self):
        grid = init_from_seeds(seed_map(3, 2, []))
        image = image_from(np.zeros((2, 3, 1)))
        _, changed = evolve_step(grid, weights_for(image))
        assert not changed

    def test_fully_seeded_is_fixpoint(self):
        grid = init_from_seeds(seed_map(2, 2, [(0, 1), (1, 1), (2, 2), (3, 2)]))
        image = image_from(np.zeros((2, 2, 1)))
        next_grid, changed = evolve_step(grid, weights_for(image))
        assert not changed
        assert (next_grid.labels == grid.labels).all()

    def test_grid_does_not_share_the_seed_raster(self):
        seeds = seed_map(2, 1, [(1, 1)])
        grid = init_from_seeds(seeds)
        grid.labels[0, 0] = 1
        assert seeds.labels.tolist() == [[0, 1]]


class TestEvolveStep:
    def test_one_step_colonizes_only_adjacent(self):
        image = image_from(np.full((1, 3, 1), 10))
        grid = init_from_seeds(seed_map(3, 1, [(0, 1)]))
        grid, changed = evolve_step(grid, weights_for(image))
        assert changed
        # uniform image: attack strength 1 reaches cell 1; cell 2's only
        # labeled neighbor was still null at step t
        assert grid.labels.ravel().tolist() == [1, 1, 0]
        assert grid.theta.ravel().tolist() == [1.0, 1.0, 0.0]

    def test_dimension_mismatch_rejected(self):
        image = image_from(np.zeros((2, 2, 1)))
        grid = init_from_seeds(seed_map(3, 3, [(0, 1)]))
        with pytest.raises(ContractError):
            evolve_step(grid, weights_for(image))

    def test_matches_loop_reference_bitwise(self, monkeypatch):
        # the default chunk size, then 7-cell chunks on 1, 2 and 3 workers so
        # that frontiers span several chunks; every step up to the oracle's
        # fixpoint, and at least 6, must agree bit for bit
        rng = np.random.default_rng(41)
        layouts = ((automaton._CHUNK, 1), (7, 1), (7, 2), (7, 3))
        for nb in NeighborhoodKind:
            for _ in range(10):
                image, seeds = random_setup(rng, max_side=12)
                weights = weights_for(image, nb)
                start = init_from_seeds(seeds)
                ref = reference_trajectory(start, image, nb, min_steps=6)
                for chunk, threads in layouts:
                    monkeypatch.setattr(automaton, "_CHUNK", chunk)
                    grid = start
                    for ref_labels, ref_theta in ref:
                        before = grid
                        grid, _ = evolve_step(grid, weights, threads=threads)
                        assert (grid.labels == ref_labels).all()
                        assert (grid.theta == ref_theta).all()
                        # changed holds exactly the cells that moved, no more
                        moved = (grid.labels != before.labels) | (grid.theta != before.theta)
                        assert (grid.changed == moved).all()

    def test_thread_counts_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(43)
        image, seeds = random_setup(rng, max_side=24)
        weights = weights_for(image)
        base = init_from_seeds(seeds)
        results = []
        for threads in (1, 2, 3, 8):
            grid = base
            for _ in range(5):
                grid, _ = evolve_step(grid, weights, threads=threads)
            results.append(grid)
        for other in results[1:]:
            assert (other.labels == results[0].labels).all()
            assert (other.theta == results[0].theta).all()
        # with 7-cell chunks the workers split every frontier of 8 cells or
        # more, and a short switch interval interleaves them often; each
        # step up to the fixpoint must match the loop oracle
        ref = reference_trajectory(base, image, NeighborhoodKind.MOORE8)
        monkeypatch.setattr(automaton, "_CHUNK", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 3):
                grid = base
                for ref_labels, ref_theta in ref:
                    grid, _ = evolve_step(grid, weights, threads=threads)
                    assert (grid.labels == ref_labels).all()
                    assert (grid.theta == ref_theta).all()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("nb", list(NeighborhoodKind))
    def test_only_the_changed_cells_attack(self, monkeypatch, nb, threads):
        # every step makes len(offsets) passes, one per offset in order, and
        # each pass's chunks together hold exactly the cells marked changed,
        # on the calling thread and on the pool alike
        passes = []
        kernel = automaton._attack
        lock = threading.Lock()

        def spy(off, plane, new_labels, new_theta, changed, cells, *rest):
            with lock:
                # a new pass starts with a new plane: flat offsets can repeat
                if not passes or passes[-1][1] is not plane:
                    passes.append((off, plane, []))
                passes[-1][2].extend(cells.tolist())
            return kernel(off, plane, new_labels, new_theta, changed, cells, *rest)

        monkeypatch.setattr(automaton, "_attack", spy)
        monkeypatch.setattr(automaton, "_CHUNK", 7)
        rng = np.random.default_rng(71)
        image, seeds = random_setup(rng, max_side=12)
        weights = weights_for(image, nb)
        w = image.width
        grid = init_from_seeds(seeds)
        offsets = [dr * w + dc for dr, dc in nb.offsets()]
        sizes = []
        for step in range(image.width + image.height + 1):
            if step == 3:
                # an unknown history means every cell attacks
                grid = AutomatonGrid(labels=grid.labels, theta=grid.theta)
                attackers = list(range(grid.labels.size))
            else:
                attackers = np.flatnonzero(grid.changed).tolist()
            if step == 0:
                assert attackers == np.flatnonzero(seeds.labels).tolist()
            passes.clear()
            grid, changed = evolve_step(grid, weights, threads=threads)
            sizes.append(len(attackers))
            assert [off for off, _, _ in passes] == (offsets if attackers else [])
            # workers may finish one offset's chunks in any order
            arrived = (cells if threads == 1 else sorted(cells) for _, _, cells in passes)
            assert all(cells == attackers for cells in arrived)
            if not changed:
                break
        assert not changed
        assert max(sizes) > automaton._CHUNK

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        image = image_from(np.full((2, 3, 1), 10))
        grid = init_from_seeds(seed_map(3, 2, [(0, 1)]))
        weights = weights_for(image)
        with pytest.raises(ContractError, match="threads must be >= 1"):
            evolve_step(grid, weights, threads=threads)
        with pytest.raises(ContractError, match="threads must be >= 1"):
            run_to_convergence(grid, weights, 50, threads=threads)

    def test_enumeration_order_settles_ties(self):
        # two seeds with equal attack strength on the middle cell: the
        # neighbor scanned first (lower row-major offset) must win
        image = image_from(np.full((1, 3, 1), 10))
        grid = init_from_seeds(seed_map(3, 1, [(0, 1), (2, 2)]))
        grid, _ = evolve_step(grid, weights_for(image))
        assert grid.labels[0, 1] == 1


grid_cases = st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from(list(NeighborhoodKind)), st.integers(0, 8)
)


@settings(max_examples=60, deadline=None)
@given(grid_cases)
def test_nulled_grid_runs_as_from_an_unknown_history(case):
    # from a grid converged (or stopped after 1-8 steps), nulling a random
    # mask and evolving from the marked cells ends, bit for bit and in as
    # many steps, where evolving with every cell attacking ends
    seed, nb, stop = case
    rng = np.random.default_rng(seed)
    image, seeds = random_setup(rng, max_side=14)
    weights = weights_for(image, nb)
    grid = init_from_seeds(seeds)
    grid, _, _ = run_to_convergence(grid, weights, max_iters=stop or 1000)
    freed = rng.random(grid.labels.shape) < rng.uniform(0.05, 0.6)
    marked, unknown = copied(grid), copied(grid, changed=False)
    marked.null(freed)
    unknown.null(freed)
    runs = [run_to_convergence(start, weights, max_iters=1000) for start in (marked, unknown)]
    (got, got_steps, got_conv), (want, want_steps, want_conv) = runs
    assert got_conv and want_conv
    assert got_steps == want_steps
    assert (got.labels == want.labels).all()
    assert (got.theta == want.theta).all()


class TestRunToConvergence:
    def test_line_needs_two_passes_plus_verification(self):
        image = image_from(np.full((1, 3, 1), 10))
        grid = init_from_seeds(seed_map(3, 1, [(0, 1)]))
        grid, steps, converged = run_to_convergence(grid, weights_for(image), max_iters=100)
        assert (steps, converged) == (3, True)
        assert (grid.labels == 1).all()
        assert (grid.theta == 1.0).all()

    @pytest.mark.parametrize("n", [4, 7, 11, 16])
    def test_wavefront_steps_equal_eccentricity_plus_one(self, n):
        image = image_from(np.full((n, n, 2), 77))
        center = (n // 2) * n + n // 2
        grid = init_from_seeds(seed_map(n, n, [(center, 1)]))
        grid, steps, converged = run_to_convergence(
            grid, weights_for(image), max_iters=10 * n
        )
        r0 = c0 = n // 2
        ecc = max(max(abs(r - r0), abs(c - c0)) for r in (0, n - 1) for c in (0, n - 1))
        assert converged
        assert steps == ecc + 1
        assert (grid.labels == 1).all()

    def test_already_converged_is_one_step(self):
        image = image_from(np.zeros((2, 2, 1)))
        grid = init_from_seeds(seed_map(2, 2, [(i, 1) for i in range(4)]))
        _, steps, converged = run_to_convergence(grid, weights_for(image), max_iters=10)
        assert (steps, converged) == (1, True)

    def test_max_iters_cap_reported(self):
        image = image_from(np.full((1, 5, 1), 10))
        grid = init_from_seeds(seed_map(5, 1, [(0, 1)]))
        _, steps, converged = run_to_convergence(grid, weights_for(image), max_iters=2)
        assert (steps, converged) == (2, False)

    def test_invalid_max_iters(self):
        image = image_from(np.zeros((1, 1, 1)))
        grid = init_from_seeds(seed_map(1, 1, [(0, 1)]))
        with pytest.raises(ContractError):
            run_to_convergence(grid, weights_for(image), max_iters=0)

    @pytest.mark.parametrize("nb", list(NeighborhoodKind))
    def test_a_run_equals_its_steps(self, monkeypatch, nb):
        # a run steps between the grid it is given and one of its own; it
        # must end where chaining steps on fresh buffers ends, bit for bit
        # and with the same mask, count and flag, from seeds and from a
        # nulled grid, capped or not, on 1 to 3 workers over 7-cell chunks
        def chained(grid, weights, max_iters, threads):
            for steps in range(1, max_iters + 1):
                grid, moved = evolve_step(grid, weights, threads=threads)
                if not moved:
                    return grid, steps, True
            return grid, max_iters, False

        step = automaton.evolve_step
        calls = []

        def counted(grid, *args, **kwargs):
            calls.append(grid)
            result = step(grid, *args, **kwargs)
            calls.append(result[0])
            return result

        monkeypatch.setattr(automaton, "_CHUNK", 7)
        rng = np.random.default_rng(47)
        for _ in range(6):
            image, seeds = random_setup(rng, max_side=16)
            weights = weights_for(image, nb)
            seeded = init_from_seeds(seeds)
            settled, _, _ = chained(seeded, weights, 1000, 1)
            freed = rng.random(settled.labels.shape) < 0.3
            nulled = copied(settled)
            nulled.null(freed)
            for start in (seeded, nulled):
                for threads in (1, 2, 3):
                    for max_iters in (2, 1000):
                        want, want_steps, want_conv = chained(start, weights, max_iters, threads)
                        given = copied(start)
                        calls.clear()
                        monkeypatch.setattr(automaton, "evolve_step", counted)
                        got, steps, converged = run_to_convergence(
                            given, weights, max_iters, threads=threads
                        )
                        monkeypatch.setattr(automaton, "evolve_step", step)
                        assert (steps, converged) == (want_steps, want_conv)
                        assert got.labels.tobytes() == want.labels.tobytes()
                        assert got.theta.tobytes() == want.theta.tobytes()
                        assert (got.changed == want.changed).all()
                        # one traced call per step, each on the grid the last one returned
                        assert len(calls) == 2 * steps
                        assert calls[0] is given and calls[-1] is got
                        assert all(a is b for a, b in zip(calls[1:-1:2], calls[2::2]))
                        # every second step is written into the given grid
                        assert [r is given for r in calls[1::2]] == [k % 2 == 0 for k in range(1, steps + 1)]
                        if steps == 1:
                            for array, before in zip(
                                (given.labels, given.theta, given.changed),
                                (start.labels, start.theta, start.changed),
                            ):
                                assert array.tobytes() == before.tobytes()

    def test_a_run_holds_one_grid_of_its_own(self):
        # a wavefront from one seed moves 8k cells at step k, so the run's
        # own grid is most of what it allocates: one grid, not two
        import tracemalloc

        n = 128
        image = image_from(np.full((n, n, 2), 50))
        weights = weights_for(image)
        grid = init_from_seeds(seed_map(n, n, [(n // 2 * n + n // 2, 1)]))
        grid_bytes = sum(a.nbytes for a in (grid.labels, grid.theta, grid.changed))
        tracemalloc.start()
        try:
            out, steps, _ = run_to_convergence(grid, weights, max_iters=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == 4
        assert peak < 1.5 * grid_bytes, (peak, grid_bytes)
        assert int(out.labels.astype(bool).sum()) == 9 * 9

    def test_checks_what_it_does_not_build(self):
        # only NeighborWeights of the grid's shape are taken, from
        # neighbor_weights or built from triples, and a spare must be another
        # grid of the step's shape
        image = image_from(np.full((3, 4, 1), 10))
        weights = weights_for(image)
        grid = init_from_seeds(seed_map(4, 3, [(5, 1)]))
        want, _ = evolve_step(grid, weights)
        got, _ = evolve_step(grid, automaton.NeighborWeights(list(weights), (3, 4)))
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.theta.tobytes() == want.theta.tobytes()
        for triples in (list(weights), list(weights)[1:]):
            with pytest.raises(ContractError, match="NeighborWeights"):
                evolve_step(grid, triples)
            with pytest.raises(ContractError, match="NeighborWeights"):
                run_to_convergence(grid, triples, max_iters=5)
        with pytest.raises(ContractError, match="mirrored pairs"):
            automaton.NeighborWeights(list(weights)[:-1], (3, 4))
        small = init_from_seeds(seed_map(3, 3, [(0, 1)]))
        for spare in (grid, small):
            with pytest.raises(ContractError, match="spare"):
                evolve_step(grid, weights, spare=spare)


class TestEvolutionInvariants:
    def test_strength_and_label_invariants_over_random_runs(self):
        rng = np.random.default_rng(47)
        for trial in range(25):
            nb = NeighborhoodKind.MOORE8 if trial % 2 else NeighborhoodKind.VONNEUMANN4
            image, seeds = random_setup(rng, max_side=16)
            weights = weights_for(image, nb)
            grid = init_from_seeds(seeds)
            seed_labels = set(seeds.labels.ravel().tolist()) - {0}
            for _ in range(10 * (image.width + image.height)):
                new_grid, changed = evolve_step(grid, weights)
                assert (new_grid.theta >= grid.theta).all()
                assert (new_grid.theta <= 1.0).all()
                assert ((new_grid.labels == 0) == (new_grid.theta == 0.0)).all()
                present = set(np.unique(new_grid.labels).tolist()) - {0}
                assert present <= seed_labels
                grid = new_grid
                if not changed:
                    break
            assert not changed

    def test_fixpoint_is_stable(self):
        rng = np.random.default_rng(53)
        image, seeds = random_setup(rng, max_side=12)
        weights = weights_for(image)
        grid = init_from_seeds(seeds)
        grid, _, converged = run_to_convergence(grid, weights, max_iters=1000)
        assert converged
        again, changed = evolve_step(grid, weights)
        assert not changed
        assert (again.labels == grid.labels).all()
        assert (again.theta == grid.theta).all()

    def test_colonization_completeness(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            image, _ = random_setup(rng, max_side=12)
            seeds = seed_map(image.width, image.height, [(0, 1)])
            grid = init_from_seeds(seeds)
            grid, _, converged = run_to_convergence(
                grid, weights_for(image), max_iters=10 * (image.width + image.height)
            )
            assert converged
            assert (grid.labels != 0).all()
            assert (grid.theta > 0.0).all()

    def test_homogeneous_regions_keep_their_seed_label(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            h = int(rng.integers(4, 33))
            w = int(rng.integers(4, 33))
            split = int(rng.integers(1, w))
            data = np.empty((h, w, 3), dtype=np.uint8)
            data[:, :split] = (30, 60, 90)
            data[:, split:] = (190, 140, 20)
            image = image_from(data)
            left = (rng.integers(0, h) * w + rng.integers(0, split))
            right = (rng.integers(0, h) * w + rng.integers(split, w))
            seeds = seed_map(w, h, [(int(left), 1), (int(right), 2)])
            grid = init_from_seeds(seeds)
            grid, _, converged = run_to_convergence(
                grid, weights_for(image), max_iters=10 * (w + h)
            )
            assert converged
            assert (grid.labels[:, :split] == 1).all()
            assert (grid.labels[:, split:] == 2).all()
