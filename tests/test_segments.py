import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from ca_segment import segments
from ca_segment import (
    AutomatonGrid,
    ContractError,
    LabelRaster,
    MultibandImage,
    NeighborhoodKind,
    eliminate_oversegmentation,
    SeedMap,
    Segment,
    extract_segments,
    init_from_seeds,
    medoid_signature,
    neighbor_weights,
    null_small_segments,
    run_to_convergence,
)


def raster(rows):
    return LabelRaster(labels=np.asarray(rows, dtype=np.uint32))


def grid_from_labels(rows):
    labels = np.asarray(rows, dtype=np.uint32)
    theta = (labels != 0).astype(np.float64)
    return AutomatonGrid(labels=labels, theta=theta)


def grid_bytes(grid):
    return [a.tobytes() for a in (grid.labels, grid.theta, grid.changed)]


def pixels_of(seg):
    """A segment's flat indices, expanded from its runs."""
    return reference.expand_runs(seg.starts, seg.lengths)


def segment_of(pixels, width):
    """A one-label segment of the flat indices ``pixels``, as row runs cut at row ends."""
    return Segment(1, 1, *reference.row_runs(pixels, width))


def image_from(data):
    return MultibandImage(data=np.asarray(data, dtype=np.uint8), depth=8)


def moore_weights(image):
    return neighbor_weights(image, NeighborhoodKind.MOORE8, 1e-6)


def assert_extraction_of(segs, labels, connectivity=NeighborhoodKind.MOORE8):
    fresh = extract_segments(LabelRaster(labels=labels), connectivity)
    assert segs.shape == fresh.shape == labels.shape
    assert (segs.id_raster() == fresh.id_raster()).all()
    assert len(segs) == len(fresh)
    for got, want in zip(segs.segments, fresh.segments):
        assert (got.id, got.label, got.area) == (want.id, want.label, want.area)
        assert got.starts.tolist() == want.starts.tolist()
        assert got.lengths.tolist() == want.lengths.tolist()
        assert pixels_of(got) == pixels_of(want)


def assert_runs_are_rows(segs, labels):
    """Each segment's runs lie in one row each, ascend, are disjoint and sum to its area."""
    w = labels.shape[1]
    for seg in segs.segments:
        starts, lengths = seg.starts, seg.lengths
        assert starts.size == lengths.size >= 1
        assert (lengths >= 1).all()
        assert ((starts + lengths - 1) // w == starts // w).all()
        assert (starts[1:] >= starts[:-1] + lengths[:-1]).all()
        assert int(lengths.sum()) == seg.area
        assert (labels.ravel()[pixels_of(seg)] == seg.label).all()


class TestExtractSegments:
    def test_two_horizontal_bands(self):
        segs = extract_segments(raster([[1, 1], [2, 2]]), NeighborhoodKind.MOORE8)
        assert len(segs) == 2
        assert segs.segments[0].label == 1
        assert pixels_of(segs.segments[0]) == [0, 1]
        assert segs.segments[1].label == 2
        assert pixels_of(segs.segments[1]) == [2, 3]
        assert segs.id_raster().tolist() == [[1, 1], [2, 2]]

    def test_checkerboard_splits_under_edge_connectivity(self):
        rows = [[1 + (r + c) % 2 for c in range(4)] for r in range(4)]
        segs = extract_segments(raster(rows), NeighborhoodKind.VONNEUMANN4)
        assert len(segs) == 16
        assert all(s.area == 1 for s in segs.segments)
        # corner connectivity bridges the diagonals instead
        segs8 = extract_segments(raster(rows), NeighborhoodKind.MOORE8)
        assert len(segs8) == 2

    def test_ids_follow_first_pixel_order(self):
        segs = extract_segments(raster([[2, 1], [1, 2]]), NeighborhoodKind.VONNEUMANN4)
        assert [s.id for s in segs.segments] == [1, 2, 3, 4]
        assert [pixels_of(s)[0] for s in segs.segments] == [0, 1, 2, 3]
        assert [s.label for s in segs.segments] == [2, 1, 1, 2]

    def test_same_label_disjoint_components_split(self):
        segs = extract_segments(raster([[1, 0, 1]]), NeighborhoodKind.MOORE8)
        assert len(segs) == 2
        assert all(s.label == 1 for s in segs.segments)
        assert segs.id_raster().tolist() == [[1, 0, 2]]

    def test_links_do_not_wrap_across_row_ends(self):
        # in flat order, the last column of a row is next to the first of
        # the next row; a diagonal from the last column of row 0 reaches
        # column 0 of row 2, and one from column 0 of row 1 the last column
        # of row 1; only the last grid has segments of more than one pixel
        cases = [
            ([[0, 0, 1], [1, 0, 0], [0, 0, 1]], [[2], [3], [8]]),
            ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], [[2], [6]]),
            ([[0, 0, 0], [1, 0, 1]], [[3], [5]]),
            ([[2, 2, 1], [1, 2, 2], [1, 1, 2]], [[0, 1, 4, 5, 8], [2], [3, 6, 7]]),
        ]
        for rows, members in cases:
            for nb in NeighborhoodKind:
                segs = extract_segments(raster(rows), nb)
                assert [pixels_of(s) for s in segs.segments] == members, (rows, nb)
                assert_matches_bfs(np.asarray(rows, dtype=np.uint32), nb)

    def test_all_null(self):
        segs = extract_segments(raster([[0, 0], [0, 0]]), NeighborhoodKind.MOORE8)
        assert len(segs) == 0
        assert (segs.id_raster() == 0).all()

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            h = int(rng.integers(1, 17))
            w = int(rng.integers(1, 17))
            labels = rng.integers(0, 4, size=(h, w)).astype(np.uint32)
            for nb in NeighborhoodKind:
                segs = extract_segments(raster(labels), nb)
                expected = reference.components_by_bfs(labels, nb.offsets())
                assert len(segs) == len(expected)
                assert_runs_are_rows(segs, labels)
                for seg, members in zip(segs.segments, expected):
                    assert pixels_of(seg) == members
                    assert seg.area == len(members)
                    assert (segs.id_raster().ravel()[members] == seg.id).all()
                assert sum(s.area for s in segs.segments) == int((labels != 0).sum())


def assert_matches_bfs(labels, connectivity):
    segs = extract_segments(raster(labels), connectivity)
    expected = reference.components_by_bfs(labels, connectivity.offsets())
    assert [pixels_of(s) for s in segs.segments] == expected
    assert [s.id for s in segs.segments] == list(range(1, len(expected) + 1))
    flat = labels.ravel()
    assert [s.label for s in segs.segments] == [int(flat[m[0]]) for m in expected]
    assert [s.area for s in segs.segments] == [len(m) for m in expected]
    want_map = np.zeros(labels.size, dtype=np.uint32)
    for sid, members in enumerate(expected, start=1):
        want_map[members] = sid
    assert segs.shape == labels.shape
    assert segs.id_raster().dtype == np.uint32
    assert segs.id_raster().tolist() == want_map.reshape(labels.shape).tolist()
    assert_runs_are_rows(segs, labels)


@st.composite
def label_grids(draw):
    h = draw(st.integers(1, 20))
    w = draw(st.integers(1, 20))
    top = draw(st.integers(0, 4))
    return draw(hnp.arrays(np.uint32, (h, w), elements=st.integers(0, top)))


@settings(max_examples=300, deadline=None)
@given(label_grids())
@example(np.array([[1, 1, 2, 0, 2, 2, 1]], dtype=np.uint32))
@example(np.array([[1], [1], [0], [3], [3], [1]], dtype=np.uint32))
@example(np.zeros((4, 6), dtype=np.uint32))
# pointer jumping must reach a fixpoint: one jump per round leaves a run
# here two links below its root (Moore), and its segment gets a wrong id
@example(np.array([[0, 2, 0, 0, 0, 0],
                   [1, 0, 2, 0, 0, 0],
                   [0, 0, 2, 0, 2, 0],
                   [0, 0, 0, 2, 0, 2]], dtype=np.uint32))
def test_extraction_matches_bfs_property(labels):
    for nb in NeighborhoodKind:
        assert_matches_bfs(labels, nb)


def serpentine(n):
    grid = np.ones((n, n), dtype=np.uint32)
    grid[1::4, :-1] = 0
    grid[3::4, 1:] = 0
    return grid


def comb(n):
    # teeth joined only along the top row, so each tooth is a long chain of
    # one-cell runs whose roots must merge in few rounds
    grid = np.full((n, n), 2, dtype=np.uint32)
    grid[1:, 1::2] = 1
    return grid


@pytest.mark.parametrize("labels", [serpentine(21), comb(20), comb(20)[::-1].copy()],
                         ids=["serpentine", "comb", "inverted-comb"])
@pytest.mark.parametrize("nb", list(NeighborhoodKind))
def test_extraction_matches_bfs_on_long_paths(labels, nb):
    assert_matches_bfs(labels, nb)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_raster_has_no_segments(shape):
    for nb in NeighborhoodKind:
        segs = extract_segments(raster(np.zeros(shape, dtype=np.uint32)), nb)
        assert len(segs) == 0
        assert segs.id_raster().shape == shape and segs.id_raster().dtype == np.uint32


class TestNullSmallSegments:
    def test_clears_only_undersized(self):
        runs = [(1, 3), (2, 149), (3, 150), (4, 900), (0, 78)]
        row = np.concatenate([np.full(n, v, dtype=np.uint32) for v, n in runs])
        grid = grid_from_labels(row[None, :])
        segs = extract_segments(LabelRaster(labels=grid.labels), NeighborhoodKind.MOORE8)
        cleared = null_small_segments(grid, segs, min_area=150)
        assert cleared == 2
        flat = grid.labels.ravel()
        assert (flat[:152] == 0).all()
        assert (flat[152:302] == 3).all()
        assert (flat[302:1202] == 4).all()
        assert ((grid.labels == 0) == (grid.theta == 0.0)).all()

    def test_input_grid_untouched(self):
        # the grid handed over is nulled in place, so a caller keeps its own by copying
        grid = grid_from_labels([[1, 2, 2]])
        segs = extract_segments(LabelRaster(labels=grid.labels), NeighborhoodKind.MOORE8)
        out = AutomatonGrid(labels=grid.labels.copy(), theta=grid.theta.copy())
        cleared = null_small_segments(out, segs, min_area=2)
        assert cleared == 1
        assert grid.labels.tolist() == [[1, 2, 2]]
        assert out.labels.tolist() == [[0, 2, 2]]

    def test_min_area_one_never_clears(self):
        grid = grid_from_labels([[1, 0], [0, 2]])
        segs = extract_segments(LabelRaster(labels=grid.labels), NeighborhoodKind.MOORE8)
        before = grid_bytes(grid)
        cleared = null_small_segments(grid, segs, min_area=1)
        assert cleared == 0
        assert grid_bytes(grid) == before  # nothing cleared, nothing written

    def test_invalid_min_area(self):
        grid = grid_from_labels([[1]])
        segs = extract_segments(LabelRaster(labels=grid.labels), NeighborhoodKind.MOORE8)
        before = grid_bytes(grid)
        with pytest.raises(ContractError):
            null_small_segments(grid, segs, min_area=0)
        assert grid_bytes(grid) == before


@settings(max_examples=200, deadline=None)
@given(label_grids(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_null_frees_exactly_the_small_components(labels, min_area, seed):
    # on multi-row grids, the nulled cells are the union of the components
    # below min_area, and changed gains exactly their 3x3 neighborhoods
    h, w = labels.shape
    rng = np.random.default_rng(seed)
    theta = rng.random((h, w))
    changed = rng.random((h, w)) < 0.3
    for nb in NeighborhoodKind:
        small = [m for m in reference.components_by_bfs(labels, nb.offsets()) if len(m) < min_area]
        freed = np.zeros(labels.size, dtype=bool)
        for m in small:
            freed[m] = True
        freed = freed.reshape(h, w)
        ring = np.zeros((h, w), dtype=bool)
        for r, c in zip(*np.nonzero(freed)):
            ring[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2] = True
        grid = AutomatonGrid(labels.copy(), theta.copy(), changed.copy())
        segs = extract_segments(raster(labels), nb)
        assert null_small_segments(grid, segs, min_area) == len(small)
        assert (grid.labels == np.where(freed, 0, labels)).all()
        assert (grid.theta == np.where(freed, 0.0, theta)).all()
        assert (grid.changed == (changed | ring)).all()


class TestEliminateOversegmentation:
    def test_clean_grid_uses_zero_rounds(self):
        image = image_from(np.full((2, 3, 1), 9))
        grid = grid_from_labels([[1, 1, 1], [1, 1, 1]])
        out, rounds, cleared, segs = eliminate_oversegmentation(
            grid, moore_weights(image), NeighborhoodKind.MOORE8, min_area=2, max_iters=50,
        )
        assert (rounds, cleared) == (0, [])
        assert (out.labels == grid.labels).all()
        assert_extraction_of(segs, out.labels)

    def test_small_island_absorbed(self):
        image = image_from(np.full((8, 8, 2), 40))
        labels = np.ones((8, 8), dtype=np.uint32)
        labels[:2, :2] = 2
        grid = grid_from_labels(labels)
        out, rounds, cleared, returned = eliminate_oversegmentation(
            grid, moore_weights(image), NeighborhoodKind.MOORE8, min_area=5, max_iters=160,
        )
        assert (rounds, cleared) == (1, [1])
        assert (out.labels == 1).all()
        segs = extract_segments(LabelRaster(labels=out.labels), NeighborhoodKind.MOORE8)
        assert len(segs) == 1
        assert segs.segments[0].area == 64
        assert_extraction_of(returned, out.labels)

    def test_exhausted_rounds_return_the_leftover_segment(self):
        # the freed cell takes the diagonal label 1 first in scan order, which
        # is a one-cell component under edge connectivity, so every round
        # clears it again and the rounds run out
        image = image_from(np.full((3, 4, 1), 7))
        grid = grid_from_labels([[1, 1, 2, 2], [2, 2, 3, 2], [2, 2, 2, 2]])
        out, rounds, cleared, segs = eliminate_oversegmentation(
            grid, moore_weights(image), NeighborhoodKind.VONNEUMANN4,
            min_area=2, max_iters=70, max_rounds=3,
        )
        assert (rounds, cleared) == (3, [1, 1, 1])
        assert out.labels.tolist() == [[1, 1, 2, 2], [2, 2, 1, 2], [2, 2, 2, 2]]
        assert_extraction_of(segs, out.labels, NeighborhoodKind.VONNEUMANN4)
        assert sorted(s.area for s in segs.segments) == [1, 2, 9]

    def test_iteration_cap_leaves_null_cells_in_returned_segments(self):
        # two steps refill only a two-cell ring of the freed 20 x 20 island
        image = image_from(np.full((40, 40, 1), 30))
        labels = np.ones((40, 40), dtype=np.uint32)
        labels[10:30, 10:30] = 2
        grid = grid_from_labels(labels)
        out, rounds, cleared, segs = eliminate_oversegmentation(
            grid, moore_weights(image), NeighborhoodKind.MOORE8, min_area=500, max_iters=2,
        )
        assert (rounds, cleared) == (1, [1])
        assert_extraction_of(segs, out.labels)
        assert int((segs.id_raster() == 0).sum()) == 256
        assert (segs.id_raster()[12:28, 12:28] == 0).all()
        assert [s.area for s in segs.segments] == [1600 - 256]

    def test_capped_run_eliminates_as_if_history_were_unknown(self):
        # a colonization stopped by max_iters still has a moving wavefront;
        # elimination must evaluate it as well as the freed cells, and so
        # end where a grid with no record of changes (every cell evaluated)
        # ends
        def seeded(width, height, pairs):
            labels = np.zeros(height * width, dtype=np.uint32)
            for p, l in pairs:
                labels[p] = l
            keys = [(0, l) for l in range(1, int(labels.max()) + 1)]
            return init_from_seeds(SeedMap(labels=labels.reshape(height, width), keys=keys))

        def eliminate_both(image, grid, min_area):
            weights = moore_weights(image)
            grid, _, converged = run_to_convergence(grid, weights, max_iters=2)
            # elimination overwrites its grid, so the two starts share no buffer
            unknown = AutomatonGrid(labels=grid.labels.copy(), theta=grid.theta.copy())
            results = []
            for start in (grid, unknown):
                try:
                    out, _, _, _ = eliminate_oversegmentation(
                        start, weights, NeighborhoodKind.MOORE8, min_area=min_area,
                        max_iters=10 * (image.width + image.height),
                    )
                except ContractError:
                    out = None  # every segment came out undersized
                results.append(out)
            return converged, results

        # on the line, 2 steps leave a front at cell 4 and nulls at 5 and 6;
        # label 2 (cells 7-9) is freed and label 1 must then fill the line
        image = image_from(np.full((1, 10, 1), 7))
        grid = seeded(10, 1, [(0, 1), (1, 1), (2, 1), (9, 2)])
        converged, (frontier, full) = eliminate_both(image, grid, min_area=4)
        assert not converged
        assert (full.labels == 1).all()
        assert (frontier.labels == full.labels).all()
        assert (frontier.theta == full.theta).all()

        rng = np.random.default_rng(73)
        for _ in range(12):
            h, w = int(rng.integers(4, 13)), int(rng.integers(4, 13))
            cells = rng.choice(h * w, size=int(rng.integers(3, 9)), replace=False)
            labels = rng.integers(1, 4, size=cells.size)
            image = image_from(rng.integers(0, 256, size=(h, w, 2)))
            grid = seeded(w, h, sorted(zip(cells.tolist(), labels.tolist())))
            _, (frontier, full) = eliminate_both(image, grid, min_area=3)
            assert (frontier is None) == (full is None)
            if full is not None:
                assert (frontier.labels == full.labels).all()
                assert (frontier.theta == full.theta).all()

    def test_freed_cell_goes_to_first_scanned_flank(self):
        # equal-strength attacks from both sides of the freed cell; the
        # left neighbor is scanned first and strict comparison keeps it
        image = image_from(np.full((1, 9, 1), 7))
        grid = grid_from_labels([[1, 1, 1, 1, 2, 3, 3, 3, 3]])
        out, rounds, _, _ = eliminate_oversegmentation(
            grid, moore_weights(image), NeighborhoodKind.MOORE8, min_area=2, max_iters=100,
        )
        assert rounds == 1
        assert out.labels.tolist() == [[1, 1, 1, 1, 1, 3, 3, 3, 3]]

    def test_a_round_holds_one_grid_of_its_own(self):
        # a round nulls the grid it is given, so what it allocates is the
        # reconvergence's own grid and a few masks, not a nulled copy as well
        import tracemalloc

        n = 128
        image = image_from(np.full((n, n, 2), 60))
        blocks = np.arange(1, 17, dtype=np.uint32).reshape(4, 4)
        labels = np.repeat(np.repeat(blocks, n // 4, axis=0), n // 4, axis=1)
        for k in range(8):
            labels[16 * k + 3 : 16 * k + 5, 16 * k + 9 : 16 * k + 11] = 17 + k
        # at full strength every cell holds, so no cell is left to evaluate
        grid = AutomatonGrid(labels, np.ones((n, n)), np.zeros((n, n), dtype=bool))
        weights = moore_weights(image)
        size = sum(a.nbytes for a in (grid.labels, grid.theta, grid.changed))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, rounds, cleared, segs = eliminate_oversegmentation(
                grid, weights, NeighborhoodKind.MOORE8, min_area=5, max_iters=2 * n, max_rounds=1,
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (rounds, cleared) == (1, [8])
        assert len(segs) == 16
        assert peak < 1.5 * size, (peak, size)

    def test_all_small_is_an_error(self):
        image = image_from(np.full((2, 2, 1), 5))
        grid = grid_from_labels([[1, 0], [0, 2]])
        before = grid_bytes(grid)
        with pytest.raises(ContractError, match="min_area"):
            eliminate_oversegmentation(
                grid, moore_weights(image), NeighborhoodKind.MOORE8, min_area=3, max_iters=40,
            )
        assert grid_bytes(grid) == before

    def test_unlabeled_grid_is_an_error(self):
        image = image_from(np.full((2, 2, 1), 5))
        grid = grid_from_labels([[0, 0], [0, 0]])
        with pytest.raises(ContractError, match="nothing to grow from"):
            eliminate_oversegmentation(
                grid, moore_weights(image), NeighborhoodKind.MOORE8, min_area=1, max_iters=40,
            )

    @pytest.mark.parametrize("min_area", [0, -5])
    def test_invalid_min_area(self, min_area):
        # elimination nulls through null_small_segments, which rejects these
        image = image_from(np.full((2, 2, 1), 5))
        grid = grid_from_labels([[1, 1], [1, 2]])
        before = grid_bytes(grid)
        with pytest.raises(ContractError, match="min_area must be >= 1"):
            eliminate_oversegmentation(
                grid, moore_weights(image), NeighborhoodKind.MOORE8,
                min_area=min_area, max_iters=20,
            )
        assert grid_bytes(grid) == before

    def test_invalid_max_rounds(self):
        image = image_from(np.full((1, 1, 1), 5))
        grid = grid_from_labels([[1]])
        with pytest.raises(ContractError):
            eliminate_oversegmentation(
                grid, moore_weights(image), NeighborhoodKind.MOORE8,
                min_area=1, max_iters=20, max_rounds=0,
            )

    def test_scale_holds_on_random_inputs(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            h = int(rng.integers(6, 21))
            w = int(rng.integers(6, 21))
            image = image_from(rng.integers(0, 256, size=(h, w, 2)))
            labels = rng.integers(1, 4, size=(h, w)).astype(np.uint32)
            grid = grid_from_labels(labels)
            min_area = int(rng.integers(2, 7))
            try:
                out, rounds, cleared, returned = eliminate_oversegmentation(
                    grid, moore_weights(image), NeighborhoodKind.MOORE8,
                    min_area=min_area, max_iters=10 * (w + h), max_rounds=5,
                )
            except ContractError:
                continue  # every segment came out undersized
            assert rounds <= 5
            assert len(cleared) == rounds
            assert (out.labels != 0).all()
            segs = extract_segments(LabelRaster(labels=out.labels), NeighborhoodKind.MOORE8)
            assert all(s.area >= min_area for s in segs.segments)
            assert_extraction_of(returned, out.labels)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(NeighborhoodKind)), st.sampled_from([8, 16]),
       st.integers(2, 12), st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_rounds_keep_every_cell_they_did_not_free(seed, nb, depth, min_area, caps):
    # after a colonization that converged, a freed cell regrows no stronger
    # than it was, so it never wins against a cell no round has freed: each
    # round, however few steps its reconvergence may take, leaves those
    # cells with the label and strength the colonization gave them, bit for bit
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(3, 13, size=2))
    data = rng.integers(0, 2**depth, size=(h, w, int(rng.integers(1, 4))))
    image = MultibandImage(data=data.astype(np.uint8 if depth == 8 else np.uint16), depth=depth)
    labels = np.zeros(h * w, dtype=np.uint32)
    seeded = rng.choice(h * w, size=int(rng.integers(2, h * w // 2 + 1)), replace=False)
    labels[seeded] = rng.integers(1, 5, size=seeded.size)
    keys = [(0, 0)] * int(labels.max())
    weights = neighbor_weights(image, nb, 1e-3)
    grid, _, converged = run_to_convergence(
        init_from_seeds(SeedMap(labels=labels.reshape(h, w), keys=keys)), weights, 10 * (h + w),
    )
    assume(converged)
    colonized = grid.labels.ravel().copy(), grid.theta.ravel().copy()
    kept = np.ones(h * w, dtype=bool)  # the cells no round has freed
    for cap in caps:
        segs = extract_segments(LabelRaster(labels=grid.labels), nb)
        min_area = min(min_area, max(s.area for s in segs.segments))
        for seg in segs.segments:
            if seg.area < min_area:
                kept[pixels_of(seg)] = False
        grid, rounds, _, _ = eliminate_oversegmentation(
            grid, weights, nb, min_area=min_area, max_iters=cap, max_rounds=1, segs=segs,
        )
        if not rounds:
            break
        for now, then in zip((grid.labels.ravel(), grid.theta.ravel()), colonized):
            assert now[kept].tobytes() == then[kept].tobytes()


class TestMedoidSignature:
    def test_single_pixel(self):
        image = image_from([[[3, 4], [9, 9]]])
        assert medoid_signature(image, segment_of([0], image.width)).tolist() == [3, 4]

    def test_central_vector_wins(self):
        image = image_from([[[0, 0], [0, 1], [10, 10]]])
        assert medoid_signature(image, segment_of([0, 1, 2], image.width)).tolist() == [0, 1]

    def test_two_member_tie_takes_lower_index(self):
        image = image_from([[[0], [4]]])
        assert medoid_signature(image, segment_of([0, 1], image.width)).tolist() == [0]
        assert medoid_signature(image, segment_of([1, 0], image.width)).tolist() == [0]

    def test_preserves_input_dtype(self):
        data = np.full((1, 2, 2), 40000, dtype=np.uint16)
        data[0, 1] = (1, 1)
        image = MultibandImage(data=data, depth=16)
        sig = medoid_signature(image, segment_of([0, 1], image.width))
        assert sig.dtype == np.uint16

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(73)
        flat_side = 24
        for _ in range(200):
            bands = int(rng.integers(1, 5))
            image = image_from(rng.integers(0, 256, size=(flat_side, flat_side, bands)))
            k = int(rng.integers(1, 65))
            pixels = np.sort(rng.choice(flat_side * flat_side, size=k, replace=False))
            got = medoid_signature(image, segment_of(pixels, image.width))
            vectors = image.data.reshape(-1, bands)[pixels]
            want = vectors[reference.medoid_by_bruteforce(vectors)]
            assert got.tolist() == want.tolist()

    def test_oversized_segment_uses_even_stride_subsample(self):
        rng = np.random.default_rng(79)
        image = image_from(rng.integers(0, 256, size=(40, 40, 3)))
        pixels = np.sort(rng.choice(1600, size=900, replace=False))
        cap = 128
        got = medoid_signature(image, segment_of(pixels, image.width), sample_cap=cap)
        take = (np.arange(cap, dtype=np.int64) * 900) // cap
        sub = image.data.reshape(-1, 3)[pixels[take]]
        want = sub[reference.medoid_by_bruteforce(sub)]
        assert got.tolist() == want.tolist()

    def test_sixteen_bit_extremes_with_ties_match_oracle(self):
        # vectors at 0 and 65535 give the largest products the distance
        # kernel must sum exactly; a few distinct vectors in equal numbers
        # give equal or nearly equal distance sums, which only the fixed
        # row-sum layout orders the same way as the oracle; 64 and 255 bands
        # put the squared norms near 10^12, the top of the exact range. The
        # wide cases draw fewer members because the oracle holds k * k * bands
        # differences at once.
        rng = np.random.default_rng(83)
        for bands in (*range(1, 13), 64, 255):
            for distinct in (2, 3, 5):
                k = int(rng.integers(9, 301 if bands <= 12 else 121))
                palette = rng.choice([0, 65535], size=(distinct, bands))
                vectors = palette[rng.permutation(np.arange(k) % distinct)].astype(np.uint16)
                image = MultibandImage(data=vectors[None], depth=16)
                got = medoid_signature(image, segment_of(np.arange(k), image.width))
                want = vectors[reference.medoid_by_bruteforce(vectors)]
                assert got.tolist() == want.tolist()

    def test_sixteen_bit_balanced_tie_takes_lowest_index(self):
        # two distinct vectors in equal numbers have exactly equal sums
        for bands in (*range(1, 13), 64, 255):
            a = np.zeros(bands, dtype=np.uint16)
            b = np.full(bands, 65535, dtype=np.uint16)
            data = np.array([b, a] * 50, dtype=np.uint16).reshape(10, 10, bands)
            image = MultibandImage(data=data, depth=16)
            vectors = data.reshape(-1, bands)
            assert reference.medoid_by_bruteforce(vectors) == 0
            assert medoid_signature(image, segment_of(np.arange(100), image.width)).tolist() == b.tolist()

    def test_sixteen_bit_capped_subsample_matches_oracle(self):
        rng = np.random.default_rng(89)
        bands = 12
        data = rng.integers(0, 65536, size=(60, 60, bands)).astype(np.uint16)
        data[rng.random((60, 60)) < 0.5] = rng.choice([0, 65535], size=bands)
        image = MultibandImage(data=data, depth=16)
        pixels = np.sort(rng.choice(3600, size=3000, replace=False))
        cap = 700
        got = medoid_signature(image, segment_of(pixels, image.width), sample_cap=cap)
        take = (np.arange(cap, dtype=np.int64) * 3000) // cap
        sub = data.reshape(-1, bands)[pixels[take]]
        want = sub[reference.medoid_by_bruteforce(sub)]
        assert got.tolist() == want.tolist()

    def test_bounded_path_at_the_floor_matches_blocked_kernel(self):
        # at the real batch and block size, against the unpruned kernel: a
        # clustered 4-band segment of 3 000 members, the 16-bit capped case
        # above with a cap at 2 048 and above it, and 0/65535 palettes in
        # equal numbers, whose exact ties only the lowest index breaks
        image = clustered_image(np.random.default_rng(97), 80, 4)
        pixels = np.arange(3000) * 2
        got = medoid_signature(image, segment_of(pixels, image.width))
        vectors = image.data.reshape(-1, 4)[pixels]
        assert got.tolist() == vectors[reference.medoid_by_blocks(vectors)].tolist()

        rng = np.random.default_rng(89)
        bands = 12
        data = rng.integers(0, 65536, size=(60, 60, bands)).astype(np.uint16)
        data[rng.random((60, 60)) < 0.5] = rng.choice([0, 65535], size=bands)
        image = MultibandImage(data=data, depth=16)
        pixels = np.sort(rng.choice(3600, size=3000, replace=False))
        for cap in (2048, 4096):
            m = min(cap, 3000)
            got = medoid_signature(image, segment_of(pixels, image.width), sample_cap=cap)
            sub = data.reshape(-1, bands)[pixels[(np.arange(m) * 3000) // m]]
            assert got.tolist() == sub[reference.medoid_by_blocks(sub)].tolist()

        rng = np.random.default_rng(83)
        for _ in range(20):
            bands = int(rng.integers(1, 13))
            palette = rng.choice([0, 65535], size=(int(rng.integers(2, 6)), bands))
            vectors = palette[rng.permutation(np.arange(3000) % len(palette))].astype(np.uint16)
            image = MultibandImage(data=vectors.reshape(50, 60, bands), depth=16)
            got = medoid_signature(image, segment_of(np.arange(3000), image.width))
            assert got.tolist() == vectors[reference.medoid_by_blocks(vectors)].tolist()

    def test_pruning_skips_rows(self, monkeypatch):
        # every oracle test passes with pruning turned off, so count the rows
        rows = []
        batches = []
        compute = segments._distance_rows

        def spy(right_t, which):
            dist, sums = compute(right_t, which)
            rows.extend(which.tolist())
            batches.append(which.size)
            return dist, sums

        monkeypatch.setattr(segments, "_distance_rows", spy)
        image = clustered_image(np.random.default_rng(101), 80, 4)
        medoid_signature(image, segment_of(np.arange(80 * 80), image.width))
        assert 0 < len(rows) < 4096 // 16

        rows.clear()
        medoid_signature(image, segment_of(np.arange(2047), image.width))
        assert 0 < len(rows) < 2047 // 8

        # a textured 16-bit, 8-band segment, like a sparse-scene region: the
        # curvature bound settles it within two batches, where tangent planes
        # alone took four
        batches.clear()
        rng = np.random.default_rng(0)
        data = rng.normal(rng.integers(20000, 45000, size=8), 4000, size=(40, 40, 8))
        image = MultibandImage(data=np.clip(np.rint(data), 0, 65535).astype(np.uint16), depth=16)
        medoid_signature(image, segment_of(np.arange(1600), image.width))
        assert 0 < len(batches) <= 2

        # a member equal to a computed one takes that row's sum, so identical
        # members compute one batch
        rows.clear()
        image = image_from(np.broadcast_to([7, 200, 31], (40, 50, 3)))
        medoid_signature(image, segment_of(np.arange(2000), image.width))
        assert 0 < len(rows) <= segments._BATCH_ROWS

        # every permutation of one vector: all sums are equal and all members
        # distinct, so no bound drops a member and each row is computed once
        rows.clear()
        batches.clear()
        orbit = np.array(list(itertools.permutations(range(0, 60, 10))))
        image = image_from(orbit.reshape(24, 30, 6))
        medoid_signature(image, segment_of(np.arange(720), image.width))
        assert sorted(rows) == list(range(720))
        # in batches of at most _BATCH_ROWS rows, however many stay live
        assert max(batches) <= segments._BATCH_ROWS

    def test_refinement_backs_off_when_it_drops_nothing(self, monkeypatch):
        # on a permutation orbit no bound drops a member, so after each
        # refinement the wait doubles: 45 batches refine at batches 1, 3, 6,
        # 11, 20 and 37 only, and the medoid is the brute-force one
        refinements = []
        refine = segments._tangent_bounds

        def spy(*args):
            refinements.append(args[3].size)
            return refine(*args)

        monkeypatch.setattr(segments, "_tangent_bounds", spy)
        orbit = np.array(list(itertools.permutations(range(0, 60, 10))))
        image = image_from(orbit.reshape(24, 30, 6))
        got = medoid_signature(image, segment_of(np.arange(720), image.width))
        assert len(refinements) == 6
        assert got.tolist() == orbit[reference.medoid_by_bruteforce(orbit)].tolist()

    def test_empty_pixel_list(self):
        image = image_from(np.zeros((1, 1, 1)))
        with pytest.raises(ContractError):
            medoid_signature(image, segment_of([], image.width))

    def test_invalid_sample_cap(self):
        image = image_from(np.zeros((1, 1, 1)))
        with pytest.raises(ContractError):
            medoid_signature(image, segment_of([0], image.width), sample_cap=0)


def clustered_image(rng, side, bands):
    """8-bit texture around one mean, like a planted background."""
    mean = rng.integers(60, 196, size=bands)
    data = np.clip(np.rint(rng.normal(mean, 12, size=(side, side, bands))), 0, 255)
    return image_from(data)


@st.composite
def medoid_members(draw):
    """(image of m member vectors, rows per block) across the shapes pruning meets."""
    depth = draw(st.sampled_from((8, 16)))
    top = (1 << depth) - 1
    bands = draw(st.integers(1, 12))
    m = draw(st.integers(1, 160))
    kind = draw(st.sampled_from(("uniform", "clustered", "palette", "identical", "extremes")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        vectors = rng.integers(0, top + 1, size=(m, bands))
    elif kind == "clustered":
        centres = rng.integers(0, top + 1, size=(draw(st.integers(1, 4)), bands))
        spread = top // 40
        noise = rng.integers(-spread, spread + 1, size=(m, bands))
        vectors = np.clip(centres[rng.integers(0, len(centres), size=m)] + noise, 0, top)
    elif kind == "palette":
        palette = rng.integers(0, top + 1, size=(draw(st.integers(1, 4)), bands))
        vectors = palette[rng.integers(0, len(palette), size=m)]
    elif kind == "identical":
        vectors = np.broadcast_to(rng.integers(0, top + 1, size=bands), (m, bands))
    else:
        # equal numbers of extreme vectors: equal or nearly equal sums
        distinct = draw(st.integers(2, 5))
        palette = rng.choice([0, top], size=(distinct, bands))
        vectors = palette[rng.permutation(np.arange(m) % distinct)]
    data = np.ascontiguousarray(vectors, dtype=np.uint8 if depth == 8 else np.uint16)
    return MultibandImage(data=data[None], depth=depth), draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(medoid_members())
# every member but member 2 ties for the least sum; pruning a member whose
# bound only equals the best sum drops member 0 before it is computed
@example((MultibandImage(data=np.array([[[3], [2], [0], [3], [3], [2]]], dtype=np.uint8), depth=8), 3))
def test_bounded_medoid_matches_bruteforce(case):
    # bound every segment in batches of a few rows, so that several batches,
    # copied duplicates and ties all run
    image, block_rows = case
    m = image.width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segments, "_BATCH_ROWS", block_rows)
        got = medoid_signature(image, segment_of(np.arange(m), image.width))
    vectors = image.data[0]
    assert got.tolist() == vectors[reference.medoid_by_bruteforce(vectors)].tolist()


@st.composite
def run_layouts(draw):
    """(segment of ascending runs over up to 8 rows, its row width, sample cap).

    Runs may split a row's stretch of members; the cap is below, equal to or
    above the area.
    """
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 24))
    cells = draw(hnp.arrays(np.bool_, (h, w)))
    cells.flat[draw(st.integers(0, h * w - 1))] = True
    cuts = draw(hnp.arrays(np.bool_, (h, w)))
    after = np.zeros((h, w), dtype=bool)
    after[:, 1:] = cells[:, :-1]
    starts, lengths = [], []
    for p in np.flatnonzero(cells):
        if cuts.flat[p] or not after.flat[p]:
            starts.append(p)
            lengths.append(0)
        lengths[-1] += 1
    area = int(cells.sum())
    cap = draw(st.sampled_from((
        max(area - draw(st.integers(1, area)), 1), area, area + draw(st.integers(1, 5))
    )))
    segment = Segment(1, 1, np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64))
    return segment, w, cap


@settings(max_examples=300, deadline=None)
@given(run_layouts())
def test_medoid_keeps_the_strided_sample_of_the_runs(case):
    # each pixel's one band is its flat index, so the gathered points name
    # the kept members: the k-th is member floor(k * area / m) in run order
    segment, w, cap = case
    h = int(segment.starts[-1]) // w + 1
    image = MultibandImage(data=np.arange(h * w, dtype=np.uint16).reshape(h, w, 1), depth=16)
    kept = []
    bounds = segments._curvature_bounds

    def spy(points, norms, max_dist):
        kept.extend(points[0].astype(np.int64).tolist())
        return bounds(points, norms, max_dist)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segments, "_curvature_bounds", spy)
        got = medoid_signature(image, segment, sample_cap=cap)
    every = pixels_of(segment)
    m = min(len(every), cap)
    assert kept == [every[k * len(every) // m] for k in range(m)]
    vectors = np.array(kept)[:, None]
    assert got.tolist() == vectors[reference.medoid_by_bruteforce(vectors)].tolist()


def test_extracted_multi_row_segments_match_bruteforce_oracle():
    # segments as extraction returns them, whose runs span many rows, against
    # the oracle on their expanded members, whole and at a cap that samples
    # across runs
    image = clustered_image(np.random.default_rng(113), 24, 3)
    labels = np.ones((24, 24), dtype=np.uint32)
    rr, cc = np.mgrid[:24, :24]
    labels[(rr - 9) ** 2 + (cc - 13) ** 2 <= 36] = 2
    labels[16:22, 2:20] = 3
    labels[18:, 5:8] = 1
    segs = extract_segments(raster(labels), NeighborhoodKind.MOORE8)
    assert sum(seg.lengths.size > 1 for seg in segs.segments) >= 3
    flat = image.data.reshape(-1, 3)
    for seg in segs.segments:
        vectors = flat[pixels_of(seg)]
        for cap in (4096, 37):
            m = min(seg.area, cap)
            sub = vectors[(np.arange(m) * seg.area) // m]
            got = medoid_signature(image, seg, sample_cap=cap)
            assert got.tolist() == sub[reference.medoid_by_bruteforce(sub)].tolist()


def members_at_mu(bands, top):
    """Member sets whose bounds touch their sums at μ.

    The centre of a symmetric star, on which μ sits to within rounding, so
    its bound is its sum less little more than the slack; all members
    equal; one and two members; and buckets whose members and targets all
    sit at μ, where D_g + ‖h‖ is 0.
    """
    centre = np.full(bands, top // 2)
    star = [centre]
    for axis in np.eye(bands, dtype=np.int64):
        star.extend(centre + step * axis for step in (-3, 3, -(top // 3), top // 3))
    return [
        np.array(star),
        np.broadcast_to(centre, (9, bands)),
        centre[None],
        np.array([centre, centre + 1]),
        np.array([centre] * 4 + [centre + 5, centre - 5] * 6),
        np.array([[0] * bands, [top] * bands] * 5 + [centre] * 3),
    ]


@pytest.mark.parametrize("depth", (8, 16))
@pytest.mark.parametrize("kind", ("uniform", "clustered", "extremes", "at_mu"))
def test_curvature_bounds_never_exceed_row_sums(depth, kind):
    # every bound, less its slack, is at most the member's computed sum
    rng = np.random.default_rng(109)
    top = (1 << depth) - 1
    for bands in (*range(1, 13), 64, 255):
        cases = members_at_mu(bands, top) if kind == "at_mu" else []
        while kind != "at_mu" and len(cases) < 4:
            m = int(rng.integers(1, 300 if bands <= 12 else 80))
            if kind == "uniform":
                vectors = rng.integers(0, top + 1, size=(m, bands))
            elif kind == "clustered":
                centres = rng.integers(0, top + 1, size=(int(rng.integers(1, 4)), bands))
                noise = rng.integers(-(top // 40), top // 40 + 1, size=(m, bands))
                vectors = np.clip(centres[rng.integers(0, len(centres), size=m)] + noise, 0, top)
            else:
                palette = rng.choice([0, top], size=(int(rng.integers(2, 6)), bands))
                vectors = palette[rng.permutation(np.arange(m) % len(palette))]
            cases.append(vectors)
        for vectors in cases:
            vectors = np.asarray(vectors, dtype=np.float64)
            order, low = segments._curvature_bounds(
                np.ascontiguousarray(vectors.T), (vectors * vectors).sum(axis=1), np.sqrt(bands) * top
            )
            assert sorted(order.tolist()) == list(range(len(vectors)))
            sums = reference.distance_sums_by_blocks(vectors)[order]
            assert np.isfinite(low).all() and (low <= sums).all(), (bands, len(vectors))


@pytest.mark.parametrize("depth", (8, 16))
@pytest.mark.parametrize("kind", ("uniform", "clustered", "extremes"))
def test_tangent_bounds_never_exceed_row_sums(depth, kind):
    # every bound, less its slack, is at most the target's computed sum,
    # also for the computed rows themselves and members equal to them, where
    # the tangent touches the sum and only the slack keeps the bound below
    rng = np.random.default_rng(107)
    top = (1 << depth) - 1
    for bands in (*range(1, 13), 64, 255):
        for _ in range(4):
            m = int(rng.integers(2, 200 if bands <= 12 else 60))
            if kind == "uniform":
                vectors = rng.integers(0, top + 1, size=(m, bands))
            elif kind == "clustered":
                centre = rng.integers(0, top + 1, size=bands)
                noise = rng.integers(-(top // 40), top // 40 + 1, size=(m, bands))
                vectors = np.clip(centre + noise, 0, top)
            else:
                palette = rng.choice([0, top], size=(int(rng.integers(2, 6)), bands))
                vectors = palette[rng.permutation(np.arange(m) % len(palette))]
            vectors = vectors.astype(np.float64)
            norms = (vectors * vectors).sum(axis=1)[:, None]
            ones = np.ones((m, 1))
            right_t = np.hstack((vectors, ones, norms)).T
            rows = rng.choice(m, size=int(rng.integers(1, min(m, 8) + 1)), replace=False)
            dist, sums = segments._distance_rows(right_t, rows)
            bounds = segments._tangent_bounds(
                dist, sums, vectors.T, rows, np.arange(m), np.sqrt(bands) * top
            )
            assert (bounds <= reference.distance_sums_by_blocks(vectors)).all(), (bands, m)


@st.composite
def member_rows(draw):
    """An image of up to 40 member vectors, 1 to 8 bands, duplicates and 0/max extremes among them."""
    depth = draw(st.sampled_from((8, 16)))
    top = (1 << depth) - 1
    bands = draw(st.integers(1, 8))
    values = st.one_of(st.sampled_from((0, top)), st.integers(0, top))
    palette = draw(hnp.arrays(np.int64, (draw(st.integers(1, 12)), bands), elements=values))
    pick = draw(st.lists(st.integers(0, len(palette) - 1), min_size=1, max_size=40))
    data = palette[pick].astype(np.uint8 if depth == 8 else np.uint16)
    return MultibandImage(data=data[None], depth=depth)


@settings(max_examples=200, deadline=None)
@given(member_rows())
def test_distance_rows_match_the_difference_form(image):
    # every batch's augmented rows, built from the operands medoid_signature
    # passes, give the correctly rounded root of the exact sum of squared
    # differences bit for bit, and so does every row of those operands
    members = image.data[0].astype(np.int64)
    want = np.sqrt(((members[:, None, :] - members[None]) ** 2).sum(axis=2).astype(np.float64))
    operands = []
    compute = segments._distance_rows

    def spy(right_t, rows):
        dist, sums = compute(right_t, rows)
        operands.append((right_t,))
        assert dist.tobytes() == want[rows].tobytes()
        assert sums.tobytes() == want[rows].sum(axis=1).tobytes()
        return dist, sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segments, "_distance_rows", spy)
        mp.setattr(segments, "_BATCH_ROWS", 3)
        medoid_signature(image, segment_of(np.arange(image.width), image.width))
    dist, sums = compute(*operands[0], np.arange(image.width))
    assert dist.tobytes() == want.tobytes()
    assert sums.tobytes() == want.sum(axis=1).tobytes()
