import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from densehist import dense, sparse
from ca_segment import (
    BALANCED,
    ContractError,
    MultibandImage,
    SeedMap,
    SumHistogram,
    SumRange,
    classify_spectral_region,
    compute_sum_histogram,
    generate_seeds,
    select_ranges,
)


def image_from(data, depth=8):
    dtype = np.uint8 if depth == 8 else np.uint16
    return MultibandImage(data=np.asarray(data, dtype=dtype), depth=depth)


class TestSumHistogram:
    def test_direct_sums(self):
        image = image_from([[[1, 2], [3, 4]]])
        hist = dense(compute_sum_histogram(image))
        assert hist.shape == (2 * 255 + 1,)
        assert hist[3] == 1 and hist[7] == 1
        assert hist.sum() == 2

    def test_uniform_spike(self):
        image = image_from(np.full((4, 5, 3), 9))
        hist = dense(compute_sum_histogram(image))
        assert hist[27] == 20
        assert hist.sum() == 20

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(11)
        image = image_from(rng.integers(0, 256, size=(16, 16, 3)))
        hist = dense(compute_sum_histogram(image))
        assert hist.sum() == 256
        assert hist.tolist() == reference.histogram_by_loop(image.data, image.depth)

    def test_sixteen_bit_domain(self):
        image = image_from(np.full((1, 1, 2), 65535), depth=16)
        hist = dense(compute_sum_histogram(image))
        assert hist.shape == (2 * 65535 + 1,)
        assert hist[131070] == 1


@st.composite
def band_images(draw):
    """Images of 1 to 8 bands at 8 or 16 bits; levels often repeat, so
    sums collide, and often reach 0 or the top level."""
    bands, depth = draw(st.integers(1, 8)), draw(st.sampled_from([8, 16]))
    top = (1 << depth) - 1
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    levels = st.sampled_from([0, 1, top]) | st.integers(0, top)
    cells = draw(st.lists(levels, min_size=height * width * bands, max_size=height * width * bands))
    return image_from(np.reshape(cells, (height, width, bands)), depth)


@settings(max_examples=150, deadline=None)
@given(band_images())
def test_histogram_is_the_occupied_bins_of_the_loop_oracle(image):
    hist = compute_sum_histogram(image)
    want = np.array(reference.histogram_by_loop(image.data, image.depth))
    occupied = np.flatnonzero(want)
    assert hist.size == want.size
    assert hist.bins.tolist() == occupied.tolist()
    assert hist.counts.tolist() == want[occupied].tolist()


class TestSumHistogramContract:
    @pytest.mark.parametrize("bins, counts, size, message", [
        ([], [], 10, "at least one occupied bin"),
        ([1, 2], [3], 10, "2 bins"),
        ([2, 2], [1, 1], 10, "strictly ascending"),
        ([3, 1], [1, 1], 10, "strictly ascending"),
        ([-1, 4], [1, 1], 10, r"outside \[0, 10\)"),
        ([4, 10], [1, 1], 10, r"outside \[0, 10\)"),
        ([4, 5], [1, 0], 10, "counts must be >= 1"),
    ])
    def test_malformed_fields_rejected(self, bins, counts, size, message):
        with pytest.raises(ContractError, match=message):
            SumHistogram(bins=np.array(bins, dtype=np.int64), counts=np.array(counts, dtype=np.int64),
                         size=size)

    def test_no_domain_sized_array(self):
        # 64 x 64 pixels of 8 bands at 16 bits: a domain of 524 281 bins,
        # which a dense int64 histogram would fill with 4 MiB
        import tracemalloc

        rng = np.random.default_rng(5)
        image = image_from(rng.integers(0, 65536, size=(64, 64, 8)), depth=16)
        tracemalloc.start()
        try:
            hist = compute_sum_histogram(image)
            select_ranges(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.size == 524281
        assert peak < 1 << 20, peak


class TestSelectRanges:
    def test_flat_histogram_falls_back_to_full_domain(self):
        ranges = select_ranges(sparse(np.full(100, 5)))
        assert ranges == [SumRange(0, 99, 0)]

    def test_two_spikes(self):
        hist = np.zeros(256, dtype=np.int64)
        hist[50] = 100
        hist[200] = 80
        ranges = select_ranges(sparse(hist))
        assert [r.peak for r in ranges] == [50, 200]
        assert ranges == [SumRange(45, 55, 50), SumRange(195, 205, 200)]

    def test_close_spikes_collapse_to_one_range(self):
        # smoothing fuses the two spikes into one hump centered between them
        hist = np.zeros(256, dtype=np.int64)
        hist[50] = 100
        hist[53] = 80
        ranges = select_ranges(sparse(hist), min_separation=10)
        assert len(ranges) == 1
        assert ranges[0].peak == 51
        assert ranges[0].lo <= 50 and 53 <= ranges[0].hi

    def test_close_spikes_keep_taller_unsmoothed(self):
        hist = np.zeros(256, dtype=np.int64)
        hist[50] = 100
        hist[53] = 80
        ranges = select_ranges(sparse(hist), smooth_window=1, min_separation=10)
        assert len(ranges) == 1
        assert ranges[0].peak == 50

    def test_overlapping_ranges_merge(self):
        hist = np.zeros(256, dtype=np.int64)
        hist[50] = 100
        hist[60] = 90
        # separation 10 keeps both; half_width 5 makes the spans touch at 55
        ranges = select_ranges(sparse(hist), smooth_window=1, min_separation=10, half_width=5)
        assert ranges == [SumRange(45, 65, 50)]

    def test_clamping_at_domain_edges(self):
        hist = np.zeros(100, dtype=np.int64)
        hist[1] = 50
        hist[98] = 40
        ranges = select_ranges(sparse(hist), smooth_window=1)
        assert ranges[0].lo == 0 and ranges[0].peak == 1
        assert ranges[-1].hi == 99 and ranges[-1].peak == 98

    def test_max_peaks_keeps_tallest(self):
        hist = np.zeros(300, dtype=np.int64)
        for i, height in enumerate([50, 90, 70, 80], start=1):
            hist[i * 50] = height
        ranges = select_ranges(sparse(hist), smooth_window=1, max_peaks=2)
        assert sorted(r.peak for r in ranges) == [100, 200]

    @pytest.mark.parametrize("bad", [
        dict(smooth_window=4), dict(smooth_window=0), dict(prominence_frac=0.0),
        dict(prominence_frac=1.0), dict(min_separation=0), dict(half_width=0),
        dict(max_peaks=0),
    ])
    def test_parameter_validation(self, bad):
        with pytest.raises(ContractError):
            select_ranges(sparse(np.ones(10, dtype=np.int64)), **bad)

    def test_random_against_scan_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            length = int(rng.integers(20, 200))
            hist = rng.integers(0, 40, size=length)
            for _ in range(int(rng.integers(0, 5))):
                hist[int(rng.integers(0, length))] += int(rng.integers(50, 300))
            window = int(rng.choice([1, 3, 5, 7]))
            params = dict(
                smooth_window=window,
                prominence_frac=float(rng.uniform(0.01, 0.6)),
                min_separation=int(rng.integers(1, 25)),
                half_width=int(rng.integers(1, 12)),
                max_peaks=int(rng.integers(1, 9)),
            )
            got = [(r.lo, r.hi, r.peak) for r in select_ranges(sparse(hist), **params)]
            assert got == reference.select_ranges_by_scan(hist, **params)

    @staticmethod
    def sparse_16bit_histogram(length):
        # the 16-bit, 8-band domain's occupancy: about 10 700 of 524 281 bins
        # hold a few pixels each, and ten tall clusters stand out
        rng = np.random.default_rng(421)
        hist = np.zeros(length, dtype=np.int64)
        occupied = rng.choice(524281, size=10700, replace=False)
        hist[occupied] = rng.integers(1, 4, size=occupied.size)
        for center in rng.choice(np.arange(100, 524181, 20), size=10, replace=False):
            hist[center - 3 : center + 4] += rng.integers(20, 200, size=7)
        hist[[0, 524280]] = 2
        return hist

    def test_16bit_domain_against_scan_oracle(self):
        hist = self.sparse_16bit_histogram(524281)
        got = [(r.lo, r.hi, r.peak) for r in select_ranges(sparse(hist), max_peaks=16)]
        assert len(got) == 10
        assert got == reference.select_ranges_by_scan(hist, 5, 0.05, 10, 5, 16)

    def test_peak_memory_grows_by_the_one_scan(self):
        # the same occupied bins in a domain four times as long: the smoothing
        # and the peak search work on the occupied bins alone, so the peak may
        # grow by no more than a scan for them (one byte per bin) would take
        import tracemalloc

        peaks = []
        for length in (524281, 4 * 524281):
            hist = sparse(self.sparse_16bit_histogram(length))
            ranges = select_ranges(hist)
            tracemalloc.start()
            try:
                assert select_ranges(hist) == ranges
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3 * 524281 + 64 * 1024, peaks


class TestClassify:
    def test_equal_levels_balanced(self):
        assert classify_spectral_region((100, 100, 100), 0.1) == BALANCED

    def test_dominant_band(self):
        assert classify_spectral_region((200, 50, 50), 0.1) == 0

    def test_small_spread_balanced(self):
        assert classify_spectral_region((120, 110, 115), 0.1) == BALANCED

    def test_all_zero_balanced(self):
        assert classify_spectral_region((0, 0, 0), 0.1) == BALANCED

    def test_tie_breaks_to_lowest_band(self):
        assert classify_spectral_region((9, 200, 200), 0.1) == 1

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.integers(0, 256, size=int(rng.integers(1, 5)))
            for k in (2, 3, 10):
                assert classify_spectral_region(k * v) == classify_spectral_region(v)

    def test_random_against_rule_oracle(self):
        rng = np.random.default_rng(6)
        cases = []
        for top in (256, 65536):
            for _ in range(200):
                v = rng.integers(0, top, size=int(rng.integers(1, 6)))
                delta = float(rng.uniform(0.0, 0.5))
                assert classify_spectral_region(v, delta) == reference.classify_by_rule(v, delta)
                cases.append((v, delta))
        # the same vectors stacked by band count, one row per vector
        for bands in range(1, 6):
            stack = np.array([v for v, _ in cases if v.size == bands])
            for delta in {d for v, d in cases if v.size == bands}:
                got = classify_spectral_region(stack, delta)
                assert got.tolist() == [reference.classify_by_rule(row, delta) for row in stack]

    def test_invalid_input_rejected(self):
        with pytest.raises(ContractError, match="delta_rel must be >= 0"):
            classify_spectral_region((100, 100, 100), -0.5)
        with pytest.raises(ContractError, match="delta_rel must be >= 0"):
            classify_spectral_region(np.full((2, 2, 3), 100), -0.5)
        with pytest.raises(ContractError):
            classify_spectral_region((), 0.1)


class TestGenerateSeeds:
    def test_uniform_single_label(self):
        image = image_from(np.full((4, 6, 3), 50))
        seeds = generate_seeds(image, [SumRange(140, 160, 150)])
        assert len(seeds) == 24
        assert seeds.label_count == 1
        assert seeds.keys == [(0, BALANCED)]

    def test_two_halves_two_dominant_labels(self):
        data = np.empty((4, 8, 3), dtype=np.uint8)
        data[:, :4] = (200, 10, 10)
        data[:, 4:] = (10, 200, 10)
        image = image_from(data)
        seeds = generate_seeds(image, [SumRange(0, 765, 220)])
        assert seeds.label_count == 2
        assert seeds.keys == [(0, 0), (0, 1)]
        assert len(seeds) == 32

    def test_stride_subsampling(self):
        image = image_from(np.full((4, 4, 3), 50))
        seeds = generate_seeds(image, [SumRange(0, 765, 150)], stride=2)
        assert len(seeds) == 4
        assert np.flatnonzero(seeds.labels).tolist() == [0, 2, 8, 10]

    def test_no_pixel_in_range_gives_an_empty_raster(self):
        image = image_from(np.full((2, 3, 3), 50))
        seeds = generate_seeds(image, [SumRange(0, 100, 50)])
        assert seeds.labels.tolist() == [[0, 0, 0], [0, 0, 0]]
        assert seeds.keys == []

    def test_empty_range_list_rejected(self):
        image = image_from(np.full((2, 2, 3), 50))
        with pytest.raises(ContractError):
            generate_seeds(image, [])

    def test_overlapping_ranges_rejected(self):
        image = image_from(np.full((2, 2, 3), 50))
        with pytest.raises(ContractError):
            generate_seeds(image, [SumRange(0, 100, 50), SumRange(100, 200, 150)])

    def test_out_of_range_pixels_unseeded(self):
        data = np.zeros((1, 3, 1), dtype=np.uint8)
        data[0, 1, 0] = 200
        image = image_from(data)
        seeds = generate_seeds(image, [SumRange(150, 255, 200)])
        assert seeds.labels.tolist() == [[0, 1, 0]]

    def test_random_against_loop_oracle(self):
        def check(image, ranges, delta, stride):
            seeds = generate_seeds(image, ranges, delta_rel=delta, stride=stride)
            entries, table = reference.seeds_by_loop(
                image.data, [(r.lo, r.hi) for r in ranges], delta, stride
            )
            idx = np.flatnonzero(seeds.labels)
            assert seeds.labels.shape == (image.height, image.width)
            assert list(zip(idx.tolist(), seeds.labels.ravel()[idx].tolist())) == entries
            assert {key: i for i, key in enumerate(seeds.keys, start=1)} == table

        # adjacent ranges (each hi + 1 is the next lo), one of a single sum,
        # with pixel sums on both edges of each range and just outside them;
        # ranges also lie below every possible sum, past the largest and far
        # beyond it, outside any 32-bit integer
        ranges = [SumRange(-8, -2, -5), SumRange(10, 19, 15), SumRange(20, 29, 25),
                  SumRange(30, 30, 30), SumRange(31, 40, 35), SumRange(500, 2**33, 600),
                  SumRange(2**40, 2**41, 2**40)]
        sums = [0, 9, 10, 19, 20, 29, 30, 31, 40, 41, 499, 500, 510]
        data = [[(s // 2, s - s // 2), (min(s, 255), s - min(s, 255)), (s - min(s, 255), min(s, 255))]
                for s in sums]
        check(image_from(data), ranges, 0.1, 1)

        rng = np.random.default_rng(17)
        for _ in range(40):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            bands = int(rng.integers(1, 4))
            image = image_from(rng.integers(0, 256, size=(h, w, bands)))
            top = bands * 255
            cut_a, cut_b = sorted(rng.integers(0, top + 1, size=2).tolist())
            ranges = [SumRange(0, cut_a, 0)]
            if cut_b > cut_a + 1:
                peak = cut_a + 1 + (cut_b - cut_a - 1) // 2
                ranges.append(SumRange(cut_a + 1, cut_b, peak))
            stride = int(rng.integers(1, 4))
            delta = float(rng.uniform(0.0, 0.4))
            check(image, ranges, delta, stride)

    def test_label_count_bound(self):
        rng = np.random.default_rng(19)
        image = image_from(rng.integers(0, 256, size=(16, 16, 3)))
        hist = compute_sum_histogram(image)
        ranges = select_ranges(hist)
        seeds = generate_seeds(image, ranges)
        assert seeds.label_count <= len(ranges) * (image.bands + 1)
        assert len(seeds) <= 16 * 16

    def test_full_domain_stride_one_seeds_everything(self):
        rng = np.random.default_rng(29)
        image = image_from(rng.integers(0, 256, size=(7, 5, 2)))
        seeds = generate_seeds(image, [SumRange(0, 510, 100)])
        assert len(seeds) == 35

    def test_determinism(self):
        rng = np.random.default_rng(31)
        image = image_from(rng.integers(0, 256, size=(9, 9, 3)))
        ranges = select_ranges(compute_sum_histogram(image))
        a = generate_seeds(image, ranges)
        b = generate_seeds(image, ranges)
        assert (a.labels == b.labels).all()
        assert a.keys == b.keys


class TestSeedMapContract:
    def test_non_2d_raster_rejected(self):
        with pytest.raises(ContractError, match="shape"):
            SeedMap(labels=np.array([1, 1], dtype=np.uint32), keys=[(0, BALANCED)])

    def test_labels_outside_uint32_rejected(self):
        # ids are stored in a uint32 raster, so a wider one is no seed raster
        for bad in (-1, 2**32):
            with pytest.raises(ContractError, match="dtype"):
                SeedMap(labels=np.array([[1, bad]], dtype=np.int64), keys=[(0, BALANCED)])

    def test_id_without_key_rejected(self):
        with pytest.raises(ContractError, match="seed id 3 has no key"):
            SeedMap(labels=np.array([[1, 3]], dtype=np.uint32), keys=[(0, 0), (0, 1)])

    def test_zero_means_no_seed(self):
        seeds = SeedMap(labels=np.array([[1, 0], [0, 0]], dtype=np.uint32), keys=[(0, 0)])
        assert (len(seeds), seeds.label_count) == (1, 1)
        empty = SeedMap(labels=np.zeros((2, 3), dtype=np.uint32), keys=[])
        assert (len(empty), empty.label_count) == (0, 0)
