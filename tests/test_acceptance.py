"""End-to-end acceptance checks for the whole package.

Each test covers one advertised guarantee and prints a single
``[acceptance] <name>: PASS`` or ``FAIL`` line with capture suspended, so
the verdicts stay visible in the live pytest output.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import reference
from densehist import dense, sparse
from ca_segment import (
    ContractError,
    FormatError,
    LabelRaster,
    MultibandImage,
    NeighborhoodKind,
    PipelineConfig,
    SeedMap,
    Segment,
    classify_spectral_region,
    compute_sum_histogram,
    eliminate_oversegmentation,
    extract_segments,
    init_from_seeds,
    load_envi_bsq,
    load_label_raster,
    medoid_signature,
    neighbor_weights,
    run_segment,
    run_to_convergence,
    save_envi_bsq,
    save_label_raster,
    select_ranges,
)


EPSILON = 1e-6  # the attack floor of the default configuration


@contextmanager
def criterion(name, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"[acceptance] {name}: PASS", flush=True)


def make_seed_map(width, height, pairs):
    """Seed raster with label l at each flat index p of the (p, l) pairs."""
    labels = np.zeros(height * width, dtype=np.uint32)
    for p, l in pairs:
        labels[p] = l
    keys = [(0, l) for l in range(1, int(labels.max(initial=0)) + 1)]
    return SeedMap(labels=labels.reshape(height, width), keys=keys)


# pairwise spectral distances >= 93; each base keeps its balanced/dominant
# class for any per-band noise in [-5, 5], so a region's seeds share one label
QUADRANT_BASES = ((120, 120, 120), (150, 40, 40), (60, 160, 60), (100, 100, 220))


def quadrant_image(rng, side=128, noise=5):
    """Four piecewise-constant quadrants (pairwise spectral distance > 60
    digital levels) plus bounded uniform noise; returns (image, region map)."""
    half = side // 2
    truth = np.zeros((side, side), dtype=np.int64)
    data = np.zeros((side, side, 3), dtype=np.int64)
    for q, base in enumerate(QUADRANT_BASES):
        r0, c0 = (q // 2) * half, (q % 2) * half
        truth[r0 : r0 + half, c0 : c0 + half] = q
        data[r0 : r0 + half, c0 : c0 + half] = base
    data += rng.integers(-noise, noise + 1, size=data.shape)
    image = MultibandImage(data=np.clip(data, 0, 255).astype(np.uint8), depth=8)
    return image, truth


def test_wavefront_convergence(capsys):
    with criterion("1 wavefront convergence", capsys):
        elapsed = 0.0
        for n in (5, 9, 16):
            image = MultibandImage(
                data=np.full((n, n, 2), 120, dtype=np.uint8), depth=8
            )
            center = (n // 2) * n + n // 2
            seeds = make_seed_map(n, n, [(center, 1)])
            grid = init_from_seeds(seeds)

            start = time.perf_counter()
            weights = neighbor_weights(image, NeighborhoodKind.MOORE8, EPSILON)
            out, steps, converged = run_to_convergence(grid, weights, max_iters=10 * n)
            elapsed += time.perf_counter() - start

            r0 = c0 = n // 2
            ecc = max(
                max(abs(r - r0), abs(c - c0)) for r in (0, n - 1) for c in (0, n - 1)
            )
            assert converged
            assert steps == ecc + 1

            ref_grid = init_from_seeds(seeds)
            ref_labels, ref_theta, ref_steps, ref_converged = reference.run_by_loop(
                ref_grid.labels,
                ref_grid.theta,
                image.data,
                NeighborhoodKind.MOORE8.offsets(),
                EPSILON,
                image.max_distance,
                max_iters=10 * n,
            )
            assert ref_converged and ref_steps == steps
            assert (out.labels == ref_labels).all()
            assert (out.theta == ref_theta).all()
        assert elapsed < 1.0


def test_region_recovery(tmp_path, capsys):
    with criterion("2 region recovery", capsys):
        rng = np.random.default_rng(97)
        image, truth = quadrant_image(rng)
        input_path = str(tmp_path / "quadrants.bsq")
        save_envi_bsq(image, input_path)
        config = PipelineConfig(
            input_path=input_path,
            out_labels=str(tmp_path / "labels.u32"),
            out_stats=str(tmp_path / "stats.json"),
        )

        start = time.perf_counter()
        report = run_segment(config)
        elapsed = time.perf_counter() - start

        assert report.converged
        labels = load_label_raster(config.out_labels).labels
        agreement = reference.best_match_agreement(labels, truth)
        assert agreement >= 0.99
        assert elapsed < 5.0


def test_strength_monotonicity(capsys):
    with criterion("3 strength monotonicity", capsys):
        from ca_segment import evolve_step

        rng = np.random.default_rng(101)
        violations = 0
        for run in range(100):
            h = int(rng.integers(2, 33))
            w = int(rng.integers(2, 33))
            bands = int(rng.integers(1, 5))
            image = MultibandImage(
                data=rng.integers(0, 256, size=(h, w, bands)).astype(np.uint8),
                depth=8,
            )
            count = int(rng.integers(1, 9))
            idx = rng.choice(h * w, size=min(count, h * w), replace=False)
            seeds = make_seed_map(
                w, h,
                list(zip(idx.tolist(), rng.integers(1, 7, size=idx.size).tolist()))
            )
            nb = NeighborhoodKind.MOORE8 if run % 2 else NeighborhoodKind.VONNEUMANN4
            weights = neighbor_weights(image, nb, EPSILON)
            grid = init_from_seeds(seeds)
            for _ in range(10 * (w + h)):
                new_grid, changed = evolve_step(grid, weights)
                if not (new_grid.theta >= grid.theta).all():
                    violations += 1
                if not (new_grid.theta <= 1.0).all():
                    violations += 1
                if not ((new_grid.labels == 0) == (new_grid.theta == 0.0)).all():
                    violations += 1
                grid = new_grid
                if not changed:
                    break
        assert violations == 0


def test_elimination_soundness(capsys):
    with criterion("4 elimination soundness", capsys):
        rng = np.random.default_rng(103)
        violations = 0
        for min_area, quota, side_lo, side_hi in (
            (2, 10, 8, 20),
            (10, 10, 10, 24),
            (150, 10, 18, 30),
        ):
            counted = 0
            attempts = 0
            while counted < quota and attempts < 200:
                attempts += 1
                h = int(rng.integers(side_lo, side_hi + 1))
                w = int(rng.integers(side_lo, side_hi + 1))
                bands = int(rng.integers(1, 4))
                image = MultibandImage(
                    data=rng.integers(0, 256, size=(h, w, bands)).astype(np.uint8),
                    depth=8,
                )
                count = int(rng.integers(2, 5))
                idx = rng.choice(h * w, size=count, replace=False)
                seeds = make_seed_map(
                    w, h,
                    list(zip(idx.tolist(), range(1, count + 1)))
                )
                weights = neighbor_weights(image, NeighborhoodKind.MOORE8, EPSILON)
                grid = init_from_seeds(seeds)
                grid, _, converged = run_to_convergence(
                    grid, weights, max_iters=10 * (w + h)
                )
                assert converged
                segs = extract_segments(
                    LabelRaster(labels=grid.labels), NeighborhoodKind.MOORE8
                )
                if not any(s.area >= min_area for s in segs.segments):
                    continue
                counted += 1
                out, rounds_used, _, _ = eliminate_oversegmentation(
                    grid, weights, NeighborhoodKind.MOORE8,
                    min_area=min_area, max_iters=10 * (w + h), max_rounds=5,
                )
                if rounds_used > 5:
                    violations += 1
                if not (out.labels != 0).all():
                    violations += 1
                final = extract_segments(
                    LabelRaster(labels=out.labels), NeighborhoodKind.MOORE8
                )
                if any(s.area < min_area for s in final.segments):
                    violations += 1
            assert counted == quota
        assert violations == 0


def test_medoid_oracle(capsys):
    with criterion("5 medoid oracle", capsys):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            bands = int(rng.integers(1, 5))
            image = MultibandImage(
                data=rng.integers(0, 256, size=(64, 64, bands)).astype(np.uint8),
                depth=8,
            )
            k = int(rng.integers(1, 513))
            pixels = np.sort(rng.choice(64 * 64, size=k, replace=False))
            got = medoid_signature(image, Segment(1, 1, *reference.row_runs(pixels, image.width)))
            vectors = image.data.reshape(-1, bands)[pixels]
            want = vectors[reference.medoid_by_bruteforce(vectors)]
            assert got.tolist() == want.tolist()


def test_parallel_determinism(tmp_path, capsys):
    with criterion("6 parallel determinism", capsys):
        rng = np.random.default_rng(109)
        image, _ = quadrant_image(rng)
        input_path = str(tmp_path / "quadrants.bsq")
        save_envi_bsq(image, input_path)
        payloads = []
        for threads in (1, 2, 8):
            sub = tmp_path / f"threads{threads}"
            sub.mkdir()
            config = PipelineConfig(
                input_path=input_path,
                threads=threads,
                out_labels=str(sub / "labels.u32"),
                out_stats=str(sub / "stats.json"),
            )
            run_segment(config)
            payloads.append(
                (
                    (sub / "labels.u32").read_bytes(),
                    (sub / "labels.u32.json").read_bytes(),
                )
            )
        assert payloads[0] == payloads[1] == payloads[2]


def test_seeding_oracles(capsys):
    with criterion("7 seeding oracles", capsys):
        rng = np.random.default_rng(113)

        for _ in range(200):
            bands = int(rng.integers(1, 5))
            depth = 8 if rng.integers(0, 4) else 16
            dtype = np.uint8 if depth == 8 else np.uint16
            top = 256 if depth == 8 else 600  # keep the 16-bit domain walkable
            data = rng.integers(0, top, size=(
                int(rng.integers(1, 13)), int(rng.integers(1, 13)), bands
            )).astype(dtype)
            image = MultibandImage(data=data, depth=depth)
            got = dense(compute_sum_histogram(image))
            want = reference.histogram_by_loop(data, depth)
            assert got.tolist() == want

        for _ in range(200):
            length = int(rng.integers(1, 121))
            counts = rng.integers(0, 50, size=length)
            counts[rng.random(size=length) < 0.3] = 0
            smooth_window = int(rng.choice([1, 3, 5, 7]))
            prominence = float(rng.uniform(0.01, 0.49))
            min_separation = int(rng.integers(1, 16))
            half_width = int(rng.integers(1, 9))
            max_peaks = int(rng.integers(1, 7))
            got = select_ranges(
                sparse(counts),
                smooth_window=smooth_window,
                prominence_frac=prominence,
                min_separation=min_separation,
                half_width=half_width,
                max_peaks=max_peaks,
            )
            want = reference.select_ranges_by_scan(
                counts, smooth_window, prominence, min_separation,
                half_width, max_peaks,
            )
            assert [(r.lo, r.hi, r.peak) for r in got] == want

        for _ in range(200):
            bands = int(rng.integers(1, 5))
            top = 256 if rng.integers(0, 2) else 65536
            vector = rng.integers(0, top, size=bands)
            delta_rel = float(rng.uniform(0.01, 0.5))
            got = classify_spectral_region(vector, delta_rel)
            want = reference.classify_by_rule(vector, delta_rel)
            assert got == want


def test_format_round_trips(tmp_path, capsys):
    with criterion("8 format round-trips", capsys):
        rng = np.random.default_rng(127)

        for case in range(40):
            h = int(rng.integers(1, 21))
            w = int(rng.integers(1, 21))
            bands = int(rng.integers(1, 6))
            depth = 8 if case % 2 else 16
            dtype = np.uint8 if depth == 8 else np.uint16
            data = rng.integers(0, 2 ** depth, size=(h, w, bands)).astype(dtype)
            image = MultibandImage(data=data, depth=depth)
            path = str(tmp_path / f"img{case}.bsq")
            save_envi_bsq(image, path)
            back = load_envi_bsq(path)
            assert back.depth == depth
            assert back.data.dtype == dtype
            assert (back.data == data).all()

        for case in range(40):
            h = int(rng.integers(1, 21))
            w = int(rng.integers(1, 21))
            raster = LabelRaster(
                labels=rng.integers(0, 2 ** 31, size=(h, w)).astype(np.uint32)
            )
            path = str(tmp_path / f"labels{case}.u32")
            save_label_raster(raster, path, len(set(raster.labels.flat) - {0}))
            back = load_label_raster(path)
            assert (back.labels == raster.labels).all()

        image = MultibandImage(
            data=rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8), depth=8
        )
        good = tmp_path / "good.bsq"
        save_envi_bsq(image, str(good))
        truncated = tmp_path / "short.bsq"
        truncated.write_bytes(good.read_bytes()[:-1])
        (tmp_path / "short.bsq.hdr").write_text((tmp_path / "good.bsq.hdr").read_text())
        with pytest.raises(FormatError):
            load_envi_bsq(str(truncated))
        padded = tmp_path / "long.bsq"
        padded.write_bytes(good.read_bytes() + b"\x00")
        (tmp_path / "long.bsq.hdr").write_text((tmp_path / "good.bsq.hdr").read_text())
        with pytest.raises(FormatError):
            load_envi_bsq(str(padded))

        raster = LabelRaster(labels=np.arange(12, dtype=np.uint32).reshape(3, 4))
        lab_path = tmp_path / "good.u32"
        save_label_raster(raster, str(lab_path), 11)
        short = tmp_path / "short.u32"
        short.write_bytes(lab_path.read_bytes()[:-4])
        (tmp_path / "short.u32.json").write_text(
            (tmp_path / "good.u32.json").read_text()
        )
        with pytest.raises(FormatError):
            load_label_raster(str(short))
