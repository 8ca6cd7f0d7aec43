"""Metamorphic guarantees: transformed inputs whose outputs are known from the original's.

No single oracle pins these. A segment run must give the same label bytes
and stats, less ``timings``,

* for the same 8-bit 3-band image read as ENVI BSQ and as PPM;
* for a band subset taken with ``bands`` and for a file cut to that subset;
* for a band permutation, up to the permutation: each signature is
  permuted the same way and each dominant-band region renamed. Band sums,
  squared distances and medoid distances are exact integer sums, and
  label ids follow first-encounter order, so only the spectral region of
  a seeded pixel whose largest band is tied can change: the lowest band
  index attaining it wins. That property is asserted only where no
  unbalanced seeded pixel has a tied maximum, which the test checks.

A run the package refuses must be refused with the same message.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ca_segment import (
    BALANCED,
    ContractError,
    MultibandImage,
    NeighborhoodKind,
    PipelineConfig,
    classify_spectral_region,
    load_label_raster,
    run_seeds,
    run_segment,
    save_envi_bsq,
    save_ppm,
)


@st.composite
def scenes(draw, bands, depths=(8, 16)):
    """(data, depth, config settings): patches of a few colours plus noise."""
    depth = draw(st.sampled_from(depths))
    top = (1 << depth) - 1
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # levels on a coarse ladder tie often; drawn from the full range, rarely
    levels = draw(st.sampled_from((top + 1, 5)))
    palette = rng.integers(0, levels, size=(draw(st.integers(2, 5)), bands)) * (top // (levels - 1))
    cell = draw(st.integers(1, 6))
    patches = rng.integers(0, len(palette), size=(-(-h // cell), -(-w // cell)))
    data = palette[patches.repeat(cell, 0).repeat(cell, 1)[:h, :w]]
    noise = draw(st.sampled_from((0, 1, 4))) * (top // 255)
    data = np.clip(data + rng.integers(-noise, noise + 1, size=data.shape), 0, top)
    settings = dict(
        neighborhood=draw(st.sampled_from(list(NeighborhoodKind))),
        stride=draw(st.integers(1, 3)),
        smooth_window=draw(st.sampled_from((1, 3, 5))),
        prominence_frac=draw(st.sampled_from((0.01, 0.05, 0.2))),
        min_separation=draw(st.integers(1, 12)) * (top // 255),
        half_width=draw(st.integers(1, 8)) * (top // 255),
        max_peaks=draw(st.integers(1, 6)),
        delta_rel=draw(st.sampled_from((0.05, 0.1, 0.3))),
        min_area=draw(st.integers(1, max(1, h * w // 6))),
        max_rounds=draw(st.integers(1, 3)),
        max_iters=draw(st.one_of(st.none(), st.none(), st.integers(1, 4))),
    )
    return data.astype(np.uint8 if depth == 8 else np.uint16), depth, settings


def write_bsq(directory, name, data, depth):
    path = str(Path(directory) / name)
    save_envi_bsq(MultibandImage(data=data, depth=depth), path)
    return path


def segment(path, settings, **overrides):
    """The label bytes and the stats less ``timings`` of one run, or its refusal."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = PipelineConfig(input_path=path, out_labels=str(out / "labels.u32"),
                                out_stats=str(out / "stats.json"), **settings, **overrides)
        try:
            run_segment(config)
        except ContractError as exc:
            return str(exc)
        stats = json.loads((out / "stats.json").read_text())
        del stats["timings"]
        return (out / "labels.u32").read_bytes(), stats


@settings(max_examples=60, deadline=None)
@given(scenes(bands=3, depths=(8,)))
def test_bsq_and_ppm_give_the_same_run(scene):
    data, depth, settings = scene
    with tempfile.TemporaryDirectory() as tmp:
        bsq = write_bsq(tmp, "scene.bsq", data, depth)
        ppm = str(Path(tmp) / "scene.ppm")
        save_ppm(data, ppm)
        assert segment(ppm, settings) == segment(bsq, settings)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 6).flatmap(
    lambda bands: st.tuples(scenes(bands), st.permutations(range(bands)), st.integers(1, bands))
))
def test_band_subset_gives_the_cut_file_run(case):
    (data, depth, settings), order, count = case
    subset = list(order[:count])
    with tempfile.TemporaryDirectory() as tmp:
        whole = write_bsq(tmp, "whole.bsq", data, depth)
        cut = write_bsq(tmp, "cut.bsq", data[:, :, subset], depth)
        assert segment(whole, settings, bands=subset) == segment(cut, settings)


def tied_unbalanced_seed(path, data, settings):
    """Whether an unbalanced seeded pixel of the run on ``path`` has a tied largest band."""
    with tempfile.TemporaryDirectory() as tmp:
        seeds_path = str(Path(tmp) / "seeds.u32")
        seed_settings = {k: v for k, v in settings.items()
                         if k not in ("neighborhood", "min_area", "max_rounds", "max_iters")}
        try:
            run_seeds(PipelineConfig(input_path=path, out_labels=seeds_path, **seed_settings))
        except ContractError:
            return False  # no seed, so no region to change
        seeded = data[load_label_raster(seeds_path).labels != 0].astype(np.int64)
    unbalanced = classify_spectral_region(seeded, settings["delta_rel"]) != BALANCED
    tied = (seeded == seeded.max(axis=1, keepdims=True)).sum(axis=1) > 1
    return bool((unbalanced & tied).any())


def permuted(run, order):
    """``run``, a run of the original bands, as their permutation ``order`` must give it; edits ``run``."""
    if isinstance(run, str):
        return run
    labels, stats = run
    new_index = {old: new for new, old in enumerate(order)}
    for row in stats["labels"]:
        if row["region"] != "balanced":
            row["region"] = f"band{new_index[int(row['region'][4:])]}"
    for seg in stats.get("segments", []):
        seg["signature"] = [seg["signature"][old] for old in order]
    return labels, stats


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda bands: st.tuples(scenes(bands), st.permutations(range(bands)))
))
def test_band_permutation_permutes_the_signatures(case):
    (data, depth, settings), order = case
    with tempfile.TemporaryDirectory() as tmp:
        original = write_bsq(tmp, "original.bsq", data, depth)
        assume(not tied_unbalanced_seed(original, data, settings))
        shuffled = write_bsq(tmp, "shuffled.bsq", data[:, :, list(order)], depth)
        assert segment(shuffled, settings) == permuted(segment(original, settings), order)


def test_tied_unbalanced_seed_finds_a_tie(tmp_path):
    # every band sum is 190, so every pixel is a seed: (90, 90, 10) is
    # dominated by a tied largest band, (90, 89, 11) by one band, and
    # (63, 63, 64) is balanced
    data = np.array([[[90, 89, 11], [63, 63, 64]], [[90, 90, 10], [63, 63, 64]]], dtype=np.uint8)
    settings = dict(smooth_window=1, prominence_frac=0.01, min_separation=1, half_width=1,
                    max_peaks=1, delta_rel=0.1, stride=1)
    path = write_bsq(tmp_path, "tied.bsq", data, 8)
    assert tied_unbalanced_seed(path, data, settings)
    data[1, 0] = (90, 89, 11)
    path = write_bsq(tmp_path, "untied.bsq", data, 8)
    assert not tied_unbalanced_seed(path, data, settings)
