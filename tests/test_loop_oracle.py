"""The whole segment run against the loop oracle, byte for byte.

``reference.segment_by_loop`` chains the per-stage loop oracles into one
run, elimination rounds and medoids included, so this property guards how
the package composes its stages as well as each stage.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from ca_segment import (
    ContractError,
    MultibandImage,
    NeighborhoodKind,
    PipelineConfig,
    load_label_raster,
    run_segment,
    save_envi_bsq,
)


@st.composite
def scenes(draw):
    """(data, depth, config settings): patches of a few colours plus noise."""
    depth = draw(st.sampled_from((8, 8, 8, 16)))
    top = (1 << depth) - 1
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    bands = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)):
        # square patches of a few colours, with noise
        palette = rng.integers(0, top + 1, size=(draw(st.integers(1, 6)), bands))
        cell = draw(st.integers(1, 8))
        patches = rng.integers(0, len(palette), size=(-(-h // cell), -(-w // cell)))
        data = palette[patches.repeat(cell, 0).repeat(cell, 1)[:h, :w]]
        noise = draw(st.sampled_from((0, 1, 3, 12))) * (top // 255)
        data = np.clip(data + rng.integers(-noise, noise + 1, size=data.shape), 0, top)
    else:
        # texture, where a capped run leaves segments that a round splits again
        data = rng.integers(0, top + 1, size=(h, w, bands))
    settings = dict(
        neighborhood=draw(st.sampled_from(list(NeighborhoodKind))),
        stride=draw(st.integers(1, 4)),
        smooth_window=draw(st.sampled_from((1, 3, 5))),
        prominence_frac=draw(st.sampled_from((0.01, 0.05, 0.2))),
        min_separation=draw(st.integers(1, 12)) * (top // 255),
        half_width=draw(st.integers(1, 8)) * (top // 255),
        max_peaks=draw(st.integers(1, 6)),
        delta_rel=draw(st.sampled_from((0.05, 0.1, 0.3))),
        min_area=draw(st.integers(1, max(1, h * w // 3))),
        max_rounds=draw(st.integers(1, 4)),
        max_iters=draw(st.one_of(st.none(), st.none(), st.integers(1, 4))),
    )
    dtype = np.uint8 if depth == 8 else np.uint16
    return data.astype(dtype), depth, settings


def run_package(data, depth, settings):
    """The package's segment run: its report and label raster, or None if refused."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scene.bsq")
        save_envi_bsq(MultibandImage(data=data, depth=depth), path)
        config = PipelineConfig(
            input_path=path, out_labels=str(Path(tmp) / "labels.u32"), **settings
        )
        try:
            report = run_segment(config)
        except ContractError:
            return None
        return report, load_label_raster(config.out_labels).labels


def example_scene(rows, depth=8, **settings):
    dtype = np.uint8 if depth == 8 else np.uint16
    data = np.asarray(rows, dtype=dtype)
    defaults = dict(neighborhood=NeighborhoodKind.MOORE8, stride=1, smooth_window=1,
                    prominence_frac=0.01, min_separation=1, half_width=1, max_peaks=2,
                    delta_rel=0.1, min_area=2, max_rounds=4, max_iters=None)
    return data[:, :, None] if data.ndim == 2 else data, depth, {**defaults, **settings}


WRAP_ROWS = [[50, 200, 50], [200, 200, 200], [50, 200, 200], [200, 50, 200]]


@settings(max_examples=100, deadline=None)
@given(scenes())
# three rounds: the capped first colonization leaves segments that each
# round's capped regrowth splits again
@example(example_scene([[168, 189, 57, 71, 172], [88, 0, 164, 154, 78],
                        [248, 95, 91, 8, 38], [247, 123, 244, 179, 7]],
                       neighborhood=NeighborhoodKind.VONNEUMANN4, min_separation=7,
                       half_width=3, max_peaks=6, max_iters=1))
# the same with the rounds exhausted: the segments reported are those of the
# last round's regrowth, which still holds undersized ones
@example(example_scene([[168, 189, 57, 71, 172], [88, 0, 164, 154, 78],
                        [248, 95, 91, 8, 38], [247, 123, 244, 179, 7]],
                       neighborhood=NeighborhoodKind.VONNEUMANN4, min_separation=7,
                       half_width=3, max_peaks=6, max_iters=1, max_rounds=2))
# two rounds under Moore connectivity
@example(example_scene([[62, 228, 141], [55, 32, 88], [111, 167, 204]],
                       min_separation=10, half_width=10, max_peaks=5, max_iters=1))
# every pixel is a seed, so the seeds are the segments: diagonal neighbours
# join only under Moore connectivity, and the 50s at the ends of row 0 and
# at the start of row 2 touch nothing through the row ends
@example(example_scene(WRAP_ROWS, min_area=1))
@example(example_scene(WRAP_ROWS, min_area=1, neighborhood=NeighborhoodKind.VONNEUMANN4))
# a capped first colonization whose freed cells the round must regrow
@example(example_scene([[9, 9, 9, 9, 9, 9, 9, 200]], stride=3, max_rounds=2, max_iters=2))
def test_run_segment_matches_loop_oracle(scene):
    data, depth, settings = scene
    config = PipelineConfig(input_path="", **settings)
    want = reference.segment_by_loop(data, depth, config)
    got = run_package(data, depth, settings)
    assert (got is None) == (want is None)
    if want is None:
        return
    report, labels = got
    assert labels.tobytes() == want["labels"].tobytes()
    assert report.steps_to_convergence == want["steps"]
    assert report.converged == want["converged"]
    assert report.segments_before == want["segments_before"]
    assert report.segments_after == want["segments_after"]
    assert report.rounds_used == len(want["cleared_per_round"])
    assert report.cleared_per_round == want["cleared_per_round"]
    assert report.segments == want["segments"]
