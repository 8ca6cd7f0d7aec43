"""End-to-end orchestration: configuration, the segment/seeds runs, reports.

The stats JSON is canonical (sorted keys, floats rounded at build time)
except for the ``timings`` block, which is the only part allowed to differ
between otherwise identical runs.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import raster, seeding, segments as segmod
from .automaton import NeighborhoodKind, init_from_seeds, neighbor_weights, run_to_convergence
from .errors import ContractError
from .raster import LabelRaster, MultibandImage


@dataclass
class PipelineConfig:
    """Every knob of the pipeline; defaults follow the module contracts."""

    input_path: str
    format: str | None = None  # envi-bsq | ppm | None -> infer from extension
    bands: list[int] | None = None
    neighborhood: NeighborhoodKind = NeighborhoodKind.MOORE8
    delta_rel: float = 0.1
    smooth_window: int = 5
    prominence_frac: float = 0.05
    min_separation: int = 10
    half_width: int = 5
    max_peaks: int = 8
    stride: int = 1
    epsilon: float = 1e-6
    min_area: int = 150
    max_iters: int | None = None  # None -> 10 * (width + height)
    max_rounds: int = 5
    threads: int = 1
    out_labels: str | None = None
    out_stats: str | None = None
    out_preview: str | None = None
    preview_bands: tuple[int, int, int] | None = None

    def validate(self):
        if self.min_area < 1:
            raise ContractError("min_area must be >= 1")
        if self.stride < 1:
            raise ContractError("stride must be >= 1")
        if self.threads < 1:
            raise ContractError("threads must be >= 1")
        if self.max_rounds < 1:
            raise ContractError("max_rounds must be >= 1")
        if self.max_iters is not None and self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")
        if not 0 < self.epsilon < 1:
            raise ContractError("epsilon must lie strictly between 0 and 1")


@dataclass
class RunReport:
    """Everything a run learned, minus the raw rasters.

    The fields are the stats JSON keys; a ``None`` field is left out, which
    drops the segment keys from a ``seeds`` run.
    """

    mode: str
    width: int
    height: int
    bands: int
    depth: int
    seed_count: int
    seed_fraction: float
    label_count: int
    ranges: list[seeding.SumRange]
    labels: list[dict]
    steps_to_convergence: int | None = None
    converged: bool | None = None
    segments_before: int | None = None
    segments_after: int | None = None
    rounds_used: int | None = None
    cleared_per_round: list[int] | None = None
    segments: list[dict] | None = None
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The stats keys; the label and segment rows are the report's own, not copies."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ranges"] = [asdict(r) for r in self.ranges]
        return {k: v for k, v in out.items() if v is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _phase(times, name):
    """Add the wall time of the ``with`` body to ``times[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        times[name] = times.get(name, 0.0) + (time.perf_counter() - start)


def _load_input(config: PipelineConfig):
    """The image, cut to ``config.bands``."""
    image = raster.load_image(config.input_path, config.format)
    if config.bands is not None:
        subset = list(config.bands)
        if not subset:
            raise ContractError("band subset must not be empty")
        if any(b < 0 or b >= image.bands for b in subset):
            raise ContractError(
                f"band subset {subset} out of range for {image.bands} bands"
            )
        image = MultibandImage(
            data=np.ascontiguousarray(image.data[:, :, subset]), depth=image.depth
        )
    return image


def _load_and_seed(config, times):
    """Validate the config, load the image and build its ranges and seeds.

    Returns (image, ranges, seeds, seed count).
    """
    config.validate()
    with _phase(times, "load"):
        image = _load_input(config)
    with _phase(times, "histogram"):
        hist = seeding.compute_sum_histogram(image)
    with _phase(times, "ranges"):
        ranges = seeding.select_ranges(
            hist,
            smooth_window=config.smooth_window,
            prominence_frac=config.prominence_frac,
            min_separation=config.min_separation,
            half_width=config.half_width,
            max_peaks=config.max_peaks,
        )
    with _phase(times, "seeds"):
        seeds = seeding.generate_seeds(
            image, ranges, delta_rel=config.delta_rel, stride=config.stride
        )
    seed_count = len(seeds)
    if seed_count == 0:
        raise ContractError(
            "no seeds produced: no subsampled pixel has a band sum inside the "
            f"selected ranges {[(r.lo, r.hi) for r in ranges]} "
            f"(smooth_window={config.smooth_window}, "
            f"prominence_frac={config.prominence_frac}, "
            f"min_separation={config.min_separation}, half_width={config.half_width}, "
            f"max_peaks={config.max_peaks}, stride={config.stride})"
        )
    return image, ranges, seeds, seed_count


def _report(config, image, ranges, seed_count, times, **fields) -> RunReport:
    """Build the run's report and write it to ``out_stats`` if one is set."""
    report = RunReport(
        width=image.width,
        height=image.height,
        bands=image.bands,
        depth=image.depth,
        seed_count=seed_count,
        seed_fraction=round(seed_count / (image.width * image.height), 6),
        ranges=ranges,
        timings={k: round(v, 6) for k, v in times.items()},
        **fields,
    )
    if config.out_stats:
        with open(config.out_stats, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return report


def _label_summary(seeds: seeding.SeedMap, final: segmod.SegmentSet | None = None) -> dict:
    """The ``labels`` rows and ``label_count``, the labels present in the output.

    The output is the seed raster, or when given the ``final`` segments,
    which cover its nonzero cells with labels up to ``seeds.label_count``.
    """
    seed_counts = np.bincount(seeds.labels[seeds.labels != 0], minlength=seeds.label_count + 1)
    counts = seed_counts
    if final is not None:
        counts = np.zeros_like(seed_counts)
        for seg in final.segments:
            counts[seg.label] += seg.area
    rows = []
    for lab, (range_idx, region) in enumerate(seeds.keys, start=1):
        row = {
            "label": lab,
            "range_index": range_idx,
            "region": seeding.region_name(region),
            "seeds": int(seed_counts[lab]),
        }
        if final is not None:
            row["pixels"] = int(counts[lab])
        rows.append(row)
    return {"labels": rows, "label_count": int(np.count_nonzero(counts[1:]))}


def run_seeds(config: PipelineConfig) -> RunReport:
    """Histogram, range and seed construction only; writes the seed raster."""
    times = {}
    image, ranges, seeds, seed_count = _load_and_seed(config, times)

    summary = _label_summary(seeds)
    with _phase(times, "write"):
        if config.out_labels:
            raster.save_label_raster(
                LabelRaster(labels=seeds.labels), config.out_labels, summary["label_count"]
            )

    return _report(
        config, image, ranges, seed_count, times,
        mode="seeds",
        **summary,
    )


def run_segment(config: PipelineConfig) -> RunReport:
    """The full pipeline: seed, converge, enforce the study scale, sign."""
    times = {}
    image, ranges, seeds, seed_count = _load_and_seed(config, times)
    preview = config.preview_bands
    if preview is None:
        preview = (0, 1, 2) if image.bands >= 3 else (0, 0, 0)
    if any(b < 0 or b >= image.bands for b in preview):
        raise ContractError(
            f"preview bands {tuple(preview)} out of range for {image.bands} bands"
        )

    max_iters = config.max_iters
    if max_iters is None:
        max_iters = 10 * (image.width + image.height)

    with _phase(times, "weights"):
        weights = neighbor_weights(image, config.neighborhood, config.epsilon)
    with _phase(times, "evolve"):
        grid = init_from_seeds(seeds)
        grid, steps, converged = run_to_convergence(
            grid, weights, max_iters, threads=config.threads
        )

    with _phase(times, "segments"):
        before = segmod.extract_segments(
            LabelRaster(labels=grid.labels), config.neighborhood
        )
        grid, rounds_used, cleared, final = segmod.eliminate_oversegmentation(
            grid,
            weights,
            config.neighborhood,
            min_area=config.min_area,
            max_iters=max_iters,
            max_rounds=config.max_rounds,
            threads=config.threads,
            segs=before,
        )

    with _phase(times, "signatures"):
        seg_rows = []
        for seg in final.segments:
            signature = segmod.medoid_signature(image, seg)
            seg_rows.append(
                {
                    "id": seg.id,
                    "label": seg.label,
                    "area": seg.area,
                    "signature": [int(v) for v in signature],
                }
            )

    summary = _label_summary(seeds, final)
    with _phase(times, "write"):
        if config.out_labels:
            raster.save_label_raster(
                LabelRaster(labels=grid.labels), config.out_labels, summary["label_count"]
            )
        if config.out_preview:
            raster.save_preview(
                image,
                LabelRaster(labels=final.id_raster()),
                [row["signature"] for row in seg_rows],
                preview,
                config.out_preview,
            )

    return _report(
        config, image, ranges, seed_count, times,
        mode="segment",
        **summary,
        steps_to_convergence=steps,
        converged=converged,
        segments_before=len(before),
        segments_after=len(final),
        rounds_used=rounds_used,
        cleared_per_round=cleared,
        segments=seg_rows,
    )


def recompute_stats(labels_path, connectivity=NeighborhoodKind.MOORE8) -> dict:
    """Segment statistics of a previously saved label raster."""
    label_raster = raster.load_label_raster(labels_path)
    segs = segmod.extract_segments(label_raster, connectivity)
    return {
        "width": label_raster.width,
        "height": label_raster.height,
        "label_count": len({s.label for s in segs.segments}),
        "labeled_pixels": int((label_raster.labels != 0).sum()),
        "segment_count": len(segs),
        "segments": [
            {"id": s.id, "label": s.label, "area": s.area} for s in segs.segments
        ],
    }
