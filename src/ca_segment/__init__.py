"""Unsupervised multispectral image segmentation with a deterministic
cellular automaton: histogram-driven seeding, competitive label
colonization, scale-aware small-segment elimination and medoid spectral
signatures."""

from .automaton import (
    AutomatonGrid,
    NeighborhoodKind,
    evolve_step,
    init_from_seeds,
    neighbor_weights,
    run_to_convergence,
)
from .errors import ContractError, FormatError, SegmenterError, UnsupportedFormatError
from .pipeline import PipelineConfig, RunReport, recompute_stats, run_seeds, run_segment
from .raster import (
    LabelRaster,
    MultibandImage,
    load_envi_bsq,
    load_image,
    load_label_raster,
    load_ppm,
    save_envi_bsq,
    save_label_raster,
    save_ppm,
    save_preview,
)
from .seeding import (
    BALANCED,
    SeedMap,
    SumHistogram,
    SumRange,
    classify_spectral_region,
    compute_sum_histogram,
    generate_seeds,
    select_ranges,
)
from .segments import (
    Segment,
    SegmentSet,
    eliminate_oversegmentation,
    extract_segments,
    medoid_signature,
    null_small_segments,
)

__version__ = "0.1.0"

__all__ = [
    "AutomatonGrid",
    "BALANCED",
    "ContractError",
    "FormatError",
    "LabelRaster",
    "MultibandImage",
    "NeighborhoodKind",
    "PipelineConfig",
    "RunReport",
    "SeedMap",
    "Segment",
    "SegmentSet",
    "SegmenterError",
    "SumHistogram",
    "SumRange",
    "UnsupportedFormatError",
    "classify_spectral_region",
    "compute_sum_histogram",
    "eliminate_oversegmentation",
    "evolve_step",
    "extract_segments",
    "generate_seeds",
    "init_from_seeds",
    "load_envi_bsq",
    "load_image",
    "load_label_raster",
    "load_ppm",
    "medoid_signature",
    "neighbor_weights",
    "null_small_segments",
    "recompute_stats",
    "run_seeds",
    "run_segment",
    "run_to_convergence",
    "save_envi_bsq",
    "save_label_raster",
    "save_ppm",
    "save_preview",
    "select_ranges",
]
