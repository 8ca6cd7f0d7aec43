"""Command-line interface.

Subcommands: ``segment`` (full pipeline), ``seeds`` (stop after seeding),
``stats`` (recompute segment statistics from a saved label raster).
Exit codes: 0 success, 1 usage error, 2 data or contract error, or a
``segment --strict`` run that left its contract unmet.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import fields

from .automaton import NeighborhoodKind
from .errors import SegmenterError
from .pipeline import PipelineConfig, recompute_stats, run_seeds, run_segment

# glibc's mallopt parameters, and the values pinned for a CLI run
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20

_NEIGHBORHOODS = sorted(kind.value for kind in NeighborhoodKind)
_DEFAULT = {f.name: f.default for f in fields(PipelineConfig)}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse hands a command's stray arguments back to the top-level
    # parser, whose usage does not show that command's flags
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _band_triple(text):
    values = _int_list(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError("expected exactly three band indices r,g,b")
    return tuple(values)


def _add_intake_flags(parser):
    parser.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                        help="input raster path")
    parser.add_argument(
        "--format",
        choices=["envi-bsq", "ppm"],
        default=_DEFAULT["format"],
        help="input container (default: inferred from the extension)",
    )
    parser.add_argument(
        "--bands",
        type=_int_list,
        default=_DEFAULT["bands"],
        metavar="I,J,K",
        help="band subset to segment (default: all bands)",
    )
    parser.add_argument("--delta-rel", type=float, default=_DEFAULT["delta_rel"],
                        help="relative spread below which a pixel counts as balanced")
    parser.add_argument("--smooth-window", type=int, default=_DEFAULT["smooth_window"])
    parser.add_argument("--prominence", dest="prominence_frac", metavar="PROMINENCE",
                        type=float, default=_DEFAULT["prominence_frac"],
                        help="peak height floor as a fraction of the histogram maximum")
    parser.add_argument("--min-separation", type=int, default=_DEFAULT["min_separation"])
    parser.add_argument("--half-width", type=int, default=_DEFAULT["half_width"])
    parser.add_argument("--max-peaks", type=int, default=_DEFAULT["max_peaks"])
    parser.add_argument("--stride", type=int, default=_DEFAULT["stride"])
    parser.add_argument("--out-labels", required=True, help="output label raster path")
    parser.add_argument("--out-stats", required=True, help="output stats JSON path")


def _build_parser():
    parser = _Parser(prog="ca-segment", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    seg = sub.add_parser("segment", help="run the full segmentation pipeline")
    _add_intake_flags(seg)
    seg.add_argument(
        "--neighborhood", choices=_NEIGHBORHOODS, default=_DEFAULT["neighborhood"].value
    )
    seg.add_argument("--epsilon", type=float, default=_DEFAULT["epsilon"])
    seg.add_argument("--min-area", type=int, default=_DEFAULT["min_area"],
                     help="study scale: segments below this area are regrown")
    seg.add_argument("--max-iters", type=int, default=_DEFAULT["max_iters"],
                     help="evolution cap (default: 10 * (width + height))")
    seg.add_argument("--max-rounds", type=int, default=_DEFAULT["max_rounds"])
    seg.add_argument("--threads", type=int, default=_DEFAULT["threads"],
                     help="workers over chunks of each step's attacking cells; "
                     "output identical for any value")
    seg.add_argument("--strict", action="store_true",
                     help="exit 2, leaving no outputs, if the automaton hits the "
                     "iteration cap or null cells or segments below --min-area remain")
    seg.add_argument("--out-preview", default=_DEFAULT["out_preview"],
                     help="optional preview PPM path")
    seg.add_argument(
        "--preview-bands",
        type=_band_triple,
        default=_DEFAULT["preview_bands"],
        metavar="R,G,B",
        help="bands rendered in the preview (default: 0,1,2)",
    )

    seeds = sub.add_parser("seeds", help="stop after seed generation")
    _add_intake_flags(seeds)

    stats = sub.add_parser("stats", help="recompute statistics from a label raster")
    stats.add_argument("--labels", required=True, help="saved label raster path")
    stats.add_argument(
        "--neighborhood", choices=_NEIGHBORHOODS, default=_DEFAULT["neighborhood"].value
    )
    stats.add_argument("--out-stats", default=None,
                       help="write JSON here instead of stdout")
    return parser


def _config_from_args(args) -> PipelineConfig:
    # each config field is the dest of a flag; ``seeds`` lacks the
    # segment-only ones, which keep their defaults
    values = {name: getattr(args, name) for name in _DEFAULT if hasattr(args, name)}
    if "neighborhood" in values:
        values["neighborhood"] = NeighborhoodKind(values["neighborhood"])
    return PipelineConfig(**values)


def _unmet(report, min_area) -> list[str]:
    """One line for each part of its contract a segment run left unmet."""
    problems = []
    if not report.converged:
        problems.append(
            f"automaton hit the iteration cap after "
            f"{report.steps_to_convergence} steps without converging"
        )
    null = report.width * report.height - sum(row["pixels"] for row in report.labels)
    if null:
        problems.append(f"{null} null cells remain")
    small = sum(1 for seg in report.segments if seg["area"] < min_area)
    if small:
        problems.append(f"{small} segment(s) below --min-area {min_area} remain")
    return problems


def _keep_freed_pages():
    """Pin glibc's mmap and trim thresholds where the C library has mallopt.

    By default glibc serves blocks of 128 KiB or more with fresh mmap
    pages and raises that threshold only after the first such block is
    freed, so how often a run faults in new pages depends on the order of
    its first large allocations. Pinned at 32 MiB, the ceiling of glibc's
    own heuristic on 64-bit systems, with the trim threshold at twice
    that as the heuristic sets it, freed arrays stay in the heap for the
    next ones.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # macOS has no mallopt; Windows opens no CDLL(None)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_pages()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required (segment, seeds or stats)")

    try:
        if args.command == "segment":
            config = _config_from_args(args)
            report = run_segment(config)
            unmet = _unmet(report, config.min_area)
            for problem in unmet:
                print(f"warning: {problem}", file=sys.stderr)
            if unmet and args.strict:
                written = {config.out_labels, config.out_labels + ".json",
                           config.out_stats, config.out_preview}
                for path in written - {None}:
                    os.remove(path)
                return 2
            print(
                f"{report.seed_count} seeds ({report.seed_fraction:.1%}), "
                f"{report.label_count} labels, {report.steps_to_convergence} steps, "
                f"{report.segments_before} -> {report.segments_after} segments "
                f"in {report.rounds_used} elimination round(s)"
            )
        elif args.command == "seeds":
            report = run_seeds(_config_from_args(args))
            print(
                f"{report.seed_count} seeds ({report.seed_fraction:.1%}), "
                f"{report.label_count} labels over {len(report.ranges)} sum range(s)"
            )
        else:
            stats = recompute_stats(
                args.labels, connectivity=NeighborhoodKind(args.neighborhood)
            )
            text = json.dumps(stats, sort_keys=True, indent=2) + "\n"
            if args.out_stats:
                with open(args.out_stats, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
    except SegmenterError as exc:
        print(f"ca-segment: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ca-segment: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
