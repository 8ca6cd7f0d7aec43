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


def _flag(option, **keywords):
    """One flag: its option and its ``add_argument`` keywords, which both parsers read.

    ``dest`` defaults to the option's name, and ``default`` to the config
    field named ``dest``, if any, else False for a switch, None for the rest.
    """
    dest = keywords.setdefault("dest", option[2:].replace("-", "_"))
    default = _DEFAULT.get(dest, False if keywords.get("action") == "store_true" else None)
    keywords["default"] = default.value if isinstance(default, NeighborhoodKind) else default
    return option, keywords


_INTAKE_FLAGS = (
    _flag("--input", dest="input_path", metavar="INPUT", required=True, help="input raster path"),
    _flag("--format", choices=["envi-bsq", "ppm"],
          help="input container (default: inferred from the extension)"),
    _flag("--bands", type=_int_list, metavar="I,J,K",
          help="band subset to segment (default: all bands)"),
    _flag("--delta-rel", type=float, help="relative spread below which a pixel counts as balanced"),
    _flag("--smooth-window", type=int),
    _flag("--prominence", type=float, dest="prominence_frac", metavar="PROMINENCE",
          help="peak height floor as a fraction of the histogram maximum"),
    _flag("--min-separation", type=int),
    _flag("--half-width", type=int),
    _flag("--max-peaks", type=int),
    _flag("--stride", type=int),
    _flag("--out-labels", required=True, help="output label raster path"),
    _flag("--out-stats", required=True, help="output stats JSON path"),
)
_NEIGHBORHOOD_FLAG = _flag("--neighborhood", choices=_NEIGHBORHOODS)

#: each command's summary and flags, in the order of its help
_COMMANDS = {
    "segment": ("run the full segmentation pipeline", _INTAKE_FLAGS + (
        _NEIGHBORHOOD_FLAG,
        _flag("--epsilon", type=float),
        _flag("--min-area", type=int, help="study scale: segments below this area are regrown"),
        _flag("--max-iters", type=int, help="evolution cap (default: 10 * (width + height))"),
        _flag("--max-rounds", type=int),
        _flag("--threads", type=int, help="workers over chunks of each step's attacking cells; "
              "output identical for any value"),
        _flag("--strict", action="store_true",
              help="exit 2, leaving no outputs, if the automaton hits the "
              "iteration cap or null cells or segments below --min-area remain"),
        _flag("--out-preview", help="optional preview PPM path"),
        _flag("--preview-bands", type=_band_triple, metavar="R,G,B",
              help="bands rendered in the preview (default: 0,1,2)"),
    )),
    "seeds": ("stop after seed generation", _INTAKE_FLAGS),
    "stats": ("recompute statistics from a label raster", (
        _flag("--labels", required=True, help="saved label raster path"),
        _NEIGHBORHOOD_FLAG,
        _flag("--out-stats", help="write JSON here instead of stdout"),
    )),
}
#: each command's flag keywords by option, for the plain reader
_COMMAND_FLAGS = {command: dict(flags) for command, (_, flags) in _COMMANDS.items()}


def _build_parser():
    parser = _Parser(prog="ca-segment", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (summary, flags) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for option, keywords in flags:
            cmd.add_argument(option, **keywords)
    return parser


def _read_plain(argv):
    """The namespace argparse would build from ``argv``, or None to leave it to argparse.

    Only the plain form is read: COMMAND, then full flag names of that
    command, each followed by its value as a separate argument unless it
    is a switch. Anything else returns None, so help, abbreviations,
    ``--flag=value`` and every usage error stay argparse's: a value
    starting with "-", an unknown or other command's flag, a stray or
    missing argument, a value its converter or choices refuse, or a
    required flag left out. It reads each flag's ``add_argument``
    keywords, the same ones argparse is built from. Building argparse's
    parser costs a few milliseconds, more than reading a plain command
    line.
    """
    if not argv or argv[0] not in _COMMAND_FLAGS:
        return None
    flags = _COMMAND_FLAGS[argv[0]]
    values = {kw["dest"]: kw["default"] for kw in flags.values()}
    missing = {option for option, kw in flags.items() if kw.get("required")}
    tokens = iter(argv[1:])
    for token in tokens:
        kw = flags.get(token)
        if kw is None:
            return None
        missing.discard(token)
        if kw.get("action") == "store_true":
            values[kw["dest"]] = True
            continue
        text = next(tokens, "-")  # a missing value declines as a flag would
        if text.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if kw.get("choices") is not None and value not in kw["choices"]:
            return None
        values[kw["dest"]] = value
    return None if missing else argparse.Namespace(command=argv[0], **values)


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
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
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
    except (SegmenterError, OSError) as exc:
        print(f"ca-segment: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
