"""Benchmark of the ``ca-segment`` pipeline on seeded synthetic scenes.

    python3 perfbench/run.py --workload planted-u8x4 --seed 1 --seconds 30 --trace 0

Run from the repository root. The scene for ``--workload`` is built from
``--seed`` and written as ENVI BSQ under ``perfbench/work/``; the segmenter
then runs on it through its ``segment`` command line, one fresh process per
round, for ``--seconds`` seconds of whole rounds. The outputs are checked
against computations made here, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs rounds of
one untraced and one traced process and reports the per-layer metrics and
the tracing overhead. Each run also writes its figures, output hashes and
deterministic counts to ``perfbench/results/``.
``--write-benchmark-json`` rewrites ``BENCHMARK.json`` from the tables below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy import ndimage

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "tests")]

import reference  # noqa: E402  tests/reference.py, the test suite's independent oracles
import scenes  # noqa: E402

RUN_SECONDS = 50
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
SAMPLE_CAP = 4096  # medoid_signature's documented subsample size
BRUTE_FORCE_ROWS = 1024  # reference brute force is evaluated whole up to this size

WORKLOADS = {
    "planted-u8x4": {
        "why": "eleven planted regions at stride 4: two medoids hit the sample cap and dominate, late evolution "
        "steps change few cells, and label agreement with the planted map must reach 0.99",
        "flags": ["--stride", "4", "--max-peaks", "16", "--smooth-window", "15",
                  "--min-separation", "30", "--prominence", "0.01", "--neighborhood", "moore"],
        "threads": 1,
        "agreement_floor": 0.99,
    },
    "sparse-u16x8": {
        "why": "the only 16-bit, 8-band and 2-thread scene: a 524k-bin sparse histogram makes select_ranges "
        "costly and default windows seed under 4% of pixels",
        "flags": ["--neighborhood", "moore"],
        "threads": 2,
        "agreement_floor": None,
    },
}

END_TO_END = [
    {"name": "scene_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "mpix_per_s", "unit": "Mpx/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "region_agreement", "unit": "fraction", "better": "higher", "bound": 0.2},
]

_S, _N = "s", "count"
PER_LAYER = [
    ("raster.load_s", _S, "lower"), ("raster.write_s", _S, "lower"),
    ("seeding.histogram_s", _S, "lower"), ("seeding.ranges_s", _S, "lower"),
    ("seeding.seeds_s", _S, "lower"), ("seeding.hist_bins", _N, "lower"),
    ("seeding.seed_count", _N, "lower"), ("seeding.label_count", _N, "lower"),
    ("automaton.weights_s", _S, "lower"), ("automaton.weight_bytes_per_px", "B/px", "lower"),
    ("automaton.evolve_s", _S, "lower"), ("automaton.steps", _N, "lower"),
    ("automaton.step_ms", "ms", "lower"), ("automaton.cells_changed", _N, "lower"),
    ("automaton.changed_per_evaluated", "fraction", "higher"),
    ("automaton.reconverge_s", _S, "lower"), ("automaton.reconverge_steps", _N, "lower"),
    ("segments.extract_s", _S, "lower"), ("segments.extract_calls", _N, "lower"),
    ("segments.eliminate_s", _S, "lower"), ("segments.rounds", _N, "lower"),
    ("segments.cleared", _N, "lower"), ("segments.signatures_s", _S, "lower"),
    ("segments.medoid_calls", _N, "lower"), ("segments.medoid_pairs", _N, "lower"),
    ("segments.medoid_capped", _N, "lower"), ("pipeline.other_s", _S, "lower"),
    ("trace.scene_s", _S, "lower"), ("trace.overhead_frac", "fraction", "lower"),
]


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def measure_setup():
    """Median time to import the package and its CLI in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import ca_segment.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_child(cli_args, trace):
    """One fresh process running the CLI; returns its JSON report or None."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + (["--trace"] if trace else []) + ["--"] + cli_args
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    report = json.loads(lines[-1])
    if report["rc"] != 0:
        sys.stderr.write(proc.stderr)
        return None
    return report


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def canonical_stats_hash(stats):
    body = {k: v for k, v in stats.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- checks

def _connectivity(flags):
    vn = flags[flags.index("--neighborhood") + 1] == "vonneumann"
    return ndimage.generate_binary_structure(2, 1) if vn else np.ones((3, 3), dtype=bool)


def _flag(flags, name, default):
    return type(default)(flags[flags.index(name) + 1]) if name in flags else default


def components(labels, structure):
    """Connected same-label components, numbered by their first pixel in
    row-major order: a list of ascending flat pixel index arrays."""
    comps = []
    for value in np.unique(labels):
        if value == 0:
            continue
        lab, count = ndimage.label(labels == value, structure=structure)
        flat = lab.ravel()
        order = np.argsort(flat, kind="stable")
        bounds = np.searchsorted(flat[order], np.arange(1, count + 2))
        comps.extend(order[bounds[i] : bounds[i + 1]] for i in range(count))
    comps.sort(key=lambda px: px[0])
    return comps


def brute_force_medoid(vectors):
    """Index of the medoid: ``reference.medoid_by_bruteforce`` up to
    BRUTE_FORCE_ROWS vectors, and the same full pairwise-distance sums
    evaluated a row block at a time above that to bound memory."""
    if len(vectors) <= BRUTE_FORCE_ROWS:
        return reference.medoid_by_bruteforce(vectors)
    arr = np.asarray(vectors, dtype=np.float64)
    sums = np.empty(len(arr))
    for start in range(0, len(arr), 256):
        diff = arr[start : start + 256, None, :] - arr[None, :, :]
        sums[start : start + 256] = np.sqrt((diff * diff).sum(axis=2)).sum(axis=1)
    return int(np.argmin(sums))


def check_outputs(workload, data, truth, depth, labels, stats):
    """Every check a scene's outputs must pass; returns (problems, agreement)."""
    cfg = WORKLOADS[workload]
    flags = cfg["flags"]
    problems = []
    h, w, n = data.shape
    if labels.shape != (h, w) or not (labels > 0).all():
        problems.append("label raster has null cells or the wrong shape")

    min_area = _flag(flags, "--min-area", 150)
    comps = components(labels, _connectivity(flags))
    small = sum(1 for c in comps if c.size < min_area)
    if small:
        problems.append(f"{small} segments below min_area={min_area}")
    if len(comps) != stats["segments_after"] or len(comps) != len(stats["segments"]):
        problems.append(f"{len(comps)} segments found, stats report {stats['segments_after']}")
    elif [c.size for c in comps] != [s["area"] for s in stats["segments"]]:
        problems.append("segment areas differ from the stats")

    # seeds: every lattice pixel whose band sum lies in a selected range,
    # labelled by (range, spectral region) under the documented rule
    stride = _flag(flags, "--stride", 1)
    ranges = stats["ranges"]
    domain = n * ((1 << depth) - 1)
    if any(r["lo"] < 0 or r["hi"] > domain or not r["lo"] <= r["peak"] <= r["hi"] for r in ranges) or any(
        b["lo"] <= a["hi"] for a, b in zip(ranges, ranges[1:])
    ):
        problems.append("selected ranges are not disjoint, ordered ranges inside the sum domain")
    lattice = data[::stride, ::stride].astype(np.int64)
    sums = lattice.sum(axis=2)
    in_range = np.full(sums.shape, -1)
    for i, r in enumerate(ranges):
        in_range[(sums >= r["lo"]) & (sums <= r["hi"])] = i
    spread = lattice.max(axis=2) - lattice.min(axis=2)
    delta_rel = _flag(flags, "--delta-rel", 0.1)
    region = np.where(spread <= delta_rel * lattice.mean(axis=2), -1, lattice.argmax(axis=2))
    seeded = in_range >= 0
    expected = {}
    for key in zip(in_range[seeded].tolist(), region[seeded].tolist()):
        expected[key] = expected.get(key, 0) + 1
    names = {-1: "balanced", **{b: f"band{b}" for b in range(n)}}
    reported = {(row["range_index"], row["region"]): row["seeds"] for row in stats["labels"]}
    if stats["seed_count"] != int(seeded.sum()) or reported != {
        (ri, names[rg]): c for (ri, rg), c in expected.items()
    }:
        problems.append("seeds differ from the lattice pixels whose band sum lies in a selected range")

    # medoids: the smallest, the median and the largest segment
    flat = data.reshape(-1, n)
    by_area = sorted(range(len(comps)), key=lambda i: (comps[i].size, i))
    sample = sorted({by_area[0], by_area[len(by_area) // 2], by_area[-1]}) if comps else []
    for i in sample:
        px = comps[i]
        if px.size > SAMPLE_CAP:
            px = px[(np.arange(SAMPLE_CAP, dtype=np.int64) * px.size) // SAMPLE_CAP]
        medoid = flat[px[brute_force_medoid(flat[px])]]
        if i < len(stats["segments"]) and stats["segments"][i]["signature"] != medoid.tolist():
            problems.append(f"segment {i + 1} signature differs from the brute-force medoid")

    agreement = reference.best_match_agreement(labels, truth)
    floor = cfg["agreement_floor"]
    if floor is not None and agreement < floor:
        problems.append(f"label-to-region agreement {agreement:.4f} below {floor}")
    return problems, agreement


# ---------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "ca_segment", "cli.py")):
        sys.stderr.write("perfbench: src/ca_segment not found; run from a checkout of the repository\n")
        return 2

    cfg = WORKLOADS[args.workload]
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    data, truth, depth = scenes.build(args.workload, args.seed)
    scene_path = os.path.join(work, "scene.bsq")
    scenes.write_envi_bsq(data, depth, scene_path)
    out_labels, out_stats = os.path.join(work, "labels.u32"), os.path.join(work, "stats.json")
    cli_args = ["segment", "--input", scene_path, "--out-labels", out_labels, "--out-stats", out_stats,
                "--threads", str(cfg["threads"])] + cfg["flags"]

    setup_s = measure_setup() if args.trace == 0 else None
    plain, traced, hashes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        for trace in ([False, True] if args.trace else [False]):
            attempted += 1
            for path in (out_labels, out_stats):
                if os.path.exists(path):
                    os.remove(path)
            report = run_child(cli_args, trace)
            if report is not None:
                try:
                    with open(out_stats, encoding="utf-8") as fh:
                        stats = json.load(fh)
                    hashes.append((sha256_file(out_labels), canonical_stats_hash(stats)))
                except (OSError, ValueError):
                    report = None
            if report is None:
                failed += 1
                continue
            (traced if trace else plain).append(report)

    problems = []
    if len(set(hashes)) > 1:
        problems.append(f"{len(set(hashes))} distinct outputs from identical runs")
    agreement = None
    if hashes:
        try:
            labels = np.fromfile(out_labels, dtype="<u4").reshape(truth.shape)
            found, agreement = check_outputs(args.workload, data, truth, depth, labels, stats)
            problems += found
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"outputs do not have the documented form: {exc!r}")
    if problems:
        failed = attempted
    for p in problems:
        print(f"check failed: {p}")

    pixels = truth.size
    metrics = {}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "attempted": attempted,
              "failed": failed, "problems": problems}
    if plain:
        scene_s = statistics.median(r["scene_s"] for r in plain)
        if args.trace == 0:
            metrics = {
                "scene_s": (scene_s, "s"),
                "mpix_per_s": (pixels / scene_s / 1e6, "Mpx/s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
                "setup_s": (setup_s, "s"),
                "region_agreement": (agreement, "fraction"),
            }
        elif traced:
            layers = {k: statistics.median(r["trace"]["layers"][k] for r in traced) for k in traced[0]["trace"]["layers"]}
            traced_s = statistics.median(r["scene_s"] for r in traced)
            layers["trace.scene_s"] = traced_s
            layers["trace.overhead_frac"] = traced_s / scene_s - 1
            units = {n: u for n, u, _ in PER_LAYER}
            metrics = {k: (layers[k], units[k]) for k in units}
            record["changed_per_step"] = traced[0]["trace"]["changed_per_step"]
        record["scene_s_samples"] = [r["scene_s"] for r in plain]
    if hashes:
        record.update({
            "labels_sha256": hashes[0][0],
            "stats_sha256": hashes[0][1],
            "steps": stats["steps_to_convergence"],
            "rounds": stats["rounds_used"],
            "cleared": sum(stats["cleared_per_round"]),
            "segments_after": stats["segments_after"],
            "medoid_pairs": sum(min(s["area"], SAMPLE_CAP) ** 2 for s in stats["segments"]),
        })
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": not problems and len(metrics) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
