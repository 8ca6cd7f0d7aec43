"""Run one ``ca-segment`` command line in this fresh process and report it.

    python3 perfbench/child.py [--trace] -- segment --input ... --out-stats ...

The program is imported before the clock starts, so the reported
``scene_s`` covers exactly what ``ca_segment.cli.main`` does with the
arguments: load the input, segment it, write the label raster and stats.
The last line of standard output is one JSON object with the exit code,
``scene_s`` and the peak RSS of this process.

With ``--trace`` the public functions of ``raster``, ``seeding``,
``automaton`` and ``segments`` are wrapped from here, including the names
``pipeline`` and ``segments`` imported from them, and the JSON also holds
the per-layer totals and counts. Counting (cells changed per step, medoid
sizes) happens outside the spans and its time is taken off every open
span, so layer times exclude it; only ``scene_s`` includes it.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

import numpy as np

import ca_segment.cli as cli
from ca_segment import automaton, raster, seeding, segments

LAYERS = (raster, seeding, automaton, segments)
SAMPLE_CAP = inspect.signature(segments.medoid_signature).parameters["sample_cap"].default


class Tracer:
    """In-memory spans: (name, parent index, start, end, tare, counts)."""

    def __init__(self):
        self.spans = []
        self.open = []
        self.counting_s = 0.0

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.open[-1] if self.open else None, "tare": 0.0}
            self.spans.append(span)
            self.open.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.open.pop()
            if count is not None:
                t0 = time.perf_counter()
                span.update(count(args, kwargs, result))
                spent = time.perf_counter() - t0
                self.counting_s += spent
                for i in self.open:
                    self.spans[i]["tare"] += spent
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every public function of the layer modules, and rebind each
        name any ``ca_segment`` module imported from them."""
        replaced = {}
        for module in LAYERS:
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    layer = module.__name__.rsplit(".", 1)[1]
                    replaced[fn] = self.wrap(f"{layer}.{name}", fn, COUNTERS.get(name))
        for module in list(sys.modules.values()):
            if module is not None and getattr(module, "__name__", "").startswith("ca_segment"):
                for name, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replaced:
                        setattr(module, name, replaced[value])

    def summary(self, total_s):
        def dur(s):
            return s["end"] - s["start"] - s["tare"]

        def total(name):
            return sum(dur(s) for s in self.spans if s["name"] == name)

        def parent_is(s, name):
            return s["parent"] is not None and self.spans[s["parent"]]["name"] == name

        def named(name):
            return [s for s in self.spans if s["name"] == name]

        steps = named("automaton.evolve_step")
        runs = named("automaton.run_to_convergence")
        initial = [s for s in runs if not parent_is(s, "segments.eliminate_oversegmentation")]
        again = [s for s in runs if parent_is(s, "segments.eliminate_oversegmentation")]
        medoids = named("segments.medoid_signature")
        weights = named("automaton.neighbor_weights")
        eliminate = named("segments.eliminate_oversegmentation")
        hist = named("seeding.compute_sum_histogram")
        seeds = named("seeding.generate_seeds")
        pixels = steps[0]["pixels"] if steps else 1
        changed = sum(s["changed"] for s in steps)
        top = sum(dur(s) for s in self.spans if s["parent"] is None)
        layer = {
            "raster.load_s": total("raster.load_image"),
            "raster.write_s": total("raster.save_label_raster") + total("raster.save_preview"),
            "seeding.histogram_s": total("seeding.compute_sum_histogram"),
            "seeding.ranges_s": total("seeding.select_ranges"),
            "seeding.seeds_s": total("seeding.generate_seeds"),
            "seeding.hist_bins": sum(s["bins"] for s in hist),
            "seeding.seed_count": sum(s["seeds"] for s in seeds),
            "seeding.label_count": sum(s["labels"] for s in seeds),
            "automaton.weights_s": total("automaton.neighbor_weights"),
            "automaton.weight_bytes_per_px": sum(s["bytes_per_px"] for s in weights),
            "automaton.evolve_s": sum(dur(s) for s in initial),
            "automaton.steps": sum(s["steps"] for s in initial),
            "automaton.step_ms": 1000 * sum(dur(s) for s in steps) / max(1, len(steps)),
            "automaton.cells_changed": changed,
            "automaton.changed_per_evaluated": changed / max(1, len(steps) * pixels),
            "automaton.reconverge_s": sum(dur(s) for s in again),
            "automaton.reconverge_steps": sum(s["steps"] for s in again),
            "segments.extract_s": total("segments.extract_segments"),
            "segments.extract_calls": len(named("segments.extract_segments")),
            "segments.eliminate_s": sum(dur(s) for s in eliminate),
            "segments.rounds": sum(s["rounds"] for s in eliminate),
            "segments.cleared": sum(s["cleared"] for s in eliminate),
            "segments.signatures_s": sum(dur(s) for s in medoids),
            "segments.medoid_calls": len(medoids),
            "segments.medoid_pairs": sum(s["pairs"] for s in medoids),
            "segments.medoid_capped": sum(s["capped"] for s in medoids),
            "pipeline.other_s": total_s - top - self.counting_s,
        }
        index = {id(s): i for i, s in enumerate(self.spans)}
        curves = [[s["changed"] for s in steps if s["parent"] == index[id(r)]] for r in runs]
        return {"layers": layer, "changed_per_step": curves}


def _changed(args, kwargs, result):
    old, (new, _) = args[0], result
    diff = (new.labels != old.labels) | (new.theta != old.theta)
    return {"changed": int(np.count_nonzero(diff)), "pixels": int(diff.size)}


def _medoid(args, kwargs, result):
    area = int(np.asarray(args[1]).size)
    cap = kwargs.get("sample_cap", args[2] if len(args) > 2 else SAMPLE_CAP)
    return {"pairs": min(area, cap) ** 2, "capped": int(area > cap)}


def _weights(args, kwargs, result):
    image = args[0]
    return {"bytes_per_px": sum(plane.nbytes for _, _, plane in result) / (image.width * image.height)}


COUNTERS = {
    "compute_sum_histogram": lambda a, k, r: {"bins": int(r.size)},
    "generate_seeds": lambda a, k, r: {"seeds": len(r), "labels": r.label_count},
    "neighbor_weights": _weights,
    "evolve_step": _changed,
    "run_to_convergence": lambda a, k, r: {"steps": int(r[1])},
    "eliminate_oversegmentation": lambda a, k, r: {"rounds": int(r[1]), "cleared": int(sum(r[2]))},
    "medoid_signature": _medoid,
}


def main(argv):
    traced = argv[:1] == ["--trace"]
    args = argv[argv.index("--") + 1 :]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(args)
    scene_s = time.perf_counter() - start
    out = {
        "rc": rc,
        "scene_s": scene_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["trace"] = tracer.summary(scene_s)
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
