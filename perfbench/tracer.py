"""Spans and counters around coxtile's public functions, installed from outside.

The library is not changed: `Tracer.install` rebinds each traced function in
every coxtile module that holds it (callers mostly import names directly, as
in `from .pipeline import build_walls`), and wraps a few hot methods on their
class with a call counter and a total time instead of one span per call.
Spans stay in memory; `layer_metrics` turns them into per-layer figures and
`dump` writes them out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Everything runs in one thread with no queues, so no span waits.
"""

import json
import resource
import sys
from functools import wraps
from time import perf_counter

# One span per call.  Chosen so that every stage a workload spends time in is
# covered, while per-element helpers (geometry primitives, tile_of_faces,
# braid_closure, ...) stay unwrapped and count towards their caller.
SPANS = {
    "coxeter": ["enumerate_ball", "reflection_cocycle"],
    "walls": ["enumerate_walls", "color_walls", "peel_levels", "build_wall_tree", "wall_coloring"],
    "tiles": [
        "build_alphabet",
        "classify_balance",
        "orient_alternating",
        "orient_all_plus",
        "rebased_alternating",
    ],
    "ratlp": ["solve_lp"],
    "pipeline": [
        "build_walls",
        "alternating_resolution",
        "all_plus_resolution",
        "render_bundle",
        "face_metadata",
    ],
    "colorings": ["norm_coloring", "aperiodicity_report"],
    "sequences": ["thue_morse_prefix", "square_free_prefix", "verify_power_free"],
    "tiling_space": ["translate_compare", "patch_distance", "restrict_patch"],
    "hyperbolic": [
        "build_polygon",
        "reflection_matrices",
        "place_tiles",
        "deform_vertices",
        "render_svg",
    ],
    "cli": ["main", "emit_report"],
}

# Called tens of thousands of times: counted on the class, no spans.
COUNTED = {
    "coxeter.normal_form": ("coxeter", "CoxeterSystem", "normal_form"),
    "walls.separating_walls": ("walls", "WallSet", "separating_walls"),
    "walls.canonical_word": ("walls", "WallSet", "canonical_word"),
}

LAYERS = list(SPANS)


def _lp_cells(args, kwargs, result):
    a = kwargs.get("A", args[1] if len(args) > 1 else [])
    return len(a) * (len(a[0]) if a else 0)


# Work counts taken from a traced call: span name -> [(counter, extractor)].
SIZES = {
    "coxeter.enumerate_ball": [("coxeter.ball_elements", lambda a, k, r: len(r))],
    "walls.enumerate_walls": [("walls.count", lambda a, k, r: len(r))],
    "tiles.build_alphabet": [
        ("tiles.alphabet_size", lambda a, k, r: len(r)),
        ("tiles.excluded_faces", lambda a, k, r: len(r.excluded)),
    ],
    "ratlp.solve_lp": [("ratlp.lp_cells", _lp_cells)],
    "colorings.aperiodicity_report": [("colorings.pairs", lambda a, k, r: len(r.records))],
    "hyperbolic.place_tiles": [("hyperbolic.tiles_placed", lambda a, k, r: len(r))],
    "hyperbolic.render_svg": [("hyperbolic.svg_bytes", lambda a, k, r: len(r.encode()))],
    "cli.emit_report": [("cli.report_bytes", lambda a, k, r: len(r.encode()))],
}
SIZE_COUNTERS = {counter for pairs in SIZES.values() for counter, _ in pairs}

# Per-layer metrics, name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "coxeter.enumerate_ball.self_s": "s",
    "coxeter.ball_elements": "count",
    "coxeter.enumerate_ball.rss_gain_mb": "MB",
    "coxeter.normal_form.calls": "count",
    "coxeter.normal_form.s": "s",
    "walls.enumerate_walls.self_s": "s",
    "walls.count": "count",
    "walls.enumerate_walls.rss_gain_mb": "MB",
    "walls.color_walls.self_s": "s",
    "walls.peel_levels.self_s": "s",
    "walls.build_wall_tree.self_s": "s",
    "walls.wall_coloring.self_s": "s",
    "walls.separating_walls.calls": "count",
    "walls.canonical_word.calls": "count",
    "tiles.build_alphabet.self_s": "s",
    "tiles.build_alphabet.calls": "count",
    "tiles.alphabet_size": "count",
    "tiles.excluded_faces": "count",
    "tiles.classify_balance.self_s": "s",
    "ratlp.solve_lp.self_s": "s",
    "ratlp.solve_lp.calls": "count",
    "ratlp.lps_per_verdict": "ratio",
    "ratlp.lp_cells": "count",
    "pipeline.alternating_resolution.self_s": "s",
    "pipeline.all_plus_resolution.self_s": "s",
    "pipeline.render_bundle.self_s": "s",
    "pipeline.face_metadata.self_s": "s",
    "colorings.aperiodicity_report.self_s": "s",
    "colorings.pairs": "count",
    "sequences.verify_power_free.self_s": "s",
    "tiling_space.translate_compare.self_s": "s",
    "tiling_space.translate_compare.calls": "count",
    "tiling_space.patch_distance.self_s": "s",
    "hyperbolic.place_tiles.self_s": "s",
    "hyperbolic.deform_vertices.self_s": "s",
    "hyperbolic.render_svg.self_s": "s",
    "hyperbolic.tiles_placed": "count",
    "hyperbolic.svg_bytes": "B",
    "cli.main.self_s": "s",
    "cli.emit_report.self_s": "s",
    "cli.report_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans (name, start, end, parent) and method call counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, peak rss before, after]
        self.sizes = {}
        self.counters = {name: [0, 0.0] for name in COUNTED}
        self.enabled = True
        self._stack = []
        self._restore = []

    # -- installation ----------------------------------------------------------

    def install(self, package="coxtile"):
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer, names in SPANS.items():
            module = sys.modules[f"{package}.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._rebind(modules, original, self._span_wrapper(f"{layer}.{name}", original))
        for counter, (layer, cls_name, meth) in COUNTED.items():
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._count_wrapper(counter, original))
            self._restore.append((cls, meth, original))

    def uninstall(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        sizes = SIZES.get(name, [])

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, _peak_rss_mb(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[5] = _peak_rss_mb()
                stack.pop()
            for counter, size_of in sizes:
                self.sizes[counter] = self.sizes.get(counter, 0) + size_of(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        cell = self.counters[name]

        @wraps(fn)
        def counted(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += perf_counter() - t

        return counted

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Self seconds per span index."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self):
        """Every PER_LAYER metric except trace.overhead_s, which needs an
        untraced run to compare with."""
        per_name = {}  # span name -> [calls, self seconds, peak RSS gain in MB]
        for rec, own in zip(self.spans, self.self_times()):
            entry = per_name.setdefault(rec[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += own
            entry[2] += rec[5] - rec[4]
        values = {}
        for metric in PER_LAYER:
            head, _, tail = metric.rpartition(".")
            calls, self_s, rss_gain = per_name.get(head, (0, 0.0, 0.0))
            if metric in SIZE_COUNTERS:
                values[metric] = self.sizes.get(metric, 0)
            elif head in self.counters:
                values[metric] = self.counters[head][0 if tail == "calls" else 1]
            elif head in SPANS:
                values[metric] = sum((e[1] for n, e in per_name.items() if n.startswith(head + ".")), 0.0)
            elif tail == "self_s":
                values[metric] = self_s
            elif tail == "calls":
                values[metric] = calls
            elif tail == "rss_gain_mb":
                values[metric] = rss_gain
        verdicts = per_name.get("tiles.classify_balance", [0])[0]
        lps = per_name.get("ratlp.solve_lp", [0])[0]
        values["ratlp.lps_per_verdict"] = lps / verdicts if verdicts else 0.0
        values["trace.spans"] = len(self.spans)
        return values

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rss0, rss1 in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "peak_rss_mb_before": rss0, "peak_rss_mb_after": rss1}
                    )
                    + "\n"
                )
