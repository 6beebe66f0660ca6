"""Per-layer tracing of tagtrack from outside the package.

Every public function of the layer modules is replaced by a wrapper that
counts calls, times them, and opens a span when control crosses from one
layer (module) into another.  A layer's self time is the time its spans
cover minus the part covered by spans of other layers they called.  Spans
are summed per layer and function as they close rather than kept one by
one: the per-layer metrics need only the sums.

``cli``, ``pipeline`` and ``tracking`` import layer functions by name
(``from .music import estimate_aoa``), so the wrapper is rebound in every
tagtrack module that holds the original, not only in the defining one.
``check_static_coverage`` proves afterwards that no module, and no default
argument, still holds an unwrapped function.

Per-function hooks turn arguments and results into the counts the layer
metrics need (windows produced, DTW cells, files written, ...).  Hook time
is charged to no layer.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import io
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("simulate", "readerlog", "preprocess", "music", "tracking",
          "features", "classify", "pipeline", "cli", "config")

MTIME_SLACK_NS = 20_000_000  # file times come from a coarse kernel clock

WINDOWING_FUNCS = ("split_by_tag", "prune_single_antenna_segments", "window_segments",
                   "measurement_slots")


def _out_dir(args, kwargs):
    return Path(kwargs["out_dir"] if "out_dir" in kwargs else args[1])


class Tracer:
    """Aggregated spans and counts for one traced repeat."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self.reset()

    def reset(self):
        self.stack: list[list] = []          # [layer, time covered by child spans]
        self.calls: Counter = Counter()      # "layer.func" -> calls, nested ones too
        self.incl: defaultdict = defaultdict(float)    # "layer.func" -> inclusive seconds
        self.self_s: defaultdict = defaultdict(float)  # layer -> self seconds
        self.counts: Counter = Counter()     # hook-derived counts
        self.hook_s = 0.0                    # time spent in hooks, charged to no layer
        self._reading_log = 0

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        key = f"{layer}.{name}"
        before, after = HOOKS.get(key, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            if before:
                h0 = clock()
                state = before(tracer, args, kwargs)
                tracer.hook_s += clock() - h0
            stack = tracer.stack
            boundary = not stack or stack[-1][0] != layer
            if boundary:
                frame = [layer, 0.0]
                stack.append(frame)
            hooks_at_start = tracer.hook_s
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (tracer.hook_s - hooks_at_start)
                tracer.incl[key] += dt
                if boundary:
                    stack.pop()
                    tracer.self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if after:
                h0 = clock()
                after(tracer, state if before else None, args, kwargs, result)
                tracer.hook_s += clock() - h0
            return result

        return wrapper

    def install(self):
        "Wrap every public layer function and rebind it wherever it is imported."
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"tagtrack.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
                    self._originals[id(fn)] = fn
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is self._originals[id(value)]:
                    setattr(mod, attr, wrappers[id(value)])
                    self._installed.append((mod, attr, value))
        self._count_opens()

    def uninstall(self):
        for target, attr, value in reversed(self._installed):
            setattr(target, attr, value)
        self._installed.clear()
        self._originals.clear()

    def _count_opens(self):
        "Count files opened for reading inside read_reader_log."
        original = builtins.open
        tracer = self

        def counting_open(file, mode="r", *args, **kwargs):
            if tracer._reading_log and not set(mode) & set("wax+"):
                tracer.counts["readerlog.files_read"] += 1
            return original(file, mode, *args, **kwargs)

        for target in (builtins, io):
            self._installed.append((target, "open", original))
            target.open = counting_open

    def check_static_coverage(self) -> list[str]:
        "Names still bound to an unwrapped layer function (empty when covered)."
        missed = []
        for mod in package_modules():
            for attr, value in vars(mod).items():
                if id(value) in self._originals and value is self._originals[id(value)]:
                    missed.append(f"{mod.__name__}.{attr}")
                if inspect.isfunction(value):
                    defaults = (value.__defaults__ or ()) + \
                        tuple((value.__kwdefaults__ or {}).values())
                    missed.extend(f"{mod.__name__}.{attr} default" for d in defaults
                                  if id(d) in self._originals and d is self._originals[id(d)])
        return missed

    # --- per-layer metrics ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        "Per-layer metrics of the repeat traced since the last reset."
        c, inc, calls, self_s = self.counts, self.incl, self.calls, self.self_s

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        sims = calls["simulate.simulate_window"]
        estimates = calls["music.estimate_aoa"]
        filtered = c["tracking.windows"]
        samples = calls["features.assemble_features"]
        knn = calls["classify.knn_feature_classify"]
        dtw_s = inc["classify.dtw_1nn_classify"]
        feat_s = inc["features.featurize_dataset"]
        return {
            "simulate.calls": sims,
            "simulate.self_s": self_s["simulate"],
            "simulate.us_per_window": ratio(self_s["simulate"], sims, 1e6),
            "readerlog.write_s": inc["readerlog.write_reader_log"],
            "readerlog.read_s": inc["readerlog.read_reader_log"],
            "readerlog.files_written": c["readerlog.files_written"],
            "readerlog.bytes_written": c["readerlog.bytes_written"],
            "readerlog.files_read": c["readerlog.files_read"],
            "preprocess.window_s": sum(inc[f"preprocess.{f}"] for f in WINDOWING_FUNCS),
            "preprocess.windows_io_s": inc["preprocess.write_windows"]
            + inc["preprocess.read_windows"],
            "preprocess.windows_out": c["preprocess.windows_out"],
            "preprocess.window_yield": ratio(c["preprocess.windows_out"],
                                             c["preprocess.tag_windows_in"]),
            "music.calls": estimates,
            "music.us_per_window": ratio(self_s["music"], estimates, 1e6),
            "music.valid_ratio": ratio(c["music.valid"], estimates),
            "music.spectrum_evals_per_window": ratio(calls["music.music_spectrum"], estimates),
            "tracking.tracks": calls["tracking.filter_sequence"],
            "tracking.filter_us_per_window": ratio(inc["tracking.filter_sequence"],
                                                   filtered, 1e6),
            "tracking.smooth_us_per_window": ratio(inc["tracking.rts_smooth"],
                                                   c["tracking.smoothed_windows"], 1e6),
            "tracking.skipped_update_ratio": ratio(c["tracking.skipped"], filtered),
            "features.self_s": self_s["features"],
            "features.us_per_sample": ratio(feat_s, samples, 1e6),
            "features.imputed_ratio": ratio(c["features.imputed"], c["features.values"]),
            "classify.dtw_s": dtw_s,
            "classify.dtw_cells": c["classify.dtw_cells"],
            "classify.dtw_ns_per_cell": ratio(dtw_s, c["classify.dtw_cells"], 1e9),
            "classify.knn_us_per_query": ratio(inc["classify.knn_feature_classify"], knn, 1e6),
            "pipeline.self_s": self_s["pipeline"],
            "cli.self_s": self_s["cli"],
            "config.load_s": inc["config.load_config"],
        }


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tagtrack" or name.startswith("tagtrack."))]


# --- hooks ----------------------------------------------------------------------

def _log_written_before(tracer, args, kwargs):
    return time.time_ns() - MTIME_SLACK_NS


def _log_written_after(tracer, since_ns, args, kwargs, result):
    "Files under the log directory modified since the call began, and their bytes."
    for dirpath, _, names in os.walk(_out_dir(args, kwargs)):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            if st.st_mtime_ns >= since_ns:
                tracer.counts["readerlog.files_written"] += 1
                tracer.counts["readerlog.bytes_written"] += st.st_size


def _reading_before(tracer, args, kwargs):
    tracer._reading_log += 1


def _reading_after(tracer, state, args, kwargs, result):
    tracer._reading_log -= 1


def _split_after(tracer, state, args, kwargs, result):
    tracer.counts["preprocess.tag_windows_in"] += sum(
        len({r.window_idx for r in records}) for records in result.values())


def _windows_after(tracer, state, args, kwargs, result):
    tracer.counts["preprocess.windows_out"] += len(result)


def _estimate_after(tracer, state, args, kwargs, result):
    tracer.counts["music.valid"] += bool(result.valid)


def _filter_after(tracer, state, args, kwargs, result):
    tracer.counts["tracking.windows"] += result.valid.size
    tracer.counts["tracking.skipped"] += int((~result.valid).sum())


def _smooth_after(tracer, state, args, kwargs, result):
    tracer.counts["tracking.smoothed_windows"] += result.n_windows


def _impute_before(tracer, args, kwargs):
    v = np.asarray(args[0], dtype=float)
    tracer.counts["features.values"] += v.size
    tracer.counts["features.imputed"] += int((~np.isfinite(v)).sum())


def _dtw_bank_before(tracer, args, kwargs):
    bank = np.asarray(args[1], dtype=float)
    rows, cols = (1, bank.size) if bank.ndim == 1 else bank.shape
    tracer.counts["classify.dtw_cells"] += np.asarray(args[0]).size * rows * cols


def _dtw_pair_before(tracer, args, kwargs):
    tracer.counts["classify.dtw_cells"] += np.asarray(args[0]).size * np.asarray(args[1]).size


HOOKS = {  # "layer.func" -> (before, after); either may be None
    "readerlog.write_reader_log": (_log_written_before, _log_written_after),
    "readerlog.read_reader_log": (_reading_before, _reading_after),
    "preprocess.split_by_tag": (None, _split_after),
    "preprocess.window_segments": (None, _windows_after),
    "music.estimate_aoa": (None, _estimate_after),
    "tracking.filter_sequence": (None, _filter_after),
    "tracking.rts_smooth": (None, _smooth_after),
    "features.impute_linear": (_impute_before, None),
    "classify.dtw_to_bank": (_dtw_bank_before, None),
    "classify.dtw_distance": (_dtw_pair_before, None),
}
