"""Spans and counters around lclt_lab's layers, installed from outside.

Tracer.install() replaces every public function of the seven modules with
a wrapper, under its own name and under every alias another module
imported it by (polymer.connected_sum, exactengine.build_system,
cli.ursell_hardcore, ...); without the aliases those calls would escape
their spans. restore() puts every original back.

A span opens when a call enters a layer from outside it; nested calls
within the same layer add no span. A span holds its name, start, end,
parent span and operation id, kept in flat arrays in memory and written
out by save() at the end. A layer's self time is its spans' durations
minus their child spans, which always belong to other layers.

Probes on a few functions count the work done (t points, conditionings,
enumerated states, sweeps, Ursell terms) whether or not the call opened a
span. _system, the shared preprocessed view of a model, counts as model.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "model", "verifier", "exactengine", "polymer", "combinatorics", "montecarlo")
MODULE_LAYER = {f"lclt_lab.{layer}": layer for layer in LAYERS}
MODULE_LAYER["lclt_lab._system"] = "model"
# Private functions wrapped for their probe only: every enumeration runs
# through _scan.
PROBED_PRIVATE = {("lclt_lab.exactengine", "_scan")}


# (metric, module, attribute) of the engine caches whose hit ratio is reported.
CACHES = (
    ("exactengine.moments_cache_hit_ratio", "lclt_lab.exactengine", "_moments"),
    ("polymer.gas_cache_hit_ratio", "lclt_lab.polymer", "_gas_for_system"),
)


def _modules():
    return {name: importlib.import_module(name) for name in MODULE_LAYER}


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.counts = defaultdict(float)
        self._names: list[str] = []
        self._name_layer: list[str] = []
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._open_spans: list[int] = []
        self._open_layers: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._caches0: dict[str, tuple[int, int]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _modules()
        resolve_region = modules["lclt_lab.model"].resolve_region
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                origin = getattr(fn, "__module__", None)
                if isinstance(fn, type) or not callable(fn) or origin not in MODULE_LAYER:
                    continue
                if attr.startswith("_") and (origin, attr) not in PROBED_PRIVATE:
                    continue
                wrapper = wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = self._wrap(fn, origin, resolve_region)
                    wrappers[id(fn)] = wrapper
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapper)
        self._caches0 = self._cache_counts()

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, origin: str, resolve_region):
        layer = MODULE_LAYER[origin]
        short = origin.rsplit(".", 1)[1]
        name = f"{short}.{fn.__name__}"
        name_id = len(self._names)
        self._names.append(name)
        self._name_layer.append(layer)
        probe = self._probe(name, resolve_region)
        open_layers, open_spans = self._open_layers, self._open_spans
        names, starts, ends, parents, op_ids = self._name, self._start, self._end, self._parent, self._op
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_layers and open_layers[-1] == layer:
                if probe is None:
                    return fn(*args, **kwargs)
                t0 = clock()
                out = fn(*args, **kwargs)
                probe(args, kwargs, out, clock() - t0)
                return out
            index = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            op_ids.append(self.op_id)
            ends.append(0.0)
            open_spans.append(index)
            open_layers.append(layer)
            t0 = clock()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[index] = t1
                open_spans.pop()
                open_layers.pop()
            if probe is not None:
                probe(args, kwargs, out, t1 - t0)
            return out

        return traced

    def _probe(self, name: str, resolve_region):
        c = self.counts

        def arg(args, kwargs, pos, key, default):
            return args[pos] if len(args) > pos else kwargs.get(key, default)

        if name == "exactengine.decimated_char_fn_sup":
            def probe(args, kwargs, out, dt):
                c["ee.t_points"] += 1
                c["ee.conditionings"] += len(out.entries)
                c["ee.t_s"] += dt
        elif name == "exactengine._scan":
            def probe(args, kwargs, out, dt):
                system = args[0]
                c["ee.states"] += len(system.values) ** system.site_count
                c["ee.scan_s"] += dt
        elif name == "polymer.polymer_partition":
            def probe(args, kwargs, out, dt):
                mode = arg(args, kwargs, 4, "mode", "direct")
                c[f"pg.{mode}_calls"] += 1
                c[f"pg.{mode}_s"] += dt
        elif name == "polymer.truncated_log_partition":
            def probe(args, kwargs, out, dt):
                c["pg.series_calls"] += 1
                c["pg.series_s"] += dt
        elif name == "combinatorics.connected_sum":
            def probe(args, kwargs, out, dt):
                c["cb.connected_sum_calls"] += 1
                c["cb.connected_sum_s"] += dt
        elif name == "combinatorics.ursell_hardcore":
            def probe(args, kwargs, out, dt):
                c["cb.ursell_calls"] += 1
                c["cb.ursell_s"] += dt
                c["cb.ursell_nonzero"] += out != 0.0
        elif name == "montecarlo.total_spin_samples":
            def probe(args, kwargs, out, dt):
                model, spec = args[0], arg(args, kwargs, 1, "spec", None)
                sites = len(resolve_region(model, arg(args, kwargs, 2, "region", "box")))
                sweeps = spec.burn_in + spec.samples * spec.thinning
                c["mc.sweeps"] += sweeps
                c["mc.site_updates"] += sweeps * spec.chains * sites
                c["mc.s"] += dt
        elif name.startswith("verifier.check_"):
            def probe(args, kwargs, out, dt):
                c["vf.checks"] += len(out)
        else:
            probe = None
        return probe

    # -- results --------------------------------------------------------------

    @staticmethod
    def _cache_counts() -> dict[str, tuple[int, int]]:
        """(hits, misses) of the engine caches that exist at this commit."""
        out = {}
        for metric, module, attr in CACHES:
            info = getattr(getattr(importlib.import_module(module), attr, None), "cache_info", None)
            if info is not None:
                got = info()
                out[metric] = (got.hits, got.misses)
        return out

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per layer: (spans, self seconds)."""
        name = np.frombuffer(self._name, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        layer_of = np.array([LAYERS.index(lay) for lay in self._name_layer], dtype=np.int64)
        by_layer = layer_of[name] if len(name) else np.zeros(0, dtype=np.int64)
        calls = np.bincount(by_layer, minlength=len(LAYERS))
        own_s = np.bincount(by_layer, weights=own, minlength=len(LAYERS))
        return {lay: (int(calls[k]), float(own_s[k])) for k, lay in enumerate(LAYERS)}

    def metrics(self) -> dict[str, float]:
        c = self.counts

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        out: dict[str, float] = {}
        for layer, (calls, own) in self.self_times().items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = own
        out["exactengine.t_points"] = c["ee.t_points"]
        out["exactengine.conditionings"] = c["ee.conditionings"]
        out["exactengine.ms_per_t"] = ratio(c["ee.t_s"], c["ee.t_points"], 1e3)
        out["exactengine.states"] = c["ee.states"]
        out["exactengine.mstates_per_s"] = ratio(c["ee.states"], c["ee.scan_s"], 1e-6)
        caches1 = self._cache_counts()
        for metric, _, _ in CACHES:
            hits0, miss0 = self._caches0.get(metric, (0, 0))
            hits1, miss1 = caches1.get(metric, (0, 0))
            out[metric] = ratio(hits1 - hits0, hits1 - hits0 + miss1 - miss0)
        out["polymer.gas_sum_ms"] = ratio(c["pg.polymer_sum_s"], c["pg.polymer_sum_calls"], 1e3)
        out["polymer.direct_ms"] = ratio(c["pg.direct_s"], c["pg.direct_calls"], 1e3)
        out["polymer.series_ms_per_call"] = ratio(c["pg.series_s"], c["pg.series_calls"], 1e3)
        out["combinatorics.connected_sum_calls"] = c["cb.connected_sum_calls"]
        out["combinatorics.connected_sum_us"] = ratio(c["cb.connected_sum_s"], c["cb.connected_sum_calls"], 1e6)
        out["combinatorics.ursell_calls"] = c["cb.ursell_calls"]
        out["combinatorics.ursell_us"] = ratio(c["cb.ursell_s"], c["cb.ursell_calls"], 1e6)
        out["combinatorics.ursell_nonzero_ratio"] = ratio(c["cb.ursell_nonzero"], c["cb.ursell_calls"])
        out["montecarlo.sweeps"] = c["mc.sweeps"]
        out["montecarlo.us_per_sweep"] = ratio(c["mc.s"], c["mc.sweeps"], 1e6)
        out["montecarlo.site_updates_per_s"] = ratio(c["mc.site_updates"], c["mc.s"])
        out["verifier.checks"] = c["vf.checks"]
        return out

    def save(self, path: Path) -> None:
        """Write every span: one .npz of columns plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
        )
        path.with_suffix(".names.json").write_text(
            json.dumps({"names": self._names, "layers": self._name_layer}) + "\n"
        )
