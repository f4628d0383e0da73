"""Per-layer tracing of the leaky_rbm package, applied from outside it.

`Tracer.install()` replaces every public function of the package's layer
modules with a wrapper, in every module that binds it (for example
`leaky_rbm.training.project_spectral` and `leaky_rbm.partition.gibbs_step`,
which are imported names).  Layer boundaries are recorded as spans (name,
start, end, parent id, pass id) kept in memory; hot inner functions are
only counted.  `Tracer.uninstall()` restores the original objects, so
untraced passes run the package exactly as shipped.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "leaky_rbm"
LAYERS = ("model", "projection", "sampler", "partition", "training", "data_io",
          "experiments", "cli")

# Called up to ~75k times per oracle call: aggregate counters, not spans.
COUNTED_LAYERS = {"model"}


def _observe_projection(acc, args, kwargs, result):
    acc["projection.clipping_calls"] += int(result[1].clipped_count > 0)


def _observe_gibbs(acc, args, kwargs, result):
    params, v = args[0], args[1]
    n_vis, n_hid = params.weights.shape
    chains = v.shape[0] if v.ndim == 2 else 1
    acc["sampler.chain_sweeps"] += chains
    # h|v and v|h are one multiply-add each per weight and chain
    acc["sampler.gibbs_flop"] += 4 * chains * n_vis * n_hid


def _observe_ais(acc, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    particles = args[2] if len(args) > 2 else kwargs["n_particles"]
    acc["partition.ais_levels"] += len(path.grid) - 1
    acc["partition.ess_sum"] += result.effective_sample_size / particles
    acc["partition.particles_dropped"] += result.n_dropped


# Extra counts taken from a call's arguments and result, keyed by layer.name.
OBSERVERS = {
    "projection.project_spectral": _observe_projection,
    "sampler.gibbs_step": _observe_gibbs,
    "partition.ais_estimate": _observe_ais,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self._first_span = 0

    def reset_pass(self):
        self.counts.clear()
        self.seconds.clear()
        self._first_span = len(self.spans)

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn, observer):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, self.pass_id)
            if observer is not None:
                observer(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                counts[name] += 1

        return wrapper

    # -- install / uninstall -------------------------------------------------
    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer in COUNTED_LAYERS:
                    wrapper = self._counter_wrapper(name, fn)
                else:
                    wrapper = self._span_wrapper(name, fn, OBSERVERS.get(name))
                for other in modules.values():
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._patches.append((other, bound, fn))
                            setattr(other, bound, wrapper)
        params_cls = modules[f"{PACKAGE}.model"].RbmParams
        post_init = params_cls.__post_init__
        self._patches.append((params_cls, "__post_init__", post_init))
        counts = self.counts

        def counting_post_init(obj):
            counts["model.params_built"] += 1
            post_init(obj)

        params_cls.__post_init__ = counting_post_init

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------
    def pass_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the spans and counts since reset_pass()."""
        spans = self.spans[self._first_span:]
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for _sid, parent, _name, start, end, _pid in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, _parent, name, start, end, _pid in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_time[name] += dur - child_time[sid]
        c = self.counts
        proj_calls = calls["projection.project_spectral"]
        ais_calls = calls["partition.ais_estimate"]
        levels = c["partition.ais_levels"]
        m = {
            "projection.project_spectral_s": total["projection.project_spectral"],
            "projection.calls": proj_calls,
            "projection.clip_frac": (
                c["projection.clipping_calls"] / proj_calls if proj_calls else 0.0),
            "partition.quadrature_log_z_s": total["partition.quadrature_log_z"],
            "partition.quadrature_calls": calls["partition.quadrature_log_z"],
            "model.log_unnorm_marginal_s": self.seconds["model.log_unnorm_marginal"],
            "model.log_unnorm_marginal_calls": c["model.log_unnorm_marginal"],
            "model.params_built": c["model.params_built"],
            "partition.ais_estimate_s": total["partition.ais_estimate"],
            "partition.ais_level_ms": (
                1e3 * total["partition.ais_estimate"] / levels if levels else 0.0),
            "partition.intermediate_log_density_s":
                total["partition.intermediate_log_density"],
            "partition.intermediate_log_density_calls":
                calls["partition.intermediate_log_density"],
            "partition.ess_frac": c["partition.ess_sum"] / ais_calls if ais_calls else 0.0,
            "partition.particles_dropped": c["partition.particles_dropped"],
            "sampler.gibbs_step_s": total["sampler.gibbs_step"],
            "sampler.gibbs_step_calls": calls["sampler.gibbs_step"],
            "sampler.chain_sweeps": c["sampler.chain_sweeps"],
            "sampler.gibbs_gflop": c["sampler.gibbs_flop"] / 1e9,
            "sampler.sample_gaussian_base_s": total["sampler.sample_gaussian_base"],
            "sampler.sample_gaussian_base_calls": calls["sampler.sample_gaussian_base"],
            "training.train_s": total["training.train"],
            "training.minibatches": calls["training.positive_phase"],
            "training.positive_phase_s": total["training.positive_phase"],
            "training.negative_phase_s": total["training.negative_phase"],
            "training.update_self_s": self_time["training.train"],
            "data_io.ingest_s": total["data_io.ingest"],
            "data_io.save_model_s": total["data_io.save_model"],
            "data_io.load_model_s": total["data_io.load_model"],
            "cli.main_s": total["cli.main"],
            "experiments.experiment_mixing_s": total["experiments.experiment_mixing"],
            "experiments.mixing_task_data_s": total["experiments.mixing_task_data"],
            "experiments.train_mixing_method_s": total["experiments.train_mixing_method"],
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            if layer not in COUNTED_LAYERS:
                m[f"{layer}.self_s"] = sum(
                    t for name, t in self_time.items() if name.startswith(layer + "."))
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, pass_id in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "pass": pass_id}))
                fh.write("\n")
