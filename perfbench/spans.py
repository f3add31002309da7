"""Spans around the public calls into each anosovlab module.

Installed from the benchmark's side by replacing functions and methods with
wrappers; the package itself is not modified.  A span is (name, start, end,
parent); spans stay in memory and are written out when the worker ends.
Counters are taken at the same boundaries, and ``layer_metrics`` turns both
into the per-layer figures listed in BENCHMARK.json.
"""

import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "geometry", "flow", "cocycle", "gulliver", "xray",
          "smfourier")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.conjugate_calls = []   # (bisect span, beta, T_max, dt, result)
        self.smfourier_depth = 0

    def wrap(self, name, fn, after=None):
        """``fn`` with a span named ``name``; ``after(arguments, result)``,
        given the call's arguments by parameter name with defaults filled
        in, updates counters once the call returns."""
        spans, stack = self.spans, self.stack
        in_smfourier = name.startswith("smfourier.")
        clock = time.perf_counter
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            if in_smfourier:
                self.smfourier_depth += 1
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if in_smfourier:
                    self.smfourier_depth -= 1
            if after is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                after(call.arguments, result)
            return result
        return traced

    def enclosing(self, name):
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return idx
        return -1

    def dump(self, path):
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")


def replace_function(package_modules, fn, wrapper):
    """Point every module attribute bound to ``fn`` at ``wrapper``, so calls
    through re-exports (``from .flow import ...``) are traced too."""
    for mod in package_modules:
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapper)


def install(tracer, modules):
    """Wrap the public calls of every layer.  ``modules`` maps layer names
    to the imported anosovlab modules."""
    cli, geometry, flow = modules["cli"], modules["geometry"], modules["flow"]
    cocycle, gulliver = modules["cocycle"], modules["gulliver"]
    xray, smfourier = modules["xray"], modules["smfourier"]
    mods = list(modules.values())
    counts = tracer.counts

    def fn(module, attr, name, after=None):
        orig = getattr(module, attr)
        replace_function(mods, orig, tracer.wrap(name, orig, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    def add(key, value):
        counts[key] += value

    fn(cli, "main", "cli.command")
    method(cli._Out, "json", "cli.output_write")
    method(cli._Out, "csv", "cli.output_write")

    fn(geometry, "surface_from_json", "geometry.surface_from_json")
    method(geometry.FuchsianOctagon, "reduce", "geometry.reduce")
    method(geometry.FuchsianOctagon, "closed_geodesic_from_word",
           "geometry.closed_geodesic_from_word")

    method(flow.CurvatureProfile, "__call__", "flow.profile_eval",
           lambda a, r: add("flow.profile_eval_points", np.size(a["ts"])))
    fn(flow, "find_closed_geodesics", "flow.find_closed_geodesics")
    fn(flow, "trapping_surrogate", "flow.trapping_surrogate")
    fn(flow, "curvature_profile_along", "flow.curvature_profile")
    fn(flow, "curvature_profile_window", "flow.curvature_profile")

    def rk4_steps(a, r):
        batch = math.prod(np.shape(a["states"])[:-1])
        add("flow.rk4_orbit_state_steps",
            max(1, round(a["T"] / a["dt"])) * batch)
    fn(flow, "rk4_orbit", "flow.rk4_orbit", rk4_steps)

    fn(cocycle, "_profile_pool", "cocycle.profile_pool",
       lambda a, r: add("cocycle.profile_pool_size", len(r)))
    fn(cocycle, "terminator_bisect", "cocycle.terminator_bisect")

    def conjugate(a, r):
        tracer.conjugate_calls.append(
            (tracer.enclosing("cocycle.terminator_bisect"), a["beta"],
             a["T_max"], a["dt"], r))
    fn(cocycle, "first_conjugate_time", "cocycle.first_conjugate_time",
       conjugate)

    fn(gulliver, "search_params", "gulliver.search_params")
    fn(gulliver, "synth_profile", "gulliver.synth_profile")

    fn(xray, "octagon_geodesic_pool", "xray.octagon_geodesic_pool",
       lambda a, r: add("xray.pool_geodesics", len(r)))
    fn(xray, "sinjectivity_experiment", "xray.sinjectivity_experiment")
    fn(xray, "ray_transform", "xray.ray_transform")
    fn(xray, "tensor_inner", "xray.tensor_inner")

    fn(smfourier, "invariant_extension", "smfourier.invariant_extension")
    fn(smfourier, "octagon_mode0_field", "smfourier.octagon_mode0_field")
    fn(smfourier, "ladder_residual", "smfourier.ladder_residual")
    method(smfourier._LadderOperator, "matvec", "smfourier.ladder_matvec")
    method(smfourier._LadderOperator, "rmatvec", "smfourier.ladder_matvec")

    # FFTs are counted, not spanned: ~10^5 calls per solve
    for attr in ("fft2", "ifft2"):
        orig = getattr(np.fft, attr)

        def counted(a, *args, _orig=orig, **kwargs):
            if tracer.smfourier_depth:
                counts["smfourier.fft2_calls"] += 1
                counts["smfourier.fft_points"] += np.size(a)
            return _orig(a, *args, **kwargs)
        setattr(np.fft, attr, counted)


def _jacobi_steps(T_max, dt, t):
    """RK4 steps first_conjugate_time takes: up to the step holding the
    zero, or all n steps when there is none."""
    n = max(1, int(round(T_max / dt)))
    if t is None:
        return n
    return min(n, max(1, math.ceil(t / (T_max / n))))


def layer_metrics(tracer):
    """Per-layer figures of one traced round."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), c in zip(tracer.spans, child):
        self_s[name.split(".")[0]] += end - start - c

    # passes: consecutive first_conjugate_time calls at one beta inside one
    # terminator_bisect; a pass is settled by its first conjugate point
    passes = []
    for bisect, beta, _, _, t in tracer.conjugate_calls:
        if bisect < 0:
            continue
        if not passes or passes[-1][0] != (bisect, beta):
            passes.append([(bisect, beta), []])
        passes[-1][1].append(t)
    decisive = sum(next((i + 1 for i, t in enumerate(ts) if t is not None),
                        len(ts)) for _, ts in passes)
    evals = sum(len(ts) for _, ts in passes)
    steps = sum(_jacobi_steps(T, dt, t)
                for _, _, T, dt, t in tracer.conjugate_calls)
    fct_s = total["cocycle.first_conjugate_time"]

    c = tracer.counts
    m = {
        "cli.command_s": total["cli.command"],
        "cli.output_write_s": total["cli.output_write"],
        "geometry.surface_from_json_s": total["geometry.surface_from_json"],
        "geometry.reduce_calls": calls["geometry.reduce"],
        "geometry.reduce_s": total["geometry.reduce"],
        "geometry.closed_geodesic_from_word_calls":
            calls["geometry.closed_geodesic_from_word"],
        "geometry.closed_geodesic_from_word_s":
            total["geometry.closed_geodesic_from_word"],
        "flow.profile_eval_points": c["flow.profile_eval_points"],
        "flow.profile_eval_s": total["flow.profile_eval"],
        "flow.find_closed_geodesics_s": total["flow.find_closed_geodesics"],
        "flow.trapping_surrogate_s": total["flow.trapping_surrogate"],
        "flow.curvature_profile_s": total["flow.curvature_profile"],
        "flow.rk4_orbit_state_steps": c["flow.rk4_orbit_state_steps"],
        "flow.rk4_orbit_s": total["flow.rk4_orbit"],
        "cocycle.profile_pool_s": total["cocycle.profile_pool"],
        "cocycle.profile_pool_size": c["cocycle.profile_pool_size"],
        "cocycle.terminator_bisect_s": total["cocycle.terminator_bisect"],
        "cocycle.bisection_passes": len(passes),
        "cocycle.first_conjugate_time_calls":
            calls["cocycle.first_conjugate_time"],
        "cocycle.first_conjugate_time_s": fct_s,
        "cocycle.jacobi_steps": steps,
        "cocycle.jacobi_steps_per_s": steps / fct_s if fct_s > 0 else 0.0,
        "cocycle.decisive_eval_ratio": decisive / evals if evals else 0.0,
        "gulliver.search_params_s": total["gulliver.search_params"],
        "gulliver.synth_profile_s": total["gulliver.synth_profile"],
        "xray.octagon_geodesic_pool_s": total["xray.octagon_geodesic_pool"],
        "xray.pool_geodesics": c["xray.pool_geodesics"],
        "xray.sinjectivity_experiment_s":
            total["xray.sinjectivity_experiment"],
        "xray.ray_transform_calls": calls["xray.ray_transform"],
        "xray.ray_transform_s": total["xray.ray_transform"],
        "xray.tensor_inner_s": total["xray.tensor_inner"],
        "smfourier.invariant_extension_s":
            total["smfourier.invariant_extension"],
        "smfourier.octagon_mode0_field_s":
            total["smfourier.octagon_mode0_field"],
        "smfourier.ladder_residual_s": total["smfourier.ladder_residual"],
        "smfourier.ladder_matvecs": calls["smfourier.ladder_matvec"],
        "smfourier.ladder_matvec_s":
            (total["smfourier.ladder_matvec"] / calls["smfourier.ladder_matvec"]
             if calls["smfourier.ladder_matvec"] else 0.0),
        "smfourier.fft2_calls": c["smfourier.fft2_calls"],
        "smfourier.fft_points": c["smfourier.fft_points"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
