"""Layer spans taken from outside the package, by swapping its public functions.

``Tracer.install()`` replaces every module-level binding of each traced
function in the loaded ``mvgrad`` modules (``simulate_particles`` is bound in
``simulate``, ``bismut``, ``oracle``, ``runner`` and the package itself) and
the entries of the runner's check table with timing wrappers;
``uninstall()`` puts every original back.  No file under ``src/`` changes.

Spans are kept in memory: (id, parent id, layer, thread, start, end, check,
info).  A span's parent is the innermost open span of the same thread, and
its check is the runner check it runs under, so per-check counts hold under
``parallel > 1`` too.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# (module, function, layer)
TARGETS = (
    ("mvgrad.simulate", "brownian_increments", "simulate.noise"),
    ("mvgrad.simulate", "simulate_particles", "simulate.particles"),
    ("mvgrad.tangent", "frozen_tangent", "tangent.frozen"),
    ("mvgrad.tangent", "meanfield_tangent", "tangent.meanfield"),
    ("mvgrad.model", "zeta", "model.zeta"),
    ("mvgrad.bismut", "weight_frozen", "bismut.weight_frozen"),
    ("mvgrad.bismut", "weight_meanfield", "bismut.weight_meanfield"),
    ("mvgrad.bismut", "estimate_intrinsic", "bismut.estimate_intrinsic"),
    ("mvgrad.bismut", "estimate_classical", "bismut.estimate_classical"),
    ("mvgrad.bismut", "dual_norm_lower_bound", "bismut.dual_norm_lower_bound"),
    ("mvgrad.oracle", "finite_difference_intrinsic", "oracle.finite_difference_intrinsic"),
    ("mvgrad.oracle", "richardson_intrinsic", "oracle.richardson_intrinsic"),
    ("mvgrad.oracle", "stability_report", "oracle.stability_report"),
    ("mvgrad.oracle", "moment_report", "oracle.moment_report"),
    ("mvgrad.oracle", "tv_gradient_scaling", "oracle.tv_gradient_scaling"),
    ("mvgrad.measure", "wasserstein", "measure.wasserstein"),
    ("mvgrad.measure", "sample_initial", "measure.sample_initial"),
    ("mvgrad.measure", "pushforward", "measure.pushforward"),
)

CHECK_PREFIX = "runner.check."


def _noise_info(bound: dict, result) -> dict:
    grid = bound["grid"]
    key = (int(bound["seed"]), int(bound["N"]), int(bound["m"]), grid.n_steps, grid.t_end)
    return {"key": key, "bytes": int(result.nbytes)}


def _particles_info(bound: dict, result) -> dict:
    return {"particle_steps": int(bound["mu0"].N) * int(bound["grid"].n_steps)}


INFO = {"simulate.noise": _noise_info, "simulate.particles": _particles_info}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []      # (namespace, key, original, is_dict)

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        info_fn = INFO.get(layer)
        sig = inspect.signature(fn) if info_fn else None
        is_check = layer.startswith(CHECK_PREFIX)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent_id, check = stack[-1] if stack else (0, None)
            span_id = next(self._ids)
            if is_check:
                check = layer[len(CHECK_PREFIX):]
            stack.append((span_id, check))
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = time.perf_counter()
                stack.pop()
                info = None
                if done and info_fn:
                    info = info_fn(sig.bind(*args, **kwargs).arguments, result)
                with self._lock:
                    self.spans.append((span_id, parent_id, layer, threading.get_ident(),
                                       start, end, check, info))
            return result

        wrapper._traced_layer = layer
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import mvgrad.runner as runner
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mvgrad" or name.startswith("mvgrad."))]
        for mod_name, attr, layer in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, False))
                        setattr(mod, key, wrapper)
        for name, original in list(runner.CHECKS.items()):
            wrapper = self._wrap(CHECK_PREFIX + name, original)
            self._patches.append((runner.CHECKS, name, original, True))
            runner.CHECKS[name] = wrapper
            if getattr(runner, original.__name__, None) is original:
                self._patches.append((runner, original.__name__, original, False))
                setattr(runner, original.__name__, wrapper)

    def uninstall(self) -> None:
        for namespace, key, original, is_dict in reversed(self._patches):
            if is_dict:
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._patches = []

    def bindings(self) -> int:
        return len(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def installed_wrappers() -> list:
    """Names still bound to a tracing wrapper in any loaded ``mvgrad`` module."""
    import mvgrad.runner as runner
    found = [f"runner.CHECKS[{k}]" for k, v in runner.CHECKS.items()
             if hasattr(v, "_traced_layer")]
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mvgrad" or name.startswith("mvgrad.")):
            continue
        found += [f"{name}.{k}" for k, v in vars(mod).items()
                  if hasattr(v, "_traced_layer")]
    return found


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list, run_s: float, check_names) -> dict:
    """Per-layer figures of one traced batch (values only, units live in BENCHMARK.json)."""
    calls, busy, child = {}, {}, {}
    for span_id, parent_id, layer, _, start, end, _, _ in spans:
        calls[layer] = calls.get(layer, 0) + 1
        busy[layer] = busy.get(layer, 0.0) + (end - start)
        if parent_id:
            child[parent_id] = child.get(parent_id, 0.0) + (end - start)
    particles_self = sum(end - start - child.get(span_id, 0.0)
                         for span_id, _, layer, _, start, end, _, _ in spans
                         if layer == "simulate.particles")

    noise = [s for s in spans if s[2] == "simulate.noise" and s[7]]
    keys = {s[7]["key"] for s in noise}
    particle_steps = sum(s[7]["particle_steps"] for s in spans
                         if s[2] == "simulate.particles" and s[7])

    m = {
        "simulate.noise.calls": calls.get("simulate.noise", 0),
        "simulate.noise.busy_s": busy.get("simulate.noise", 0.0),
        "simulate.noise.distinct_keys": len(keys),
        "simulate.noise.reuse_ratio": len(noise) / len(keys) if keys else 0.0,
        "simulate.noise.bytes_computed": sum(s[7]["bytes"] for s in noise),
        "simulate.particles.calls": calls.get("simulate.particles", 0),
        "simulate.particles.self_s": particles_self,
        "simulate.particles.particle_steps": particle_steps,
    }
    for layer in ("tangent.frozen", "tangent.meanfield", "model.zeta",
                  "bismut.estimate_intrinsic", "bismut.estimate_classical",
                  "bismut.dual_norm_lower_bound", "oracle.finite_difference_intrinsic",
                  "oracle.richardson_intrinsic", "oracle.stability_report",
                  "oracle.moment_report", "oracle.tv_gradient_scaling"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
    for layer in ("bismut.weight_frozen", "bismut.weight_meanfield", "measure.wasserstein",
                  "measure.sample_initial", "measure.pushforward"):
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)

    check_wall = 0.0
    for name in check_names:
        layer = CHECK_PREFIX + name
        wall = busy.get(layer, 0.0)
        check_wall += wall
        m[f"{layer}.wall_s"] = wall
        m[f"{layer}.simulations"] = sum(1 for s in spans
                                        if s[2] == "simulate.particles" and s[6] == name)
        m[f"{layer}.noise_keys"] = len({s[7]["key"] for s in noise if s[6] == name})
    m["runner.overlap"] = check_wall / run_s if run_s > 0 else 0.0
    top = [(s[4], s[5]) for s in spans if s[1] == 0]
    m["trace.unattributed_s"] = run_s - _union_length(top)
    return m
