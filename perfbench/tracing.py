"""Spans around pamlab's public functions, and the per-layer metrics drawn from them.

`Recorder.install` wraps each function in TARGETS and rebinds the wrapper at
every name the original is bound to in the loaded ``pamlab`` modules (for
instance ``spectral.mu``, ``phase.mu`` and ``pamlab.mu``), so that nested
calls get their callers as parents: ``phase.classify`` ->
``spectral.mu_inverse`` -> ``spectral.mu`` -> ``greens.green_zero``.
Spans stay in memory until `write` is called at the end of the run.

Work done in worker processes forked by a traced call is not recorded; it
shows only as the duration of the parent span (``montecarlo.lambda_mc``).
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _box_sites(args, kwargs, result):
    params, radius = args[0], args[1]
    return {"sites": (2 * radius + 1) ** params.m}


def _mc_counts(args, kwargs, result):
    return {"samples": result.samples, "ess": result.ess}


def _sweep_counts(args, kwargs, result):
    unresolved = sum(1 for row in result
                     if row.regime.label == "Unresolved" or row.lambda_kind == "failed")
    return {"rows": len(result), "unresolved": unresolved}


# (module, function, record the call's arguments, annotate from the result)
TARGETS = (
    ("pamlab.cli", "main", False, None),
    ("pamlab.greens", "green_zero", False, None),
    ("pamlab.greens", "alpha", False, None),
    ("pamlab.greens", "green_at", False, None),
    ("pamlab.greens", "green_box_values", False, None),
    ("pamlab.spectral", "mu", True, None),
    ("pamlab.spectral", "mu_inverse", True, None),
    ("pamlab.spectral", "top_eigen", False, _box_sites),
    ("pamlab.spectral", "lambda_spectral", False, None),
    ("pamlab.spectral", "tensor_gap", False, None),
    ("pamlab.spectral", "f0_rayleigh", False, None),
    ("pamlab.montecarlo", "lambda_mc", False, _mc_counts),
    ("pamlab.montecarlo", "sample_path", False, None),
    ("pamlab.montecarlo", "collision_time", False, None),
    ("pamlab.montecarlo", "pde_moment_oracle", False, None),
    ("pamlab.phase", "sweep", False, _sweep_counts),
    ("pamlab.phase", "classify", True, None),
    ("pamlab.phase", "kappa_bounds", False, None),
)


class Recorder:
    """In-memory spans (id, name, start, end, parent, run) of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._ids = itertools.count()
        self._t0 = time.perf_counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, keyed, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": next(self._ids), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "run": self.run_id}
            if keyed:
                span["args"] = repr((args, sorted(kwargs.items())))
            self._open.append(span["id"])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                span["start"] = start - self._t0
                span["end"] = end - self._t0
                self.spans.append(span)
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "pamlab" or k.startswith("pamlab.")]
        for module_name, attr, keyed, annotate in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            name = f"{module_name.split('.')[-1]}.{attr}"
            wrapper = self._wrap(name, original, keyed, annotate)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._restore.append((module, binding, original))

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._restore):
            setattr(module, binding, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """calls, total_s, self_s (total minus time covered by child spans),
    distinct_args and the annotated counts, per span name."""
    names = {s["id"]: s["name"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    acc = defaultdict(lambda: defaultdict(float))
    distinct = defaultdict(set)
    for s in spans:
        a = acc[s["name"]]
        duration = s["end"] - s["start"]
        a["calls"] += 1
        a["total_s"] += duration
        a["self_s"] += duration - covered[s["id"]]
        if "args" in s:
            distinct[s["name"]].add(s["args"])
        for key in ("samples", "ess", "rows", "unresolved"):
            if key in s:
                a[key] += s[key]
        if "sites" in s:
            a["max_sites"] = max(a["max_sites"], s["sites"])
        if s["name"] == "spectral.mu" and names.get(s["parent"]) == "spectral.mu_inverse":
            acc["spectral.mu_inverse"]["inner_mu_calls"] += 1
    out = {}
    for name, a in acc.items():
        for key, value in a.items():
            out[f"{name}.{key}"] = value
    for name, keys in distinct.items():
        out[f"{name}.distinct_args"] = len(keys)
    mc = acc.get("montecarlo.lambda_mc")
    if mc:
        out["montecarlo.lambda_mc.samples_per_s"] = mc["samples"] / mc["total_s"]
        out["montecarlo.lambda_mc.ess_frac"] = mc["ess"] / mc["samples"]
    sweep = acc.get("phase.sweep")
    if sweep and sweep["rows"]:
        out["phase.sweep.unresolved_frac"] = sweep["unresolved"] / sweep["rows"]
    return out


class _ByteCounter(np.ndarray):
    """ndarray that adds the bytes of every ufunc operand and result to `moved`."""

    moved = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = tuple(np.asarray(x) if isinstance(x, np.ndarray) else x for x in inputs)
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        results = result if isinstance(result, tuple) else (result,)
        _ByteCounter.moved += sum(x.nbytes for x in plain if isinstance(x, np.ndarray))
        _ByteCounter.moved += sum(r.nbytes for r in results if isinstance(r, np.ndarray))
        return result


def _ns_per_site(fn, sites: int, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e9 / sites


def kernel_probes() -> dict[str, float]:
    """The generator matvec on the 9-D radius-2 grid (d=3, n=1, p=2): 1.95M sites,
    15.6 MB per vector.  Bytes per site are computed from the sizes of the
    ufunc operands and results in one lap_grid call, not measured."""
    from pamlab import lattice, spectral

    params = spectral.PamParams(d=3, n=1, p=2, kappa=0.05, rho=0.1)
    box = lattice.build_box(params.m, 2)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    values = rng.standard_normal(box.size)
    grid = values.reshape(box.shape, order="F")
    axes = range(params.m)
    out = {"lattice.lap_grid.ns_per_site":
           _ns_per_site(lambda: lattice.lap_grid(grid, axes), box.size)}
    _ByteCounter.moved = 0
    lattice.lap_grid(grid.view(_ByteCounter), axes)
    out["lattice.lap_grid.bytes_per_site"] = _ByteCounter.moved / box.size
    field = lattice.Field(box, values)
    spectral.apply_generator(params, field)  # builds the cached collision diagonal
    out["spectral.apply_generator.ns_per_site"] = _ns_per_site(
        lambda: spectral.apply_generator(params, field), box.size)
    return out
