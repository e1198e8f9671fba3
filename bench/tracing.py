"""Spans around every call into a qubolab layer, installed from outside the
package.

The package binds names with ``from .solvers import ...`` and calls others
through their module (``ad.matmul``), so a wrapper is installed in every
qubolab namespace that holds the original function.  A span records its
name, start, end, parent span and a few counts taken from the arguments or
the result; spans stay in memory until the run ends.  VJP closures run
inside ``backward``, so a backward pass is one span.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import time

LAYERS = ("io", "datagen", "solvers", "qubo", "autodiff", "model", "evaluate")
METHODS = (("qubo", "QuboInstance", "evaluate"), ("model", "BpgnnModel", "predict"))
AUTODIFF_OPS = ("matmul", "spmm", "add", "hadamard", "broadcast_add_row",
                "broadcast_add_col", "scale", "scale_columns", "relu", "tanh",
                "softplus", "bce_with_logits")
CLI_COMMANDS = ("gen-instance", "gen-data", "train", "eval", "probe", "sweep", "solve")
TABU_TERMINATIONS = ("max_steps", "patience", "all_tabu")

# Counts recorded on a span, computed from its arguments and result.
ATTRS = {
    "solvers.tabu_solve": lambda args, out: (out.iterations, out.evaluations, out.termination),
    "solvers.exhaustive_solve": lambda args, out: (out.evaluations,),
    "solvers.sab_solve": lambda args, out: (out.iterations,),
    # Computed flops: 2mnk for a dense product, 2 nnz cols for a sparse one.
    "autodiff.matmul": lambda args, out: (2 * args[0].data.shape[0] * args[0].data.shape[1]
                                          * args[1].data.shape[1],),
    "autodiff.spmm": lambda args, out: (2 * args[0].csr.nnz * args[1].data.shape[1],),
    "autodiff.backward": lambda args, out: (len(args[0]._tape),),
    "evaluate.evaluate_method": lambda args, out: (args[0],),
}


class Tracer:
    """Collects spans and garbage-collector pauses for one repeat."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = t0
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, out)
            return out

        return traced

    def call(self, name: str, fn, *args):
        """Call fn(*args) inside a span named name."""
        return self.wrap(name, fn)(*args)

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every layer, where callers look them up."""
        package = importlib.import_module("qubolab")
        modules = [package] + [importlib.import_module(f"qubolab.{m}")
                               for m in ("cli",) + LAYERS]
        for layer in LAYERS:
            mod = importlib.import_module(f"qubolab.{layer}")
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn, ATTRS.get(f"{layer}.{name}"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._replace(m, attr, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"qubolab.{layer}"), cls_name)
            self._replace(cls, method, self.wrap(f"{layer}.{method}", getattr(cls, method)))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "run": self.run_id, "attrs": attrs}) + "\n")

    def spans_per_layer(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            layer = span[0].split(".", 1)[0]
            counts[layer] = counts.get(layer, 0) + 1
        return counts

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls, total and self seconds, and span counts."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, t0, t1, _, attrs) in enumerate(spans):
            if name == "evaluate.evaluate_method":
                name = f"evaluate.evaluate_method.{attrs[0].replace('+', '-')}"
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + t1 - t0
            own[name] = own.get(name, 0.0) + t1 - t0 - covered[i]

        def attr_sum(name: str, pos: int):
            return sum(s[4][pos] for s in spans if s[0] == name)

        def durations(name: str, scale: float) -> list[float]:
            return sorted((s[2] - s[1]) * scale for s in spans if s[0] == name)

        m: dict[str, float] = {
            "gc.collections": self.gc_gen2,
            "gc.pause_s": self.gc_pause_s,
            "trace.spans": len(spans),
        }
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.self_s"] = own.get(f"cli.{cmd}", 0.0)
        for name in ("io.read_instance", "datagen.barrier_observed_vector",
                     "datagen.read_dataset", "solvers.refine_with_tabu", "qubo.evaluate",
                     "autodiff.backward", "autodiff.adam_step", "evaluate.hybrid_infer",
                     "model.predict") + tuple(f"autodiff.{op}" for op in AUTODIFF_OPS):
            m[f"{name}.calls"] = calls.get(name, 0)
        for name in ("io.read_instance", "io.write_instance", "io.read_vector",
                     "io.write_vector", "datagen.generate_dataset",
                     "datagen.barrier_observed_vector", "datagen.write_dataset",
                     "datagen.read_dataset", "solvers.refine_with_tabu", "qubo.evaluate",
                     "autodiff.backward", "autodiff.adam_step", "model.train",
                     "model.build_laplacian", "model.save_checkpoint",
                     "model.load_checkpoint", "evaluate.evaluate_method.bpgnn",
                     "evaluate.evaluate_method.bpgnn-ts", "evaluate.hybrid_infer",
                     "evaluate.probe_landscape", "evaluate.ising_sweep") + tuple(
                         f"autodiff.{op}" for op in AUTODIFF_OPS):
            m[f"{name}.s"] = total.get(name, 0.0)
        for name in ("datagen.generate_dataset", "model.train", "evaluate.probe_landscape",
                     "evaluate.ising_sweep"):
            m[f"{name}.self_s"] = own.get(name, 0.0)

        tabu_steps = attr_sum("solvers.tabu_solve", 0)
        tabu_s = total.get("solvers.tabu_solve", 0.0)
        m["solvers.tabu_solve.calls"] = calls.get("solvers.tabu_solve", 0)
        m["solvers.tabu_solve.steps"] = tabu_steps
        m["solvers.tabu_solve.evaluations"] = attr_sum("solvers.tabu_solve", 1)
        m["solvers.tabu_solve.us_per_step"] = 1e6 * tabu_s / tabu_steps if tabu_steps else 0.0
        for reason in TABU_TERMINATIONS:
            m[f"solvers.tabu_solve.term.{reason}"] = sum(
                1 for s in spans if s[0] == "solvers.tabu_solve" and s[4][2] == reason)
        states = attr_sum("solvers.exhaustive_solve", 0)
        m["solvers.exhaustive_solve.calls"] = calls.get("solvers.exhaustive_solve", 0)
        m["solvers.exhaustive_solve.states"] = states
        m["solvers.exhaustive_solve.ns_per_state"] = (
            1e9 * total.get("solvers.exhaustive_solve", 0.0) / states if states else 0.0)
        sab_steps = attr_sum("solvers.sab_solve", 0)
        m["solvers.sab_solve.calls"] = calls.get("solvers.sab_solve", 0)
        m["solvers.sab_solve.steps"] = sab_steps
        m["solvers.sab_solve.ms_per_1k_steps"] = (
            1e6 * total.get("solvers.sab_solve", 0.0) / sab_steps if sab_steps else 0.0)
        m["autodiff.matmul.flops"] = attr_sum("autodiff.matmul", 0)
        m["autodiff.spmm.flops"] = attr_sum("autodiff.spmm", 0)
        m["autodiff.backward.records"] = attr_sum("autodiff.backward", 0)

        # Batch time: the interval between consecutive adam_step returns
        # inside one training call.
        ends: dict[int, list[float]] = {}
        for name, _, t1, parent, _ in spans:
            if name == "autodiff.adam_step":
                ends.setdefault(parent, []).append(t1)
        batch_ms = sorted(1e3 * (b - a) for e in ends.values() for a, b in zip(e, e[1:]))
        m["model.batches"] = calls.get("autodiff.adam_step", 0)
        m["model.batch_ms.p50"] = percentile(batch_ms, 0.5)
        m["model.batch_ms.p90"] = percentile(batch_ms, 0.9)
        predict_us = durations("model.predict", 1e6)
        m["model.predict.us.p50"] = percentile(predict_us, 0.5)
        m["model.predict.us.p90"] = percentile(predict_us, 0.9)
        return m


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values; 0 when there are none."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
