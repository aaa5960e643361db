"""Span tracing around metacrit's public functions, installed from outside.

The wrappers replace every reference to a layer function held by a metacrit
module (``from .special import normal_inv_cdf`` copies the name into the
importing module), so calls between layers are seen as well as calls from
the benchmark.  Spans are folded into per-layer totals as they close: call
count and self time, which is the span's duration minus the time covered by
its child spans.  Per (caller, layer) call counts keep the shape of
the span tree.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import os
import sys
import time
from multiprocessing import util as mp_util

LAYERS = (
    "special.normal_inv_cdf",
    "special.gamma_quantile",
    "sampling.replica_stream",
    "sampling.sample_pmatrix",
    "methods.evaluate_batch",
    "estimation.run_replica",
    "estimation.aggregate",
    "exact.exact_quantile",
    "tables.generate_table",
    "tables.write_csv",
    "tables.read_csv",
    "tables.lookup",
    "cli.main",
)

ROOT = "-"  # caller name of a span opened outside every traced layer


class Tracer:
    """Per-layer span totals for one process."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.edges = {}
        self._open = []  # [name, time covered by children] per open span

    def reset(self):
        for name in LAYERS:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.edges.clear()
        self._open.clear()

    def wrap(self, name, fn):
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = open_spans[-1][0] if open_spans else ROOT
            span = [name, 0.0]
            open_spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - span[1]
                edge = (caller, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1

        return traced

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [[caller, name, count] for (caller, name), count in sorted(self.edges.items())],
        }

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.report(), f)


def install(tracer: Tracer):
    """Wrap every layer function wherever a metacrit module refers to it."""
    importlib.import_module("metacrit.cli")  # imports every other module
    originals = {}
    for name in LAYERS:
        module, attr = name.split(".")
        originals[name] = getattr(importlib.import_module(f"metacrit.{module}"), attr)
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in originals.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "metacrit" and not modname.startswith("metacrit."):
            continue
        for attr, value in list(vars(module).items()):
            # ids are unique among live objects, and ``originals`` keeps
            # every wrapped function alive
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def merge(reports) -> dict:
    """Sum per-layer totals of several processes' reports."""
    merged = Tracer()
    for rep in reports:
        for name in LAYERS:
            merged.calls[name] += rep["calls"][name]
            merged.self_s[name] += rep["self_s"][name]
        for caller, name, count in rep["edges"]:
            merged.edges[(caller, name)] = merged.edges.get((caller, name), 0) + count
    return merged.report()


class traced_pool_workers:
    """Context manager: process pools created inside it reset the tracer in
    each worker and write the worker's totals to ``out_dir`` when it exits.

    Relies on the fork start method (the Linux default before Python 3.14),
    under which workers inherit the installed wrappers.
    """

    def __init__(self, tracer: Tracer, out_dir):
        self.tracer = tracer
        self.out_dir = str(out_dir)

    def __enter__(self):
        base = self.base = concurrent.futures.ProcessPoolExecutor
        tracer, out_dir = self.tracer, self.out_dir

        class TracedPool(base):
            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers, initializer=_start_worker,
                                 initargs=(tracer, out_dir), **kwargs)

        concurrent.futures.ProcessPoolExecutor = TracedPool
        return self

    def __exit__(self, *exc):
        concurrent.futures.ProcessPoolExecutor = self.base
        return False

    def reports(self) -> list:
        out = []
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("worker-") and entry.endswith(".json"):
                with open(os.path.join(self.out_dir, entry)) as f:
                    out.append(json.load(f))
        return out


def _start_worker(tracer: Tracer, out_dir: str):
    tracer.reset()
    path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
    # multiprocessing runs exit-priority finalizers as the worker process ends
    mp_util.Finalize(None, tracer.dump, args=(path,), exitpriority=10)
