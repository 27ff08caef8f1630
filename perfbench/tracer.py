"""Spans and counters recorded from outside the package.

``Tracer.installed()`` replaces each traced public function of ``neural_mpc``
by a wrapper, in every package module that holds it as an attribute, since
that is where the pipeline looks its callees up at call time (``harness``
calls ``harness.settle``, ``condenser.augment_slack`` calls
``condenser.build_network``, ...).  The originals are put back on exit.

A span is (name, start, end, parent index); spans stay in memory until
``write``.  A layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function) -> span name.  The span name's prefix is the layer.
SPANNED = {
    ("plant", "discretize_zoh"): "plant.zoh",
    ("plant", "solve_dare"): "plant.dare",
    ("plant", "propagate_linear"): "plant.propagate",
    ("condenser", "condense"): "condenser.condense",
    ("condenser", "build_network"): "condenser.build_network",
    ("condenser", "augment_slack"): "condenser.augment_slack",
    ("network", "settle"): "network.settle",
    ("network", "settle_multilayer"): "network.settle_multilayer",
    ("network", "extract_control"): "network.readout",
    ("network", "extract_control_multilayer"): "network.readout",
    ("qp_oracle", "solve_active_set_enumeration"): "qp_oracle.solve",
    ("factorizer", "identity_layer_init"): "factorizer.identity_init",
    ("factorizer", "palm_factorize"): "factorizer.palm",
    ("perturber", "prune_edges"): "perturber.prune",
    ("perturber", "control_deviation_bound"): "perturber.bound",
    ("analytics", "extract_graph"): "analytics.extract_graph",
    ("analytics", "export_graph"): "analytics.export_graph",
    ("harness", "cli_main"): "harness.pipeline",
    ("harness", "run_experiment"): "harness.pipeline",
    ("harness", "build_problem"): "harness.pipeline",
    ("harness", "write_trace_csv"): "harness.write_trace_csv",
}

# The network integrators evaluate relu exactly once per rate evaluation.
COUNTED = {("network", "relu"): "network.euler_steps"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.settled = [0, 0]  # [settled, attempted] over settle* calls
        self.palm_sweeps = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in ("network.settle", "network.settle_multilayer"):
                self.settled[0] += bool(result[1])
                self.settled[1] += 1
            elif name == "factorizer.palm":
                self.palm_sweeps += len(result[2])
            return result

        return wrapper

    def _counted(self, fn, name):
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        wrappers = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for (mod, func), name in table.items():
                orig = getattr(sys.modules[f"neural_mpc.{mod}"], func)
                wrappers[id(orig)] = (orig, make(orig, name))
        with patched(wrappers):
            yield self

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = np.zeros(len(self.spans))
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def durations(self, name: str) -> np.ndarray:
        return np.array([e - s for n, s, e, _ in self.spans if n == name])


@contextmanager
def patched(wrappers: dict):
    """Replace, in every loaded ``neural_mpc`` module, each attribute whose id
    is a key of ``wrappers`` (id -> (original, replacement)); restore on exit."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "neural_mpc" or mod_name.startswith("neural_mpc.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in undo:
            setattr(mod, attr, value)


class LatencyProbe:
    """Times each control action the harness's networks take, from the start
    of ``settle``/``settle_multilayer`` to the end of the read-out after it.

    Installed in untraced runs of closed-loop workloads; it costs two clock
    reads per action and records no spans.
    """

    def __init__(self, samples: list):
        self.samples = samples
        self._start = 0.0

    @contextmanager
    def installed(self):
        net = sys.modules["neural_mpc.network"]
        clock = time.perf_counter

        def starts(fn):
            def wrapper(*args, **kwargs):
                self._start = clock()
                return fn(*args, **kwargs)

            return wrapper

        def stops(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.samples.append(clock() - self._start)
                return result

            return wrapper

        wrappers = {}
        for fn in (net.settle, net.settle_multilayer):
            wrappers[id(fn)] = (fn, starts(fn))
        for fn in (net.extract_control, net.extract_control_multilayer):
            wrappers[id(fn)] = (fn, stops(fn))
        with patched(wrappers):
            yield self
