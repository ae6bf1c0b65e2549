"""Spans and counters around levyfield's layers, installed from outside.

levyfield's modules import one another's functions by name (for example
`from .noise import sample_prm` in solver, malliavin, integrals, harness and
cli), so a wrapper has to replace the name in every module that holds it,
not only in the module that defines it.  Methods are replaced on their
class.  A layer function that the program no longer has is skipped and
reports zero calls.

Spans are aggregated as they close: per layer the call count, total and
self time (total minus the time of spans opened inside it), and per
(parent, child) pair the call count and time.  That keeps memory flat when a
layer is entered millions of times.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


def _kernel_points(args, kwargs, result):
    # GreenKernel.evaluate(self, t, x): one evaluation per broadcast point
    t = kwargs.get("t", args[1] if len(args) > 1 else 0.0)
    x = kwargs.get("x", args[2] if len(args) > 2 else 0.0)
    return {"evals": np.broadcast(t, x).size}


def _matrix_bytes(args, kwargs, result):
    # computed size: n_target * n_source * 8 over every block returned
    blocks = result if isinstance(result, list) else [result]
    return {"bytes": 8 * sum(int(np.size(blk)) for blk in blocks)}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


# (layer name, defining module, attribute, class or None, counter)
LAYERS = (
    ("noise.sample_prm", "levyfield.noise", "sample_prm", None, None),
    ("kernels.evaluate", "levyfield.kernels", "evaluate", "GreenKernel",
     _kernel_points),
    ("integrals.ito_integral", "levyfield.integrals", "ito_integral", None,
     None),
    ("integrals.stochastic_convolution", "levyfield.integrals",
     "stochastic_convolution", None, None),
    ("integrals.compensator", "levyfield.solver", "_compensator", None, None),
    ("solver.solve_forward", "levyfield.solver", "solve_forward", None, None),
    ("solver.deterministic_part", "levyfield.solver", "deterministic_part",
     None, None),
    ("solver.kernel_matrix", "levyfield.solver",
     "pairwise_interaction_matrix", None, _matrix_bytes),
    ("solver.kernel_matrix", "levyfield.solver", "influence_rows", None,
     _matrix_bytes),
    ("solver.picard_solve", "levyfield.solver", "picard_solve", None, None),
    ("solver.existence_diagnostics", "levyfield.solver",
     "existence_diagnostics", None, None),
    ("malliavin.difference_derivative", "levyfield.malliavin",
     "difference_derivative", None, None),
    ("malliavin.derivative_bound_estimate", "levyfield.malliavin",
     "derivative_bound_estimate", None, None),
    ("malliavin.picard_derivative_report", "levyfield.malliavin",
     "picard_derivative_report", None, None),
    ("gronwall.convolve", "levyfield.gronwall", "convolve",
     "ConvolutionKernel", None),
    ("harness.run_ensemble", "levyfield.harness", "run_ensemble", None, None),
    ("reporting.write_csv", "levyfield.reporting", "write_csv", None,
     _file_bytes),
    ("cli.main", "levyfield.cli", "main", None, None),
)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.stats = {}     # layer -> [calls, total s, self s]
        self.edges = {}     # (parent layer, layer) -> [calls, total s]
        self.counts = {}    # "layer.counter" -> total
        self._stack = []    # open spans: [layer, time of spans inside it]
        self._undo = []

    def _wrap(self, layer, fn, counter):
        stats, edges, counts, stack = (self.stats, self.edges, self.counts,
                                       self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = stats[layer]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                key = (parent[0] if parent else "-", layer)
                edge = edges.setdefault(key, [0, 0.0])
                edge[0] += 1
                edge[1] += dt
                if parent is not None:
                    parent[1] += dt
            if counter is not None:
                for name, val in counter(args, kwargs, result).items():
                    full = f"{layer}.{name}"
                    counts[full] = counts.get(full, 0) + val
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "levyfield"
                                         or name.startswith("levyfield."))]
        for layer, modname, attr, clsname, counter in LAYERS:
            self.stats.setdefault(layer, [0, 0.0, 0.0])
            home = sys.modules.get(modname)
            owner = getattr(home, clsname, None) if clsname else home
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                continue
            wrapped = self._wrap(layer, original, counter)
            if clsname:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def snapshot(self) -> dict:
        """Every layer's `.calls`, `.s` and `.self_s`, and every counter."""
        out = {}
        for layer, (calls, total, own) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = total
            out[f"{layer}.self_s"] = own
        out.update(self.counts)
        return out

    def edge_lines(self):
        for (parent, child), (calls, total) in sorted(self.edges.items()):
            yield f"trace edge {parent} -> {child}: {calls} calls, {total:.6f} s"
