"""Every levyfield name the benchmark workloads and tracing use exists.

perfbench/workloads.py is parsed, never imported or run: a public name
deleted from levyfield would otherwise show only as failed benchmark
operations.  perfbench/tracing.py skips a layer whose function is gone, so
its figures read 0; the layers known to be gone are listed here."""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"

# tracing LAYERS entries (layer name, attribute) whose function levyfield no
# longer has: their traced figures read 0.  Removing a layer's function
# means adding it here, so that a figure stops counting on purpose only.
DEAD_LAYERS = {
    ("integrals.stochastic_convolution", "stochastic_convolution"),
    ("integrals.compensator", "_compensator"),
    ("solver.kernel_matrix", "influence_rows"),
    ("harness.run_ensemble", "run_ensemble"),
    ("malliavin.picard_derivative_report", "picard_derivative_report"),
    ("integrals.ito_integral", "ito_integral"),
}


def _resolve(module_name: str, name: str):
    # `from module import name`: an attribute, else a submodule
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def test_benchmark_workload_names_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "levyfield" and alias.asname:
                    modules[alias.asname] = importlib.import_module(
                        alias.name)
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "levyfield":
            for alias in node.names:
                try:
                    obj = _resolve(node.module, alias.name)
                except ImportError:
                    missing.append(f"{node.module}.{alias.name}")
                    continue
                if isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
    assert {"lf", "cli"} <= modules.keys()
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {alias for alias, _ in used} >= {"lf", "cli"}
    missing += [f"{alias}.{attr}" for alias, attr in sorted(used)
                if not hasattr(modules[alias], attr)]
    assert missing == []


def _tracing_layers():
    # LAYERS is a literal tuple of tuples whose last item may name a
    # counter function: read everything but that
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and [t.id for t in node.targets] == ["LAYERS"]:
            return [tuple(ast.literal_eval(item) for item in entry.elts[:4])
                    for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py has no LAYERS")


def test_tracing_layers_resolve():
    layers = _tracing_layers()
    assert layers
    dead = set()
    for layer, module_name, attr, owner in layers:
        obj = importlib.import_module(module_name)
        if owner is not None:
            obj = getattr(obj, owner)
        if not hasattr(obj, attr):
            dead.add((layer, attr))
    assert dead == DEAD_LAYERS
