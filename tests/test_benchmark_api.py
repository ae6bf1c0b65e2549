"""Every levyfield name the benchmark workloads use exists.

perfbench/workloads.py is parsed, never imported or run: a public name
deleted from levyfield would otherwise show only as failed benchmark
operations."""

import ast
import importlib
import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
