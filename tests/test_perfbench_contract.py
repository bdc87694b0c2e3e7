"""The benchmark under perfbench/ reaches into the package by name: its
tracer patches the functions listed in `spans.SPANS`, and its workloads
import names and call module attributes.  These tests load both files by
path, without running a workload, and check that every such name still
resolves, so a rename or deletion that would break `run.py --trace 1`
fails here in well under a second."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_a_function():
    spans = _load("spans")
    for module, qualname, _ in spans.SPANS:
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        raw = vars(owner).get(attr)
        assert inspect.isfunction(raw) or isinstance(raw, staticmethod), (
            f"{module}.{qualname} is not a function or staticmethod: {raw!r}"
        )


def test_every_name_workloads_uses_exists():
    # Loading the file resolves every `from yangbaxter... import name`.
    _load("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("yangbaxter"):
            target = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(target, alias.name), f"{node.module}.{alias.name}"
                if node.module == "yangbaxter":
                    aliases[alias.asname or alias.name] = getattr(target, alias.name)
    # Attributes used through the imported modules, e.g. cybe.cyb.
    used = [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    assert used
    for name, attr in used:
        assert hasattr(aliases[name], attr), f"{name}.{attr}"
