"""Every exported or traced name resolves, so a deletion that leaves one behind fails here."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ratchet_lab

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "config", "evolution", "experiments", "fileio", "floquet", "model",
           "observables", "optics")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ratchet_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "ratchet_lab" / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, attr in imported:
        assert getattr(ratchet_lab, attr) is getattr(importlib.import_module(f"ratchet_lab.{module}"), attr)


def test_benchmark_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"ratchet_lab.{layer}")
        missing = [attr for attr in names if not callable(getattr(module, attr, None))]
        assert missing == [], layer
    # the span notes bind these arguments by keyword
    bounce = inspect.signature(importlib.import_module("ratchet_lab.experiments").bounce_image)
    assert {"cfg", "hbar_eff", "n_kicks", "n_levels"} <= set(bounce.parameters)
    fileio = importlib.import_module("ratchet_lab.fileio")
    for writer in ("write_csv", "write_pgm", "write_ndjson"):
        assert "path" in inspect.signature(getattr(fileio, writer)).parameters


def test_readme_module_references_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = re.findall(rf"`({'|'.join(MODULES)})\.(\w+)`", text)
    assert len(refs) >= 10
    missing = [f"{module}.{attr}" for module, attr in refs
               if not hasattr(importlib.import_module(f"ratchet_lab.{module}"), attr)]
    assert missing == []


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an independent reference
    code = ("import sys, ratchet_lab, ratchet_lab.cli, ratchet_lab.floquet; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
