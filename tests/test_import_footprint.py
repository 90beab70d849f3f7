"""Each process imports only what it runs.

``m3d-route`` holds sockets, a hash ring and counters; ``m3d-obs`` reads
JSONL and scrapes HTTP. Neither needs numpy, scipy or the model stack, and
loading them costs every such process ~22 MiB and ~250 ms. Package
``__init__`` modules stay docstring-only so importing a submodule never
drags its siblings in; ``scenarios`` is the one exception, because its
``__init__`` re-exports the scenario table and its API.

Each check runs in a fresh interpreter: the test process itself has long
since imported everything. The last one reads the source instead: scipy's
private ``_sparsetools`` kernels may be called from one module only.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PACKAGE_DIR = SRC_DIR / "m3d_fault_loc"

#: Top-level modules and package subtrees the lightweight entry points must not load.
HEAVY = (
    "numpy",
    "scipy",
    "m3d_fault_loc.model",
    "m3d_fault_loc.analysis",
    "m3d_fault_loc.scenarios",
    "m3d_fault_loc.data",
    "m3d_fault_loc.graph",
    "m3d_fault_loc.faults",
)


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src/`` on the path; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC_DIR}{os.pathsep}{env.get('PYTHONPATH', '')}"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("entry", ["m3d_fault_loc.cli.route", "m3d_fault_loc.obs.cli"])
def test_entry_module_loads_no_numpy_scipy_or_model_stack(entry):
    loaded = json.loads(
        fresh_python(f"import json, sys, {entry}; print(json.dumps(sorted(sys.modules)))")
    )
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == [], f"importing {entry} loaded {heavy}"


def test_netlist_synthesis_loads_no_fault_injection_or_graph_builder():
    loaded = json.loads(
        fresh_python(
            "import json, sys, m3d_fault_loc.data.synthetic; print(json.dumps(sorted(sys.modules)))"
        )
    )
    heavy = ("m3d_fault_loc.faults", "m3d_fault_loc.graph.builder")
    pulled = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in heavy)]
    assert pulled == [], f"importing m3d_fault_loc.data.synthetic loaded {pulled}"


def package_names() -> list[str]:
    return sorted(
        ".".join(init.parent.relative_to(SRC_DIR).parts)
        for init in PACKAGE_DIR.rglob("__init__.py")
        if init.parent.name != "scenarios"
    )


@pytest.mark.parametrize("package", package_names())
def test_package_init_binds_no_public_names(package):
    public = json.loads(
        fresh_python(
            f"import json, {package} as p; "
            "print(json.dumps(sorted(n for n in vars(p) if not n.startswith('_'))))"
        )
    )
    assert public == [], f"{package}/__init__.py binds {public}; import from the submodule"


#: The one module allowed to call scipy's private CSR kernels. scipy may
#: move them in any release; one caller is one place to follow it, and the
#: model tests pin its output to scipy's public products.
SPARSETOOLS_OWNER = PACKAGE_DIR / "model" / "aggregate.py"


def _imports_sparsetools(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("_sparsetools" in name.split(".") for name in names):
            return True
    return False


def test_only_the_aggregation_module_imports_sparsetools():
    importers = sorted(
        str(path.relative_to(SRC_DIR))
        for path in PACKAGE_DIR.rglob("*.py")
        if _imports_sparsetools(ast.parse(path.read_text(), filename=str(path)))
    )
    assert importers == [str(SPARSETOOLS_OWNER.relative_to(SRC_DIR))]
