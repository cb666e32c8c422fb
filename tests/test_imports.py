"""What the package imports and defines: no scipy off the oracle's sparse route, no oracle outside verify, no unused names."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ktspin
from ktspin import save_model
from conftest import random_model, topology_pairs

SRC = Path(__file__).resolve().parents[1] / "src"

# A fresh interpreter imports the package, runs one command of each kind
# through cli.main, and prints the scipy modules it has loaded, and whether
# the oracle was loaded before verify ran; then it builds one sparse
# Hamiltonian, which must load scipy, so the scan itself is shown to see
# an import.
_PROBE = """
import json, sys
import ktspin, ktspin.cli
from ktspin.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

model, dump = sys.argv[1], sys.argv[2]
runs = [
    ["energy", model, "--order", "4", "--epsilon", "1e-7", "--json",
     "--dump-coefficients", dump],
    ["series", model, "--order", "4", "--json"],
    ["correlate", model, "--s", "0", "--t", "1", "--observable", "ZZ",
     "--epsilon", "1e-7", "--order", "2", "--json"],
]
codes = [main(argv) for argv in runs]
oracle_loaded = "ktspin.oracle" in sys.modules
codes.append(main(["verify", "--max-qubits", "6", "--seeds", "1"]))
before = scipy_modules()
import ktspin.oracle
ktspin.oracle._sparse_hamiltonian(ktspin.load_model(model), 0.1)
print(json.dumps({"codes": codes, "oracle_loaded": oracle_loaded, "before": before,
                  "after": scipy_modules()}))
"""


def test_commands_off_the_sparse_route_load_no_scipy(tmp_path):
    path = tmp_path / "ring.json"
    save_model(random_model(np.random.default_rng(99), topology_pairs("ring", 6), 6), path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(path), str(tmp_path / "dump.txt")],
        env=env, capture_output=True, text=True, check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0, 0, 0, 0]
    # energy, series and correlate never call the oracle, so never load it
    assert doc["oracle_loaded"] is False
    assert doc["before"] == []
    assert "scipy.sparse" in doc["after"]


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_module_level_import_is_used():
    # __init__.py only re-exports, so its imports are its content
    modules = sorted(p for p in (SRC / "ktspin").glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _definitions(tree, private):
    """The module-level private (or public) functions and classes of a parsed module, by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private and not node.name.startswith("__")
    }


def _unreferenced_definitions(modules, private=True):
    """``module:line name`` of each private (or public) definition no other code in ``modules`` names.

    A name counts as referenced where it is read as a name, an attribute
    or an import, anywhere except inside its own definition.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    out = []
    for path, tree in trees.items():
        for name, definition in _definitions(tree, private).items():
            own = {id(node) for node in ast.walk(definition)}
            used = any(
                id(node) not in own
                and (
                    (isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)
                )
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not used:
                out.append(f"{path.name}:{definition.lineno} {name}")
    return out


def test_every_private_helper_is_used(tmp_path):
    modules = sorted((SRC / "ktspin").glob("*.py"))
    assert modules
    assert _unreferenced_definitions(modules) == []
    # the scan sees a helper that is left behind, and one named only by itself
    stray = tmp_path / "stray.py"
    stray.write_text("def _left(x):\n    return _left(x - 1) if x else 0\n\n\n"
                     "def _kept():\n    return 1\n\n\nVALUE = _kept()\n")
    assert _unreferenced_definitions(modules + [stray]) == ["stray.py:1 _left"]


# named by no package code, but imported by the benchmark's pool counters
_BENCHMARK_IMPORTS = {"bin_candidates"}


def test_every_public_definition_is_used_or_exported(tmp_path):
    # __init__.py's imports are the exports, so they count through __all__
    modules = sorted(p for p in (SRC / "ktspin").glob("*.py") if p.name != "__init__.py")
    unused = _unreferenced_definitions(modules, private=False)
    exempt = set(ktspin.__all__) | _BENCHMARK_IMPORTS
    assert [entry for entry in unused if entry.split()[1] not in exempt] == []
    # the scan sees a public function that only code outside the package calls
    stray = tmp_path / "stray.py"
    stray.write_text("def reference(x):\n    return x\n\n\nclass Used:\n    pass\n\n\n"
                     "VALUE = Used()\n")
    found = _unreferenced_definitions(modules + [stray], private=False)
    assert [entry for entry in found if entry.startswith("stray.py")] == ["stray.py:1 reference"]
