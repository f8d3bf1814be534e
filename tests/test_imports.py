"""Every module-level import of a ptlab module is used by that module,
every name a module exports in `__all__` exists, and ptlab imports nothing
at run time but the standard library, numpy and jsonschema."""

import ast
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ptlab

MODULES = sorted(p for p in Path(ptlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom typing import Iterable, Sequence\n"
                          "x: Sequence[int] = []\n") == ["os", "Iterable"]


def stale_exports(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_stale_exports(path):
    assert stale_exports(importlib.import_module(f"ptlab.{path.stem}")) == []


def test_stale_export_is_caught():
    assert stale_exports(SimpleNamespace(__all__=["here", "gone"], here=1)) == ["gone"]


RUNTIME_IMPORTS = sys.stdlib_module_names | {"numpy", "jsonschema", "ptlab"}


def imports(source: str) -> list[str]:
    """Modules imported anywhere in `source` (function bodies included),
    relative imports resolved inside ptlab; `from M import name` names both
    M and M.name, since the name may be a module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = f"ptlab.{base}" if base else "ptlab"
            names += [base] + [f"{base}.{a.name}" for a in node.names]
    return names


def foreign_imports(source: str) -> list[str]:
    """Imported modules neither in the standard library nor a runtime dependency."""
    return [name for name in imports(source) if name.split(".")[0] not in RUNTIME_IMPORTS]


def ptlab_imports(source: str) -> list[str]:
    return [name for name in imports(source) if name.split(".")[0] == "ptlab"]


@pytest.mark.parametrize("path", sorted(Path(ptlab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_runtime_dependencies_are_numpy_and_jsonschema(path):
    assert foreign_imports(path.read_text()) == []


def test_foreign_import_is_caught():
    source = ("import os, numpy.linalg\nfrom . import graphs\n"
              "def f():\n    import networkx as nx\n    from scipy import sparse\n")
    assert foreign_imports(source) == ["networkx", "scipy", "scipy.sparse"]


def test_oracles_import_nothing_from_ptlab_and_only_verify_imports_them():
    package = Path(ptlab.__file__).parent
    assert ptlab_imports((package / "oracles.py").read_text()) == []
    assert [p.name for p in sorted(package.glob("*.py"))
            if "ptlab.oracles" in ptlab_imports(p.read_text())] == ["verify.py"]


def test_ptlab_and_oracle_imports_are_caught():
    source = ("from itertools import combinations\nfrom . import oracles\n"
              "def f():\n    from .oracles import induces\n    import ptlab.rng, oracles\n")
    assert ptlab_imports(source) == ["ptlab", "ptlab.oracles", "ptlab.oracles",
                                     "ptlab.oracles.induces", "ptlab.rng"]


def test_rng_imports_nothing_from_ptlab():
    # rng is the bottom layer: every other module may import it, it none of them
    package = Path(ptlab.__file__).parent
    assert ptlab_imports((package / "rng.py").read_text()) == []


def test_rng_importing_ptlab_is_caught():
    source = ("import operator\nimport numpy as np\n"
              "def f(x):\n    from .graphs import _as_int\n    return _as_int(x)\n")
    assert ptlab_imports(source) == ["ptlab.graphs", "ptlab.graphs._as_int"]


def test_acceptance_tests_import_only_ptlab_verify():
    # the criteria live in `ptlab.verify.ACCEPTANCE`; the test module only runs them
    source = (Path(__file__).parent / "test_acceptance.py").read_text()
    assert ptlab_imports(source) == ["ptlab.verify"]


def test_second_ptlab_import_in_acceptance_tests_is_caught():
    source = ("import ptlab.verify as verify\n"
              "def test_x():\n    from ptlab.graphs import cycle_graph\n")
    assert ptlab_imports(source) == ["ptlab.verify", "ptlab.graphs", "ptlab.graphs.cycle_graph"]
