"""Every module-level import of the package modules and of ``scripts/`` is
used, every private helper of the package is read, and the package imports
nothing outside the standard library.

A stdlib ``ast`` check: a name bound by a top-level ``import`` or
``from ... import`` must be read somewhere else in the same module.  The
package ``__init__`` re-exports by importing, so it is skipped, and so are
``__future__`` imports.  A private top-level function or class, or a
private method, of the package must be read, as a name or an attribute,
somewhere in the package or in ``scripts/``.  Every ``import`` in the
package, nested ones included, must be relative or name a module of
``sys.stdlib_module_names``.  No package module calls ``json.dump`` or
``json.dumps`` with ``indent``, which makes ``json`` fall back from its C
encoder to the pure-Python one.
"""

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "laminar_secretary"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "exact.py", "experiments.py", "kicknext.py"}
    assert {p.name for p in SCRIPTS} >= {"exact_layers.py", "ratio_experiment.py",
                                         "theory_sweep.py", "trial_layers.py"}


def test_all_names_the_api():
    # ``__all__`` holds the public functions, classes and constants, not the
    # submodules, and every name in it resolves
    import laminar_secretary

    names = laminar_secretary.__all__
    assert len(set(names)) == len(names) > 0
    for name in names:
        assert not isinstance(getattr(laminar_secretary, name), ModuleType), name
    assert {p.stem for p in MODULES}.isdisjoint(names)
    assert {"make_trial", "monte_carlo_ratio", "RNG_VERSION", "GenSpec"} <= set(names)


def test_one_reference_list_builder():
    # every run builds a sample's sets on bits and takes the eviction step
    # on bits; the one decoder of fields to lists is read by kicknext's
    # single runs alone, where ids come out
    from laminar_secretary import experiments, kicknext, matroid, model

    assert kicknext._ref_rank_lists is matroid._ref_rank_lists
    assert kicknext._ref_fields is experiments._ref_fields is matroid._ref_fields
    assert not hasattr(experiments, "_ref_rank_lists") and not hasattr(experiments, "_arrive")
    assert not hasattr(matroid, "_trial_rank_lists")
    # the list step and list padding left the package
    for path in MODULES:
        tree = ast.parse(path.read_text())
        bound = set(imported_names(tree)) | {
            node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        bound |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)}
        assert not {"_arrive", "_pad"} & bound, path.name
    tree = ast.parse((SRC / "kicknext.py").read_text())
    assert "bisect" not in {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                            for a in node.names}
    assert "bisect" not in {node.module for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom)}
    assert "padded_optima" not in model._Pre.__slots__


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p.parent == SRC else f"scripts/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert not unused, f"{path.name}: unused imports {unused}"


def private_definitions(tree: ast.Module) -> list[str]:
    """The private top-level functions and classes of ``tree`` and the
    private methods of its top-level classes; dunder names are not private."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [node for node in tree.body if isinstance(node, defs)]
    nodes += [item for node in nodes if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, defs[:2])]
    return [node.name for node in nodes
            if node.name.startswith("_") and not node.name.endswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads, bare or as an attribute."""
    return used_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}


def test_unread_private_definitions_are_found():
    tree = ast.parse("def _kept(): pass\ndef _left(): pass\nclass _C:\n"
                     "    def __init__(self): pass\n    def _gone(self): pass\n"
                     "    def _used(self): self._used\n_kept(_C)\n")
    assert private_definitions(tree) == ["_kept", "_left", "_C", "_gone", "_used"]
    assert [name for name in private_definitions(tree)
            if name not in read_names(tree)] == ["_left", "_gone"]


def test_every_private_definition_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) + SCRIPTS}
    read = set().union(*map(read_names, trees.values()))
    unread = [f"{path.name}: {name}" for path, tree in trees.items() if path.parent == SRC
              for name in private_definitions(tree) if name not in read]
    assert not unread, f"private definitions read nowhere: {unread}"


def outside_imports(tree: ast.Module) -> list[str]:
    """Top-level names of the absolute imports anywhere in ``tree`` that are
    not standard-library modules."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_outside_imports_are_found():
    tree = ast.parse("import os\nfrom . import cli\ndef f():\n    import numpy.linalg\n"
                     "    from yaml import load\n")
    assert outside_imports(tree) == ["numpy.linalg", "yaml"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not outside_imports(tree), f"{path.name}: imports outside the standard library"


def indented_json_calls(tree: ast.Module) -> list[int]:
    """The lines of the calls in ``tree`` to ``json.dump`` or ``json.dumps``,
    by attribute or by a name imported from ``json``, that pass ``indent``."""
    dumps = {"dump", "dumps"}
    bare = {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "json"
            for a in node.names if a.name in dumps}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or "indent" not in {k.arg for k in node.keywords}:
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in dumps
                and isinstance(f.value, ast.Name) and f.value.id == "json"
                or isinstance(f, ast.Name) and f.id in bare):
            lines.append(node.lineno)
    return lines


def test_indented_json_calls_are_found():
    tree = ast.parse("import json\nfrom json import dumps as d\njson.dumps(x)\n"
                     "json.dumps(x, indent=1)\njson.dump(x, f, sort_keys=True, indent=None)\n"
                     "d(x, indent=2)\nd(x)\ntext.dumps(x, indent=1)\n")
    assert indented_json_calls(tree) == [4, 5, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_writes_no_indented_json(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not indented_json_calls(tree), f"{path.name}: json with indent, a pure-Python encode"
