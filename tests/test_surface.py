"""Every module-level name in ``src/spinqc/`` has a caller in ``src/spinqc/``,
no module takes another module's private (``_``-prefixed) name, and no
module imports a spinqc name only to hand it on.

The first scan parses each module with ``ast`` and collects the functions,
classes and assigned names it defines at module level.  A name counts as
used when some module loads it, as a bare name or as the attribute of an
attribute access.  A name that only its own tests or an import mention is
dead, and the test names it.

Matching is by bare name, not by resolved module: ``np.kron`` counts as a
use of any module-level ``kron``, so an attribute of another object that
shares a name can hide a dead definition.

The second scan flags a ``from spinqc.<module> import _name`` and a
``<module>._name`` read through a name bound to a spinqc module.  A
helper that another module needs is public in its own module.

The third scan flags a name that a module imports from spinqc and never
loads in its own code: each name is imported from the module that holds
it, not through another module that imported it first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinqc"

# Names with no caller in src/ that stay public on purpose.
ALLOWED = {
    "is_product_state": "acceptance A4 tests the entangled outputs",
    "demo_system": "the README example and bench/ build the demo system",
}


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _loaded(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_module_level_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set().union(*map(_loaded, trees.values()))
    defined = {f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)}
    dead = sorted(name for name in defined if name.split(".")[1] not in used | ALLOWED.keys())
    assert not dead, f"no caller in src/spinqc/: {', '.join(dead)}"
    # an allow-list entry that went away or gained a caller is stale
    bare = {name.split(".")[1] for name in defined}
    stale = sorted(ALLOWED.keys() - (bare - used))
    assert not stale, f"allow-listed but defined nowhere or called: {', '.join(stale)}"


def _private_crossings(module: str, tree: ast.Module, modules: set[str]) -> list[str]:
    """``module: name`` per ``_``-prefixed name that ``module`` takes from another spinqc module."""
    aliases = set()  # local names bound to spinqc modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names
                           if a.name.startswith("spinqc.") and a.asname)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinqc":
            for a in node.names:
                if node.module == "spinqc" and a.name in modules:
                    aliases.add(a.asname or a.name)
                elif a.name.startswith("_"):
                    found.append(f"{module}: from {node.module} import {a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            found.append(f"{module}: {node.value.id}.{node.attr}")
    return found


def test_no_module_takes_a_private_name_from_another():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    crossings = [c for module, tree in sorted(trees.items())
                 for c in _private_crossings(module, tree, set(trees))]
    assert not crossings, f"private names used across modules: {'; '.join(crossings)}"


# Names imported from spinqc that their module never loads, kept on purpose.
PASSED_ON = {
    "pulse.apply_unitary": "bench/tracing.py rebinds it; it goes with ROADMAP item 1",
}


def _imported_unloaded(module: str, tree: ast.Module) -> set[str]:
    """``module.name`` per name that ``module`` imports from spinqc and never loads."""
    imported = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "spinqc" for a in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {f"{module}.{name}" for name in imported - loaded}


def test_no_module_imports_a_spinqc_name_only_to_hand_it_on():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    unloaded = set().union(*(_imported_unloaded(module, tree) for module, tree in trees.items()))
    passed_on = sorted(unloaded - PASSED_ON.keys())
    assert not passed_on, f"imported from spinqc but never loaded: {', '.join(passed_on)}"
    # an allow-list entry whose import went away or gained a use is stale
    stale = sorted(PASSED_ON.keys() - unloaded)
    assert not stale, f"allow-listed but not imported or loaded: {', '.join(stale)}"
