"""Every module-level name in ``src/spinqc/`` has a caller in ``src/spinqc/``.

The scan parses each module with ``ast`` and collects the functions,
classes and assigned names it defines at module level (``__all__`` and
``__init__.py`` are left out).  A name counts as used when some module
loads it, as a bare name or as the attribute of an attribute access.
A name that only its own tests, an export list or a re-export in
``__init__.py`` mention is dead, and the test names it.

Matching is by bare name, not by resolved module: ``np.kron`` counts as a
use of any module-level ``kron``, so an attribute of another object that
shares a name can hide a dead definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinqc"

# Names with no caller in src/ that stay public on purpose.
ALLOWED = {
    "cnot_matrix": "acceptance A1 builds the two-spin conditional flip",
    "not_all_matrix": "acceptance A2 checks the register NOT",
    "is_product_state": "acceptance A4 tests the entangled outputs",
    "all_plus": "acceptance A4 starts ghz3 from the all-plus input",
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
    return names - {"__all__"}


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
    defined = {
        f"{module}.{name}"
        for module, tree in trees.items()
        if module != "__init__"
        for name in _defined(tree)
    }
    dead = sorted(name for name in defined if name.split(".")[1] not in used | ALLOWED.keys())
    assert not dead, f"no caller in src/spinqc/: {', '.join(dead)}"
    # an allow-list entry that went away or gained a caller is stale
    bare = {name.split(".")[1] for name in defined}
    stale = sorted(ALLOWED.keys() - (bare - used))
    assert not stale, f"allow-listed but defined nowhere or called: {', '.join(stale)}"
