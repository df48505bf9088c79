"""No dead API: every public top-level function or class in the package is
named somewhere in ``src/`` outside its own definition.

A name counts as used when code in ``src/`` reads it (a bare name or an
attribute) or imports it, so an export from ``__init__`` counts.  A name
that only the tests reach is dead weight and fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qident"

# reached by a computed name: cli's classic edge families look their safety
# scan up as getattr(burge, f"classic_{tag}_safe") for tag in ("bt", "bt2")
ALLOWED = {("burge", "classic_bt2_safe")}


def _mentions(tree):
    """(name, node) for every name a module reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node
            if node.asname:
                yield node.asname, node


def test_every_public_definition_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    mentions = [(name, node) for tree in trees.values() for name, node in _mentions(tree)]
    unused = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if definition.name.startswith("_") or (module, definition.name) in ALLOWED:
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in own for name, node in mentions):
                unused.append(f"{module}.{definition.name}")
    assert unused == [], f"public names no code in src/ uses: {unused}"


def test_the_allowlist_is_still_needed():
    # an allowlisted name that src/ now names directly should leave the list
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert any(isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name == name
                   for d in tree.body), f"{module}.{name} no longer exists"
        src = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
        direct = [n for tree in src for found, n in _mentions(tree) if found == name]
        assert direct == [], f"{module}.{name} is named directly; drop it from ALLOWED"
