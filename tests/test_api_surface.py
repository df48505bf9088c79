"""No dead API: every public top-level function, class or assigned name in
the package is named somewhere in ``src/`` outside its own definition.

A name counts as used when code in ``src/`` reads it (a bare name or an
attribute) or imports it, so an export from ``__init__`` counts; assigning
to a name elsewhere does not.  A name that only the tests reach is dead
weight and fails here, be it a function or a leftover table.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qident"

# reached without a plain name: src/ reaches the lazily loaded layer
# qident.lattice only through ``from .lattice import ...``
ALLOWED = {("__init__", "lattice")}


def _mentions(tree):
    """(name, node) for every name a module reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node
            if node.asname:
                yield node.asname, node


def _definitions(tree):
    """(name, statement) for every top-level def, class and assigned name."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            yield statement.name, statement
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for node in (n for target in targets for n in ast.walk(target)):
                if isinstance(node, ast.Name):
                    yield node.id, statement


def test_every_public_definition_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    mentions = [(name, node) for tree in trees.values() for name, node in _mentions(tree)]
    unused = []
    for module, tree in trees.items():
        for defined, definition in _definitions(tree):
            if defined.startswith("_") or (module, defined) in ALLOWED:
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(name == defined and id(node) not in own for name, node in mentions):
                unused.append(f"{module}.{defined}")
    assert unused == [], f"public names no code in src/ uses: {unused}"


def test_the_allowlist_is_still_needed():
    # an allowlisted name that src/ now names directly should leave the list
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert any(defined == name for defined, _ in _definitions(tree)), \
            f"{module}.{name} no longer exists"
        src = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
        direct = [n for tree in src for found, n in _mentions(tree) if found == name]
        assert direct == [], f"{module}.{name} is named directly; drop it from ALLOWED"


def test_no_attribute_is_looked_up_by_a_built_name():
    # getattr(module, f"name_{tag}"), or a name built by + or % or a call, hides
    # a use from the check above and from a reader's search; name the function
    built = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) > 1
                    and isinstance(node.args[1], (ast.JoinedStr, ast.BinOp, ast.Call))):
                built.append(f"{path.name}:{node.lineno}")
    assert built == [], f"attributes looked up by a built name: {built}"


def _dataclass_fields(tree):
    """(class name, class node, field name) for every field of a top-level @dataclass."""
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass"
                or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
                for d in statement.decorator_list):
            for item in statement.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield statement.name, statement, item.target.id


def test_every_dataclass_field_is_read_in_src():
    """A field of a @dataclass in src/ must be read as an attribute (x.field) in
    src/ outside its own class body; a field only the tests read is dead weight.

    The check matches by name alone: a field passes when any attribute of that
    name is read, so it misses a dead field that shares its name with a live
    one, as a dead CartanData.kind once passed beside ParamSpec.kind.
    NamedTuples are left out, since callers unpack them.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = [(node.attr, node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, tree in trees.items():
        for cls, definition, field in _dataclass_fields(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(name == field and id(node) not in own for name, node in reads):
                unread.append(f"{module}.{cls}.{field}")
    assert unread == [], f"dataclass fields no code in src/ reads: {unread}"


def test_oracles_import_only_the_polynomial_type_and_the_errors():
    """tests/oracles.py promises oracles that share no code path with the
    package: it may import QPoly, to build its answers, and qident.errors, to
    raise them, and nothing else of qident."""
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reached += [alias.name for alias in node.names
                        if alias.name.split(".")[0] == "qident" and alias.name != "qident.errors"]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "qident"):
            if node.module != "qident.errors":
                reached += [f"{node.module}.{alias.name}" for alias in node.names
                            if (node.module, alias.name) not in {("qident.qpoly", "QPoly"), ("qident", "QPoly")}]
    assert reached == [], f"oracles.py reaches into the package: {reached}"
