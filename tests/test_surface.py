"""Every module-level function and class in ``src/weightgen`` has a caller
outside the tests, and every private helper is used in the package.

A caller is a code reference in ``src/``, ``perfbench/`` (its tests
excepted) or ``scripts/`` that names the definition's module: a
``module.name`` attribute, a ``from .module import name`` alias, or, inside
the defining module, a bare ``name``.  A method or attribute that merely
shares the name does not count, and neither do docstrings and comments.
A private helper is a ``_name`` function, class or method at any depth; it
is used when ``src/`` reads its name outside its own definition.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weightgen"

# Definitions kept without a caller, each with its reason.
UNCALLED = {
    "quantize.dequantize": "the reference fake_quantize is compared against bit for bit",
    "factorfile.load_factors": "kept until .isgw either becomes the deployment format or goes",
    "quantize.distinct_value_bound": "acceptance criterion 5's formula",
}


def _code_files():
    perfbench_tests = ROOT / "perfbench" / "tests"
    for top in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if perfbench_tests not in path.parents:
                yield path


def _references(path) -> set[str]:
    """The ``module.name`` pairs that the code in path refers to."""
    own = path.stem if path.parent == PACKAGE else None
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and own:
            refs.add(f"{own}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            refs.update(f"{module}.{alias.name}" for alias in node.names)
    return refs


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}"


def test_every_definition_has_a_caller_outside_the_tests():
    refs = set().union(*map(_references, _code_files()))
    assert set(_definitions()) - refs == set(UNCALLED)


def _private_definitions(tree):
    """Every ``_name`` function, class or method in tree, dunders excepted."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") \
                and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node


def _names_used(node) -> collections.Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_helper_is_used_outside_its_own_definition():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = sum(map(_names_used, trees.values()), collections.Counter())
    unused = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
              for node in _private_definitions(tree)
              if used[node.name] == _names_used(node)[node.name]]
    assert unused == []
