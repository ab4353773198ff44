"""Every module-level function and class in ``src/weightgen`` has a caller
outside the tests.

A caller is a code reference in ``src/``, ``perfbench/`` (its tests
excepted) or ``scripts/``: a ``Name``, an ``Attribute`` or an import alias
that spells the definition's name.  Docstrings and comments do not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

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
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
            if node.asname:
                refs.add(node.asname)
    return refs


def _definitions():
    for path in sorted((ROOT / "src" / "weightgen").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name


def test_every_definition_has_a_caller_outside_the_tests():
    refs = set().union(*map(_references, _code_files()))
    uncalled = {qualified for qualified, name in _definitions() if name not in refs}
    assert uncalled == set(UNCALLED)
