"""Every public function and class of the package has a caller.

A public top-level function or class in src/reachbudget must be
referenced, as a name or an attribute, somewhere in src/ or bench/
outside its own definition; a click command counts as referenced by
the group it registers with. References from inside a definition that
fails this test do not count either, so a chain of helpers that only
call each other fails as a whole. Code that only the tests call
belongs in the tests (tests/oracles.py keeps the reference
implementations).
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reachbudget"

# The entry point, and the checkers the acceptance claims are written in.
ALLOWED = {
    "cli.main",
    "augment.budget_equivalence_sides",
    "reachval.tabular_q_values",
    "approx.finite_difference_check",
}


def _references(module, tree: ast.Module) -> list[tuple]:
    """(module, enclosing top-level definition or None, name) of every
    Name and Attribute outside the definition of that same name."""
    refs = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != owner:
                refs.append((module, owner, name))
    return refs


def _is_command(stmt) -> bool:
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
        and dec.func.attr == "command"
        for dec in stmt.decorator_list
    )


def _unused_definitions() -> list[str]:
    checked, refs = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        checked |= {
            (module, stmt.name)
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and not _is_command(stmt)
            and f"{module}.{stmt.name}" not in ALLOWED
        }
        refs += _references(module, tree)
    for path in sorted((ROOT / "bench").rglob("*.py")):
        refs += _references("bench", ast.parse(path.read_text()))

    unused: set = set()
    while True:
        live = {name for module, owner, name in refs if (module, owner) not in unused}
        dead = {(module, name) for module, name in checked if name not in live}
        if dead == unused:
            return sorted(f"{module}.{name}" for module, name in unused)
        unused = dead


def test_every_public_definition_has_a_caller_outside_the_tests():
    unused = _unused_definitions()
    assert not unused, f"public definitions that no program path or bench file uses: {unused}"
