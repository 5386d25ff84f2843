"""The package keeps only what a run calls: every top-level function and
class in src/nearscat, public or private, is referenced in src/nearscat
outside its own definition, so a helper that loses its last caller is
flagged.  Test oracles and one-value twins of vectorised functions live in
tests/reference.py."""

import ast
from pathlib import Path

import nearscat


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_top_level_definition_has_a_caller_in_the_package():
    defined = set()  # (module, name)
    references = set()  # (module, top-level definition or None, name)
    for path in sorted(Path(nearscat.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.add((path.stem, owner))
            references.update((path.stem, owner, name) for name in _referenced_names(stmt))
    uncalled = {
        name
        for module, name in defined
        if not any(ref == name and (m, o) != (module, name) for m, o, ref in references)
    }
    assert uncalled == set(), "no caller in the package"
