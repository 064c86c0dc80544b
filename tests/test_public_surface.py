"""Every public name of the package is reached, or says why it stays.

An AST pass lists the public module-level functions, classes and assigned
names of ``src/duplexem/`` and the public methods of its classes.  Each
must be referenced in the program, in ``bench/`` or in the acceptance
tests, outside its own definition: as a name, an attribute, an imported
name, or an identifier-like string constant (the handler names of
``COMMANDS`` and the names the benchmark's tracer looks up).  A comment or
a docstring does not reach a name, and the re-exports of ``__init__.py``
do not count.  A name reached by none of these must be in KEPT with the
result of the paper or the test oracle it serves.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "duplexem"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

# "module.name" -> the result or oracle role that keeps the name
KEPT = {
    "cavity.SpectralField.reflected":
        "space inversion z -> L - z, whose parities label the four field constituents",
    "cavity.ZeroField": "the empty sector of a quaternion four-component field",
    "cavity.field_hamiltonian": "oscillator structure: the field energy as an integral of E, H",
    "cavity.mode_hamiltonian": "oscillator structure: the same energy as a sum of oscillators",
    "sshliquid.solve_gap_discrete": "oracle: the gap root from the Brillouin-zone sum",
}


def _definitions():
    """(key, path, first line, last line) of every public name and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield f"{module}.{name}", name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield (f"{module}.{node.name}.{item.name}", item.name, path,
                               item.lineno, item.end_lineno)


def _references():
    """{identifier: [(path, line), ...]} of every reference in the code that may reach a name."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                ids = [node.id]
            elif isinstance(node, ast.Attribute):
                ids = [node.attr]
            elif isinstance(node, ast.alias):
                ids = node.name.split(".")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and IDENTIFIER.fullmatch(node.value):
                ids = [node.value]
            else:
                continue
            for name in ids:
                found.setdefault(name, []).append((path, node.lineno))
    return found


def _unreached():
    references = _references()
    missing = []
    for key, name, own, first, last in _definitions():
        reached = any(not (path == own and first <= line <= last)
                      for path, line in references.get(name, ()))
        if not reached:
            missing.append(key)
    return missing


def test_every_public_name_is_reached_or_kept():
    unexplained = sorted(set(_unreached()) - set(KEPT))
    assert unexplained == [], "public names that nothing reaches; delete them or say " \
        "in KEPT which result they serve: " + ", ".join(unexplained)


def test_kept_names_exist_and_are_otherwise_unreached():
    keys = {key for key, *_ in _definitions()}
    assert set(KEPT) <= keys, sorted(set(KEPT) - keys)
    # a kept name that gained a caller no longer needs its entry
    reached = set(KEPT) - set(_unreached())
    assert not reached, sorted(reached)
