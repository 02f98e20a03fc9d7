"""Layering: the brute-force references stay out of the pipeline modules.

oracle is the one home of the references, and cli alone imports it, for the
verify command.  The package root exports none of the references that moved
there or into the tests.
"""

import ast
from pathlib import Path

import symdual

SRC = Path(symdual.__file__).parent
REFERENCES = {
    "enumerate_slice",
    "in_dual",
    "in_dual_single",
    "in_orthant",
    "in_polyhedron",
    "orthant_apex",
    "subset_sort_key",
}


def imports(path):
    """Every module and imported name the file names, as dotted paths."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # Relative imports inside the package resolve against symdual.
            base = ".".join(filter(None, ["symdual" if node.level else None, node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_only_cli_imports_the_oracle():
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"cli", "oracle", "dual_core", "lattice_geometry"}
    importers = {p.stem for p in modules if "symdual.oracle" in imports(p)}
    assert importers == {"cli"}


def test_package_exports_no_reference():
    exported = {name.rsplit(".", 1)[-1] for name in imports(SRC / "__init__.py")}
    assert "min_gens" in exported
    assert not exported & REFERENCES
    assert not REFERENCES & set(dir(symdual))
