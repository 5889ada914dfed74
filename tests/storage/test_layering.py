"""Layering: the storage layer knows nothing about tracing.

The device counts (``IOStats``); spans in ``repro.obs`` read those
counts as deltas.  An import of ``repro.obs`` from storage, even a local
or ``TYPE_CHECKING`` one, would bring back the storage↔obs cycle.
"""

import ast
import os

import pytest

import repro.storage

STORAGE_DIR = os.path.dirname(repro.storage.__file__)
MODULES = sorted(
    name for name in os.listdir(STORAGE_DIR) if name.endswith(".py")
)


def imported_modules(path: str):
    """Every module an import statement in ``path`` names, resolved to
    its absolute dotted name (``from .. import obs`` -> ``repro.obs``)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    package = ["repro", "storage"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            yield prefix
            for alias in node.names:
                yield f"{prefix}.{alias.name}"


@pytest.mark.parametrize("module", MODULES)
def test_storage_module_does_not_import_obs(module):
    names = set(imported_modules(os.path.join(STORAGE_DIR, module)))
    offending = sorted(
        name for name in names
        if name == "repro.obs" or name.startswith("repro.obs.")
    )
    assert offending == [], f"{module} imports {offending}"
