"""The model layer stands below the scoring flow: the errors, the file
readers, the model and the statistics import nothing from feature
extraction, the screener, the pipeline or the CLI."""

import ast
from pathlib import Path

import pytest

import sourcescope

PACKAGE = Path(sourcescope.__file__).parent
LOWER = ["errors", "files", "model", "stats", "diagnostics"]
UPPER = {"features", "screener", "pipeline", "cli"}


def package_imports(module: str) -> set[str]:
    """The first name under ``sourcescope`` of every import in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
            names.update(parts[1] for parts in dotted if parts[0] == "sourcescope" and len(parts) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "sourcescope":
                parts = parts[1:]
            elif node.level != 1:
                continue
            # "from . import x" names modules; "from .x import y" names one
            names.update([parts[0]] if parts[0] else [alias.name for alias in node.names])
    return names


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_no_upper_layer(module):
    assert package_imports(module) & UPPER == set()



def test_file_readers_import_nothing_from_the_package():
    assert package_imports("files") == set()
