"""The production modules and `import bellcat` load no reference route.

`bellcat.wigner` and `bellcat.negativity` hold the production evaluator.  The
density factors (`bellcat.density`), the Laguerre series (`bellcat.series`),
the Fock-kernel oracle (`bellcat.oracle`) and the plane quadrature of the
negative volume (`bellcat.plane`) are reference routes beside them.  The first
three depend one way, density <- series <- oracle: the series imports neither
the production module nor the oracle.  The plane quadrature imports no
`bellcat` module at all, so it shares no code with the negativity it checks.
The imports are read from the source at every nesting depth, so a
function-local import counts.  The package's top level exports only the
production names, so a fresh interpreter's `import bellcat` loads none of the
four.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellcat

PACKAGE = Path(bellcat.__file__).parent
REFERENCE = {"density", "series", "oracle", "plane"}
# the one exception: `wigner_values(chi_mode=...)` hands a series diagnostic to
# `series_values`, because bench/controls.py calls `bellcat.wigner_values(..., chi_mode="printed")`
ALLOWED = {("wigner", "wigner_values", "series", ("series_values",))}


def package_imports(module: str) -> list[tuple[str | None, str, tuple[str, ...]]]:
    """(enclosing function, bellcat module, imported names) of each package import in `module`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.startswith("bellcat."):
                        found.append((function, alias.name.split(".")[1], ()))
            elif isinstance(child, ast.ImportFrom):
                names = tuple(alias.name for alias in child.names)
                source = child.module or ""
                if child.level == 0:
                    if source != "bellcat" and not source.startswith("bellcat."):
                        continue
                    source = source.removeprefix("bellcat").lstrip(".")
                if source:
                    found.append((function, source.split(".")[0], names))
                else:       # from . import series
                    found.extend((function, name, (name,)) for name in names)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("module", ["wigner", "negativity"])
def test_production_modules_import_no_reference_route(module):
    bad = [(function, source, names) for function, source, names in package_imports(module)
           if source in REFERENCE and (module, function, source, names) not in ALLOWED]
    assert bad == []


def test_series_imports_neither_the_production_module_nor_the_oracle():
    assert {source for _, source, _ in package_imports("series")} & {"wigner", "negativity", "oracle"} == set()


def test_plane_imports_no_package_module():
    assert package_imports("plane") == []


def test_scanner_sees_local_and_module_level_imports():
    # the allowed exception is function-local; the oracle imports both routes it builds on
    assert (None, "series", ("_coordinate_arrays", "_to_real", "default_cat_cap")) in package_imports("oracle")
    assert (None, "density", ("branch_weights", "mode_blocks", "per_mode", "shared_alpha", "thermal_levels")) in package_imports("oracle")
    assert ("wigner_values", "series", ("series_values",)) in package_imports("wigner")


def test_package_import_loads_no_reference_route():
    code = "import sys, bellcat; print(' '.join(m for m in sys.modules if m.startswith('bellcat.')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                                check=True).stdout.split())
    assert "bellcat.wigner" in loaded and "bellcat.negativity" in loaded
    assert loaded & {f"bellcat.{name}" for name in REFERENCE} == set()
    assert len(set(bellcat.__all__)) == 26 and all(hasattr(bellcat, name) for name in bellcat.__all__)
