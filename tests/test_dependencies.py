"""NumPy is the package's one runtime dependency: every absolute import
under `src/disagg` names a standard-library module or `numpy`.  SciPy,
pytest and hypothesis are installed for the tests, so nothing else would
catch an accidental import of one of them."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "disagg"


def absolute_imports(tree):
    """Top-level names of the modules each absolute import in `tree` loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_or_numpy():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    foreign = [(path.relative_to(PACKAGE).as_posix(), name) for path in sources
               for name in absolute_imports(ast.parse(path.read_text(), str(path)))
               if name not in sys.stdlib_module_names and name != "numpy"]
    assert not foreign


def test_no_module_imports_the_desk_simulator():
    # `synthworld` writes simulated houses for the tests and the benchmark;
    # the commands and the library never need it.
    importers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(name.rpartition(".")[2] == "synthworld" for name in names):
                importers.append(path.relative_to(PACKAGE).as_posix())
    assert not importers
