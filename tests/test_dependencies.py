"""NumPy is the package's one runtime dependency: every absolute import
under `src/disagg` names a standard-library module or `numpy`.  SciPy,
pytest and hypothesis are installed for the tests, so nothing else would
catch an accidental import of one of them."""

import ast
import subprocess
import sys
from pathlib import Path

from test_cli import cli_env, world_config

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


def test_extract_and_fhmm_leave_numpy_ma_unimported(tmp_path):
    # `np.unique` and `np.quantile` import `numpy.ma` on their first call,
    # about 16 ms and 1.4 MB of a command's peak.  A child process, since
    # the test runner has imported it already.
    path = world_config(tmp_path)
    script = ("import sys\n"
              "from disagg.cli import main\n"
              "for argv in (['extract'], ['disaggregate', '--appliance', 'kettle',\n"
              "                           '--baseline', 'fhmm']):\n"
              "    assert main([*argv, '--config', sys.argv[1]]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    child = subprocess.run([sys.executable, "-c", script, str(path)], env=cli_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "False"
