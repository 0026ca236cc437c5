"""numpy is the package's only runtime dependency, start-up loads only
what every command runs, and the package's modules import one another's
public names only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code, cwd):
    # a fresh interpreter: this one may have loaded scipy, the oracle or
    # a process pool for other tests
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy(tmp_path):
    code = "import sys, sparsemkl, sparsemkl.cli; print('scipy' in sys.modules)"
    assert run_fresh(code, tmp_path).strip() == "False"


IMPORT_SET = """
import sys
import sparsemkl.cli

def loaded(prefix):
    return sorted(m for m in sys.modules
                  if m == prefix or m.startswith(prefix + "."))

for prefix in ("concurrent.futures", "multiprocessing", "sparsemkl.oracle",
               "sparsemkl.strata", "scipy"):
    assert not loaded(prefix), loaded(prefix)

import sparsemkl
names = {}
exec("from sparsemkl import *", names)
missing = set(sparsemkl.__all__) - set(names)
assert not missing, missing
assert set(sparsemkl.__all__) <= set(dir(sparsemkl))

import sparsemkl.oracle, sparsemkl.strata
assert sparsemkl.verify_lattice is sparsemkl.strata.verify_lattice
assert sparsemkl.bcd_solve is sparsemkl.oracle.bcd_solve
try:
    sparsemkl.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err), err
else:
    raise AssertionError("an unknown attribute resolved")
print("ok")
"""


def test_cli_import_loads_only_what_every_command_runs(tmp_path):
    # oracle and strata are exported lazily; a process pool is built only
    # for --jobs > 1
    assert run_fresh(IMPORT_SET, tmp_path).strip() == "ok"


def package_imports():
    """Each relative import in the package's modules, as (importer,
    imported module, name); the imported module is '' for ``from .``."""
    found = []
    for path in sorted((ROOT / "src" / "sparsemkl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [(path.stem, node.module or "", alias.name)
                          for alias in node.names]
    return found


def test_modules_meet_through_public_names():
    imports = package_imports()
    assert imports
    private = [(importer, module, name) for importer, module, name in imports
               if name.startswith("_") and not name.endswith("__")]
    assert not private, private


def test_solver_and_support_import_nothing_from_each_other():
    crossing = [
        (importer, module, name)
        for importer, module, name in package_imports()
        if {importer, module or name} == {"solver", "support"}
    ]
    assert not crossing, crossing
