"""Structure checks: declared dependencies and referenced definitions.

``pyproject.toml`` declares no runtime dependencies and CI installs only
the test tools, so importing anything else would work on a developer's
machine and break a clean install.  The first check runs a tiny machine
in a fresh interpreter and checks every top-level module the run loaded.
The same run must not load the campaign fabric either: one machine needs
no process pool, no ``multiprocessing`` and no ``socket``.

The second holds the package to "every mechanism has a caller": each
function and class defined under ``src/`` must be named somewhere
besides its own definition.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Modules loaded before repro (site hooks of the host's Python) are not
# the simulator's doing, so only the difference is reported.  After the
# run, the probe resolves every public name of ``repro.experiments`` and
# reports each one that differs from what its submodule holds under that
# name.
PROBE = """
import importlib, io, json, pkgutil, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import repro
from repro.experiments import RunSpec, build_machine
spec = RunSpec(workload="apache", instructions=300, warmup=0, scale=64,
               torus_width=2, torus_height=2)
result = build_machine(spec).run(spec.instructions, max_cycles=spec.max_cycles)
import repro.cli
cli_exit = repro.cli.main(["run", "--instructions", "300", "--warmup", "0",
                           "--scale", "64", "--torus", "2x2"],
                          out=io.StringIO())
modules = sorted(set(sys.modules) - before)
loaded = {name.split(".")[0] for name in modules}
package = sys.modules["repro.experiments"]
submodules = [importlib.import_module(f"repro.experiments.{info.name}")
              for info in pkgutil.iter_modules(package.__path__)]
mismatched = sorted(
    name for name in package.__all__
    if not any(name in vars(m) for m in submodules)
    or any(vars(m)[name] is not getattr(package, name)
           for m in submodules if name in vars(m)))
print(json.dumps({"completed": result.completed, "cli_exit": cli_exit,
                  "loaded": sorted(loaded), "modules": modules,
                  "mismatched": mismatched}))
"""


@pytest.fixture(scope="module")
def report():
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_simulator_imports_only_the_standard_library(report):
    assert report["completed"] and report["cli_exit"] == 0
    # Dunder names are aliases the interpreter registers (``__mp_main__``).
    foreign = [name for name in report["loaded"]
               if name != "repro" and not name.startswith("__")
               and name not in sys.stdlib_module_names]
    assert not foreign, f"undeclared dependencies imported: {foreign}"


CAMPAIGN_FABRIC = ("multiprocessing", "concurrent", "socket",
                   "repro.experiments.backends", "repro.experiments.journal")


def test_single_run_loads_no_campaign_fabric(report):
    """``repro.experiments`` does not import its backends and journal
    submodules and ``repro.cli`` imports them inside the commands that
    need them, so building and running one machine, directly or with
    ``repro run``, loads none of the fabric; and every public name is
    the object its submodule defines (``aggregate`` is the function, not
    the submodule of that name)."""
    assert report["completed"] and report["cli_exit"] == 0
    fabric = [name for name in report["modules"]
              if name.split(".")[0] in CAMPAIGN_FABRIC
              or name in CAMPAIGN_FABRIC]
    assert not fabric, f"one run loaded the campaign fabric: {fabric}"
    assert not report["mismatched"], report["mismatched"]


# Where a definition may be used.  Package ``__init__.py`` files only
# re-export names, and a re-export is not a use.
REFERENCE_TREES = ("src", "tests", "benchmarks", "examples", "perfbench")
REFERENCE_FILES = ("pyproject.toml", os.path.join(".github", "workflows",
                                                  "ci.yml"))
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(tree):
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith((".", "__")))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_every_src_definition_has_a_reference():
    """A word search, so any mention counts: a name used only in a
    comment or a string passes.  The check catches code nothing names
    at all, which no test, run or command can reach."""
    sites = defaultdict(list)
    for path in _python_files("src"):
        for node in ast.walk(ast.parse(_read(path), path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("__"):
                sites[node.name].append(
                    f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    words = Counter()
    for tree in REFERENCE_TREES:
        for path in _python_files(tree):
            if os.path.basename(path) != "__init__.py":
                words.update(WORD.findall(_read(path)))
    for name in REFERENCE_FILES:
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            words.update(WORD.findall(_read(path)))
    unreferenced = sorted(
        (where[0], name) for name, where in sites.items()
        if words[name] <= len(where))
    assert not unreferenced, "defined under src/ but never referenced:\n" \
        + "\n".join(f"  {name} ({site})" for site, name in unreferenced)
