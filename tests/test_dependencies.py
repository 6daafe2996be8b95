"""Structure checks: declared dependencies and referenced definitions.

``pyproject.toml`` declares no runtime dependencies and CI installs only
the test tools, so importing anything else would work on a developer's
machine and break a clean install.  The first check runs a tiny machine
in a fresh interpreter and checks every top-level module the run loaded.

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
# the simulator's doing, so only the difference is reported.
PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import repro
from repro.experiments import RunSpec, build_machine
spec = RunSpec(workload="apache", instructions=300, warmup=0, scale=64,
               torus_width=2, torus_height=2)
result = build_machine(spec).run(spec.instructions, max_cycles=spec.max_cycles)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"completed": result.completed, "loaded": sorted(loaded)}))
"""


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_simulator_imports_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["completed"]
    # Dunder names are aliases the interpreter registers (``__mp_main__``).
    foreign = [name for name in report["loaded"]
               if name != "repro" and not name.startswith("__")
               and name not in sys.stdlib_module_names]
    assert not foreign, f"undeclared dependencies imported: {foreign}"


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
