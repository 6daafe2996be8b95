"""Declared dependencies: the simulator runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies and CI installs only
the test tools, so importing anything else would work on a developer's
machine and break a clean install.  This runs a tiny machine in a fresh
interpreter and checks every top-level module the run loaded.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

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
