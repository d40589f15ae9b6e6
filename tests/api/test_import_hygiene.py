"""The package runs on the standard library alone."""

import json
import os
import subprocess
import sys

# Modules loaded before the import (interpreter start-up, site hooks) are
# the environment's, not the package's.
PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.api
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_repro_loads_only_the_standard_library():
    # A fresh interpreter, so modules the test runner itself loaded
    # (pytest, hypothesis, ...) do not count.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c", PROBE], check=True, capture_output=True,
        text=True, env=env).stdout)
    third_party = [name for name in loaded
                   if name not in sys.stdlib_module_names and name != "repro"]
    assert third_party == []
    assert "networkx" not in loaded
    assert "multiprocessing" not in loaded
