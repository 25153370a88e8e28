"""Python child processes that import this checkout's package.

A child does not inherit pytest's sys.path, so run_python puts the
checkout's src/ first on its PYTHONPATH: the suite then runs from a fresh
checkout with no install and no PYTHONPATH set.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, env=None, text=True):
    """subprocess.run of this interpreter with args, output captured."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, env=env)
