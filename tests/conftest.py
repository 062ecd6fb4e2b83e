import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fragcov


@pytest.fixture()
def fresh_python():
    """Run a script (with optional argv) in a fresh interpreter on the
    fragcov under test and return the JSON object it prints last."""
    src = str(Path(fragcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(script: str, *args: str) -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return run
