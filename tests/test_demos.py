"""The demos print exactly what they printed when their output was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import mnlab
import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# sha256 of each demo's stdout, as "<hex digest>  <file name>" lines
RECORDED = Path(__file__).parent / "data" / "demos.sha256"
DIGESTS = {name: digest for digest, name in
           map(str.split, RECORDED.read_text().splitlines())}


def test_every_demo_is_recorded():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stdout_matches_the_recorded_digest(name):
    env = {**os.environ, "PYTHONPATH": str(Path(mnlab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
