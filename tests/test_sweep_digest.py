"""tools/sweep_digest.py: runs end to end and prints the pinned digest line."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_digest.py"
# A change to any sweep output changes this line, and so must change it here.
_DIGEST = "26d55c36175186fcfefd49f34e9221912e01a289a24f6152e41cb77cf9e094bc  600 sweeps, 72 fusions, 3 cli runs\n"


def test_digest_runs_and_prints_one_line():
    # About 4.5 s: the whole corpus, the fusions and three CLI runs.
    done = subprocess.run([sys.executable, str(_TOOL)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout == _DIGEST
