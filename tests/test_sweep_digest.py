"""tools/sweep_digest.py: runs end to end and prints its one digest line."""

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_digest.py"


def test_digest_runs_and_prints_one_line():
    # About 4 s: the whole corpus, the fusions and three CLI runs.
    done = subprocess.run([sys.executable, str(_TOOL)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"[0-9a-f]{64}  [1-9]\d* sweeps, [1-9]\d* fusions, 3 cli runs\n", done.stdout)
