"""Check that the tests catch a table of named one-line edits (mutants).

Each mutant gives a file of the repository, an exact old text that occurs
once in it, the text that replaces it, and the pytest node ids that should
fail with the edit made. ``python tools/mutants.py [name ...]`` copies
``src/`` and ``tests/`` (with ``pyproject.toml``, for the pytest settings)
into a new temporary directory for each mutant, or for each one named,
makes the edit there and runs its tests with ``-x``. It prints ``killed``
for a mutant whose tests fail and ``SURVIVED`` for one whose tests pass,
and exits 1 if any survived; a run that ends otherwise (no such test, a
collection error) prints the pytest exit code and counts as survived. The
tree itself is never written to.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple


_ZERO = "tests/test_ensemble.py::TestZeroAccumulator"
MUTANTS = {
    # The zero shortcut trusts the rows' lead relevant scores of s alone.
    "zero rule skips its scan of s": Mutant(
        "src/rankfuse/ensemble.py",
        "if s_lead.any() or s.any():",
        "if s_lead.any():",
        (f"{_ZERO}::test_zero_relevant_pairs_over_a_nonzero_block",),
    ),
    # Weights after the first where the zero rule holds keep no band count.
    "zero rule copies no row": Mutant(
        "src/rankfuse/ensemble.py",
        "ranks[i, q] = ranks[0, q]",
        "pass",
        (f"{_ZERO}::test_negative_zero_and_mixed_blocks",),
    ),
    # Only the first weight between two anchors gets the rows' sure counts.
    "between-anchor rows copy nothing": Mutant(
        "src/rankfuse/ensemble.py",
        "ranks[a + 2 : i, q] = ranks[a + 1, q]",
        "pass",
        ("tests/test_ensemble.py::TestAnchorPruning::test_random_inputs_match_per_point_sweep",),
    ),
    # Step 1 keeps the -0.0 that (1 - w) * t leaves from a raw model's -0.0.
    "step 1 folds without + 0.0": Mutant(
        "src/rankfuse/ensemble.py",
        "np.add(np.multiply(1.0 - w, t[lo:hi], out=t[lo:hi]), 0.0, out=t[lo:hi])",
        "np.multiply(1.0 - w, t[lo:hi], out=t[lo:hi])",
        (
            "tests/test_ensemble.py::TestBlockedFusion::test_blocks_cut_unevenly",
            "tests/test_ensemble.py::TestPinnedBytes::test_fusion_bytes_pinned",
        ),
    ),
    # The float32 filter at w = 0 reads the block's s where its t is meant.
    "w = 0 reads ds": Mutant(
        "src/rankfuse/ensemble.py",
        "e = dt if w == 0.0 else ds",
        "e = ds",
        ("tests/test_ensemble.py::TestFloat32Filter::test_grid_ends_read_the_block_or_copy_it_less_the_offset",),
    ),
    # An anchor's "ahead" mask is taken after the offset, as the band count's.
    "masks shared in a block with an offset": Mutant(
        "src/rankfuse/ensemble.py",
        "return _band_ranks(x, g, -g, mask, out)",
        "return _band_ranks(x, g, -g, proof or mask, out)",
        ("tests/test_ensemble.py::TestAnchorPruning::test_anchors_with_an_offset_keep_the_lead_ahead_mask",),
    ),
    # The block walk of the folds, the step-1 scale and both min-max passes
    # leaves out its last partial block.
    "block walk skips its last partial block": Mutant(
        "src/rankfuse/matrix_ops.py",
        "return _row_blocks(shape[0], rows)",
        "return _row_blocks(shape[0] - shape[0] % rows, rows)",
        ("tests/test_ensemble.py::TestBlockedFusion::test_blocks_cut_unevenly",),
    ),
    # The row buffer leaves numpy's ufunc buffer at one row.
    "row buffer not restored": Mutant(
        "src/rankfuse/matrix_ops.py",
        "np.setbufsize(old)",
        "pass",
        (
            "tests/test_matrix_ops.py::TestRowBuffer::test_one_row_never_raised_and_restored_on_error",
            "tests/test_ensemble.py::TestUfuncBuffer::test_sweeps_and_fusion_leave_the_buffer_size",
        ),
    ),
    # write_matrix writes a plain array or nested list unchecked.
    "write_matrix trusts plain input": Mutant(
        "src/rankfuse/io_files.py",
        "_as_matrix(m, str(path))",
        "m",
        ("tests/test_fuzz.py::test_write_matrix_refuses_non_finite_cells_naming_the_path_and_cell",),
    ),
}


def run(name: str, mutant: Mutant) -> int:
    """The pytest exit code of ``mutant``'s tests on an edited copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        target = tmp / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    survived = 0
    for name in names or MUTANTS:
        code = run(name, MUTANTS[name])
        # pytest exits 1 when a test failed, 0 when all passed.
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"SURVIVED (pytest exit {code})"
        survived += code != 1
        print(f"{verdict:<10}  {name}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
