"""tools/code_lines.py: code lines per module and per top-level definition."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_FIXTURE = '''"""Module docstring."""

import functools


@functools.lru_cache(maxsize=None)
def cached(x):
    """A docstring of
    two lines."""
    # A comment line.
    return (x +
            1)


class Box:
    """Only a docstring and one method."""

    def get(self):
        return 1
'''


def test_definition_lines_count_decorators_and_skip_docstrings(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(_FIXTURE, encoding="utf-8")
    # cached: decorator, def, and the two lines of its return; Box: class and
    # the two lines of get. The import is code outside any definition.
    assert code_lines.definition_lines(path) == {"cached": 4, "Box": 3}
    assert code_lines.code_lines(path) == 8


def test_closed_pipe_ends_the_listing_without_a_traceback(tmp_path):
    # More definitions than a pipe buffers, so the tool is still writing
    # when the reader closes its end.
    body = "".join(f"def f{i}():\n    return {i}\n\n\n" for i in range(5000))
    (tmp_path / "many.py").write_text(body, encoding="utf-8")
    with subprocess.Popen(
        [sys.executable, str(_TOOL), str(tmp_path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline().split() == [b"10000", b"many.py"]
        proc.stdout.close()
        err = proc.stderr.read()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
