"""tools/code_lines.py: code lines per module and per top-level definition."""

import importlib.util
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
