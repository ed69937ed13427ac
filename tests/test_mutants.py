"""tools/mutants.py: every edit in its table still applies to the tree, and names real tests.

No mutant is run here; ``python tools/mutants.py`` runs them.
"""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_old_text_occurs_once(name):
    mutant = mutants.MUTANTS[name]
    text = (_ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_tests_name_existing_definitions(name):
    tests = mutants.MUTANTS[name].tests
    assert tests
    for node in tests:
        path, *names = node.split("::")
        source = (_ROOT / path).read_text(encoding="utf-8")
        for part in names:
            assert f"class {part}" in source or f"def {part}(" in source, node
