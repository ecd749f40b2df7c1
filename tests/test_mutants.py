"""The mutant list in `tests/mutants.py` cannot go stale silently."""

import re

import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert occurrences(mutant) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests and mutant.old != mutant.new
    for test in mutant.tests:
        path, *scopes = test.split("[")[0].split("::")
        text = (ROOT / path).read_text()
        for scope in scopes:
            assert re.search(rf"^\s*(def|class) {scope}\b", text, re.M), test


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
