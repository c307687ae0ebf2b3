"""The kept mutants still aim at the code: each source text occurs
exactly once, and each names tests that exist."""

from __future__ import annotations

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_source_occurs_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text()
        assert text.count(m.source) == 1, f"{m.name}: source text found {text.count(m.source)} times"
        assert m.replacement != m.source, m.name


def test_each_mutant_names_existing_tests():
    for m in MUTANTS:
        assert m.tests, f"{m.name} names no test"
        for test in m.tests:
            path, name = test.split("::")
            function = re.sub(r"\[.*\]$", "", name)
            assert re.search(rf"^def {function}\(", (ROOT / path).read_text(), re.MULTILINE), test
