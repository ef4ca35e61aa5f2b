"""The mutant table in tests/mutants.py still matches the source it mutates."""

import re

from mutants import MUTANTS, PACKAGE, ROOT


def test_every_snippet_occurs_once_in_its_module():
    for m in MUTANTS:
        source = (ROOT / PACKAGE / m.module).read_text(encoding="utf-8")
        assert source.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name


def test_every_killer_names_a_test():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.killers, m.name
        for node in m.killers:
            path, name = node.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", source, re.M), node
