"""The mutant list of tests/mutants.py against the source it patches."""

import os

import mutants


def test_each_mutant_patches_text_that_src_holds_once():
    package = os.path.join(mutants.SRC, "posetalg")
    files = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    texts = {f: mutants.src_text(f) for f in files}
    stale = [
        m.name
        for m in mutants.MUTANTS
        if m.file not in texts
        or texts[m.file].count(m.old) != 1
        or sum(text.count(m.old) for text in texts.values()) != 1
    ]
    assert stale == []


def test_each_mutant_is_named_once_and_runs_tests_that_exist():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        assert m.tests and m.old != m.new, m.name
        for test in m.tests:
            path = test.split("::")[0]
            assert os.path.isfile(os.path.join(mutants.ROOT, path)), (m.name, test)
