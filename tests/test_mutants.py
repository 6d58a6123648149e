"""The mutant list of tests/mutants.py against the source it patches."""

import ast
import os

import mutants

ALL = mutants.MUTANTS + mutants.guard_mutants()


def test_each_mutant_patches_text_that_src_holds_once():
    package = os.path.join(mutants.SRC, "posetalg")
    files = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    texts = {f: mutants.src_text(f) for f in files}
    stale = [
        m.name
        for m in ALL
        if m.file not in texts
        or texts[m.file].count(m.old) != 1
        or sum(text.count(m.old) for text in texts.values()) != 1
    ]
    assert stale == []


def test_each_mutant_is_named_once_and_runs_tests_that_exist():
    # a node id names a test function of its file: pytest exits 4 or 5 on
    # one that does not, which --check counts as a survivor
    assert mutants.guard_mutants()
    names = [m.name for m in ALL]
    assert len(names) == len(set(names))
    for m in ALL:
        assert m.tests and m.old != m.new, m.name
        compile(mutants.src_text(m.file).replace(m.old, m.new), m.file, "exec")
        for test in m.tests:
            path, _, func = test.partition("::")
            with open(os.path.join(mutants.ROOT, path), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            defs = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
            func = func.split("[")[0]
            assert not func or func.startswith("test_") and func in defs, (m.name, test)
