"""The mutant list of tests/mutants.py against the source it patches."""

import ast
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


def test_each_fail_guard_of_the_checks_has_a_mutant():
    # every `if ...: return _fail(...)` in checks.py, from `if` to the end of
    # its condition, lies inside the old text of a listed checks.py mutant
    text = mutants.src_text("checks.py")
    starts = [0]  # the offset of each line, as ast numbers them from 1
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = []
    for m in mutants.MUTANTS:
        if m.file == "checks.py":
            start = text.index(m.old)
            spans.append((start, start + len(m.old)))
    guards = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.If) and any(
            isinstance(s, ast.Return)
            and isinstance(s.value, ast.Call)
            and getattr(s.value.func, "id", None) == "_fail"
            for s in node.body
        ):
            guards.append(
                (
                    starts[node.lineno - 1] + node.col_offset,
                    starts[node.test.end_lineno - 1] + node.test.end_col_offset,
                )
            )
    assert guards
    unlisted = [
        text[start:end]
        for start, end in guards
        if not any(a <= start and end <= b for a, b in spans)
    ]
    assert unlisted == []
