"""Golden manifest of posetalg's command-line output.

Runs posetalg.cli.main in process over both check corpora and a few special
tables, and keeps one digest per key: the first 16 hex digits of the sha256
of (exit code, stdout, stderr).  tests/golden_manifest.json holds the
digests; a change that alters any output shows up as changed keys.

    PYTHONPATH=src python tests/golden.py --check        # exit 1 on a change
    PYTHONPATH=src python tests/golden.py --regenerate   # rewrite the manifest

--check needs only the standard library and posetalg, so it runs where
pytest is not installed.  tests/test_golden.py runs the same comparison
one command group at a time.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

from posetalg import (
    IncidenceAlgebra,
    MultiplicationTable,
    Pair,
    chain,
    format_poset,
    poset_from_relations,
    scramble,
)
from posetalg.checks import get_corpus
from posetalg.cli import main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_manifest.json")
CORPUS_NAMES = ("exhaustive4", "random7")


def digest(argv, stdin=""):
    """The digest of running posetalg with argv, reading stdin from text."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse refusals
                code = e.code
    finally:
        sys.stdin = saved
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def corpus_posets():
    """(name, poset) for every poset of both corpora, e.g. exhaustive4/017."""
    for corpus in CORPUS_NAMES:
        for t, P in enumerate(get_corpus(corpus)):
            yield "%s/%03d" % (corpus, t), P


def _poset_command(*argv):
    def runs():
        for name, P in corpus_posets():
            yield name, list(argv) + ["--input", "-"], format_poset(P)
    return runs


def _scramble_command(*argv):
    def runs():
        for name, P in corpus_posets():
            table = IncidenceAlgebra(P, "reflexive").multiplication_table()
            yield name, list(argv), scramble(table, 1).to_json_text()
    return runs


def _corpus_checks():
    for corpus in CORPUS_NAMES:
        yield corpus, ["check", "--corpus", corpus], ""


def _flag_twisted(P, x, y, z, factor):
    """P's reflexive table with the product [x,y][y,z] multiplied by factor."""
    A = IncidenceAlgebra(P, "reflexive")
    entries = dict(A.multiplication_table().entries)
    key = (A.index[Pair(x, y)], A.index[Pair(y, z)])
    c, k = entries[key]
    entries[key] = (c * factor, k)
    return MultiplicationTable(A.dim, entries)


def _sphere():
    """a1,a2 < b1,b2 < c1,c2, the ordinal sum of three 2-antichains: its
    order complex is a 2-sphere."""
    low, mid, high = ("a1", "a2"), ("b1", "b2"), ("c1", "c2")
    relations = [(x, y) for x in low for y in mid]
    relations += [(x, y) for x in mid for y in high]
    return poset_from_relations(low + mid + high, relations)


def special_tables():
    """(name, table) for tables the corpora never produce: refusals, and
    associative tables that are not rescaled incidence tables."""
    one = Fraction(1)
    chain3 = IncidenceAlgebra(chain(3), "reflexive")
    dropped = dict(chain3.multiplication_table().entries)
    del dropped[chain3.index[Pair(0, 1)], chain3.index[Pair(1, 2)]]
    sphere = _sphere()
    a1, b1, c1 = (sphere.index(lab) for lab in ("a1", "b1", "c1"))
    # associative, yet the signs of its eight triangles multiply to -1
    twisted = _flag_twisted(sphere, a1, b1, c1, -1)
    return [
        ("dim0", MultiplicationTable(0, {})),
        ("dim2", MultiplicationTable(2, {(0, 0): (one, 1)})),
        ("irreflexive_chain3",
         IncidenceAlgebra(chain(3), "irreflexive").multiplication_table()),
        ("lone_nilpotent",
         MultiplicationTable(2, {(0, 0): (one, 0), (0, 1): (one, 1), (1, 0): (one, 1)})),
        ("dropped_composite", MultiplicationTable(chain3.dim, dropped)),
        ("nonassociative", MultiplicationTable(2, {(0, 1): (one, 0)})),
        ("c2_group", MultiplicationTable(2, {
            (0, 0): (one, 0), (0, 1): (one, 1), (1, 0): (one, 1), (1, 1): (one, 0),
        })),
        ("quiver_path", MultiplicationTable(5, {
            (0, 0): (one, 0), (1, 1): (one, 1), (2, 2): (one, 2),
            (0, 3): (one, 3), (3, 1): (one, 3), (1, 4): (one, 4), (4, 2): (one, 4),
        })),
        # E11, E22, E12, E21: placed, but E12 and E21 at (0, 1) and (1, 0)
        ("matrix_units", MultiplicationTable(4, {
            (0, 0): (one, 0), (0, 2): (one, 2), (2, 1): (one, 2), (2, 3): (one, 0),
            (1, 1): (one, 1), (1, 3): (one, 3), (3, 0): (one, 3), (3, 2): (one, 1),
        })),
        ("ordinal_sum_222_negated", twisted),
        ("sphere_negated_seed1", scramble(twisted, 1)),
    ]


def _special():
    for name, table in special_tables():
        text = table.to_json_text()
        yield name + " recover", ["recover", "--input", "-"], text
        yield name + " check-table", ["check", "--table", "-"], text


# group -> runs() yielding (item, argv, stdin); a key is "<group> <item>"
GROUPS = {
    "info": _poset_command("info"),
    "ideals": _poset_command("ideals"),
    "export-hasse": _poset_command("export", "hasse"),
    "export-pairs": _poset_command("export", "pairs"),
    "export-table": _poset_command("export", "table"),
    "dims-allow": _poset_command("dims", "--max-degree", "32", "--triples", "allow_repeats"),
    "dims-distinct": _poset_command("dims", "--max-degree", "32", "--triples", "distinct_only"),
    "recover-text": _scramble_command("recover", "--input", "-"),
    "recover-dot": _scramble_command("recover", "--input", "-", "--format", "dot"),
    "check-table": _scramble_command("check", "--table", "-"),
    "check-corpus": _corpus_checks,
    "special": _special,
}


def group_digests(group):
    return {
        "%s %s" % (group, item): digest(argv, stdin)
        for item, argv, stdin in GROUPS[group]()
    }


def load_manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def changed_keys(got, want):
    """Keys whose digest differs, or that only one side has, sorted."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def in_group(manifest, group):
    return {k: v for k, v in manifest.items() if k.split(" ", 1)[0] == group}


def main_script(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    mode.add_argument("--regenerate", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    got = {}
    for group in GROUPS:
        got.update(group_digests(group))
    if args.regenerate:
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=0)
            fh.write("\n")
        print("wrote %d keys to %s" % (len(got), MANIFEST))
        return 0
    changed = changed_keys(got, load_manifest())
    for key in changed:
        print("changed: %s" % key)
    print("%d keys, %d changed" % (len(got), len(changed)))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_script())
