"""Named text mutants of src/posetalg, each with the tests that must kill it.

A mutant replaces one exact piece of text in one source file.  --check
copies src/ to a temporary directory once per mutant, applies the mutant
there and runs the mutant's tests against the copy; the mutant is killed
when they fail.  Before any mutant it runs every listed test on the
unmutated src/, so a kill is never a test that fails anyway.

    python tests/mutants.py --check     # exit 1 if any mutant survives

The script needs only the standard library; the tests it runs need pytest
and hypothesis, as Tier-1 does.  tests/test_mutants.py checks in Tier-1 that
each old text occurs exactly once in src/, so a refactor that moves a guard
must bring its mutant along.  A guard added to src/ should add its mutant
here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")

# file is relative to src/posetalg; tests are pytest node ids or files,
# relative to the repository root
Mutant = namedtuple("Mutant", "name file old new tests")

ALGEBRA = "tests/test_algebra.py"
ORACLES = "tests/test_table_oracles.py"
RECOVERY = "tests/test_recovery.py"
CHECKS = "tests/test_checks.py"
REWRITING = "tests/test_rewriting.py"

MUTANTS = [
    # IncidenceAlgebra._gen_index and Ideal: keys and masks are exact ints
    Mutant(
        "gen_index_int",
        "algebra.py",
        "if type(key) is not int:",
        "if False:",
        [ALGEBRA],
    ),
    Mutant(
        "gen_index_int_pair",
        "algebra.py",
        "ints = len(key) == 2 and type(key[0]) is int and type(key[1]) is int",
        "ints = True",
        [ALGEBRA],
    ),
    Mutant(
        "ideal_mask_int",
        "ideals.py",
        "if type(up_mask) is not int or ",
        "if ",
        ["tests/test_ideals.py"],
    ),
    # MultiplicationTable._place: the guards of placement()
    Mutant(
        "place_missing_index_first",
        "algebra.py",
        "if len(left) < dim or len(right) < dim:",
        "if False:",
        [ALGEBRA, "tests/test_cli.py"],
    ),
    Mutant(
        "place_left_fix",
        "algebra.py",
        "if starts[j] is not None or hit != (c, j):",
        "if starts[j] is not None:",
        [ORACLES],
    ),
    Mutant(
        "place_left_once",
        "algebra.py",
        "if starts[j] is not None or hit != (c, j):",
        "if hit != (c, j):",
        [ORACLES],
    ),
    Mutant(
        "place_right_fix",
        "algebra.py",
        "if ends[i] is not None or hit != (c, i):",
        "if ends[i] is not None:",
        [ORACLES],
    ),
    Mutant(
        "place_right_once",
        "algebra.py",
        "if ends[i] is not None or hit != (c, i):",
        "if hit != (c, i):",
        [ORACLES],
    ),
    Mutant(
        "place_unplaced",
        "algebra.py",
        "if None in xy:",
        "if False:",
        [ORACLES],
    ),
    Mutant(
        "place_injective",
        "algebra.py",
        "if at.setdefault(xy, k) != k:",
        "if False:",
        [RECOVERY],
    ),
    Mutant(
        "place_antisymmetric",
        "algebra.py",
        "if x != y and (y, x) in at:",
        "if False:",
        [RECOVERY],
    ),
    Mutant(
        "place_pair_count",
        "algebra.py",
        "if pairs != n:",
        "if False:",
        [RECOVERY],
    ),
    # MultiplicationTable.certified: the three landing tests, the scale equation
    Mutant(
        "certify_composable",
        "algebra.py",
        "ends[i] != starts[j]\n                or",
        "False\n                or",
        [ORACLES],
    ),
    Mutant(
        "certify_start",
        "algebra.py",
        "or starts[k] != starts[i]",
        "or False",
        [ORACLES],
    ),
    Mutant(
        "certify_end",
        "algebra.py",
        "or ends[k] != ends[j]",
        "or False",
        [ORACLES],
    ),
    Mutant(
        "certify_scales",
        "algebra.py",
        "or c.numerator * num[k]",
        "or False and c.numerator * num[k]",
        [ORACLES],
    ),
    # _solve_scales: the spanning forest of covers set to 1
    Mutant(
        "scales_forest_new_tree",
        "algebra.py",
        "if a != b:",
        "if True:",
        [ORACLES],
    ),
    Mutant(
        "scales_forest_join",
        "algebra.py",
        "root[a] = b",
        "root[a] = a",
        [ORACLES],
    ),
    # _solve_scales: propagation, its early stop and the learned exponents
    Mutant(
        "scales_propagate_left",
        "algebra.py",
        "for i, (c, k) in left[a].items():",
        "for i, (c, k) in ():",
        [ORACLES],
    ),
    Mutant(
        "scales_propagate_landing",
        "algebra.py",
        "for i, j in landing.get(a, ()):",
        "for i, j in ():",
        [ORACLES],
    ),
    Mutant(
        "scales_early_stop",
        "algebra.py",
        "while todo and (missing or exponents):",
        "while todo and missing:",
        [ORACLES],
    ),
    Mutant(
        "scales_learn_sign",
        "algebra.py",
        "(b, sign)",
        "(b, 1)",
        [ORACLES],
    ),
    Mutant(
        "scales_store_positive_den",
        "algebra.py",
        "g = gcd(n, d) if d > 0 else -gcd(n, d)",
        "g = gcd(n, d)",
        [ORACLES],
    ),
    # _solve_scales: the stall path's pin
    Mutant(
        "scales_settle_pins",
        "algebra.py",
        "elif exponents:",
        "elif False:",
        [ORACLES],
    ),
    Mutant(
        "scales_pin_unit_power",
        "algebra.py",
        "e[p] in (1, -1)",
        "e[p] == 1",
        [ORACLES],
    ),
    Mutant(
        "scales_pin_power_sign",
        "algebra.py",
        "sign * power > 0",
        "power > 0",
        [ORACLES],
    ),
    Mutant(
        "scales_pin_rest_sign",
        "algebra.py",
        "- sign * f * power",
        "+ sign * f * power",
        [ORACLES],
    ),
    # permuted_rescaled: its guards, the only check on a table it builds
    # unchecked, and the unreduced pair c s_i s_j / s_k
    Mutant(
        "perm_int",
        "algebra.py",
        "if type(p) is not int:",
        "if False:",
        [ALGEBRA],
    ),
    Mutant(
        "perm_permutation",
        "algebra.py",
        "if sorted(perm) != list(range(self.dim)):",
        "if False:",
        [ALGEBRA],
    ),
    Mutant(
        "scales_length",
        "algebra.py",
        "len(scales) != self.dim or ",
        "",
        [ALGEBRA],
    ),
    Mutant(
        "scales_nonzero",
        "algebra.py",
        " or any(not s for s in scales)",
        "",
        [ALGEBRA],
    ),
    Mutant(
        "scales_type",
        "algebra.py",
        "if type(s) not in (int, Fraction):",
        "if False:",
        [ALGEBRA],
    ),
    Mutant(
        "rescale_den_k",
        "algebra.py",
        "nums[j] * dens[k]",
        "nums[j]",
        [ALGEBRA],
    ),
    # linalg.ideal_closure: [x,x] multiplies on the left only when it is a
    # generator
    Mutant(
        "closure_diagonal_convention",
        "linalg.py",
        'diagonal = A.convention == "reflexive"',
        "diagonal = True",
        ["tests/test_linalg.py"],
    ),
    # checks: every `if ...: return _fail(...)` guard, turned off
    # (tests/test_mutants.py holds the list to that), and the span leg's
    # member test and roundtrip's refusal branch
    Mutant(
        "pair_minimals",
        "checks.py",
        "if minimal != list(range(P.n)):",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "ideal_count",
        "checks.py",
        'if got != want:\n        return _fail("ideal_count"',
        'if False:\n        return _fail("ideal_count"',
        [CHECKS],
    ),
    Mutant(
        "closure_listed",
        "checks.py",
        "if op(m1, m2) not in listed:\n                return _fail(name",
        "if False:\n                return _fail(name",
        [CHECKS],
    ),
    Mutant(
        "product_lemma_closed_form",
        "checks.py",
        "if got != want:\n"
        "                return _fail(\n"
        '                    "product_lemma"',
        "if False:\n"
        "                return _fail(\n"
        '                    "product_lemma"',
        [CHECKS],
    ),
    Mutant(
        "product_lemma_span",
        "checks.py",
        "if span != got.up_mask:",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "product_in_intersection",
        "checks.py",
        "if prod.up_mask & ~(Pi.up_mask & Pj.up_mask):",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "bijections_collide",
        "checks.py",
        "if len(set(I.up_mask for I in indec)) != G.size:",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "bijections_indecomposable",
        "checks.py",
        "if not is_indecomposable(I):",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "idempotence",
        "checks.py",
        "if not (nonzero == fixed == topmost):",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "maximality_proper_ideal_leg",
        "checks.py",
        "if I.up_mask != full:",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "diagonal_products",
        "checks.py",
        "if got != want:\n"
        "                return _fail(\n"
        '                    "diagonal_products"',
        "if False:\n"
        "                return _fail(\n"
        '                    "diagonal_products"',
        [CHECKS],
    ),
    Mutant(
        "span_corollary_rank",
        "checks.py",
        "if S.dim != I.dimension():",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "span_corollary_support",
        "checks.py",
        "if not I.up_mask >> i & 1:",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "quasi_idempotents",
        "checks.py",
        "if qs != list(range(P.n)):",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "links_are_covers_links",
        "checks.py",
        'if got != want:\n        return _fail("links_are_covers"',
        'if False:\n        return _fail("links_are_covers"',
        [CHECKS],
    ),
    Mutant(
        "links_are_covers_closure",
        "checks.py",
        "if closed.up != P.up:",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "unscrambled_recovery",
        "checks.py",
        "if via.up != P.up:",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "scramble_identity",
        "checks.py",
        "if same != table:",
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "roundtrip_seed",
        "checks.py",
        'if not r["passed"]:',
        "if False:",
        [CHECKS],
    ),
    Mutant(
        "product_lemma_span_members",
        "checks.py",
        "if J >> b & 1:",
        "if True:",
        [CHECKS],
    ),
    Mutant(
        "roundtrip_refusal",
        "checks.py",
        "except PosetAlgebraError as e:",
        "except ArithmeticError as e:",
        [CHECKS],
    ),
    # poset._antichain_count: an antichain holding i holds nothing below it
    Mutant(
        "antichain_count_below",
        "poset.py",
        "(above[i] | below[i])",
        "above[i]",
        ["tests/test_poset.py"],
    ),
    # rewriting: the 3-letter window first, and the 3-letter rules in dims
    Mutant(
        "reduce_word_window_order",
        "rewriting.py",
        "lhs = tuple(out[-3:])\n        if lhs not in rules:\n            lhs = lhs[-2:]",
        "lhs = tuple(out[-2:])\n        if lhs not in rules:\n            lhs = tuple(out[-3:])",
        [REWRITING],
    ),
    Mutant(
        "dimension_free3",
        "rewriting.py",
        "iterbits(free[b] & free3[a * n + b])",
        "iterbits(free[b])",
        [REWRITING],
    ),
    # recovery: the order read off the placement, the links off landing
    Mutant(
        "ideal_route_off_diagonal",
        "recovery.py",
        "if q != r:",
        "if True:",
        [RECOVERY, ORACLES],
    ),
    Mutant(
        "link_route_two_products",
        "recovery.py",
        "if len(products) == 2:",
        "if len(products) >= 2:",
        [RECOVERY, ORACLES],
    ),
    # recovery: the rows the routes build unchecked
    Mutant(
        "link_route_extension_order",
        "recovery.py",
        "order = sorted(range(n), key=[len(left[q]) for q in qs].__getitem__)",
        "order = range(n)",
        [RECOVERY, ORACLES],
    ),
    Mutant(
        "ideal_route_down_rows",
        "recovery.py",
        "            up[x] |= 1 << y\n            down[y] |= 1 << x\n",
        "            up[x] |= 1 << y\n",
        [RECOVERY, ORACLES],
    ),
]


def src_text(file):
    with open(os.path.join(SRC, "posetalg", file), encoding="utf-8") as fh:
        return fh.read()


def run_tests(src, tests):
    """pytest's exit code for tests run against the package under src."""
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def run_mutant(m, scratch):
    """pytest's exit code for m's tests against a copy of src/ with m applied."""
    copy = os.path.join(scratch, m.name)
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(copy, "posetalg", m.file)
    text = src_text(m.file)
    if text.count(m.old) != 1:
        raise SystemExit("mutant %s: its old text is not in %s once" % (m.name, m.file))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(m.old, m.new))
    try:
        return run_tests(copy, m.tests)
    finally:
        shutil.rmtree(copy)


def check(mutants):
    tests = sorted({t for m in mutants for t in m.tests})
    if run_tests(SRC, tests) != 0:
        print("the unmutated source fails its own tests: %s" % " ".join(tests))
        return 1
    survived = 0
    with tempfile.TemporaryDirectory(prefix="posetalg-mutants-") as scratch:
        for m in mutants:
            code = run_mutant(m, scratch)
            # pytest exits 1 when a test failed; anything else is no kill
            verdict = "killed" if code == 1 else "SURVIVED (pytest exit %d)" % code
            survived += code != 1
            print("mutant %s: %s" % (m.name, verdict), flush=True)
    print("summary: %d mutants, %d survived" % (len(mutants), survived))
    return 1 if survived else 0


def main(argv):
    if argv != ["--check"]:
        raise SystemExit("usage: python tests/mutants.py --check")
    return check(MUTANTS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
