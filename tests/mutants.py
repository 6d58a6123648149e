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
to MUTANTS, except a FAIL guard of checks.py: guard_mutants() derives one
mutant for each of those from the source.
"""

import ast
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
# relative to the repository root.  A listed mutant names the tests that
# kill it, so that its run pays for pytest's start-up and little more.
Mutant = namedtuple("Mutant", "name file old new tests")

ALGEBRA = "tests/test_algebra.py"
ORACLES = "tests/test_table_oracles.py"
RECOVERY = "tests/test_recovery.py"
CHECKS = "tests/test_checks.py"
REWRITING = "tests/test_rewriting.py"
PROPAGATES = ORACLES + (
    "::test_projective_plane_scrambles_are_certified_where_propagation_reaches"
)
LOWEST_TERMS = ORACLES + (
    "::test_solved_scales_are_lowest_terms_ints_that_fit_every_equation"
)

MUTANTS = [
    # IncidenceAlgebra._gen_index and Ideal: keys and masks are exact ints
    Mutant(
        "gen_index_int",
        "algebra.py",
        "if type(key) is not int:",
        "if False:",
        [ALGEBRA + "::test_generator_keys_are_ints_or_pairs"],
    ),
    Mutant(
        "gen_index_int_pair",
        "algebra.py",
        "ints = len(key) == 2 and type(key[0]) is int and type(key[1]) is int",
        "ints = True",
        [ALGEBRA + "::test_generator_keys_are_ints_or_pairs"],
    ),
    Mutant(
        "ideal_mask_int",
        "ideals.py",
        "if type(up_mask) is not int or ",
        "if ",
        ["tests/test_ideals.py::test_masks_must_be_ints"],
    ),
    # MultiplicationTable._place: the guards of placement()
    Mutant(
        "place_missing_index_first",
        "algebra.py",
        "if len(left) < dim or len(right) < dim:",
        "if False:",
        [ALGEBRA + "::test_product_index_never_allocates_per_dim"],
    ),
    Mutant(
        "place_left_fix",
        "algebra.py",
        "if starts[j] is not None or hit != (c, j):",
        "if starts[j] is not None:",
        [ORACLES + "::test_every_one_entry_edit_is_judged_soundly"],
    ),
    Mutant(
        "place_left_once",
        "algebra.py",
        "if starts[j] is not None or hit != (c, j):",
        "if hit != (c, j):",
        [ORACLES + "::test_placement_names_what_failed"],
    ),
    Mutant(
        "place_right_fix",
        "algebra.py",
        "if ends[i] is not None or hit != (c, i):",
        "if ends[i] is not None:",
        [ORACLES + "::test_every_one_entry_edit_is_judged_soundly"],
    ),
    Mutant(
        "place_right_once",
        "algebra.py",
        "if ends[i] is not None or hit != (c, i):",
        "if hit != (c, i):",
        [ORACLES + "::test_placement_names_what_failed"],
    ),
    Mutant(
        "place_unplaced",
        "algebra.py",
        "if None in xy:",
        "if False:",
        [ORACLES + "::test_placement_names_what_failed"],
    ),
    Mutant(
        "place_injective",
        "algebra.py",
        "if at.setdefault(xy, k) != k:",
        "if False:",
        [RECOVERY + "::test_recover_table_places_a_table_once"],
    ),
    Mutant(
        "place_antisymmetric",
        "algebra.py",
        "if x != y and (y, x) in at:",
        "if False:",
        [RECOVERY + "::test_recover_table_places_a_table_once"],
    ),
    Mutant(
        "place_pair_count",
        "algebra.py",
        "if pairs != n:",
        "if False:",
        [RECOVERY + "::test_dropped_composite_table_fits_the_pair_count"],
    ),
    # MultiplicationTable.certified: the three landing tests, the scale equation
    Mutant(
        "certify_composable",
        "algebra.py",
        "ends[i] != starts[j]\n                or",
        "False\n                or",
        [ORACLES + "::test_every_one_entry_edit_is_judged_soundly"],
    ),
    Mutant(
        "certify_start",
        "algebra.py",
        "or starts[k] != starts[i]",
        "or False",
        [ORACLES + "::test_every_one_entry_edit_is_judged_soundly"],
    ),
    Mutant(
        "certify_end",
        "algebra.py",
        "or ends[k] != ends[j]",
        "or False",
        [ORACLES + "::test_every_one_entry_edit_is_judged_soundly"],
    ),
    Mutant(
        "certify_scales",
        "algebra.py",
        "or c.numerator * num[k]",
        "or False and c.numerator * num[k]",
        [ORACLES + "::test_twisted_sphere_table_is_not_certified_but_associative"],
    ),
    # _solve_scales: the spanning forest of covers set to 1
    Mutant(
        "scales_forest_new_tree",
        "algebra.py",
        "if a != b:",
        "if True:",
        [ORACLES + "::test_stalled_scales_are_solved_for"],
    ),
    Mutant(
        "scales_forest_join",
        "algebra.py",
        "root[a] = b",
        "root[a] = a",
        [ORACLES + "::test_stalled_scales_are_solved_for"],
    ),
    # _solve_scales: propagation, its early stop and the learned exponents
    Mutant(
        "scales_propagate_left",
        "algebra.py",
        "for i, (c, k) in left[a].items():",
        "for i, (c, k) in ():",
        [PROPAGATES],
    ),
    Mutant(
        "scales_propagate_landing",
        "algebra.py",
        "for i, j in landing.get(a, ()):",
        "for i, j in ():",
        [PROPAGATES],
    ),
    Mutant(
        "scales_early_stop",
        "algebra.py",
        "while todo and (missing or exponents):",
        "while todo and missing:",
        [LOWEST_TERMS],
    ),
    Mutant(
        "scales_learn_sign",
        "algebra.py",
        "(b, sign)",
        "(b, 1)",
        [ORACLES + "::test_stalled_scales_are_solved_for"],
    ),
    Mutant(
        "scales_store_positive_den",
        "algebra.py",
        "g = gcd(n, d) if d > 0 else -gcd(n, d)",
        "g = gcd(n, d)",
        [LOWEST_TERMS],
    ),
    # _solve_scales: the stall path's pin
    Mutant(
        "scales_settle_pins",
        "algebra.py",
        "elif exponents:",
        "elif False:",
        [ORACLES + "::test_stalled_scales_are_solved_for"],
    ),
    Mutant(
        "scales_pin_unit_power",
        "algebra.py",
        "e[p] in (1, -1)",
        "e[p] == 1",
        [ORACLES + "::test_stalled_scales_are_solved_for"],
    ),
    Mutant(
        "scales_pin_power_sign",
        "algebra.py",
        "sign * power > 0",
        "power > 0",
        [ORACLES + "::test_stalled_scales_are_solved_for"],
    ),
    Mutant(
        "scales_pin_rest_sign",
        "algebra.py",
        "- sign * f * power",
        "+ sign * f * power",
        [ORACLES + "::test_stalled_scales_are_solved_for"],
    ),
    # permuted_rescaled: its guards, the only check on a table it builds
    # unchecked, and the unreduced pair c s_i s_j / s_k
    Mutant(
        "perm_int",
        "algebra.py",
        "if type(p) is not int:",
        "if False:",
        [ALGEBRA + "::test_permuted_rescaled_validation"],
    ),
    Mutant(
        "perm_permutation",
        "algebra.py",
        "if sorted(perm) != list(range(self.dim)):",
        "if False:",
        [ALGEBRA + "::test_permuted_rescaled_validation"],
    ),
    Mutant(
        "scales_length",
        "algebra.py",
        "len(scales) != self.dim or ",
        "",
        [ALGEBRA + "::test_permuted_rescaled_validation"],
    ),
    Mutant(
        "scales_nonzero",
        "algebra.py",
        " or any(not s for s in scales)",
        "",
        [ALGEBRA + "::test_permuted_rescaled_validation"],
    ),
    Mutant(
        "scales_type",
        "algebra.py",
        "if type(s) not in (int, Fraction):",
        "if False:",
        [ALGEBRA + "::test_permuted_rescaled_validation"],
    ),
    Mutant(
        "rescale_den_k",
        "algebra.py",
        "nums[j] * dens[k]",
        "nums[j]",
        [ALGEBRA + "::test_scrambled_corpus_tables_match_the_literal_oracle"],
    ),
    # linalg.ideal_closure: [x,x] multiplies on the left only when it is a
    # generator
    Mutant(
        "closure_diagonal_convention",
        "linalg.py",
        'diagonal = A.convention == "reflexive"',
        "diagonal = True",
        [
            "tests/test_linalg.py"
            "::test_ideal_closure_matches_the_oracle_under_both_conventions"
        ],
    ),
    # checks: the span leg's member test and roundtrip's refusal branch;
    # guard_mutants() turns off each `if ...: return _fail(...)` guard
    Mutant(
        "product_lemma_span_members",
        "checks.py",
        "if J >> b & 1:",
        "if True:",
        [CHECKS + "::test_product_lemma_span_leg_matches_multiply"],
    ),
    Mutant(
        "roundtrip_refusal",
        "checks.py",
        "except PosetAlgebraError as e:",
        "except ArithmeticError as e:",
        [CHECKS + "::test_roundtrip_reports_a_refusal"],
    ),
    # poset._antichain_count: an antichain holding i holds nothing below it
    Mutant(
        "antichain_count_below",
        "poset.py",
        "(above[i] | below[i])",
        "above[i]",
        ["tests/test_poset.py::test_antichain_count_closed_forms"],
    ),
    # rewriting: the 3-letter window first, and the 3-letter rules in dims
    Mutant(
        "reduce_word_window_order",
        "rewriting.py",
        "lhs = tuple(out[-3:])\n        if lhs not in rules:\n            lhs = lhs[-2:]",
        "lhs = tuple(out[-2:])\n        if lhs not in rules:\n            lhs = tuple(out[-3:])",
        [REWRITING + "::test_reduction_strategy_on_systems_with_two_normal_forms"],
    ),
    Mutant(
        "dimension_free3",
        "rewriting.py",
        "iterbits(free[b] & free3[a * n + b])",
        "iterbits(free[b])",
        [REWRITING + "::test_dimension_sequences_chain2"],
    ),
    # recovery: the order read off the placement, the links off landing
    Mutant(
        "ideal_route_off_diagonal",
        "recovery.py",
        "if q != r:",
        "if True:",
        [RECOVERY + "::test_recovery_from_pinned_scramble"],
    ),
    Mutant(
        "link_route_two_products",
        "recovery.py",
        "if len(products) == 2:",
        "if len(products) >= 2:",
        [RECOVERY + "::test_links_on_unscrambled_tables_are_covers"],
    ),
    # recovery: the rows the routes build unchecked
    Mutant(
        "link_route_extension_order",
        "recovery.py",
        "order = sorted(range(n), key=[len(left[q]) for q in qs].__getitem__)",
        "order = range(n)",
        [ORACLES + "::test_routes_build_strict_orders_on_the_twisted_sphere"],
    ),
    Mutant(
        "ideal_route_down_rows",
        "recovery.py",
        "            up[x] |= 1 << y\n            down[y] |= 1 << x\n",
        "            up[x] |= 1 << y\n",
        [RECOVERY + "::test_roundtrip_compares_exactly_not_up_to_isomorphism"],
    ),
]


def src_text(file):
    with open(os.path.join(SRC, "posetalg", file), encoding="utf-8") as fh:
        return fh.read()


def guard_mutants():
    """One mutant per `if ...: return _fail(...)` in checks.py, killed by
    tests/test_checks.py: the whole statement, its condition made False.
    Each is named by its function and its ordinal there, check_bijections#2
    for the second guard of check_bijections."""
    text = src_text("checks.py")
    out = []
    for func in ast.walk(ast.parse(text)):
        if not isinstance(func, ast.FunctionDef):
            continue
        guards = [
            node
            for node in ast.walk(func)
            if isinstance(node, ast.If)
            and any(
                isinstance(s, ast.Return)
                and isinstance(s.value, ast.Call)
                and getattr(s.value.func, "id", None) == "_fail"
                for s in node.body
            )
        ]
        guards.sort(key=lambda node: (node.lineno, node.col_offset))
        for ordinal, node in enumerate(guards, 1):
            old = ast.get_source_segment(text, node)
            test = ast.get_source_segment(text, node.test)
            at = old.index(test, len("if"))
            new = old[:at] + "False" + old[at + len(test):]
            name = "%s#%d" % (func.name, ordinal)
            out.append(Mutant(name, "checks.py", old, new, [CHECKS]))
    return out


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
    return check(MUTANTS + guard_mutants())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
