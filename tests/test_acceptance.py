"""End-to-end acceptance run.

Each test emits exactly one PASS/FAIL line per criterion; the lines are
replayed in an "acceptance criteria" section after the test summary, where
capture cannot swallow them. The corpus is the exhaustive list of labeled
posets on up to 4 elements plus 100 pinned random posets on up to 7.
"""

import sys
import time
from fractions import Fraction

import _acceptance_log

from posetalg import (
    IncidenceAlgebra,
    Pair,
    build_rewrite_system,
    chain,
    confluence_probe,
    covers,
    dimension_up_to,
    enumerate_ideals,
    ideal_generated_by,
    ideal_product,
    indecomposable_ideals,
    longest_chain_length,
    maximal_indecomposable_ideals,
    principal_ideal,
    recover_by_links,
    recovered_links,
    verify_roundtrip,
    zero_ideal,
)
from posetalg.checks import random_element_lists
from posetalg.oracles import brute_antichain_count, nilpotency_index, subspace_closure
from posetalg.rng import LCG


def report(num, slug, ok, note=""):
    line = "ACCEPTANCE %d %s: %s" % (num, slug, "PASS" if ok else "FAIL")
    if note:
        line += " (%s)" % note
    _acceptance_log.LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_bijection_counts(corpus, corpus_algebras):
    t0 = time.monotonic()
    bad = []
    for P, A in zip(corpus, corpus_algebras):
        if len(indecomposable_ideals(A)) != A.dim:
            bad.append(("indecomposable", P))
        if len(maximal_indecomposable_ideals(A)) != P.n:
            bad.append(("maximal-indecomposable", P))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120
    report(
        1,
        "bijection-counts",
        ok,
        "%d posets, %.1fs" % (len(corpus), elapsed),
    )
    assert ok, bad or "over time budget"


def test_criterion_2_ideals_are_up_sets(corpus, corpus_algebras):
    counted = 0
    bad = []
    for idx, (P, A) in enumerate(zip(corpus, corpus_algebras)):
        G = A.pair_poset()
        if G.size > 12:
            continue
        counted += 1
        enumerated = sum(1 for _ in enumerate_ideals(A, cap=12))
        if enumerated != brute_antichain_count(G.size, G.wider):
            bad.append(("count", P))
        rng = LCG(4000 + idx)
        for elems in random_element_lists(A, rng, 10):
            I = ideal_generated_by(A, elems)
            S = subspace_closure(A, elems)
            if S.dim != I.dimension():
                bad.append(("closure", P))
    ok = not bad
    report(2, "ideal-up-set-equivalence", ok, "%d posets within cap" % counted)
    assert ok, bad


def test_criterion_3_product_and_sum_lemmas(corpus, corpus_algebras):
    bad = []
    for P, A in zip(corpus, corpus_algebras):
        G = A.pair_poset()
        gens = A.generators
        principals = [principal_ideal(A, i) for i in range(A.dim)]
        for i, Pi in enumerate(principals):
            x, y = gens[i]
            for j, Pj in enumerate(principals):
                u, v = gens[j]
                got = ideal_product(Pi, Pj)
                if P.leq(y, u):
                    want = principal_ideal(A, A.index[Pair(x, v)])
                else:
                    want = zero_ideal(A)
                if got != want:
                    bad.append(("formula", P, i, j))
                    continue
                span = set()
                for a in Pi.pair_indices():
                    ga = A.generator(a)
                    for b in Pj.pair_indices():
                        span.update(A.multiply(ga, A.generator(b)).coeffs)
                if span != set(got.pair_indices()):
                    bad.append(("span-oracle", P, i, j))
        if G.size <= 12:
            masks = [I.up_mask for I in enumerate_ideals(A, cap=12)]
            for m1 in masks:
                for m2 in masks:
                    if (m1 | m2) not in masks:
                        bad.append(("sum-closure", P))
            # union of generator sets is the sum's generator set by
            # construction; verify through the Ideal layer on a sample
            ideals = [
                principals[k] for k in range(0, A.dim, max(1, A.dim // 4))
            ]
            for I in ideals:
                for J in ideals:
                    if (I + J).up_mask != I.up_mask | J.up_mask:
                        bad.append(("sum-lemma", P))
    ok = not bad
    report(3, "product-and-sum-lemmas", ok, "%d posets" % len(corpus))
    assert ok, bad[:3]


def test_criterion_4_roundtrip(corpus):
    t0 = time.monotonic()
    bad = []
    for P in corpus:
        rows = verify_roundtrip(P, seeds=(1, 2, 3, 4, 5))
        if not all(r["passed"] for r in rows):
            bad.append(P)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 180
    report(
        4,
        "scramble-roundtrip",
        ok,
        "%d posets x 5 seeds, %.1fs" % (len(corpus), elapsed),
    )
    assert ok, bad or "over time budget"


def test_criterion_5_links_are_covers(corpus, corpus_tables):
    bad = []
    for P, T in zip(corpus, corpus_tables):
        links = set(recovered_links(T))
        if links != {(c.x, c.y) for c in covers(P)}:
            bad.append(("links", P))
        if recover_by_links(T).up != P.up:
            bad.append(("closure", P))
    ok = not bad
    report(5, "link-criterion", ok, "%d posets" % len(corpus))
    assert ok, bad


def _nonzero_idempotent_exists(A):
    # exhaustive search over coefficient vectors in {0, 1, -1}
    values = (Fraction(0), Fraction(1), Fraction(-1))
    total = 3**A.dim
    for code in range(1, total):
        coeffs = {}
        c = code
        for i in range(A.dim):
            c, r = divmod(c, 3)
            if r:
                coeffs[i] = values[r]
        f = A.element(coeffs)
        if f and A.multiply(f, f) == f:
            return True
    return False


def test_criterion_6_convention_dichotomy(corpus, corpus_algebras):
    bad = []
    searched = 0
    for P, A in zip(corpus, corpus_algebras):
        one = A.unit()
        for i in range(A.dim):
            g = A.generator(i)
            if A.multiply(one, g) != g or A.multiply(g, one) != g:
                bad.append(("unit", P))
        N = IncidenceAlgebra(P, "irreflexive")
        if P.n and nilpotency_index(N) != longest_chain_length(P):
            bad.append(("nilpotency", P))
        if N.dim <= 6:
            searched += 1
            if _nonzero_idempotent_exists(N):
                bad.append(("idempotent", P))
    ok = not bad
    report(
        6,
        "convention-dichotomy",
        ok,
        "%d idempotent searches" % searched,
    )
    assert ok, bad


def test_criterion_7_idempotent_ideals(corpus, corpus_algebras):
    bad = []
    for P, A in zip(corpus, corpus_algebras):
        top = {I.up_mask for I in maximal_indecomposable_ideals(A)}
        for I in indecomposable_ideals(A):
            square = ideal_product(I, I)
            nonzero = not square.is_zero
            fixed = square == I
            topmost = I.up_mask in top
            if not (nonzero == fixed == topmost):
                bad.append((P, I))
    ok = not bad
    report(7, "idempotent-ideal-characterization", ok, "%d posets" % len(corpus))
    assert ok, bad


def test_criterion_8_presented_algebra_probe():
    problems = []
    findings = []
    seqs = {}
    for convention in ("allow_repeats", "distinct_only"):
        R = build_rewrite_system(chain(2), convention)
        dims = dimension_up_to(R, 6)
        seqs[convention] = dims
        if len(dims) != 6:
            problems.append("%s: expected 6 degrees" % convention)
        if not all(a <= b for a, b in zip(dims, dims[1:])):
            problems.append("%s: dimensions not monotone %r" % (convention, dims))
        for word, forms in confluence_probe(R):
            findings.append((convention, word, forms))
    # allow_repeats: normal forms a, b, aa, ab, bb, stable from degree 2
    dims = seqs["allow_repeats"]
    if dims != [2, 5, 5, 5, 5, 5] or dims[-1] != dims[-2]:
        problems.append("allow_repeats: expected stable at 5 %r" % (dims,))
    # distinct_only: chain(2) has no three distinct comparable elements, so
    # the only rules are b a -> 0, a b a -> 0 and b a b -> 0.  A word that
    # avoids b a is a^i b^j, which contains neither 3-letter left side, so
    # the normal forms of degree <= d are the a^i b^j with 1 <= i + j <= d,
    # d(d+3)/2 of them: quadratic growth, never stable.
    dims = seqs["distinct_only"]
    want = [d * (d + 3) // 2 for d in range(1, 7)]
    if dims != want or not all(a < b for a, b in zip(dims, dims[1:])):
        problems.append(
            "distinct_only: expected d(d+3)/2 = %r, got %r" % (want, dims)
        )
    for convention, word, forms in findings:
        # strategy-dependent forms are findings to document, not failures
        note = "ACCEPTANCE 8 note: %s word %r reduces to %r" % (
            convention,
            word,
            forms,
        )
        _acceptance_log.LINES.append(note)
        print(note, file=sys.__stdout__, flush=True)
    ok = not problems
    report(
        8,
        "presented-algebra-probe",
        ok,
        "; ".join(problems)
        if problems
        else "allow_repeats stable at 5 from degree 2; distinct_only grows"
        " as d(d+3)/2 (normal forms a^i b^j)",
    )
    assert ok, problems
