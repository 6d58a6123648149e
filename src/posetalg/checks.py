"""Invariant suite over posets and tables, plus the built-in corpora.

Each check compares a fast structural computation against a stated closed
form, a brute-force count or an exact linear-algebra closure (linalg.py),
and returns a CheckResult rather than asserting, so `posetalg check` can
aggregate over a corpus and print witnesses.
"""

from fractions import Fraction
from operator import and_, or_
from typing import NamedTuple

from .algebra import IncidenceAlgebra
from .errors import (
    NoPosetBehindTable,
    NotAssociative,
    PosetAlgebraError,
    SizeLimitExceeded,
)
from .ideals import (
    enumerate_ideals,
    ideal_generated_by,
    ideal_product,
    indecomposable_ideals,
    is_indecomposable,
    maximal_ideals,
    maximal_indecomposable_ideals,
    principal_ideal,
    zero_ideal,
)
from .linalg import ideal_closure
from .oracles import brute_antichain_count
from .poset import all_labeled_posets, covers, random_poset
from .recovery import (
    quasi_idempotents,
    recover_by_ideal_products,
    recover_by_links,
    recover_table,
    recovered_links,
    verify_roundtrip,
)
from .rng import LCG


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    skipped: bool = False


def _ok(name, detail=""):
    return CheckResult(name, True, detail)


def _fail(name, detail):
    return CheckResult(name, False, detail)


def _skip(name, detail):
    return CheckResult(name, True, detail, skipped=True)


# ---------------------------------------------------------------------------
# corpora


def corpus_exhaustive4():
    """Every labeled poset on up to 4 elements (243 posets)."""
    out = []
    for n in range(5):
        out.extend(all_labeled_posets(n))
    return out


def corpus_random7():
    """100 seeded random posets, sizes cycling 1..7, edge probability 0.3."""
    return [random_poset((i % 7) + 1, 0.3, 1000 + i) for i in range(100)]


CORPORA = {
    "exhaustive4": corpus_exhaustive4,
    "random7": corpus_random7,
}


def get_corpus(name):
    try:
        return CORPORA[name]()
    except KeyError:
        raise ValueError(
            "unknown corpus %r (have: %s)" % (name, ", ".join(sorted(CORPORA)))
        ) from None


# ---------------------------------------------------------------------------
# random elements, pinned to the package LCG

_COEFFS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
)


def random_element(A, rng):
    coeffs = {}
    for _ in range(1 + rng.next_below(3)):
        coeffs[rng.next_below(A.dim)] = _COEFFS[rng.next_below(len(_COEFFS))]
    return A.element(coeffs)


def random_element_lists(A, rng, n_lists):
    if A.dim == 0:
        return [[] for _ in range(n_lists)]
    return [
        [random_element(A, rng) for _ in range(1 + rng.next_below(2))]
        for _ in range(n_lists)
    ]


# ---------------------------------------------------------------------------
# per-poset checks (reflexive-convention algebra throughout)


def check_pair_minimals(P, A):
    G = A.pair_poset()
    minimal = G.minimal_of((1 << G.size) - 1)
    if minimal != list(range(P.n)):
        return _fail("pair_minimals", "%r minimal pair indices %r" % (P, minimal))
    return _ok("pair_minimals")


def check_ideal_count(P, A, enum_cap):
    G = A.pair_poset()
    if G.size > enum_cap:
        return _skip("ideal_count", "%d pairs over cap" % G.size)
    try:
        want = brute_antichain_count(G.size, G.wider)
    except SizeLimitExceeded as e:
        return _skip("ideal_count", str(e))
    got = sum(1 for _ in enumerate_ideals(A, cap=enum_cap))
    if got != want:
        return _fail("ideal_count", "%r enumerated %d, antichains %d" % (P, got, want))
    return _ok("ideal_count")


def _closure(name, P, A, enum_cap, op, basis):
    """Fail unless op(m, b) is listed for every listed ideal mask m and every
    mask b of basis: the principal up-sets for |, the co-principal masks
    (all pairs but the principal down-set of one) for &.

    For up-sets this is closure under op, in O(ideals x pairs) rather than
    O(ideals^2).  Every up-set U is the union of the principal up-sets of
    its pairs, and the intersection of the co-principal masks of the pairs
    it misses, since U holds nothing below a pair it misses.  So m | U,
    resp. m & U, is reached from m one basis mask at a time, and each step
    lands on a listed mask when this check passes.  Conversely, a family
    closed under op passes once it lists the basis masks, which are up-sets
    and so among all ideals."""
    G = A.pair_poset()
    if G.size > enum_cap:
        return _skip(name, "%d pairs over cap" % G.size)
    masks = [I.up_mask for I in enumerate_ideals(A, cap=enum_cap)]
    listed = set(masks)
    for m1 in masks:
        for m2 in basis:
            if op(m1, m2) not in listed:
                return _fail(name, "%r masks %d,%d" % (P, m1, m2))
    return _ok(name)


def check_sum_lemma(P, A, enum_cap):
    """The sum lemma: I + J of two ideals is the ideal on the union of their
    up-sets, so the OR of any two listed masks is listed."""
    G = A.pair_poset()
    principal = [G.principal_up(i) for i in range(G.size)]
    return _closure("sum_lemma", P, A, enum_cap, or_, principal)


def check_intersection_is_meet(P, A, enum_cap):
    """The meet lemma: I n J of two ideals is the ideal on the intersection
    of their up-sets, so the AND of any two listed masks is listed."""
    G = A.pair_poset()
    full = (1 << G.size) - 1
    coprincipal = [full & ~((1 << i) | G.narrower[i]) for i in range(G.size)]
    return _closure("intersection_meet", P, A, enum_cap, and_, coprincipal)


def check_product_lemma(P, A):
    """Principal products follow the closed form and match the support of
    the product of the generator sums."""
    G = A.pair_poset()
    gens = A.generators
    principals = indecomposable_ideals(A)
    # every coefficient of a product of coefficient-1 sums counts the
    # generator pairs landing there, so none cancels and its support is the
    # span of all pairwise generator products
    sums = [A.element({a: 1 for a in Pi.pair_indices()}) for Pi in principals]
    zero = zero_ideal(A)
    for i, Pi in enumerate(principals):
        x, y = gens[i]
        for j, Pj in enumerate(principals):
            u, v = gens[j]
            got = ideal_product(Pi, Pj)
            want = principals[A.index[x, v]] if P.leq(y, u) else zero
            if got != want:
                return _fail(
                    "product_lemma",
                    "%r pairs %s,%s got %r want %r"
                    % (P, G.pair_label(i), G.pair_label(j), got, want),
                )
            if A.multiply(sums[i], sums[j]).support() != got.pair_indices():
                return _fail(
                    "product_lemma",
                    "%r span oracle disagrees at %s,%s"
                    % (P, G.pair_label(i), G.pair_label(j)),
                )
    return _ok("product_lemma")


def check_product_in_intersection(P, A):
    principals = indecomposable_ideals(A)
    for i, Pi in enumerate(principals):
        for j, Pj in enumerate(principals):
            prod = ideal_product(Pi, Pj)
            if prod.up_mask & ~(Pi.up_mask & Pj.up_mask):
                return _fail(
                    "product_in_intersection", "%r pair indices %d,%d" % (P, i, j)
                )
    return _ok("product_in_intersection")


def check_bijections(P, A):
    G = A.pair_poset()
    indec = indecomposable_ideals(A)
    if len(indec) != G.size:
        return _fail("bijections", "%r indecomposable count %d" % (P, len(indec)))
    if len(set(I.up_mask for I in indec)) != G.size:
        return _fail("bijections", "%r principal ideals collide" % (P,))
    for I in indec:
        if not is_indecomposable(I):
            return _fail("bijections", "%r principal not indecomposable %r" % (P, I))
    maxind = maximal_indecomposable_ideals(A)
    if len(maxind) != P.n:
        return _fail("bijections", "%r maximal indecomposable count" % (P,))
    if len(maximal_ideals(A)) != P.n:
        return _fail("bijections", "%r maximal ideal count" % (P,))
    if is_indecomposable(zero_ideal(A)):
        return _fail("bijections", "%r zero ideal counted indecomposable" % (P,))
    return _ok("bijections")


def check_idempotence(P, A):
    """Among indecomposables: II != 0 iff II = I iff I is a diagonal
    principal."""
    diag_masks = set(I.up_mask for I in maximal_indecomposable_ideals(A))
    for I in indecomposable_ideals(A):
        square = ideal_product(I, I)
        nonzero = not square.is_zero
        fixed = square == I
        topmost = I.up_mask in diag_masks
        if not (nonzero == fixed == topmost):
            return _fail(
                "idempotence",
                "%r ideal %r nonzero=%s fixed=%s diagonal=%s"
                % (P, I, nonzero, fixed, topmost),
            )
    return _ok("idempotence")


def check_maximality(P, A, enum_cap):
    """Each maximal ideal drops one diagonal pair, and every proper
    enumerated ideal lies inside one of them."""
    G = A.pair_poset()
    full = (1 << A.dim) - 1
    max_masks = [M.up_mask for M in maximal_ideals(A)]
    for m in max_masks:
        missing = full & ~m
        if missing.bit_count() != 1:
            return _fail("maximality", "%r complement not a single pair" % (P,))
        i = missing.bit_length() - 1
        if A.generators[i].x != A.generators[i].y:
            return _fail("maximality", "%r missing pair not diagonal" % (P,))
    if G.size <= enum_cap:
        for I in enumerate_ideals(A, cap=enum_cap):
            if I.up_mask != full and all(I.up_mask & ~m for m in max_masks):
                return _fail("maximality", "%r ideal %r in no maximal ideal" % (P, I))
    return _ok("maximality")


def check_diagonal_products(P, A):
    """I_x * I_y is the principal ideal of (x, y) when x <= y, else zero."""
    maxind = maximal_indecomposable_ideals(A)
    zero = zero_ideal(A)
    for x in range(P.n):
        for y in range(P.n):
            got = ideal_product(maxind[x], maxind[y])
            want = principal_ideal(A, A.index[x, y]) if P.leq(x, y) else zero
            if got != want:
                return _fail(
                    "diagonal_products",
                    "%r elements %s,%s" % (P, P.labels[x], P.labels[y]),
                )
    return _ok("diagonal_products")


def check_span_corollary(P, A, rng, n_lists):
    """The ideal generated by some elements is the span of the generators
    of the up-closure I of their supports.  The closure S of the elements
    passes when its rank is |I| and every basis row lies inside I: then S is
    a subspace of span(I) of the same dimension, so S = span(I), which is
    the same as every generator of I lying in S."""
    for elems in random_element_lists(A, rng, n_lists):
        I = ideal_generated_by(A, elems)
        S = ideal_closure(A, elems)
        if S.dim != I.dimension():
            return _fail(
                "span_corollary",
                "%r closure dim %d vs up-set size %d" % (P, S.dim, I.dimension()),
            )
        for row in S.rows.values():
            for i in row:
                if not I.up_mask >> i & 1:
                    return _fail(
                        "span_corollary",
                        "%r closure holds pair %s outside the up-set"
                        % (P, A.pair_poset().pair_label(i)),
                    )
    return _ok("span_corollary")


def check_quasi_idempotents(P, table):
    qs = quasi_idempotents(table)
    if qs != list(range(P.n)):
        return _fail("quasi_idempotents", "%r got %r" % (P, qs))
    return _ok("quasi_idempotents")


def check_links_are_covers(P, table):
    got = set(recovered_links(table))
    want = set((p.x, p.y) for p in covers(P))
    if got != want:
        return _fail("links_are_covers", "%r links %r covers %r" % (P, got, want))
    closed = recover_by_links(table)
    if closed.up != P.up:
        return _fail("links_are_covers", "%r closure differs from strict order" % (P,))
    return _ok("links_are_covers")


def check_unscrambled_recovery(P, table):
    via = recover_by_ideal_products(table)
    if via.up != P.up:
        return _fail("unscrambled_recovery", "%r ideal-product order differs" % (P,))
    return _ok("unscrambled_recovery")


def check_scramble_identity(P, table):
    same = table.permuted_rescaled(
        list(range(table.dim)), [Fraction(1)] * table.dim
    )
    if same != table:
        return _fail("scramble_identity", "%r identity scramble changed table" % (P,))
    return _ok("scramble_identity")


def check_roundtrip(P, seeds):
    try:
        rows = verify_roundtrip(P, seeds)
    except PosetAlgebraError as e:
        return _fail("roundtrip", "%r raised %s: %s" % (P, type(e).__name__, e))
    for r in rows:
        if not r["passed"]:
            return _fail("roundtrip", "%r seed %d: %r" % (P, r["seed"], r))
    return _ok("roundtrip")


def run_poset_checks(P, seeds=(1, 2), enum_cap=12, n_lists=3, rng_seed=7):
    """The full invariant suite for one poset, reflexive convention."""
    A = IncidenceAlgebra(P, "reflexive")
    table = A.multiplication_table()
    rng = LCG(rng_seed)
    results = [
        check_pair_minimals(P, A),
        check_ideal_count(P, A, enum_cap),
        check_sum_lemma(P, A, enum_cap),
        check_intersection_is_meet(P, A, enum_cap),
        check_product_lemma(P, A),
        check_product_in_intersection(P, A),
        check_bijections(P, A),
        check_idempotence(P, A),
        check_maximality(P, A, enum_cap),
        check_diagonal_products(P, A),
        check_span_corollary(P, A, rng, n_lists),
        check_quasi_idempotents(P, table),
        check_links_are_covers(P, table),
        check_unscrambled_recovery(P, table),
        check_scramble_identity(P, table),
        check_roundtrip(P, seeds),
    ]
    return results


# ---------------------------------------------------------------------------
# table checks


def check_table(table):
    """Report of one recover_table call on a bare table: one line per stage
    reached, table_associative, table_recovery, table_schemes_agree and
    table_shape, stopping at the first that fails."""
    try:
        via_products, via_links = recover_table(table)
    except NotAssociative as e:
        return [_fail("table_associative", "NotAssociative witness %r" % (e.witness,))]
    except NoPosetBehindTable as e:
        return [_ok("table_associative"), _fail("table_shape", str(e))]
    except PosetAlgebraError as e:
        detail = "%s: %s" % (type(e).__name__, e)
        return [_ok("table_associative"), _fail("table_recovery", detail)]
    if via_products == via_links:
        agree = _ok("table_schemes_agree")
    else:
        agree = _fail("table_schemes_agree", "%r vs %r" % (via_products, via_links))
    return [_ok("table_associative"), _ok("table_recovery"), agree, _ok("table_shape")]
