from fractions import Fraction
from operator import and_, or_

from posetalg import (
    IncidenceAlgebra,
    MultiplicationTable,
    NoPosetBehindTable,
    Poset,
    antichain,
    boolean_lattice,
    chain,
    diamond,
    enumerate_up_sets,
    full_ideal,
    ideal_product,
    indecomposable_ideals,
    maximal_ideals,
    maximal_indecomposable_ideals,
    poset_from_relations,
    principal_ideal,
    random_poset,
    scramble,
    span_of,
    zero_ideal,
)
from posetalg import checks, recovery
from posetalg.checks import (
    check_table,
    corpus_exhaustive4,
    corpus_random7,
    get_corpus,
    run_poset_checks,
)
from posetalg.oracles import brute_closure_witness

from test_recovery import (
    MATRIX_UNITS_REFUSAL,
    dropped_composite_table,
    matrix_units_table,
)

import pytest


def dual(Q):
    return Poset(Q.labels, Q.down)


def test_full_suite_passes_on_assorted_posets():
    for P in (chain(4), diamond(), boolean_lattice(2), random_poset(6, 0.4, 3)):
        results = run_poset_checks(P)
        bad = [r for r in results if not r.passed]
        assert not bad, bad


def test_suite_skips_when_over_cap():
    results = run_poset_checks(boolean_lattice(2), enum_cap=4)
    by_name = {r.name: r for r in results}
    assert by_name["ideal_count"].skipped
    assert by_name["sum_lemma"].skipped
    assert all(r.passed for r in results)


def test_ideal_count_runs_past_fifteen_pairs():
    # 16 comparable pairs: the count has no size limit of its own, so only
    # the enumeration cap decides whether the check runs
    P = poset_from_relations("abcdef", list(zip("abcd", "bcde")))
    results = run_poset_checks(P, enum_cap=16)
    by_name = {r.name: r for r in results}
    assert by_name["ideal_count"] == ("ideal_count", True, "", False)
    assert all(r.passed for r in results)
    assert not any(r.skipped for r in results)


@pytest.mark.parametrize(
    "P",
    [diamond(), chain(5), corpus_random7()[5]],
    ids=["diamond", "chain5", "random7_5"],
)
def test_suite_computes_each_product_and_up_set_once(monkeypatch, P):
    # the four product checks share one table of the s^2 principal
    # products, and the three lattice checks one list of up-sets, listed
    # only within the cap
    calls = {"ideal_product": 0, "enumerate_up_sets": 0}

    def count(name):
        real = getattr(checks, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)

    count("ideal_product")
    count("enumerate_up_sets")
    assert all(r.passed for r in run_poset_checks(P))
    s = IncidenceAlgebra(P, "reflexive").pair_poset().size
    assert calls == {
        "ideal_product": s * s,
        "enumerate_up_sets": 1 if s <= 12 else 0,
    }


def test_maximality_catches_a_missing_maximal_ideal(monkeypatch):
    P = diamond()
    A = IncidenceAlgebra(P, "reflexive")
    assert checks.check_maximality(P, A, 12).passed
    monkeypatch.setattr(checks, "maximal_ideals", lambda A: maximal_ideals(A)[:-1])
    r = checks.check_maximality(P, A, 12)
    assert not r.passed and "in no maximal ideal" in r.detail


def test_maximality_keeps_its_second_leg_past_the_cap(monkeypatch):
    # chain(5) has 15 comparable pairs, past the cap of 12: no ideal is
    # listed, yet withholding one maximal ideal still fails, naming the
    # ideal the other dropped pairs generate, which misses [e,e]
    P = chain(5)
    A = IncidenceAlgebra(P, "reflexive")
    assert A.pair_poset().size == 15
    assert checks.check_maximality(P, A, 12) == ("maximality", True, "", False)
    monkeypatch.setattr(checks, "maximal_ideals", lambda A: maximal_ideals(A)[:-1])
    r = checks.check_maximality(P, A, 12)
    assert not r.passed and not r.skipped
    assert r.detail.endswith("in no maximal ideal")
    assert "[a,a]" in r.detail and "[e,e]" not in r.detail


# antichain(6) lists every subset of its diagonal pairs; each case drops
# the result of combining two masks that stay listed
@pytest.mark.parametrize(
    "check, op, dropped, kept",
    [
        # {[a,a],[b,b]} is {[a,a],[b,b],[c,c]} n {[a,a],[b,b],[d,d]}
        (checks.check_intersection_is_meet, and_, 0b000011, (0b000111, 0b001011)),
        # {[a,a],[b,b],[c,c]} is {[a,a],[b,b]} + {[a,a],[c,c]}
        (checks.check_sum_lemma, or_, 0b000111, (0b000011, 0b000101)),
    ],
    ids=["meet", "sum"],
)
def test_intersection_check_catches_a_missing_meet(
    monkeypatch, check, op, dropped, kept
):
    P = antichain(6)
    A = IncidenceAlgebra(P, "reflexive")
    assert check(P, A, 12).passed
    listed = list(enumerate_up_sets(A.pair_poset(), cap=12))
    assert set(kept) <= set(listed)
    remaining = [m for m in listed if m != dropped]
    monkeypatch.setattr(checks, "enumerate_up_sets", lambda G, cap: iter(remaining))
    # a fresh algebra: the first has kept the up-sets it listed
    r = check(P, IncidenceAlgebra(P, "reflexive"), 12)
    assert not r.passed
    # the witness is two listed masks that combine to the dropped one
    m1, m2 = map(int, r.detail.rsplit(" ", 1)[1].split(","))
    assert op(m1, m2) == dropped


@pytest.mark.parametrize(
    "check, op",
    [(checks.check_sum_lemma, or_), (checks.check_intersection_is_meet, and_)],
    ids=["sum", "meet"],
)
def test_closure_check_is_never_looser_than_the_pairwise_oracle(
    monkeypatch, exhaustive4, random7, check, op
):
    # every ideal list within the cap, whole and with each mask dropped
    family = []
    monkeypatch.setattr(checks, "enumerate_up_sets", lambda G, cap: iter(family))
    stricter = 0
    for P in exhaustive4 + random7:
        A = IncidenceAlgebra(P, "reflexive")
        G = A.pair_poset()
        if G.size > 12:
            continue
        full = (1 << G.size) - 1
        basis = {
            G.principal_up(i) if op is or_ else full & ~((1 << i) | G.narrower[i])
            for i in range(G.size)
        }
        listed = list(enumerate_up_sets(G, cap=12))
        for dropped in [None] + listed:
            family[:] = [m for m in listed if m != dropped]
            # one algebra per family: an algebra keeps the up-sets it listed
            r = check(P, IncidenceAlgebra(P, "reflexive"), 12)
            # the verdict is the same in any order; this one, small masks
            # first for | and large first for &, meets a witness sooner
            if brute_closure_witness(sorted(family, reverse=op is and_), op):
                assert not r.passed, (P, dropped)
            elif not r.passed:
                # stricter only where a basis mask is missing
                assert dropped in basis, (P, dropped)
                stricter += 1
            if not r.passed:
                m1, m2 = map(int, r.detail.rsplit(" ", 1)[1].split(","))
                assert m1 in family and m2 in basis and op(m1, m2) == dropped
    assert stricter > 0


def test_check_table_accepts_incidence_tables():
    T = IncidenceAlgebra(diamond(), "reflexive").multiplication_table()
    results = check_table(T)
    assert all(r.passed for r in results)
    assert [r.name for r in results] == [
        "table_associative",
        "table_recovery",
        "table_schemes_agree",
        "table_shape",
    ]


def test_check_table_flags_nonassociative():
    T = MultiplicationTable(2, {(0, 1): (Fraction(1), 0)})
    results = check_table(T)
    assert len(results) == 1
    assert results[0].name == "table_associative" and not results[0].passed


def test_check_table_flags_group_table():
    T = MultiplicationTable(
        2,
        {
            (0, 0): (Fraction(1), 0),
            (0, 1): (Fraction(1), 1),
            (1, 0): (Fraction(1), 1),
            (1, 1): (Fraction(1), 0),
        },
    )
    # the placement refuses the group before either route runs; no table
    # reaches a table_recovery FAIL
    assert [tuple(r) for r in check_table(T)] == [
        ("table_associative", True, "", False),
        ("table_shape", False, "indices 0 and 1 both placed at (0, 0)", False),
    ]


def test_check_table_flags_shape_mismatch():
    # lone nilpotent on top of one idempotent: recovery succeeds but the
    # dimension cannot be explained by comparable pairs
    T = MultiplicationTable(
        2,
        {
            (0, 0): (Fraction(1), 0),
            (0, 1): (Fraction(1), 1),
            (1, 0): (Fraction(1), 1),
        },
    )
    results = check_table(T)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["table_shape"]


@pytest.mark.parametrize(
    "table, shape",
    [
        (
            MultiplicationTable(2, {(0, 0): (Fraction(1), 1)}),
            "index 1 not placed",
        ),
        (
            IncidenceAlgebra(chain(3), "irreflexive").multiplication_table(),
            "index 0 not placed",
        ),
        (
            MultiplicationTable(
                2,
                {
                    (0, 0): (Fraction(1), 0),
                    (0, 1): (Fraction(1), 1),
                    (1, 0): (Fraction(1), 1),
                },
            ),
            "indices 0 and 1 both placed at (0, 0)",
        ),
        (dropped_composite_table(), "9 entries but 10 composable placed pairs"),
        (matrix_units_table(), MATRIX_UNITS_REFUSAL),
    ],
    ids=[
        "dim2",
        "irreflexive_chain3",
        "lone_nilpotent",
        "dropped_composite",
        "matrix_units",
    ],
)
def test_check_table_refuses_by_shape_alone(table, shape):
    # a table with no poset behind it fails table_shape, with the message
    # posetalg recover prints, and reports nothing after it; a table with
    # no quasi-idempotent is one of them
    assert [tuple(r) for r in check_table(table)] == [
        ("table_associative", True, "", False),
        ("table_shape", False, shape, False),
    ]


def test_check_table_fails_when_the_routes_disagree(monkeypatch):
    # no natural table is known on which both routes pass the shape rule
    # and differ, so the link route returns the dual; diamond() is
    # self-dual, so the dual has the same shape
    via_links = recovery.recover_by_links
    monkeypatch.setattr(recovery, "recover_by_links", lambda t: dual(via_links(t)))
    T = scramble(IncidenceAlgebra(diamond(), "reflexive").multiplication_table(), 1)
    P = recovery.recover_by_ideal_products(T)
    assert P != dual(P)
    assert [tuple(r) for r in check_table(T)] == [
        ("table_associative", True, "", False),
        ("table_recovery", True, "", False),
        ("table_schemes_agree", False, "%r vs %r" % (P, dual(P)), False),
        ("table_shape", True, "", False),
    ]


def test_corpora_are_pinned():
    e4 = corpus_exhaustive4()
    assert len(e4) == 243
    assert len({(P.labels, P.up) for P in e4}) == 243
    r7 = corpus_random7()
    assert len(r7) == 100
    assert r7 == corpus_random7()
    assert max(P.n for P in r7) == 7
    assert get_corpus("exhaustive4")[0].n == 0
    with pytest.raises(ValueError):
        get_corpus("everything")


def test_product_lemma_closed_form_leg_catches_a_wrong_product(monkeypatch):
    P = chain(2)
    A = IncidenceAlgebra(P, "reflexive")
    monkeypatch.setattr(checks, "ideal_product", lambda I, J: zero_ideal(A))
    r = checks.check_product_lemma(P, A)
    assert not r.passed and "want" in r.detail


def test_product_lemma_span_leg_matches_multiply(corpus, corpus_algebras):
    # the span leg's old content, kept as the oracle: the support of the
    # product of two coefficient-1 sums, multiplied out in Fraction
    for P, A in zip(corpus, corpus_algebras):
        principals = indecomposable_ideals(A)
        sums = [A.element({a: 1 for a in I.pair_indices()}) for I in principals]
        for I, f in zip(principals, sums):
            for J, g in zip(principals, sums):
                want = ideal_product(I, J).pair_indices()
                assert A.multiply(f, g).support() == want, (P, I, J)
        # and the leg, which reads the table instead, agrees with both
        assert checks.check_product_lemma(P, A).passed, P


def test_span_corollary_catches_a_wrong_closure(monkeypatch):
    P = chain(2)
    A = IncidenceAlgebra(P, "reflexive")
    # the ideal of [a,b] is {[a,b]}: a closure of the same rank elsewhere
    # fails on its support, one of another rank on its rank
    monkeypatch.setattr(
        checks, "random_element_lists", lambda A, rng, n: [[A.generator((0, 1))]]
    )
    bb = span_of(A, [A.generator((1, 1))])
    monkeypatch.setattr(checks, "ideal_closure", lambda A, elems: bb)
    r = checks.check_span_corollary(P, A, None, 1)
    assert not r.passed
    assert r.detail.endswith("closure holds pair [b,b] outside the up-set")
    monkeypatch.setattr(checks, "ideal_closure", lambda A, elems: span_of(A, []))
    r = checks.check_span_corollary(P, A, None, 1)
    assert not r.passed and "closure dim 0 vs up-set size 1" in r.detail


def test_product_lemma_span_leg_catches_a_wrong_table(monkeypatch):
    P = chain(2)
    A = IncidenceAlgebra(P, "reflexive")
    table = A.multiplication_table()
    # drop the entry b_[a,a] b_[a,b] = b_[a,b]
    entries = {key: hit for key, hit in table.entries.items() if key != (0, 2)}
    assert len(entries) == len(table.entries) - 1
    broken = MultiplicationTable(table.dim, entries)
    monkeypatch.setattr(IncidenceAlgebra, "multiplication_table", lambda self: broken)
    r = checks.check_product_lemma(P, A)
    assert not r.passed and "span oracle disagrees" in r.detail


# Each FAIL guard of checks.py seen to fail: the check is handed a wrong
# library (a monkeypatched name that checks reads) or an algebra or table
# of another poset, and must fail with its own detail string.  Each guard
# has a mutant in tests/mutants.py that these tests kill.


def reflexive(P):
    return IncidenceAlgebra(P, "reflexive")


def test_pair_minimals_catches_a_foreign_algebra():
    P = chain(2)
    assert checks.check_pair_minimals(P, reflexive(P)).passed
    r = checks.check_pair_minimals(P, reflexive(antichain(3)))
    assert tuple(r) == (
        "pair_minimals", False, "%r minimal pair indices [0, 1, 2]" % (P,), False
    )


def test_ideal_count_catches_a_missing_ideal(monkeypatch):
    P = chain(2)
    A = reflexive(P)
    listed = list(enumerate_up_sets(A.pair_poset(), cap=12))
    monkeypatch.setattr(checks, "enumerate_up_sets", lambda G, cap: iter(listed[1:]))
    r = checks.check_ideal_count(P, A, 12)
    assert tuple(r) == (
        "ideal_count", False, "%r enumerated 4, antichains 5" % (P,), False
    )


def test_product_in_intersection_catches_a_product_too_large(monkeypatch):
    P = chain(2)
    A = reflexive(P)
    assert checks.check_product_in_intersection(P, A).passed
    monkeypatch.setattr(checks, "ideal_product", lambda I, J: full_ideal(A))
    A = reflexive(P)  # the first algebra has kept its products
    r = checks.check_product_in_intersection(P, A)
    assert tuple(r) == (
        "product_in_intersection", False, "%r pair indices 0,0" % (P,), False
    )


def test_bijections_catches_colliding_principal_ideals(monkeypatch):
    P = chain(2)
    A = reflexive(P)
    assert checks.check_bijections(P, A).passed
    monkeypatch.setattr(
        checks, "indecomposable_ideals", lambda A: indecomposable_ideals(A)[:1] * 3
    )
    r = checks.check_bijections(P, A)
    assert tuple(r) == (
        "bijections", False, "%r principal ideals collide" % (P,), False
    )


@pytest.mark.parametrize("stray", [zero_ideal, full_ideal], ids=["zero", "full"])
def test_bijections_catches_an_ideal_without_one_minimal_pair(monkeypatch, stray):
    # on chain(2) the zero ideal has no minimal pair and the full ideal two,
    # [a,a] and [b,b]; either one stands in for the principal ideal of [a,b]
    P = chain(2)
    A = reflexive(P)
    doctored = indecomposable_ideals(A)[:2] + [stray(A)]
    monkeypatch.setattr(checks, "indecomposable_ideals", lambda A: doctored)
    r = checks.check_bijections(P, A)
    assert tuple(r) == (
        "bijections",
        False,
        "%r principal not indecomposable %r" % (P, stray(A)),
        False,
    )


def test_idempotence_catches_a_missing_diagonal_ideal(monkeypatch):
    # without I_b among the maximal indecomposables, I_b squares to itself
    # but is not counted diagonal
    P = chain(2)
    A = reflexive(P)
    assert checks.check_idempotence(P, A).passed
    monkeypatch.setattr(
        checks,
        "maximal_indecomposable_ideals",
        lambda A: maximal_indecomposable_ideals(A)[:1],
    )
    r = checks.check_idempotence(P, A)
    I_b = principal_ideal(A, (1, 1))
    assert tuple(r) == (
        "idempotence",
        False,
        "%r ideal %r nonzero=True fixed=True diagonal=False" % (P, I_b),
        False,
    )


def test_diagonal_products_catches_a_wrong_product(monkeypatch):
    P = chain(2)
    A = reflexive(P)
    assert checks.check_diagonal_products(P, A).passed
    monkeypatch.setattr(checks, "ideal_product", lambda I, J: zero_ideal(A))
    A = reflexive(P)  # the first algebra has kept its products
    r = checks.check_diagonal_products(P, A)
    assert tuple(r) == ("diagonal_products", False, "%r elements a,a" % (P,), False)


def table_of(P):
    return reflexive(P).multiplication_table()


def test_quasi_idempotents_catches_a_foreign_table():
    P = chain(2)
    assert checks.check_quasi_idempotents(P, table_of(P)).passed
    r = checks.check_quasi_idempotents(P, table_of(antichain(3)))
    assert tuple(r) == ("quasi_idempotents", False, "%r got [0, 1, 2]" % (P,), False)


def test_links_are_covers_catches_a_foreign_table():
    P = chain(3)
    assert checks.check_links_are_covers(P, table_of(P)).passed
    r = checks.check_links_are_covers(P, table_of(antichain(3)))
    assert tuple(r) == (
        "links_are_covers",
        False,
        "%r links %r covers %r" % (P, set(), {(0, 1), (1, 2)}),
        False,
    )


def test_links_are_covers_catches_a_wrong_closure(monkeypatch):
    # the links are right, the order closed from them is the dual
    P = chain(3)
    via_links = recovery.recover_by_links
    monkeypatch.setattr(checks, "recover_by_links", lambda t: dual(via_links(t)))
    r = checks.check_links_are_covers(P, table_of(P))
    assert tuple(r) == (
        "links_are_covers",
        False,
        "%r closure differs from strict order" % (P,),
        False,
    )


def test_unscrambled_recovery_catches_a_foreign_table():
    P = chain(2)
    assert checks.check_unscrambled_recovery(P, table_of(P)).passed
    r = checks.check_unscrambled_recovery(P, table_of(antichain(2)))
    assert tuple(r) == (
        "unscrambled_recovery", False, "%r ideal-product order differs" % (P,), False
    )


def test_scramble_identity_catches_a_stray_scale(monkeypatch):
    # a permuted_rescaled that doubles b_0 whatever the scales say
    P = chain(2)
    table = table_of(P)
    assert checks.check_scramble_identity(P, table).passed
    rescaled = MultiplicationTable.permuted_rescaled
    monkeypatch.setattr(
        MultiplicationTable,
        "permuted_rescaled",
        lambda self, perm, scales: rescaled(self, perm, [2] + scales[1:]),
    )
    r = checks.check_scramble_identity(P, table)
    assert tuple(r) == (
        "scramble_identity",
        False,
        "%r identity scramble changed table" % (P,),
        False,
    )


def test_roundtrip_catches_a_failed_seed(monkeypatch):
    P = chain(2)
    assert checks.check_roundtrip(P, (1, 2)).passed
    rows = recovery.verify_roundtrip(P, (1, 2))
    rows[1] = dict(rows[1], passed=False)
    monkeypatch.setattr(checks, "verify_roundtrip", lambda P, seeds: rows)
    r = checks.check_roundtrip(P, (1, 2))
    assert tuple(r) == ("roundtrip", False, "%r seed 2: %r" % (P, rows[1]), False)


def test_roundtrip_reports_a_refusal(monkeypatch):
    def refuse(P, seeds):
        raise NoPosetBehindTable("index 1 not placed")

    P = chain(2)
    monkeypatch.setattr(checks, "verify_roundtrip", refuse)
    r = checks.check_roundtrip(P, (1, 2))
    assert tuple(r) == (
        "roundtrip",
        False,
        "%r raised NoPosetBehindTable: index 1 not placed" % (P,),
        False,
    )
