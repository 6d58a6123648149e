"""The indexed table routines against the whole-table definitions in
oracles.py: same results, same witnesses, same exception types."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg import (
    IncidenceAlgebra,
    MultiplicationTable,
    PosetAlgebraError,
    boolean_lattice,
    chain,
    principal_support,
    quasi_idempotents,
    recover_by_ideal_products,
    recover_by_links,
    recovered_links,
    scramble,
)
from posetalg.oracles import (
    brute_associativity_witness,
    brute_maximal_supports,
    brute_principal_support,
    brute_quasi_idempotents,
    brute_recover_by_ideal_products,
    brute_recover_by_links,
    brute_support_product,
)

from _strategies import posets
from test_recovery import c2_group_table, quiver_path_table


def outcome(f, *args):
    try:
        return ("value", f(*args))
    except PosetAlgebraError as e:
        return ("raised", type(e), getattr(e, "witness", None))


def brute_links(T):
    """Link pairs by definition: M_x * M_y misses part of M_x n M_y."""
    M = brute_maximal_supports(T)
    return [
        (x, y)
        for x in range(len(M))
        for y in range(len(M))
        if x != y and brute_support_product(T, M[x], M[y]) != M[x] & M[y]
    ]


def assert_matches_oracles(T):
    assert T.associativity_witness() == brute_associativity_witness(T)
    pairs = [
        (quasi_idempotents, brute_quasi_idempotents),
        (recover_by_ideal_products, brute_recover_by_ideal_products),
        (recover_by_links, brute_recover_by_links),
        (recovered_links, brute_links),
    ]
    for fast, brute in pairs:
        assert outcome(fast, T) == outcome(brute, T), fast.__name__
    for i in range(T.dim):
        assert outcome(principal_support, T, i) == outcome(
            brute_principal_support, T, i
        )


@st.composite
def monomial_tables(draw, max_dim=5):
    """Any monomial table of dim <= max_dim, associative or not; squares
    that land on themselves are drawn often so quasi-idempotents occur."""
    dim = draw(st.integers(0, max_dim))
    if not dim:
        return MultiplicationTable(0, {})
    index = st.integers(0, dim - 1)
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
    entries = draw(
        st.dictionaries(st.tuples(index, index), st.tuples(coeff, index), max_size=12)
    )
    for i in range(dim):
        if draw(st.booleans()):
            entries[(i, i)] = (draw(coeff), i)
    return MultiplicationTable(dim, entries)


@settings(max_examples=300, deadline=None)
@given(monomial_tables())
def test_random_monomial_tables_match_oracles(T):
    assert_matches_oracles(T)


@settings(max_examples=100, deadline=None)
@given(posets(max_n=3), st.integers(0, 2**30), st.data())
def test_damaged_incidence_tables_match_oracles(P, seed, data):
    # scrambled incidence tables with some products removed: often still
    # associative, and then the routes' own diagnostics are exercised
    T = scramble(IncidenceAlgebra(P, "reflexive").multiplication_table(), seed)
    keys = sorted(T.entries)
    dropped = data.draw(st.sets(st.sampled_from(keys), max_size=3)) if keys else ()
    entries = {key: hit for key, hit in T.entries.items() if key not in dropped}
    assert_matches_oracles(MultiplicationTable(T.dim, entries))


def test_scrambled_corpus_tables_match_oracles(corpus_tables):
    for seed, T in enumerate(corpus_tables, start=1):
        assert_matches_oracles(scramble(T, seed))


def three_squares_and(*products):
    """dim 4: b_i b_i = b_i for i < 3, and each given product lands on b_3."""
    one = Fraction(1)
    entries = {(i, i): (one, i) for i in range(3)}
    entries.update({product: (one, 3) for product in products})
    return MultiplicationTable(4, entries)


def test_diagnostic_tables_match_oracles():
    assert_matches_oracles(c2_group_table())
    assert_matches_oracles(quiver_path_table())
    # index 2 is reached by no product and sits outside every M_x * M_y
    one = Fraction(1)
    unreached = MultiplicationTable(3, {(0, 0): (one, 0), (1, 1): (one, 1)})
    assert_matches_oracles(unreached)
    # every product landing on index 3 starts at b_0, and the mirror case
    assert_matches_oracles(three_squares_and((0, 3)))
    assert_matches_oracles(three_squares_and((3, 2)))
    # larger than any poset in the corpus
    for P in (chain(8), boolean_lattice(3)):
        T = IncidenceAlgebra(P, "reflexive").multiplication_table()
        assert_matches_oracles(scramble(T, 7))
