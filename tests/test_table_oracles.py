"""The indexed table routines against the whole-table definitions in
oracles.py: same results, same witnesses, same exception types."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from posetalg import (
    IncidenceAlgebra,
    MultiplicationTable,
    NoPosetBehindTable,
    Poset,
    PosetAlgebraError,
    antichain,
    boolean_lattice,
    chain,
    poset_from_relations,
    quasi_idempotents,
    random_poset,
    recover_by_ideal_products,
    recover_by_links,
    recover_table,
    recovered_links,
    scramble,
    verify_roundtrip,
)
from posetalg.algebra import _solve_scales
from posetalg.oracles import (
    brute_associativity_witness,
    brute_maximal_supports,
    brute_quasi_idempotents,
    brute_recover_by_ideal_products,
    brute_recover_by_links,
    brute_support_product,
)

from _strategies import posets
from test_recovery import c2_group_table, matrix_units_table, quiver_path_table


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


def refusal(f, *args):
    """The class and message of what f(*args) raises, or None."""
    try:
        f(*args)
    except PosetAlgebraError as e:
        return (type(e), str(e))
    return None


def table_refusal(T):
    """What ensure_associative() and then placement() raise on T, or None."""
    return refusal(T.ensure_associative) or refusal(T.placement)


def placed_strict_pairs(T):
    """The placed pairs off the diagonal, as positions in the list of
    quasi-idempotents; the strict pairs of the poset the routes recover."""
    starts, ends = T.placement()
    pos = {q: x for x, q in enumerate(quasi_idempotents(T))}
    return {(pos[x], pos[y]) for x, y in zip(starts, ends) if x != y}


def assert_matches_oracles(T):
    # a certified table skips the scan, so a certificate passing a table
    # that is not associative shows here as None against the oracle's triple
    assert T.associativity_witness() == brute_associativity_witness(T)
    assert outcome(quasi_idempotents, T) == outcome(brute_quasi_idempotents, T)
    # the routes refuse exactly what the table's checks refuse; on a table
    # they accept, the literal routes return too, and agree
    refused = table_refusal(T)
    routes = [
        (recover_by_ideal_products, brute_recover_by_ideal_products),
        (recover_by_links, brute_recover_by_links),
        (recovered_links, brute_links),
    ]
    for fast, brute in routes:
        if refused:
            assert refusal(fast, T) == refused, fast.__name__
        else:
            assert fast(T) == brute(T), fast.__name__
    if refused:
        return
    # the strict pairs are the placed pairs off the diagonal, so with the
    # diagonal they number dim
    P = recover_by_ideal_products(T)
    assert set(P.strict_pairs()) == placed_strict_pairs(T)
    assert P.n + P.strict_pair_count() == T.dim


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
    # associative, and then the placement's refusals are exercised
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
    assert_matches_oracles(matrix_units_table())
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


# ---------------------------------------------------------------------------
# the certificate: sound on every table, complete on rescaled incidence tables


def assert_sound(T):
    if T.certified():
        assert brute_associativity_witness(T) is None


def edited(T, key, edit):
    """T with the entry at key dropped, negated or tripled."""
    entries = dict(T.entries)
    c, k = entries.pop(key)
    if edit != "drop":
        entries[key] = (-c if edit == "negate" else 3 * c, k)
    return MultiplicationTable(T.dim, entries)


def sphere():
    """a1,a2 < b1,b2 < c1,c2: its order complex is a 2-sphere."""
    low, mid, high = ("a1", "a2"), ("b1", "b2"), ("c1", "c2")
    relations = [(x, y) for x in low for y in mid]
    relations += [(x, y) for x in mid for y in high]
    return poset_from_relations(low + mid + high, relations)


def one_entry_edits(T):
    """Every table one entry away from T: each entry dropped, negated,
    tripled, or retargeted to land on each other index."""
    for key in sorted(T.entries):
        for edit in ("drop", "negate", "triple"):
            yield edited(T, key, edit)
        for other in range(T.dim):
            if other != T.entries[key][1]:
                yield retargeted(T, key, other)


def retargeted(T, key, other):
    """T with the entry at key landing on index other."""
    return MultiplicationTable(T.dim, {**T.entries, key: (T.entries[key][0], other)})


def misrouted(T):
    """T with an entry (i, j) moved to the free key (j, i), landing on the
    index placed at (starts[j], ends[i]), for each entry where one is."""
    starts, ends = T.placement()
    at = {xy: k for k, xy in enumerate(zip(starts, ends))}
    for (i, j), (c, _) in sorted(T.entries.items()):
        target = at.get((starts[j], ends[i]))
        if (j, i) not in T.entries and target is not None:
            entries = dict(T.entries)
            del entries[i, j]
            entries[j, i] = (c, target)
            yield MultiplicationTable(T.dim, entries)


@settings(max_examples=100, deadline=None)
@given(
    posets(max_n=5).filter(lambda P: P.n),
    st.integers(0, 2**30),
    st.sampled_from(["drop", "negate", "triple", "retarget", "misroute"]),
    st.data(),
)
def test_certified_edited_incidence_tables_are_associative(P, seed, edit, data):
    T = scramble(IncidenceAlgebra(P, "reflexive").multiplication_table(), seed)
    if edit == "misroute":
        misroutes = list(misrouted(T))
        assume(misroutes)
        assert_sound(data.draw(st.sampled_from(misroutes)))
        return
    key = data.draw(st.sampled_from(sorted(T.entries)))
    if edit == "retarget":
        assume(T.dim > 1)
        shift = data.draw(st.integers(1, T.dim - 1))
        assert_sound(retargeted(T, key, (T.entries[key][1] + shift) % T.dim))
    else:
        assert_sound(edited(T, key, edit))


def test_every_one_entry_edit_is_judged_soundly():
    # the retargets and misroutes reach certified()'s three landing tests:
    # dropping any one of them certifies some edit that is not associative
    judged = 0
    for P in (chain(4), boolean_lattice(2), sphere()):
        T = scramble(IncidenceAlgebra(P, "reflexive").multiplication_table(), 5)
        for E in (*one_entry_edits(T), *misrouted(T)):
            assert_sound(E)
            judged += 1
    assert judged == 1236


def test_routes_refuse_exactly_what_the_placement_refuses():
    routes = (recover_by_ideal_products, recover_by_links)
    accepted = refused = 0
    for P in (chain(4), boolean_lattice(2), sphere()):
        T = scramble(IncidenceAlgebra(P, "reflexive").multiplication_table(), 5)
        for E in one_entry_edits(T):
            if E.associativity_witness() is not None:
                continue
            placement = refusal(E.placement)
            if placement:
                assert placement[0] is NoPosetBehindTable
                assert [refusal(route, E) for route in routes] == [placement] * 2
                refused += 1
                continue
            via_products, via_links = (route(E) for route in routes)
            assert via_products == via_links
            assert set(via_products.strict_pairs()) == placed_strict_pairs(E)
            accepted += 1
    # the negated and tripled products with no quasi-idempotent factor of
    # boolean_lattice(2) and sphere() stay associative and placed; dropping
    # one leaves an associative table that the pair count refuses; no
    # retargeted table is associative
    assert (accepted, refused) == (20, 10)


def test_duplicated_index_is_not_certified():
    # chain(4) plus an index r placed, like [a,d], at (e_a, e_d);
    # [a,b][b,d] lands on r, so ([a,b][b,c])[c,d] = [a,d] differs from
    # [a,b]([b,c][c,d]) = r, yet every entry fits the placement and the
    # composable placed pairs number the entries
    A = IncidenceAlgebra(chain(4), "reflexive")
    entries = dict(A.multiplication_table().entries)
    one = Fraction(1)
    r = A.dim
    g = {pair: i for i, pair in enumerate(A.generators)}
    a, b, d = g[(0, 0)], g[(0, 1)], g[(1, 3)]
    entries[(a, r)] = entries[(r, g[(3, 3)])] = (one, r)
    entries[(b, d)] = (one, r)
    T = MultiplicationTable(A.dim + 1, entries)
    assert not T.certified()
    witness = brute_associativity_witness(T)
    assert witness is not None and T.associativity_witness() == witness


def test_placement_names_what_failed():
    # recover_table meets these only after NotAssociative; its own refusals,
    # including two indices at one pair and the entry count, are pinned in
    # test_recovery.SHAPE_REFUSALS
    one, two = Fraction(1), Fraction(2)
    cases = [
        # both indices have products, none with a quasi-idempotent
        (2, {(0, 1): (one, 0), (1, 0): (one, 0)}, "index 0 not placed"),
        # b_0 b_0 = b_0 but b_0 b_1 = 2 b_1
        (
            2,
            {(0, 0): (one, 0), (0, 1): (two, 1), (1, 0): (one, 1)},
            "index 1 not placed: quasi-idempotent 0 does not fix it",
        ),
        # b_0 b_2 = b_1 b_2 = b_2
        (
            3,
            {(0, 0): (one, 0), (1, 1): (one, 1), (0, 2): (one, 2),
             (1, 2): (one, 2), (2, 1): (one, 2)},
            "index 2 claimed by quasi-idempotents 0 and 1",
        ),
        # the mirror: b_2 b_0 = b_2 b_1 = b_2
        (
            3,
            {(0, 0): (one, 0), (1, 1): (one, 1), (2, 0): (one, 2),
             (2, 1): (one, 2), (1, 2): (one, 2)},
            "index 2 claimed by quasi-idempotents 0 and 1",
        ),
    ]
    for dim, entries, message in cases:
        T = MultiplicationTable(dim, entries)
        with pytest.raises(NoPosetBehindTable) as err:
            T.placement()
        assert str(err.value) == message
        assert not T.certified()


def projective_plane():
    """The face poset of the 6-vertex triangulation of the real projective
    plane: 6 vertices, 15 edges and 10 triangles, ordered by inclusion."""
    triangles = ("123", "134", "145", "156", "126", "235", "346", "245", "356", "246")
    faces = sorted(
        {"".join(f) for t in triangles for r in (1, 2, 3) for f in combinations(t, r)},
        key=lambda f: (len(f), f),
    )
    relations = [(f, g) for f in faces for g in faces if f != g and set(f) <= set(g)]
    return poset_from_relations(faces, relations)


def test_rescaled_incidence_tables_are_placed_where_the_scales_are_not_solved():
    # e_x = s_x [x,x] acts on s_k [x,y] by s_x whatever the scales, so each
    # scramble is placed, though the scale solve misses most of them here
    A = IncidenceAlgebra(projective_plane(), "reflexive")
    T = A.multiplication_table()
    starts, ends = T.placement()
    assert list(zip(starts, ends)) == [
        (A.index[(x, x)], A.index[(y, y)]) for x, y in A.generators
    ]
    puzzles = [scramble(T, seed) for seed in range(1, 11)]
    assert not all(puzzle.certified() for puzzle in puzzles)
    for puzzle in puzzles:
        puzzle.placement()


def test_scrambled_corpus_tables_are_certified(corpus_tables):
    for T in corpus_tables:
        for seed in (1, 2, 3):
            assert scramble(T, seed).certified(), (T, seed)


def test_larger_scrambled_tables_are_certified():
    for P in (boolean_lattice(4), random_poset(40, 0.1, 3)):
        T = IncidenceAlgebra(P, "reflexive").multiplication_table()
        for seed in range(1, 11):
            assert scramble(T, seed).certified(), (P, seed)


def test_stalled_scales_are_solved_for():
    # these scrambles stall the propagation on a scale that later equations
    # fix, so setting it to 1 fails the sweep: under seeds 18 and 22 an
    # equation pins the parameter alone, under 198 and 225 only in terms
    # of a second parameter
    T = IncidenceAlgebra(random_poset(40, 0.1, 3), "reflexive").multiplication_table()
    for seed in (18, 22, 198, 225):
        assert scramble(T, seed).certified(), seed


def test_projective_plane_scrambles_are_certified_where_propagation_reaches():
    # scrambles are rescaled incidence tables, so each must be certified;
    # the scale solve certifies these three only when it propagates a
    # learned scale through the products that land on it as well as
    # through its own products
    T = IncidenceAlgebra(projective_plane(), "reflexive").multiplication_table()
    for seed in (2, 24, 38):
        assert scramble(T, seed).certified(), seed


def twisted_sphere_table():
    """sphere()'s table with the product [a1,b1][b1,c1] negated."""
    A = IncidenceAlgebra(sphere(), "reflexive")
    entries = dict(A.multiplication_table().entries)
    a1, b1, c1 = (sphere().index(lab) for lab in ("a1", "b1", "c1"))
    key = (A.index[(a1, b1)], A.index[(b1, c1)])
    c, k = entries[key]
    entries[key] = (-c, k)
    return MultiplicationTable(A.dim, entries)


def test_twisted_sphere_table_is_not_certified_but_associative():
    # negating [a1,b1][b1,c1] leaves the table associative, but the
    # product of the signs of its eight triangles is -1, which no
    # rescaling of an incidence table gives
    for seed in (1, 2, 3):
        T = scramble(twisted_sphere_table(), seed)
        assert not T.certified()
        assert T.associativity_witness() is None


# ---------------------------------------------------------------------------
# the routes build their posets unchecked, at sizes the corpora never reach


def assert_valid_as_made(P):
    # the validating constructor accepts the rows and finds the same down rows
    checked = Poset(P.labels, P.up)
    assert checked == P
    assert checked.down == P.down


@pytest.mark.parametrize(
    "P",
    [
        chain(30),
        boolean_lattice(5),
        antichain(64),
        random_poset(80, 0.03, 1),
        random_poset(40, 0.1, 3),
    ],
    ids=["chain30", "boolean5", "antichain64", "random80", "random40"],
)
def test_routes_build_strict_orders_at_size(P):
    T = IncidenceAlgebra(P, "reflexive").multiplication_table()
    for seed in (1, 2, 3):
        for Q in recover_table(scramble(T, seed)):
            assert_valid_as_made(Q)
    assert all(r["passed"] for r in verify_roundtrip(P, seeds=(1, 2, 3)))


def test_routes_build_strict_orders_on_the_twisted_sphere():
    # associative by the triple scan alone, and placed: the routes read
    # the placement as they do on a certified table
    for seed in (1, 2, 3):
        T = scramble(twisted_sphere_table(), seed)
        via_products, via_links = recover_table(T)
        assert via_products == via_links
        assert via_products.n + via_products.strict_pair_count() == T.dim
        assert_valid_as_made(via_products)
        assert_valid_as_made(via_links)


# ---------------------------------------------------------------------------
# the scale solver, the parsed index and the quasi-idempotents kept on a table


def solved_scales(T):
    """_solve_scales on a certified table, at its placement."""
    return T.square, _solve_scales(T, *T.placement())


def test_solved_scales_are_lowest_terms_ints_that_fit_every_equation(corpus_tables):
    tables = [scramble(T, seed) for T in corpus_tables for seed in (1, 2, 3)]
    chain12 = IncidenceAlgebra(chain(12), "reflexive").multiplication_table()
    tables += [scramble(chain12, seed) for seed in (1, 2, 3)]
    # 18, 22, 198 and 225 stall the propagation, as in
    # test_stalled_scales_are_solved_for
    P = random_poset(40, 0.1, 3)
    T = IncidenceAlgebra(P, "reflexive").multiplication_table()
    tables += [scramble(T, seed) for seed in (1, 2, 3, 18, 22, 198, 225)]
    # here the last unknown scale is learned before any equation that solves
    # for the stall's parameter is visited, so propagation must go on
    P = random_poset(17, 0.2, 713152)
    T = IncidenceAlgebra(P, "reflexive").multiplication_table()
    tables.append(scramble(T, 33))
    for T in tables:
        assert T.certified()
        square, (num, den) = solved_scales(T)
        for u in range(T.dim):
            assert type(num[u]) is int and type(den[u]) is int
            assert den[u] > 0 and gcd(num[u], den[u]) == 1
        for (i, j), (c, k) in T.entries.items():
            if i not in square and j not in square:
                s = [Fraction(num[u], den[u]) for u in (i, j, k)]
                assert c * s[2] == s[0] * s[1], (i, j, k)


def layout(T):
    """T's entries and indexes, with the order of every dict and list."""

    def rows(index):
        return [(a, list(row.items())) for a, row in index.items()]

    return (
        T.dim,
        list(T.entries.items()),
        rows(T.right),
        rows(T.left),
        list(T.landing.items()),
        list(T.square.items()),
    )


def test_parsed_tables_are_indexed_as_constructed_ones(corpus_tables):
    tables = [scramble(T, seed) for seed, T in enumerate(corpus_tables, start=1)]
    T = tables[-1]
    tables += [edited(T, sorted(T.entries)[1], "drop"), c2_group_table()]
    for T in tables:
        parsed = MultiplicationTable.from_json_text(T.to_json_text())
        # the rows of the text are the entries in sorted order
        built = MultiplicationTable(T.dim, dict(sorted(T.entries.items())))
        assert layout(parsed) == layout(built)


def test_quasi_idempotents_are_found_once_per_table(corpus_tables):
    # the index keeps {q: c} for each b_q b_q = c b_q as it is built
    tables = [scramble(T, seed) for seed, T in enumerate(corpus_tables, start=1)]
    chain4 = IncidenceAlgebra(chain(4), "reflexive").multiplication_table()
    tables += [chain4, scramble(chain4, 1), c2_group_table(), quiver_path_table()]
    for T in tables:
        assert sorted(T.square) == brute_quasi_idempotents(T)
        assert T.square == {q: T.entries[q, q][0] for q in T.square}
