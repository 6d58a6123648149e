from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetalg import (
    ClosureViolation,
    IncidenceAlgebra,
    MultiplicationTable,
    NoPosetBehindTable,
    NotAssociative,
    Poset,
    PosetAlgebraError,
    RecoveredRelationNotTransitive,
    antichain,
    boolean_lattice,
    chain,
    covers,
    diamond,
    quasi_idempotents,
    random_poset,
    recover_by_ideal_products,
    recover_by_links,
    recover_table,
    recovered_links,
    scramble,
    verify_roundtrip,
)
from posetalg import cli, recovery
from posetalg.checks import run_poset_checks
from posetalg.oracles import (
    brute_associativity_witness,
    brute_isomorphism,
    brute_maximal_supports,
    brute_principal_support,
    brute_recover_by_ideal_products,
    brute_recover_by_links,
)

from _strategies import posets
import golden


def table_of(P):
    return IncidenceAlgebra(P, "reflexive").multiplication_table()


def test_quasi_idempotents_are_the_diagonals():
    for P in (chain(4), diamond(), antichain(3)):
        assert quasi_idempotents(table_of(P)) == list(range(P.n))


def test_rescaled_squares_still_count():
    # a diagonal's square can pick up any nonzero factor and still qualify
    T = table_of(chain(2))
    S = T.permuted_rescaled([0, 1, 2], [Fraction(-3), Fraction(1, 2), Fraction(5)])
    assert quasi_idempotents(S) == [0, 1]


def bits(*indices):
    return sum(1 << i for i in indices)


def test_principal_support_chain3():
    T = table_of(chain(3))
    # generator order: aa bb cc ab ac bc
    assert brute_principal_support(T, 0) == bits(0, 3, 4)
    assert brute_principal_support(T, 1) == bits(1, 3, 4, 5)
    assert brute_principal_support(T, 2) == bits(2, 4, 5)
    assert brute_principal_support(T, 3) == bits(3, 4)


def test_maximal_abstract_ideals_complement_one_diagonal():
    T = table_of(diamond())
    ideals = brute_maximal_supports(T)
    assert len(ideals) == 4
    for e, M in zip(quasi_idempotents(T), ideals):
        assert M == bits(*range(T.dim)) & ~bits(e)


SCRAMBLED_CHAIN2 = (
    '{"dim": 3, "entries": [[0, 1, "-1", 0], [1, 1, "-1", 1], '
    '[2, 0, "2", 0], [2, 2, "2", 2]]}'
)


def test_scrambled_chain2_is_pinned():
    S = scramble(table_of(chain(2)), seed=5)
    assert S.to_json_text().strip() == SCRAMBLED_CHAIN2


def test_recovery_from_pinned_scramble():
    S = MultiplicationTable.from_json_text(SCRAMBLED_CHAIN2)
    P = chain(2)
    via_products = recover_by_ideal_products(S)
    via_links = recover_by_links(S)
    assert list(via_products.labels) == ["e1", "e2"]
    assert via_products.up == via_links.up
    assert brute_isomorphism(P, via_products) == [1, 0]
    assert brute_isomorphism(P, via_links) == [1, 0]


def test_links_on_unscrambled_tables_are_covers():
    for P in (chain(4), diamond(), boolean_lattice(2)):
        T = table_of(P)
        assert set(recovered_links(T)) == {(c.x, c.y) for c in covers(P)}
        assert recover_by_links(T).up == P.up
        assert recover_by_ideal_products(T).up == P.up


@pytest.mark.parametrize(
    "P",
    [antichain(64), random_poset(26, 0.03, 7), random_poset(30, 0.05, 2)],
    ids=["antichain64", "random26", "random30"],
)
def test_ideal_products_match_the_oracle_on_wide_scrambles(P):
    for seed in (1, 7):
        S = scramble(table_of(P), seed)
        assert recover_by_ideal_products(S) == brute_recover_by_ideal_products(S)


@pytest.mark.parametrize(
    "P", [random_poset(80, 0.03, 1), random_poset(40, 0.1, 3)], ids=["random80", "random40"]
)
def test_ideal_products_rename_the_source_on_wide_scrambles(P):
    # the oracle takes seconds here, so compare with P renamed by the
    # scramble's own permutation of the diagonal generators
    rows = verify_roundtrip(P, seeds=(1, 7))
    assert [r["ideal_products_exact"] for r in rows] == [True, True]


def test_recover_table_places_a_table_once(monkeypatch):
    # the scale solve misses this associative placed table, so certified()
    # places it and both routes need the placement again
    calls = []
    place = MultiplicationTable._place

    def counted(table):
        calls.append(table)
        return place(table)

    monkeypatch.setattr(MultiplicationTable, "_place", counted)
    T = dict(golden.special_tables())["sphere_negated_seed1"]
    assert not T.certified()
    recover_table(T)
    assert len(calls) == 1
    # a refusal is kept as well, and raised again with the same message
    T = matrix_units_table()
    assert set(route_refusals(T).values()) == {
        (NoPosetBehindTable, MATRIX_UNITS_REFUSAL)
    }
    assert len(calls) == 2


def test_roundtrip_report():
    rows = verify_roundtrip(diamond(), seeds=(1, 2, 3))
    assert all(r["passed"] for r in rows)
    assert [r["seed"] for r in rows] == [1, 2, 3]


@settings(max_examples=30, deadline=None)
@given(posets(max_n=4), st.integers(0, 2**30))
def test_roundtrip_property(P, seed):
    assert all(r["passed"] for r in verify_roundtrip(P, seeds=(seed,)))


def test_every_check_passes_above_the_isomorphism_cap():
    for P in (chain(13), random_poset(16, 0.2, 4)):
        failed = [r for r in run_poset_checks(P) if not r.passed]
        assert failed == []


def test_roundtrip_compares_exactly_not_up_to_isomorphism(monkeypatch):
    # diamond() is self-dual, so an isomorphism test would accept the dual
    via_products = recovery.recover_by_ideal_products
    via_links = recovery.recover_by_links

    def dual(Q):
        return Poset(Q.labels, Q.down)

    monkeypatch.setattr(
        recovery, "recover_by_ideal_products", lambda t: dual(via_products(t))
    )
    monkeypatch.setattr(recovery, "recover_by_links", lambda t: dual(via_links(t)))
    rows = verify_roundtrip(diamond(), seeds=(1, 2, 3))
    assert not all(r["passed"] for r in rows)
    for r in rows:
        assert not r["ideal_products_exact"] and not r["links_exact"]
        assert r["schemes_agree"]


# ---------------------------------------------------------------------------
# diagnostics on tables that are not incidence tables


def c2_group_table():
    # two-element group: g*g = e; associative and monomial but no poset
    # behind it
    e, g = 0, 1
    one = Fraction(1)
    return MultiplicationTable(
        2,
        {
            (e, e): (one, e),
            (e, g): (one, g),
            (g, e): (one, g),
            (g, g): (one, e),
        },
    )


def quiver_path_table():
    # path algebra of a -> b -> c with the composite arrow killed;
    # associative, monomial, three idempotents, but u*v = 0 breaks
    # transitivity of the recovered relation
    ea, eb, ec, u, v = range(5)
    one = Fraction(1)
    return MultiplicationTable(
        5,
        {
            (ea, ea): (one, ea),
            (eb, eb): (one, eb),
            (ec, ec): (one, ec),
            (ea, u): (one, u),
            (u, eb): (one, u),
            (eb, v): (one, v),
            (v, ec): (one, v),
        },
    )


def matrix_units_table():
    """The 2x2 matrices on E11, E22, E12, E21: the incidence algebra of a
    preorder with two equivalent elements.  Associative, and one
    quasi-idempotent fixes each index from each side, but that places E12
    at (0, 1) and E21 at (1, 0)."""
    e11, e22, e12, e21 = range(4)
    one = Fraction(1)
    return MultiplicationTable(
        4,
        {
            (e11, e11): (one, e11),
            (e11, e12): (one, e12),
            (e12, e22): (one, e12),
            (e12, e21): (one, e11),
            (e22, e22): (one, e22),
            (e22, e21): (one, e21),
            (e21, e11): (one, e21),
            (e21, e12): (one, e22),
        },
    )


MATRIX_UNITS_REFUSAL = "indices 2 and 3 placed at (0, 1) and (1, 0)"


def route_refusals(T):
    """What placement(), each route and recover_table raise on T, by name."""
    calls = {
        "placement": T.placement,
        "ideal_products": lambda: recover_by_ideal_products(T),
        "links": lambda: recover_by_links(T),
        "recovered_links": lambda: recovered_links(T),
        "recover_table": lambda: recover_table(T),
    }
    refusals = {}
    for name, call in calls.items():
        with pytest.raises(PosetAlgebraError) as err:
            call()
        refusals[name] = (type(err.value), str(err.value))
    return refusals


def test_group_table_fails_closure():
    # the complement of g*g = e is not closed under products, which the
    # literal link route reports; the placement refuses it first, since
    # e fixes g from both sides as it fixes itself
    T = c2_group_table()
    assert T.associativity_witness() is None
    assert quasi_idempotents(T) == [0]
    refusal = (NoPosetBehindTable, "indices 0 and 1 both placed at (0, 0)")
    assert set(route_refusals(T).values()) == {refusal}
    with pytest.raises(ClosureViolation) as err:
        brute_recover_by_links(T)
    assert str(err.value) == "product (1,1) lands on 0"


def test_quiver_table_breaks_transitivity():
    # u*v = 0 leaves the relation the literal product route reads
    # intransitive, and a link route alone would build a 3-chain; the
    # placed pairs compose in one more way than the table has products
    T = quiver_path_table()
    assert T.associativity_witness() is None
    assert quasi_idempotents(T) == [0, 1, 2]
    refusal = (NoPosetBehindTable, "7 entries but 8 composable placed pairs")
    assert set(route_refusals(T).values()) == {refusal}
    with pytest.raises(RecoveredRelationNotTransitive) as err:
        brute_recover_by_ideal_products(T)
    assert err.value.witness == (0, 1, 2)
    assert brute_isomorphism(brute_recover_by_links(T), chain(3)) is not None


def test_matrix_units_table_is_refused_as_a_preorder(tmp_path, capsys):
    T = matrix_units_table()
    assert brute_associativity_witness(T) is None
    assert not T.certified()
    refusal = (NoPosetBehindTable, MATRIX_UNITS_REFUSAL)
    assert set(route_refusals(T).values()) == {refusal}
    refused = cli_refusal(T, tmp_path, capsys)
    assert (type(refused), str(refused)) == refusal


def test_nonassociative_table_is_rejected_up_front():
    T = MultiplicationTable(2, {(0, 1): (Fraction(1), 0)})
    with pytest.raises(NotAssociative):
        quasi_idempotents(T)
    with pytest.raises(NotAssociative):
        recover_by_ideal_products(T)


# ---------------------------------------------------------------------------
# recover_table, the one front door from a table to its poset


def dim2_table():
    # b0*b0 = b1: no quasi-idempotent, so the recovered poset is empty
    return MultiplicationTable(2, {(0, 0): (Fraction(1), 1)})


def lone_nilpotent_table():
    # one idempotent and a nilpotent it fixes on both sides: one element,
    # one comparable pair, dim 2
    one = Fraction(1)
    return MultiplicationTable(
        2, {(0, 0): (one, 0), (0, 1): (one, 1), (1, 0): (one, 1)}
    )


def nonassociative_table():
    return MultiplicationTable(2, {(0, 1): (Fraction(1), 0)})


def cli_refusal(T, tmp_path, capsys):
    """The exception posetalg recover raises on T, checking that main
    reports its text after 'error: ', exits 2 and prints no stdout."""
    p = tmp_path / "table.json"
    p.write_text(T.to_json_text())
    argv = ["recover", "--input", str(p)]
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(PosetAlgebraError) as err:
        args.func(args)
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: %s\n" % err.value)
    return err.value


DROPPED_COMPOSITE = (
    '{"dim": 6, "entries": [[0,0,"1",0],[0,3,"1",3],[0,4,"1",4],[1,1,"1",1],'
    '[1,5,"1",5],[2,2,"1",2],[3,1,"1",3],[4,2,"1",4],[5,2,"1",5]]}'
)


def dropped_composite_table():
    """chain(3)'s table without the product [a,b][b,c]: associative, with
    as many comparable pairs as dim, but its radical squares to zero, so
    its quiver has 3 arrows where I(chain(3)) has 2."""
    A = IncidenceAlgebra(chain(3), "reflexive")
    entries = dict(A.multiplication_table().entries)
    del entries[A.index[(0, 1)], A.index[(1, 2)]]
    T = MultiplicationTable(A.dim, entries)
    assert T == MultiplicationTable.from_json_text(DROPPED_COMPOSITE)
    return T


SHAPE_REFUSALS = [
    (dim2_table, "index 1 not placed"),
    (
        lambda: IncidenceAlgebra(chain(3), "irreflexive").multiplication_table(),
        "index 0 not placed",
    ),
    (lone_nilpotent_table, "indices 0 and 1 both placed at (0, 0)"),
    (dropped_composite_table, "9 entries but 10 composable placed pairs"),
]


@pytest.mark.parametrize(
    "make, message",
    SHAPE_REFUSALS,
    ids=["dim2", "irreflexive_chain3", "lone_nilpotent", "dropped_composite"],
)
def test_recover_table_refuses_what_recover_refuses(make, message, tmp_path, capsys):
    T = make()
    with pytest.raises(NoPosetBehindTable) as err:
        recover_table(T)
    assert str(err.value) == message
    refusal = cli_refusal(T, tmp_path, capsys)
    assert type(refusal) is NoPosetBehindTable and str(refusal) == message


def test_dropped_composite_table_fits_the_pair_count(tmp_path, capsys):
    # what a count of the recovered pairs accepted: both literal routes
    # agree on a 3-chain with dim comparable pairs; the placement refuses
    # it (see SHAPE_REFUSALS), so both routes do, and check --table fails
    # table_shape with exit 1
    T = dropped_composite_table()
    assert brute_associativity_witness(T) is None
    P = brute_recover_by_ideal_products(T)
    assert P == brute_recover_by_links(T) and brute_isomorphism(P, chain(3))
    assert P.n + P.strict_pair_count() == T.dim
    refusal = (NoPosetBehindTable, "9 entries but 10 composable placed pairs")
    assert set(route_refusals(T).values()) == {refusal}
    p = tmp_path / "table.json"
    p.write_text(T.to_json_text())
    assert cli.main(["check", "--table", str(p)]) == 1
    assert capsys.readouterr().out == (
        "check table_associative: PASS\n"
        "check table_shape: FAIL 9 entries but 10 composable placed pairs\n"
        "summary: 2 checks, 1 failed\n"
    )


@pytest.mark.parametrize(
    "make, error, message",
    [
        (
            c2_group_table,
            NoPosetBehindTable,
            "indices 0 and 1 both placed at (0, 0)",
        ),
        (
            quiver_path_table,
            NoPosetBehindTable,
            "7 entries but 8 composable placed pairs",
        ),
        (
            nonassociative_table,
            NotAssociative,
            "table is not associative, witness indices (0, 1, 1)",
        ),
    ],
    ids=["c2_group", "quiver_path", "nonassociative"],
)
def test_recover_table_raises_what_recover_reports(
    make, error, message, tmp_path, capsys
):
    T = make()
    with pytest.raises(error) as err:
        recover_table(T)
    refusal = cli_refusal(T, tmp_path, capsys)
    assert type(err.value) is type(refusal) is error
    assert str(err.value) == str(refusal) == message


def test_recover_table_is_both_routes_on_every_corpus_scramble(corpus_tables):
    for T in corpus_tables:
        puzzle = scramble(T, seed=1)
        assert recover_table(puzzle) == (
            recover_by_ideal_products(puzzle),
            recover_by_links(puzzle),
        )
