import hashlib
from itertools import islice
from math import comb
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetalg import (
    CapExceeded,
    CycleDetected,
    DuplicateLabel,
    IncidenceAlgebra,
    Pair,
    PairPoset,
    ParseError,
    Poset,
    SizeLimitExceeded,
    UnknownLabel,
    all_labeled_posets,
    antichain,
    boolean_lattice,
    chain,
    covers,
    diamond,
    enumerate_ideals,
    enumerate_up_sets,
    format_ideal,
    format_poset,
    hasse_dot,
    ideal_lattice_dot,
    levels,
    longest_chain_length,
    natural_labeling,
    pair_poset_dot,
    parse_poset,
    poset_from_relations,
    random_poset,
)
from posetalg.oracles import (
    brute_antichain_count,
    brute_covers,
    brute_isomorphism,
    brute_pair_nesting,
    brute_up_closed_masks,
)
from posetalg.poset import _antichain_count, _check_label, all_pairs, transitive_closure

from _strategies import posets


# ---------------------------------------------------------------------------
# construction and validation


def test_poset_from_relations_closes_transitively():
    P = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert P.strict(0, 2)
    assert P.leq(0, 0) and not P.strict(0, 0)


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        poset_from_relations(["a", "a"], [])


def test_unknown_label_rejected():
    with pytest.raises(UnknownLabel):
        poset_from_relations(["a"], [("a", "b")])
    for relation in (("a", "z"), ("z", "a")):
        with pytest.raises(UnknownLabel):
            poset_from_relations("ab", [relation])


def test_cycles_rejected():
    with pytest.raises(CycleDetected):
        poset_from_relations(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        poset_from_relations(["a"], [("a", "a")])
    with pytest.raises(CycleDetected):
        poset_from_relations(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]
        )


@pytest.mark.parametrize(
    "labels, up, error",
    [
        (["a"], [], ValueError),  # no row for a
        (["a", "a"], [0, 0], DuplicateLabel),
        (["a"], [2], ValueError),  # a row naming element 1 of 1
        (["a"], [1], CycleDetected),  # a < a
        (["a", "b"], [2, 1], CycleDetected),  # a < b < a
    ],
)
def test_raw_constructor_refusals(labels, up, error):
    with pytest.raises(error):
        Poset(labels, up)


def test_raw_rows_must_be_transitive():
    # a<b, b<c given without a<c
    with pytest.raises(ValueError):
        Poset(["a", "b", "c"], (0b010, 0b100, 0b000))


def test_bad_labels_rejected():
    for bad in ("", "a b", "x<y", "#z"):
        with pytest.raises(ValueError):
            poset_from_relations([bad], [])


def test_label_check_refuses_exactly_whitespace_lt_and_hash():
    refused = []
    for c in map(chr, range(sys.maxunicode + 1)):
        try:
            _check_label(c)
        except ValueError:
            refused.append(c)
    everything = map(chr, range(sys.maxunicode + 1))
    assert refused == [c for c in everything if c.isspace() or c in "<#"]


def test_index_lookup():
    P = chain(3)
    assert P.index("b") == 1
    with pytest.raises(UnknownLabel):
        P.index("z")


# ---------------------------------------------------------------------------
# text format


CHAIN2_TEXT = "elements: a b\nrelations: a<b\n"


def test_format_emits_covers_only():
    assert format_poset(chain(2)) == CHAIN2_TEXT
    # chain(3) needs no a<c line
    assert format_poset(chain(3)) == "elements: a b c\nrelations: a<b b<c\n"


def test_parse_golden():
    P = parse_poset(CHAIN2_TEXT)
    assert P == chain(2)


def test_parse_ignores_comments_and_blanks():
    text = "# a chain\n\nelements: a b\n relations: a<b  # tail comment\n"
    assert parse_poset(text) == chain(2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_poset("elements: a b\nrelations: a=b\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_poset("relations: a<b\n")


def test_parse_antichain_needs_no_relations_line():
    P = parse_poset("elements: a b c\n")
    assert P == antichain(3)


@settings(max_examples=60)
@given(posets())
def test_parse_format_roundtrip(P):
    assert parse_poset(format_poset(P)) == P


# ---------------------------------------------------------------------------
# order queries


@settings(max_examples=60)
@given(posets())
def test_covers_match_brute_force(P):
    assert covers(P) == brute_covers(P)


@settings(max_examples=60)
@given(posets())
def test_natural_labeling_is_topological_and_greedy(P):
    order = natural_labeling(P)
    assert sorted(order) == list(range(P.n))
    pos = {x: k for k, x in enumerate(order)}
    for x, y in P.strict_pairs():
        assert pos[x] < pos[y]
    # greedy: each entry is the smallest-index minimal element remaining
    remaining = set(range(P.n))
    for x in order:
        minimal = [
            y for y in remaining if all(not P.strict(z, y) for z in remaining)
        ]
        assert x == min(minimal)
        remaining.remove(x)


def test_levels_and_longest_chain():
    P = diamond()
    assert levels(P) == [0, 1, 1, 2]
    assert longest_chain_length(P) == 3
    assert longest_chain_length(chain(4)) == 4
    assert longest_chain_length(antichain(5)) == 1
    assert longest_chain_length(parse_poset("elements:\n")) == 0


# ---------------------------------------------------------------------------
# builders


def test_builders_shapes():
    assert chain(3).strict_pair_count() == 3
    assert antichain(4).strict_pair_count() == 0
    assert diamond().strict_pair_count() == 5
    B3 = boolean_lattice(3)
    assert B3.n == 8
    assert B3.strict_pair_count() == 19
    assert len(covers(B3)) == 12
    assert longest_chain_length(B3) == 4


def test_boolean_lattice_size_limit():
    with pytest.raises(SizeLimitExceeded):
        boolean_lattice(7)


def test_random_poset_is_seed_deterministic():
    assert random_poset(6, 0.3, 17) == random_poset(6, 0.3, 17)
    drawn = {random_poset(6, 0.3, s).up for s in range(20)}
    assert len(drawn) > 1


def test_all_labeled_posets_counts():
    assert [len(all_labeled_posets(n)) for n in range(5)] == [1, 1, 3, 19, 219]


def test_all_labeled_posets_distinct_and_valid():
    seen = {P.up for P in all_labeled_posets(4)}
    assert len(seen) == 219


def test_all_labeled_posets_count_n5():
    assert len(all_labeled_posets(5)) == 4231


def test_all_labeled_posets_order_is_pinned():
    # the exhaustive4 corpus lists its posets in this order
    rows = [P.up for P in all_labeled_posets(4)]
    assert rows[:2] == [(14, 12, 8, 0), (14, 12, 0, 4)]
    assert rows[-2:] == [(0, 0, 0, 4), (0, 0, 0, 0)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "6514c44555715ea08f6a96e9ac9501163e21e2629f1906f95061b1c9d4643de6"
    )


# ---------------------------------------------------------------------------
# the pair poset


def test_pair_order_is_canonical():
    P = chain(3)
    assert all_pairs(P) == [
        Pair(0, 0),
        Pair(1, 1),
        Pair(2, 2),
        Pair(0, 1),
        Pair(0, 2),
        Pair(1, 2),
    ]


def test_pair_poset_chain2():
    G = PairPoset(chain(2))
    assert G.size == 3
    # [a,b] sits above both diagonals
    assert G.wider[0] == 0b100 and G.wider[1] == 0b100 and G.wider[2] == 0
    assert G.minimal_of(0b111) == [0, 1]
    assert G.pair_label(2) == "[a,b]"
    assert len(list(enumerate_up_sets(G))) == 5


def test_pair_nesting_matches_the_pairwise_definition(corpus):
    for P in corpus + [boolean_lattice(4)]:
        G = PairPoset(P)
        wider, narrower = brute_pair_nesting(P)
        assert list(G.wider) == wider and list(G.narrower) == narrower, P


def test_diagonals_are_the_minimal_pairs():
    for P in (chain(4), diamond(), boolean_lattice(2), antichain(3)):
        G = PairPoset(P)
        assert G.minimal_of((1 << G.size) - 1) == list(range(P.n))


@settings(max_examples=40)
@given(posets(max_n=4))
def test_up_set_enumeration_matches_brute_force(P):
    G = PairPoset(P)
    got = sorted(enumerate_up_sets(G))
    assert got == brute_up_closed_masks(G.size, G.wider)
    assert len(got) == brute_antichain_count(G.size, G.wider)


def test_antichain_count_matches_the_subset_filter(corpus):
    counted = 0
    for P in corpus:
        G = PairPoset(P)
        if G.size <= 15:
            counted += 1
            want = brute_antichain_count(G.size, G.wider)
            assert _antichain_count(G.wider, G.narrower) == want, P
    assert counted == 333


def test_antichain_count_closed_forms():
    for n in range(11):
        G = PairPoset(chain(n))
        # Catalan number C(n+1)
        assert _antichain_count(G.wider, G.narrower) == comb(2 * n + 2, n + 1) // (n + 2)
        G = PairPoset(antichain(n))
        assert _antichain_count(G.wider, G.narrower) == 2 ** n
    # the split runs on a stack, not the call stack
    G = PairPoset(antichain(1200))
    assert _antichain_count(G.wider, G.narrower) == 2 ** 1200


def test_up_set_cap():
    G = PairPoset(boolean_lattice(3))
    assert G.size == 27
    with pytest.raises(CapExceeded) as e:
        enumerate_up_sets(G)
    assert str(e.value) == "pair poset has 27 elements, cap is 20"
    assert sum(1 for _ in enumerate_up_sets(G, cap=27)) == 15936


def test_up_set_enumeration_is_not_bounded_by_recursion_depth():
    G = PairPoset(antichain(1200))
    full = (1 << 1200) - 1
    first = list(islice(enumerate_up_sets(G, cap=2000), 3))
    assert first == [full, full & ~(1 << 1199), full & ~(1 << 1198)]


def test_chain_up_set_counts_are_catalan():
    # up-sets of the pair poset of an n-chain count lattice paths
    counts = [len(list(enumerate_up_sets(PairPoset(chain(n))))) for n in range(1, 5)]
    assert counts == [2, 5, 14, 42]


# ---------------------------------------------------------------------------
# isomorphism


@settings(max_examples=40)
@given(posets(max_n=5), st.randoms(use_true_random=False))
def test_isomorphism_found_for_relabelings(P, rnd):
    perm = list(range(P.n))
    rnd.shuffle(perm)
    rows = [0] * P.n
    for x, y in P.strict_pairs():
        rows[perm[x]] |= 1 << perm[y]
    Q = Poset(["q%d" % i for i in range(P.n)], rows)
    f = brute_isomorphism(P, Q)
    assert f is not None
    for x in range(P.n):
        for y in range(P.n):
            assert P.strict(x, y) == Q.strict(f[x], f[y])


def test_isomorphism_negatives():
    assert brute_isomorphism(chain(3), antichain(3)) is None
    assert brute_isomorphism(chain(2), chain(3)) is None
    D = diamond()
    assert brute_isomorphism(D, Poset(D.labels, D.down)) is not None


def test_isomorphism_size_limit():
    with pytest.raises(SizeLimitExceeded):
        brute_isomorphism(chain(7), chain(7))


# ---------------------------------------------------------------------------
# DOT output


def test_hasse_dot_golden():
    assert hasse_dot(chain(2)) == (
        'digraph hasse {\n'
        '  rankdir=BT;\n'
        '  "a";\n'
        '  "b";\n'
        '  { rank=same; "a"; }\n'
        '  { rank=same; "b"; }\n'
        '  "a" -> "b";\n'
        '}\n'
    )


def test_hasse_dot_golden_diamond():
    assert hasse_dot(diamond()) == (
        'digraph hasse {\n'
        '  rankdir=BT;\n'
        '  "a";\n'
        '  "b";\n'
        '  "c";\n'
        '  "d";\n'
        '  { rank=same; "a"; }\n'
        '  { rank=same; "b"; "c"; }\n'
        '  { rank=same; "d"; }\n'
        '  "a" -> "b";\n'
        '  "a" -> "c";\n'
        '  "b" -> "d";\n'
        '  "c" -> "d";\n'
        '}\n'
    )


def test_pair_poset_dot_golden_diamond():
    assert pair_poset_dot(PairPoset(diamond())) == (
        'digraph pairs {\n'
        '  rankdir=BT;\n'
        '  "[a,a]";\n'
        '  "[b,b]";\n'
        '  "[c,c]";\n'
        '  "[d,d]";\n'
        '  "[a,b]";\n'
        '  "[a,c]";\n'
        '  "[a,d]";\n'
        '  "[b,d]";\n'
        '  "[c,d]";\n'
        '  { rank=same; "[a,a]"; "[b,b]"; "[c,c]"; "[d,d]"; }\n'
        '  { rank=same; "[a,b]"; "[a,c]"; "[b,d]"; "[c,d]"; }\n'
        '  { rank=same; "[a,d]"; }\n'
        '  "[a,a]" -> "[a,b]";\n'
        '  "[a,a]" -> "[a,c]";\n'
        '  "[b,b]" -> "[a,b]";\n'
        '  "[b,b]" -> "[b,d]";\n'
        '  "[c,c]" -> "[a,c]";\n'
        '  "[c,c]" -> "[c,d]";\n'
        '  "[d,d]" -> "[b,d]";\n'
        '  "[d,d]" -> "[c,d]";\n'
        '  "[a,b]" -> "[a,d]";\n'
        '  "[a,c]" -> "[a,d]";\n'
        '  "[b,d]" -> "[a,d]";\n'
        '  "[c,d]" -> "[a,d]";\n'
        '}\n'
    )


def test_dot_exports_escape_quotes_and_backslashes():
    # labels may hold '"' and '\'; every quoted ID escapes both
    P = parse_poset('elements: a"b c\\\nrelations: a"b<c\\\n')
    assert P.labels == ('a"b', 'c\\')
    A = IncidenceAlgebra(P, "reflexive")
    G = A.pair_poset()
    ideal_names = [format_ideal(I) for I in enumerate_ideals(A)]
    pair_names = [G.pair_label(i) for i in range(G.size)]
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    for text, names in [
        (hasse_dot(P), P.labels),
        (pair_poset_dot(G), pair_names),
        (ideal_lattice_dot(A), ideal_names),
    ]:
        for line in text.splitlines():
            # nothing but quoted IDs may hold a quote or a backslash
            assert not re.search(r'["\\]', quoted.sub("", line)), line
        ids = {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted.findall(text)}
        assert ids == set(names)


def test_pair_poset_dot_mentions_every_pair():
    P = chain(3)
    text = pair_poset_dot(PairPoset(P))
    for lbl in ("[a,a]", "[b,b]", "[c,c]", "[a,b]", "[b,c]", "[a,c]"):
        assert '"%s"' % lbl in text
    assert text.count("->") == 6


def test_transitive_closure_labels_in_cycle_message():
    with pytest.raises(CycleDetected) as e:
        transitive_closure(2, [0b10, 0b01], ["left", "right"])
    assert "left" in str(e.value)
