from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetalg import (
    MAX_PROBE_DEGREE,
    SizeLimitExceeded,
    antichain,
    build_rewrite_system,
    chain,
    confluence_probe,
    diamond,
    dimension_up_to,
    reduce_word,
)
from posetalg.oracles import (
    brute_confluence_witnesses,
    brute_dimension_up_to,
    brute_normal_forms,
    brute_rewrite_rules,
)
from posetalg.rewriting import RewriteSystem


def rule_strings(R):
    """R's rules as "lhs -> rhs" over labels, shorter left sides first."""
    labs = R.poset.labels
    out = []
    for lhs, rhs in sorted(R.rules.items(), key=lambda kv: (len(kv[0]), kv[0])):
        left = " ".join(labs[i] for i in lhs)
        right = "0" if rhs is None else " ".join(labs[i] for i in rhs)
        out.append("%s -> %s" % (left, right))
    return out


def test_rule_set_chain2_allow_repeats():
    R = build_rewrite_system(chain(2), "allow_repeats")
    assert rule_strings(R) == [
        "b a -> 0",
        "a a a -> a a",
        "a a b -> a b",
        "a b a -> 0",
        "a b b -> a b",
        "b a b -> 0",
        "b b b -> b b",
    ]


def test_rule_set_chain2_distinct_only():
    R = build_rewrite_system(chain(2), "distinct_only")
    # no three distinct comparable elements exist, so only the zero rules
    assert rule_strings(R) == ["b a -> 0", "a b a -> 0", "b a b -> 0"]
    assert repr(R) == "<RewriteSystem a,b distinct_only, 3 rules>"


@pytest.mark.parametrize("conv", ["allow_repeats", "distinct_only"])
def test_rules_match_the_literal_oracle(corpus, conv):
    for P in corpus:
        rules = build_rewrite_system(P, conv).rules
        want = brute_rewrite_rules(P, conv)
        assert rules == want
        assert list(rules) == list(want)
        # the rules pass the checks a hand-built system goes through
        assert RewriteSystem(P, conv, rules).rules == rules


def test_convention_is_validated():
    with pytest.raises(ValueError):
        build_rewrite_system(chain(2), "sometimes")


def test_reduction_basics():
    P = chain(3)
    R = build_rewrite_system(P, "allow_repeats")
    a, b, c = 0, 1, 2
    assert reduce_word(R, (a, b, c)) == (a, c)
    assert reduce_word(R, (b, a)) is None
    assert reduce_word(R, (a, b, a)) is None
    assert reduce_word(R, (a, c, b)) is None
    assert reduce_word(R, (a,)) == (a,)
    assert reduce_word(R, ()) == ()
    assert reduce_word(R, (a, a)) == (a, a)
    assert reduce_word(R, (a, a, a, a)) == (a, a)
    # a long comparable run telescopes to its endpoints
    assert reduce_word(R, (a, a, b, b, c, c)) == (a, c)


def test_zero_absorbs_context():
    R = build_rewrite_system(chain(3), "allow_repeats")
    assert reduce_word(R, (0, 1, 0, 2)) is None
    assert reduce_word(R, (2, 2, 1, 0)) is None


def test_word_validation():
    R = build_rewrite_system(chain(2), "allow_repeats")
    # words of any length: a a a -> a a keeps a run of a at two letters
    assert reduce_word(R, (0,) * 1000) == (0, 0)
    with pytest.raises(ValueError):
        reduce_word(R, (0, 9))
    # in range but not element indices, refused as the RewriteSystem
    # constructor refuses them in a rule
    for word in [(0.5,), (True, 0.0, 1)]:
        with pytest.raises(ValueError, match="is not a poset element index"):
            reduce_word(R, word)


def test_reduction_takes_any_iterable():
    R = build_rewrite_system(chain(3), "allow_repeats")
    assert reduce_word(R, (i for i in (0, 1, 2))) == (0, 2)


def test_long_words_reduce_in_one_pass():
    # one pass: rescanning from each edit would be quadratic at this length
    R = build_rewrite_system(chain(3), "allow_repeats")
    assert reduce_word(R, (0,) + (1,) * 10 ** 5 + (2,)) == (0, 2)


@pytest.mark.parametrize(
    "rules, form",
    [
        # the leftmost redex wins: 0 1 -> 2 before 1 2 -> 0
        ({(0, 1): (2,), (1, 2): (0,)}, (2, 2)),
        # at one position the shorter left side wins
        ({(0, 1): (2,), (0, 1, 2): (1,)}, (2, 2)),
        # 0 1 2 starts before 1 2
        ({(0, 1, 2): (1,), (1, 2): (0,)}, (1,)),
    ],
)
def test_reduction_strategy_on_systems_with_two_normal_forms(rules, form):
    R = RewriteSystem(chain(3), "allow_repeats", rules)
    forms = brute_normal_forms(R, (0, 1, 2), {})
    assert len(forms) == 2 and form in forms
    assert reduce_word(R, (0, 1, 2)) == form


def test_dimension_sequences_chain2():
    allow = build_rewrite_system(chain(2), "allow_repeats")
    strict = build_rewrite_system(chain(2), "distinct_only")
    assert dimension_up_to(allow, 6) == [2, 5, 5, 5, 5, 5]
    assert dimension_up_to(strict, 6) == [2, 5, 9, 14, 20, 27]


def test_dimension_sequences_small_posets():
    assert dimension_up_to(
        build_rewrite_system(antichain(1), "allow_repeats"), 6
    ) == [1, 2, 2, 2, 2, 2]
    assert dimension_up_to(
        build_rewrite_system(chain(3), "allow_repeats"), 5
    ) == [3, 9, 9, 9, 9]


def test_dimension_closed_forms_past_enumeration_range():
    # the normal forms of chain(2) under distinct_only are a^i b^j, so there
    # are k + 1 of length k and dims[d] = sum(k + 1 for k <= d) = d(d+3)/2
    strict = build_rewrite_system(chain(2), "distinct_only")
    dims = dimension_up_to(strict, 32)
    assert dims == [d * (d + 3) // 2 for d in range(1, 33)]
    assert dims[-1] == 560
    # antichain(2) under allow_repeats has no 2-letter rule, and each of the
    # four pairs extends only to the one pair that avoids x y x and x x x, so
    # every length from 2 on adds 4 words: 2 + 4(d-1)
    allow = build_rewrite_system(antichain(2), "allow_repeats")
    assert dimension_up_to(allow, 32) == [4 * d - 2 for d in range(1, 33)]
    # on chain(n) under allow_repeats the irreducible pairs are the n(n+1)/2
    # pairs a <= b, and every a <= b <= c is a left side, so nothing of length
    # 3 or more is irreducible: n, then n + n(n+1)/2 = 26 + 351 for chain(26)
    chain26 = build_rewrite_system(chain(26), "allow_repeats")
    assert dimension_up_to(chain26, 32) == [26] + [377] * 31


@pytest.mark.parametrize("conv", ["allow_repeats", "distinct_only"])
def test_dimensions_match_the_enumeration_oracle(exhaustive4, random7, conv):
    cases = [(P, 5) for P in exhaustive4]
    cases += [(P, 6) for P in random7 if P.n in (4, 5)]
    for P, degree in cases:
        R = build_rewrite_system(P, conv)
        assert dimension_up_to(R, degree) == brute_dimension_up_to(R, degree)


def test_enumeration_oracle_is_capped():
    R = build_rewrite_system(chain(5), "allow_repeats")
    assert brute_dimension_up_to(R, 2) == dimension_up_to(R, 2)
    with pytest.raises(SizeLimitExceeded):
        brute_dimension_up_to(R, 8)


def test_degree_cap():
    R = build_rewrite_system(chain(2), "allow_repeats")
    with pytest.raises(ValueError):
        dimension_up_to(R, MAX_PROBE_DEGREE + 1)
    assert dimension_up_to(R, 0) == []


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=6).map(tuple))
def test_reduction_is_a_fixpoint(word):
    R = build_rewrite_system(diamond(), "allow_repeats")
    # diamond indices 0..3; clamp letters into range
    word = tuple(min(w, 3) for w in word)
    nf = reduce_word(R, word)
    if nf is not None:
        assert reduce_word(R, nf) == nf


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=6).map(tuple))
def test_all_strategies_reach_the_same_form(word):
    # chain(3) under both conventions is confluent on short words, so the
    # leftmost strategy must agree with every other reduction order
    for conv in ("allow_repeats", "distinct_only"):
        R = build_rewrite_system(chain(3), conv)
        forms = brute_normal_forms(R, word, {})
        assert forms == {reduce_word(R, word)}


def test_confluence_probe_is_quiet_on_small_posets():
    for P in (chain(2), chain(3), diamond(), antichain(2)):
        for conv in ("allow_repeats", "distinct_only"):
            R = build_rewrite_system(P, conv)
            assert confluence_probe(R) == []


@pytest.mark.parametrize("conv", ["allow_repeats", "distinct_only"])
def test_confluence_probe_decides_chain12(conv):
    # 12 letters up to length 5 are 271,452 words, past the enumeration's
    # budget; the critical pairs are overlap words of at most 5 letters
    assert confluence_probe(build_rewrite_system(chain(12), conv)) == []


def test_confluence_probe_matches_the_enumeration_oracle(random7):
    for P in random7:
        if P.n > 5:
            continue
        for conv in ("allow_repeats", "distinct_only"):
            R = build_rewrite_system(P, conv)
            assert confluence_probe(R) == [] == brute_confluence_witnesses(R, 5)


@pytest.mark.parametrize(
    "rules",
    [
        {(0, 1): (0,), (1, 2): (1,)},
        {(0, 1): None, (1, 2): (2,)},
        {(0, 1, 2): (0,), (1, 2): (1,)},
    ],
)
def test_confluence_probe_witnesses_are_oracle_witnesses(rules):
    R = RewriteSystem(chain(3), "allow_repeats", rules)
    found = confluence_probe(R)
    assert found
    oracle = dict(brute_confluence_witnesses(R, 5))
    for word, forms in found:
        assert word in oracle
        assert set(forms) <= set(oracle[word])


@pytest.mark.parametrize(
    "rules",
    [
        {(0, 1): (1, 0)},
        {(0, 1): (1, 0), (1, 0): (0, 1)},
        {(0, 1): (1, 0, 1)},
        {(0, 1, 1): (1, 0, 0)},
    ],
)
def test_rewrite_system_refuses_a_rule_that_does_not_shorten(rules):
    # such rules need not terminate: 0 1 -> 1 0 -> 0 1 -> ... loops, and
    # 0 1 -> 1 0 1 grows every word holding 0 1 without end
    with pytest.raises(ValueError):
        RewriteSystem(chain(2), "allow_repeats", rules)


@pytest.mark.parametrize("rules", [{(0, 1, 2, 0): None}, {(1,): None}])
def test_rewrite_system_refuses_a_left_side_reduction_never_matches(rules):
    # reduce_word reads only 2- and 3-letter windows
    with pytest.raises(ValueError):
        RewriteSystem(chain(3), "allow_repeats", rules)


@pytest.mark.parametrize(
    "rules",
    [
        {(0, 1): (7,)},
        {(5, 9): None},
        {(0, 1): (-1,)},
        {(0, "b"): None},
        {(0, 1): (7,), (5, 9): None},
    ],
)
def test_rewrite_system_refuses_a_letter_that_names_no_element(rules):
    # dimension_up_to counts words over the letters 0..n-1 only
    with pytest.raises(ValueError):
        RewriteSystem(chain(3), "allow_repeats", rules)


def test_rewrite_system_refuses_an_empty_right_side():
    # the empty word would be a normal form, of degree 0, that no count holds
    with pytest.raises(ValueError):
        RewriteSystem(chain(2), "allow_repeats", {(0, 1): ()})


def _words(lo, hi):
    return st.lists(st.integers(0, 2), min_size=lo, max_size=hi).map(tuple)


@st.composite
def rule_sets(draw):
    """Left sides of 2 or 3 letters, each to zero or to a nonempty shorter
    word."""
    rules = {}
    for lhs in draw(st.lists(_words(2, 3), max_size=12)):
        rules[lhs] = draw(st.none() | _words(1, len(lhs) - 1))
    return rules


@settings(max_examples=60, deadline=None)
@given(rule_sets())
def test_hand_built_dimensions_match_the_enumeration_oracle(rules):
    R = RewriteSystem(chain(3), "allow_repeats", rules)
    assert dimension_up_to(R, 5) == brute_dimension_up_to(R, 5)


@settings(max_examples=40, deadline=None)
@given(rule_sets())
def test_reduction_reaches_an_irreducible_normal_form(rules):
    R = RewriteSystem(chain(3), "allow_repeats", rules)
    memo = {}
    for d in range(7):
        for word in product(range(3), repeat=d):
            nf = reduce_word(R, word)
            assert nf in brute_normal_forms(R, word, memo)
            if nf is not None:
                windows = {nf[p : p + k] for k in (2, 3) for p in range(len(nf) - k + 1)}
                assert not windows & R.rules.keys()


def test_confluence_probe_refuses_past_its_word_budget():
    # 5 + 25 + ... + 5^8 = 488,280 words, above the oracle's 10^5 budget
    R = build_rewrite_system(chain(5), "allow_repeats")
    with pytest.raises(SizeLimitExceeded):
        brute_confluence_witnesses(R, 8)


def test_monotone_dimensions():
    for P in (chain(2), chain(3), diamond(), antichain(3)):
        for conv in ("allow_repeats", "distinct_only"):
            dims = dimension_up_to(build_rewrite_system(P, conv), 6)
            assert all(x <= y for x, y in zip(dims, dims[1:]))
