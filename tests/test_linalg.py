"""The sparse echelon core and the ideal closure of linalg.py, against the
dense and literal references in oracles.py."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg import (
    IncidenceAlgebra,
    boolean_lattice,
    chain,
    diamond,
    ideal_closure,
    ideal_generated_by,
    span_of,
)
from posetalg.checks import random_element_lists
from posetalg.oracles import brute_rank, subspace_closure
from posetalg.rng import LCG
from _strategies import elements_of, posets


def A_of(P):
    return IncidenceAlgebra(P, "reflexive")


# ---------------------------------------------------------------------------
# echelon against dense elimination

_SMALL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 2))


def _sparse(rng, dim):
    return {
        rng.next_below(dim): _SMALL[rng.next_below(len(_SMALL))]
        for _ in range(1 + rng.next_below(3))
    }


def _combine(rng, vectors):
    """a u + b v of two listed vectors, with a and b chosen so that the
    coordinates the two share can cancel."""
    u = vectors[rng.next_below(len(vectors))]
    v = vectors[rng.next_below(len(vectors))]
    a = _SMALL[rng.next_below(len(_SMALL))]
    b = -a if rng.next_below(2) else _SMALL[rng.next_below(len(_SMALL))]
    out = {}
    for w, c in ((u, a), (v, b)):
        for i, x in w.items():
            s = out.get(i, 0) + c * x
            if s:
                out[i] = s
            else:
                out.pop(i, None)
    return out


def _seeded_vectors(A, seed, n):
    rng = LCG(seed)
    vectors = [_sparse(rng, A.dim) for _ in range(2)]
    while len(vectors) < n:
        if rng.next_below(2):
            vectors.append(_combine(rng, vectors))
        else:
            vectors.append(_sparse(rng, A.dim))
    return vectors


ALGEBRAS = [A_of(chain(3)), A_of(diamond()), A_of(boolean_lattice(3))]


def test_span_rank_matches_dense_elimination():
    for A in ALGEBRAS:
        for seed in range(40):
            vectors = _seeded_vectors(A, seed, 2 + seed % 9)
            got = span_of(A, [A.element(v) for v in vectors]).dim
            assert got == brute_rank(vectors, A.dim), (A.poset, seed)


def test_reduce_is_empty_exactly_when_the_rank_stays():
    for A in ALGEBRAS:
        for seed in range(40):
            vectors = _seeded_vectors(A, 100 + seed, 3 + seed % 7)
            base, probes = vectors[: len(vectors) // 2], vectors[len(vectors) // 2 :]
            S = span_of(A, [A.element(v) for v in base])
            rank = brute_rank(base, A.dim)
            for v in probes + [_combine(LCG(seed), base)]:
                inside = brute_rank(base + [v], A.dim) == rank
                assert (S.reduce(v) == {}) == inside, (A.poset, seed, v)


# ---------------------------------------------------------------------------
# ideal closure against the literal closure


def _assert_closures_agree(corpus, seed0, convention="reflexive"):
    for k, P in enumerate(corpus):
        A = IncidenceAlgebra(P, convention)
        for elems in random_element_lists(A, LCG(seed0 + k), 3):
            S = ideal_closure(A, elems)
            assert S.rows == subspace_closure(A, elems).rows, (P, convention)


def test_ideal_closure_matches_the_oracle_on_exhaustive4(exhaustive4):
    _assert_closures_agree(exhaustive4, 0)


def test_ideal_closure_matches_the_oracle_on_random7(random7):
    _assert_closures_agree(random7, 5000)


def test_ideal_closure_matches_the_oracle_under_both_conventions(exhaustive4):
    # with no [x,x] to multiply by, the left products of a term [x,y] start
    # strictly below x
    chains = [chain(k) for k in range(2, 7)]
    _assert_closures_agree(chains, 9000)
    _assert_closures_agree(exhaustive4 + chains, 9100, "irreflexive")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ideal_closure_matches_the_oracle(data):
    A = A_of(data.draw(posets()))
    elems = data.draw(st.lists(elements_of(A), max_size=3))
    S = ideal_closure(A, elems)
    assert S.rows == subspace_closure(A, elems).rows
    assert S.dim == ideal_generated_by(A, elems).dimension()


def test_closure_of_bc_needs_a_left_product():
    # [a,b][b,c] = [a,c]: only a generator on the left reaches [a,c]
    A = A_of(chain(3))
    S = ideal_closure(A, [A.generator((1, 2))])
    assert S.dim == 2
    assert repr(S) == "<Subspace dim=2 of 6>"
    assert S.contains(A.generator((0, 2)))


def test_closure_of_ab_needs_a_right_product():
    # [a,b][b,c] = [a,c]: only a generator on the right reaches [a,c]
    A = A_of(chain(3))
    S = ideal_closure(A, [A.generator((0, 1))])
    assert S.dim == 2
    assert S.contains(A.generator((0, 2)))
