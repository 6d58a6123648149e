from contextlib import nullcontext
from fractions import Fraction
import hashlib

from hypothesis import given, settings
import pytest

from posetalg import ideals
from posetalg import (
    AlgebraMismatch,
    CapExceeded,
    ConventionError,
    IncidenceAlgebra,
    Ideal,
    Pair,
    antichain,
    boolean_lattice,
    chain,
    diamond,
    enumerate_ideals,
    enumerate_up_sets,
    format_ideal,
    full_ideal,
    ideal_generated_by,
    ideal_intersect,
    ideal_lattice_dot,
    ideal_product,
    ideal_sum,
    indecomposable_ideals,
    is_indecomposable,
    maximal_ideals,
    maximal_indecomposable_ideals,
    principal_ideal,
    span_of,
    zero_ideal,
)
from posetalg.oracles import subspace_closure
from _strategies import posets


def A_of(P):
    return IncidenceAlgebra(P, "reflexive")


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize(
    "convention, mask, outcome",
    [
        ("reflexive", 0b101, nullcontext()),
        # {[a,a]} alone is not an ideal: [a,a] generates [a,b] too
        ("reflexive", 0b001, pytest.raises(ValueError)),
        # the reflexive chain(2) has generators 0..2
        ("reflexive", 0b1000, pytest.raises(ValueError)),
        ("reflexive", -1, pytest.raises(ValueError)),
        # the irreflexive one has the one generator [a,b], and no ideal
        # calculus: not a bit past it, nor the whole algebra
        ("irreflexive", 0b100, pytest.raises(ConventionError)),
        ("irreflexive", 0b1, pytest.raises(ConventionError)),
    ],
    ids=[
        "up-closed",
        "not-up-closed",
        "bit-past-dim",
        "negative",
        "irreflexive-past-dim",
        "irreflexive-full",
    ],
)
def test_masks_must_be_up_closed(convention, mask, outcome):
    with outcome:
        Ideal(IncidenceAlgebra(chain(2), convention), mask)


def test_masks_must_be_ints():
    # 2.5 is no bitmask, and True would pass as the mask 1
    with pytest.raises(ValueError):
        Ideal(A_of(chain(2)), 2.5)
    with pytest.raises(ValueError):
        Ideal(A_of(antichain(1)), True)


def test_every_ideal_the_library_builds_is_up_closed(exhaustive4):
    # the library skips the constructor's check on the ideals it builds
    for P in exhaustive4:
        A = A_of(P)
        G = A.pair_poset()
        listed = list(enumerate_ideals(A))
        made = [
            zero_ideal(A),
            full_ideal(A),
            *indecomposable_ideals(A),
            *maximal_indecomposable_ideals(A),
            *maximal_ideals(A),
            *(principal_ideal(A, i) for i in range(A.dim)),
            *(ideal_generated_by(A, [A.generator(i)]) for i in range(A.dim)),
            *listed,
        ]
        masks = {I.up_mask for I in made}
        for I in listed:
            for J in listed:
                masks.update(((I + J).up_mask, (I & J).up_mask, (I * J).up_mask))
        assert all(G.is_up_closed(m) for m in masks), P


def test_ideals_require_the_reflexive_convention():
    A = IncidenceAlgebra(chain(2), "irreflexive")
    with pytest.raises(ConventionError):
        zero_ideal(A)
    with pytest.raises(ConventionError):
        enumerate_ideals(A)


def test_chain2_principal_ideals():
    A = A_of(chain(2))
    Ia = principal_ideal(A, 0)
    Ib = principal_ideal(A, 1)
    assert format_ideal(Ia) == "{[a,a],[a,b]}"
    assert format_ideal(Ib) == "{[b,b],[a,b]}"
    assert format_ideal(Ib * Ia) == "{}"
    assert format_ideal(Ia * Ib) == "{[a,b]}"
    assert Ia + Ib == full_ideal(A)
    assert (Ia & Ib) == principal_ideal(A, 2)
    assert (Ib * Ia).is_zero
    assert Ia.contains(Ia * Ib)
    assert not Ia.contains(Ib)


def test_principal_accepts_pairs_and_labels_via_index():
    A = A_of(chain(3))
    i = A.index[Pair(1, 1)]
    I = ideal_generated_by(A, [A.generator(i)])
    assert format_ideal(I) == "{[b,b],[a,b],[a,c],[b,c]}"
    assert I == principal_ideal(A, i)
    assert len({I, principal_ideal(A, i)}) == 1


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_ideals(A_of(chain(2)))) == 5
    assert sum(1 for _ in enumerate_ideals(A_of(chain(3)))) == 14
    assert sum(1 for _ in enumerate_ideals(A_of(antichain(3)))) == 8


def test_enumeration_cap():
    A = A_of(boolean_lattice(3))
    with pytest.raises(CapExceeded) as e:
        enumerate_ideals(A)
    assert str(e.value) == "pair poset has 27 elements, cap is 20"


def test_indecomposables_and_maximals_chain3():
    A = A_of(chain(3))
    indec = indecomposable_ideals(A)
    assert len(indec) == 6
    assert all(is_indecomposable(I) for I in indec)
    assert not is_indecomposable(zero_ideal(A))
    assert not is_indecomposable(full_ideal(A))
    top = maximal_indecomposable_ideals(A)
    assert [format_ideal(I) for I in top] == [
        "{[a,a],[a,b],[a,c]}",
        "{[b,b],[a,b],[a,c],[b,c]}",
        "{[c,c],[a,c],[b,c]}",
    ]
    maxs = maximal_ideals(A)
    assert len(maxs) == 3
    full = full_ideal(A)
    for M in maxs:
        assert full.contains(M) and M != full
        assert (full.up_mask & ~M.up_mask).bit_count() == 1


def test_ideal_ops_require_same_algebra():
    I = full_ideal(A_of(chain(2)))
    J = full_ideal(A_of(chain(2)))
    with pytest.raises(AlgebraMismatch):
        ideal_sum(I, J)
    with pytest.raises(AlgebraMismatch):
        ideal_product(I, J)
    with pytest.raises(AlgebraMismatch):
        ideal_intersect(I, J)


@settings(max_examples=40, deadline=None)
@given(posets(max_n=4))
def test_lattice_laws_on_enumerated_ideals(P):
    A = A_of(P)
    ideals = list(enumerate_ideals(A))
    for I in ideals:
        assert (I * I).contains(I * I & I)
        for J in ideals:
            S, M, X = I + J, I & J, I * J
            assert S.up_mask == I.up_mask | J.up_mask
            assert M.up_mask == I.up_mask & J.up_mask
            assert M.contains(X)
            assert I.contains(X) and J.contains(X)
            assert S.contains(I) and S.contains(J)


def pair_index_product(A, I, J):
    """The product by its definition: [x,v] for each [x,w] in I and [w,v]
    in J, looked up by pair index."""
    gens, index = A.generators, A.index
    mask = 0
    for i in I.pair_indices():
        x, w = gens[i]
        for j in J.pair_indices():
            u, v = gens[j]
            if u == w:
                mask |= 1 << index[x, v]
    return mask


def test_ideal_product_matches_the_pair_index_oracle(exhaustive4, random7):
    # every two ideals on up to 3 elements, every two principal ideals on
    # the rest of the corpus
    for P in exhaustive4 + random7:
        A = A_of(P)
        if P.n <= 3:
            ideals = list(enumerate_ideals(A))
        else:
            ideals = indecomposable_ideals(A)
        for I in ideals:
            for J in ideals:
                want = pair_index_product(A, I, J)
                assert ideal_product(I, J).up_mask == want, (P, I, J)


# ---------------------------------------------------------------------------
# subspaces


def test_span_collapses_dependent_generators():
    A = A_of(chain(2))
    f = A.element({0: Fraction(1), 2: Fraction(2)})
    g = A.element({0: Fraction(2), 2: Fraction(4)})
    h = A.element({2: Fraction(1)})
    S = span_of(A, [f, g])
    assert S.dim == 1
    T = span_of(A, [f, h])
    assert T.dim == 2
    assert T.contains(A.generator(0))
    assert not S.contains(A.generator(0))


def test_span_basis_is_canonical():
    A = A_of(chain(3))
    f = A.element({0: Fraction(1), 3: Fraction(1)})
    g = A.element({3: Fraction(1), 4: Fraction(2)})
    h = A.element({0: Fraction(1), 4: Fraction(-2)})
    # h = f - g, so both orders span the same plane
    assert span_of(A, [f, g]) == span_of(A, [g, h])
    assert span_of(A, [f, g]).basis() == span_of(A, [h, f]).basis()


def test_reduce_returns_residue():
    A = A_of(chain(2))
    S = span_of(A, [A.generator(0)])
    residue = S.reduce({0: Fraction(3), 1: Fraction(1)})
    assert residue == {1: Fraction(1)}
    assert S.reduce({0: Fraction(5)}) == {}


def test_closure_of_a_single_strict_generator():
    A = A_of(chain(3))
    ab = A.index[Pair(0, 1)]
    S = subspace_closure(A, [A.generator(ab)])
    I = ideal_generated_by(A, [A.generator(ab)])
    assert format_ideal(I) == "{[a,b],[a,c]}"
    assert S.dim == I.dimension()
    for i in I.pair_indices():
        assert S.contains(A.generator(i))


def test_closure_of_mixed_element_matches_ideal():
    A = A_of(diamond())
    f = A.element({0: Fraction(1), A.dim - 1: Fraction(-3)})
    g = A.element({A.index[Pair(1, 3)]: Fraction(1, 2)})
    S = subspace_closure(A, [f, g])
    I = ideal_generated_by(A, [f, g])
    assert S.dim == I.dimension()
    for i in I.pair_indices():
        assert S.contains(A.generator(i))
    assert not S.contains(A.element({1: Fraction(1)}))


def test_closure_of_nothing_is_zero():
    A = A_of(chain(3))
    assert subspace_closure(A, []).dim == 0
    assert ideal_generated_by(A, []).is_zero
    assert ideal_generated_by(A, [A.zero()]).is_zero


# ---------------------------------------------------------------------------
# DOT export


def test_ideal_lattice_dot_chain2():
    text = ideal_lattice_dot(A_of(chain(2)))
    assert text.count("->") == 5  # covers of the 5-element ideal lattice
    assert '"{}"' in text
    assert '"{[a,a],[b,b],[a,b]}"' in text


def test_ideal_lattice_dot_golden_chain2():
    assert ideal_lattice_dot(A_of(chain(2))) == (
        'digraph ideals {\n'
        '  rankdir=BT;\n'
        '  "{}";\n'
        '  "{[a,b]}";\n'
        '  "{[a,a],[a,b]}";\n'
        '  "{[b,b],[a,b]}";\n'
        '  "{[a,a],[b,b],[a,b]}";\n'
        '  { rank=same; "{}"; }\n'
        '  { rank=same; "{[a,b]}"; }\n'
        '  { rank=same; "{[a,a],[a,b]}"; "{[b,b],[a,b]}"; }\n'
        '  { rank=same; "{[a,a],[b,b],[a,b]}"; }\n'
        '  "{}" -> "{[a,b]}";\n'
        '  "{[a,b]}" -> "{[a,a],[a,b]}";\n'
        '  "{[a,b]}" -> "{[b,b],[a,b]}";\n'
        '  "{[a,a],[a,b]}" -> "{[a,a],[b,b],[a,b]}";\n'
        '  "{[b,b],[a,b]}" -> "{[a,a],[b,b],[a,b]}";\n'
        '}\n'
    )


def test_ideal_lattice_dot_golden_diamond():
    text = ideal_lattice_dot(A_of(diamond()))
    lines = text.splitlines()
    assert lines[:4] == ['digraph ideals {', '  rankdir=BT;', '  "{}";', '  "{[a,d]}";']
    # 48 ideals of dimensions 0 to 9, one rank line per dimension
    ranks = [line for line in lines if "rank=same" in line]
    assert len(ranks) == 10
    for d, line in enumerate(ranks):
        names = line[len("  { rank=same; "):-len(" }")].split("; ")
        assert all(name.count("[") == d for name in names), line
    assert ranks[2] == (
        '  { rank=same; "{[a,b],[a,d]}"; "{[a,c],[a,d]}"; '
        '"{[a,d],[b,d]}"; "{[a,d],[c,d]}"; }'
    )
    # edges in order of their lower end, then of their upper end
    assert lines[60:64] == [
        '  "{}" -> "{[a,d]}";',
        '  "{[a,d]}" -> "{[a,b],[a,d]}";',
        '  "{[a,d]}" -> "{[a,c],[a,d]}";',
        '  "{[a,d]}" -> "{[a,d],[b,d]}";',
    ]
    assert text.count("->") == 105
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bac0d987083a07eb5043baa2ed118f8cee272b17f9e0592bdf709295dcc5938b"
    )


def test_ideal_lattice_dot_cap():
    with pytest.raises(CapExceeded, match="more than 64 ideals"):
        ideal_lattice_dot(A_of(antichain(7)), cap=64)


def test_ideal_lattice_dot_stops_drawing_past_the_cap(monkeypatch):
    drawn = 0

    def counting(G, cap):
        nonlocal drawn
        for m in enumerate_up_sets(G, cap=cap):
            drawn += 1
            yield m

    monkeypatch.setattr(ideals, "enumerate_up_sets", counting)
    with pytest.raises(CapExceeded):
        ideal_lattice_dot(A_of(antichain(20)))  # 2**20 ideals
    assert drawn <= 65


def test_ideal_lattice_dot_refuses_more_pairs_than_the_cap():
    # s pairs give at least s + 1 ideals
    with pytest.raises(CapExceeded, match="pair poset has 6 elements, cap is 5"):
        ideal_lattice_dot(A_of(chain(3)), cap=5)
