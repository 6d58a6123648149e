"""Two-sided ideals of reflexive-convention incidence algebras.

The whole calculus rides on one fact: an ideal is the span of the generators
it contains, and the generator sets that occur are exactly the upward-closed
subsets of the pair poset.  So an Ideal here is a bitmask over generator
indices, closed upward under nesting.

Ideal sum is union, intersection is bitmask intersection, and the product is
relational composition of pair sets.  Indecomposable ideals are the principal
up-sets; the maximal indecomposable ones sit over the diagonal pairs; maximal
ideals drop a single diagonal pair.

Irreflexive-convention algebras are out of scope here: without the diagonal
pairs the up-set description does not apply.  IncidenceAlgebra.pair_poset()
is reflexive-only and raises ConventionError otherwise, and every
constructor here goes through it or through the same check.
"""

from itertools import islice

from .errors import AlgebraMismatch, CapExceeded
from .poset import _hasse_dot, enumerate_up_sets, iterbits


def _require_same(I, J):
    if not I.algebra.same_algebra(J.algebra):
        raise AlgebraMismatch("ideals live in different algebras")


class Ideal:
    """Two-sided ideal, canonically an up-closed generator bitmask.

    The constructor checks that the algebra is reflexive and that the mask
    is an up-closed set of its generator indices.  Every ideal this module
    builds comes from _checked instead, whose masks are up-closed as made:
    enumerated up-sets, principal up-sets and unions of them (zero and
    ideal_generated_by among them), the full mask, the full mask less one
    diagonal pair (a minimal pair of the nesting order), and sums,
    intersections and products of up-sets (see ideal_product)."""

    __slots__ = ("algebra", "up_mask")

    def __init__(self, algebra, up_mask):
        G = algebra.pair_poset()
        if type(up_mask) is not int or not 0 <= up_mask < 1 << algebra.dim:
            raise ValueError(
                "mask %r names no set of %d generators" % (up_mask, algebra.dim)
            )
        if not G.is_up_closed(up_mask):
            raise ValueError("generator set is not upward closed")
        self.algebra = algebra
        self.up_mask = up_mask

    @classmethod
    def _checked(cls, algebra, up_mask):
        ideal = cls.__new__(cls)  # of a mask up-closed as made, not rechecked
        ideal.algebra = algebra
        ideal.up_mask = up_mask
        return ideal

    @property
    def is_zero(self):
        return self.up_mask == 0

    def pair_indices(self):
        return list(iterbits(self.up_mask))

    def pairs(self):
        gens = self.algebra.generators
        return [gens[i] for i in self.pair_indices()]

    def dimension(self):
        return self.up_mask.bit_count()

    def contains(self, other):
        _require_same(other, self)
        return other.up_mask & ~self.up_mask == 0

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.algebra.same_algebra(other.algebra)
            and self.up_mask == other.up_mask
        )

    def __hash__(self):
        return hash(self.up_mask)

    def __add__(self, other):
        return ideal_sum(self, other)

    def __mul__(self, other):
        return ideal_product(self, other)

    def __and__(self, other):
        return ideal_intersect(self, other)

    def __repr__(self):
        return "<Ideal %s>" % format_ideal(self)


def format_ideal(I):
    """Brace-and-bracket form, pairs in canonical order: {[a,a],[a,b]}."""
    labs = I.algebra.poset.labels
    inner = ",".join("[%s,%s]" % (labs[p.x], labs[p.y]) for p in I.pairs())
    return "{%s}" % inner


def zero_ideal(A):
    A._check_reflexive()
    return Ideal._checked(A, 0)


def full_ideal(A):
    A._check_reflexive()
    return Ideal._checked(A, (1 << A.dim) - 1)


def principal_ideal(A, key):
    """Smallest ideal containing one generator: its principal up-set."""
    return Ideal._checked(A, A.pair_poset().principal_up(A._gen_index(key)))


def ideal_generated_by(A, elems):
    """Upward closure of the supports of the given elements."""
    G = A.pair_poset()
    mask = 0
    for f in elems:
        A._claim(f)
        for i in f.coeffs:
            mask |= G.principal_up(i)
    return Ideal._checked(A, mask)


def ideal_sum(I, J):
    _require_same(I, J)
    return Ideal._checked(I.algebra, I.up_mask | J.up_mask)


def ideal_intersect(I, J):
    _require_same(I, J)
    return Ideal._checked(I.algebra, I.up_mask & J.up_mask)


def _product_steps(A):
    """Per generator [x,w]: the mask of the generators starting at w, and
    the bit pairs (1 << j, 1 << k) of each j = [w,v] and k = [x,v], where
    [x,w] composes with j and where the product lands.  Built once per
    algebra, on one shared int per generator bit."""
    steps = A._product_steps
    if steps is None:
        index, by_first = A.index, A.by_first
        bit = [1 << k for k in range(A.dim)]
        starting = [0] * A.poset.n
        for j, (u, _) in enumerate(A.generators):
            starting[u] |= bit[j]
        steps = A._product_steps = [
            (starting[w], [(bit[j], bit[index[x, v]]) for j, v in by_first[w]])
            for x, w in A.generators
        ]
    return steps


def ideal_product(I, J):
    """Relational composition: pairs [x,v] with [x,w] in I and [w,v] in J.

    It is up-closed: for [x',v'] wider than [x,v] (x' <= x, v <= v'),
    [x',w] is wider than [x,w] and [w,v'] than [w,v], so they lie in I and
    J and compose to [x',v']."""
    if I.algebra is not J.algebra:
        _require_same(I, J)
    A = I.algebra
    steps = _product_steps(A)
    J_mask = J.up_mask
    mask = 0
    rest = I.up_mask
    while rest:
        low = rest & -rest
        starting, pairs = steps[low.bit_length() - 1]
        if J_mask & starting:
            for member, target in pairs:
                if J_mask & member:
                    mask |= target
        rest ^= low
    return Ideal._checked(A, mask)


def is_indecomposable(I):
    """Nonzero with a unique minimal pair, i.e. a principal up-set; the
    zero ideal has no minimal pair."""
    return len(I.algebra.pair_poset().minimal_of(I.up_mask)) == 1


def indecomposable_ideals(A):
    """One principal ideal per comparable pair, in canonical pair order."""
    G = A.pair_poset()
    return [Ideal._checked(A, G.principal_up(i)) for i in range(G.size)]


def maximal_indecomposable_ideals(A):
    """Principal ideals of the diagonal pairs, one per element."""
    G = A.pair_poset()
    return [Ideal._checked(A, G.principal_up(x)) for x in range(A.poset.n)]


def maximal_ideals(A):
    """Complements of a single diagonal pair, one per element."""
    A._check_reflexive()
    full = (1 << A.dim) - 1
    return [Ideal._checked(A, full & ~(1 << x)) for x in range(A.poset.n)]


def enumerate_ideals(A, cap=20):
    """Every ideal (the zero ideal included), streamed in a fixed order.

    The cap is checked up front, so CapExceeded fires at the call."""
    masks = enumerate_up_sets(A.pair_poset(), cap=cap)
    return (Ideal._checked(A, m) for m in masks)


# ---------------------------------------------------------------------------
# lattice export


def ideal_lattice_dot(A, cap=64):
    """DOT Hasse diagram of all ideals under inclusion, ranked by dimension.

    Ideals of an incidence algebra differ along a cover by exactly one pair,
    so an ideal's level in the lattice is its dimension.
    """
    G = A.pair_poset()
    # s pairs give at least s + 1 ideals, so the pair cap refuses exactly
    masks = list(islice(enumerate_up_sets(G, cap=cap), cap + 1))
    if len(masks) > cap:
        raise CapExceeded("more than %d ideals, the lattice export cap" % cap)
    masks.sort(key=lambda m: (m.bit_count(), m))
    names = [format_ideal(Ideal._checked(A, m)) for m in masks]
    # strict containment rows; sorted by size, a mask lies only in later ones
    up, down = [0] * len(masks), [0] * len(masks)
    for a, m in enumerate(masks):
        for b in range(a + 1, len(masks)):
            if m & ~masks[b] == 0:
                up[a] |= 1 << b
                down[b] |= 1 << a
    return _hasse_dot("ideals", names, up, down)
