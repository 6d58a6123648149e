"""Exact sparse linear algebra over generator coordinates.

A vector is a dict {generator index: nonzero Fraction}.  Subspace keeps a
reduced row-echelon basis of such rows, so equal subspaces have identical
bases, and ideal_closure grows one until it is closed under multiplication
by the generators on both sides.  The dense, literal references these are
tested against live in oracles.py (brute_rank, subspace_closure).
"""

from fractions import Fraction

from .algebra import AlgebraElement
from .poset import iterbits


class Subspace:
    """Rational subspace in reduced row-echelon form over generator
    coordinates.  Equal subspaces have identical bases."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra, rows):
        self.algebra = algebra
        self.rows = rows  # pivot index -> {gen index: Fraction}, fully reduced

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [
            AlgebraElement(self.algebra, dict(self.rows[p])) for p in sorted(self.rows)
        ]

    def reduce(self, coeffs):
        """Residue of a coefficient dict after eliminating all pivots.

        Row p has 1 at p and 0 at every other pivot, so subtracting it
        clears p and adds no pivot: one pass over the pivots the vector
        holds at the start leaves none."""
        rows = self.rows
        vec = dict(coeffs)
        for p in [p for p in vec if p in rows]:
            c = vec.pop(p)
            for i, v in rows[p].items():
                if i == p:
                    continue
                s = vec.get(i, 0) - c * v
                if s:
                    vec[i] = s
                else:
                    vec.pop(i, None)
        return vec

    def contains(self, f):
        self.algebra._claim(f)
        return not self.reduce(f.coeffs)

    def _insert(self, coeffs):
        """Grow the span by one vector; returns the residue row or None."""
        vec = self.reduce(coeffs)
        if not vec:
            return None
        pivot = min(vec)
        inv = Fraction(1) / vec[pivot]
        vec = {i: c * inv for i, c in vec.items()}
        for p, row in self.rows.items():
            c = row.get(pivot)
            if not c:
                continue
            for i, v in vec.items():
                s = row.get(i, Fraction(0)) - c * v
                if s:
                    row[i] = s
                else:
                    row.pop(i, None)
        self.rows[pivot] = vec
        return vec

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra.same_algebra(other.algebra)
            and self.rows == other.rows
        )

    def __repr__(self):
        return "<Subspace dim=%d of %d>" % (self.dim, self.algebra.dim)


def span_of(A, elems):
    """Plain linear span (no multiplicative closure)."""
    S = Subspace(A, {})
    for f in elems:
        A._claim(f)
        S._insert(f.coeffs)
    return S


def ideal_closure(A, elems):
    """Smallest subspace containing elems and closed under left and right
    multiplication by every generator: the Subspace that
    oracles.subspace_closure returns.

    Each new row is multiplied only by the generators that compose with one
    of its terms c [x,y]: [u,x] on the left, giving c [u,y], and [y,v] on
    the right, giving c [x,v].  The terms of one row are distinct pairs, so
    the products of one generator with them land on distinct pairs and
    every coefficient is a term's own."""
    S = Subspace(A, {})
    queue = []
    for f in elems:
        A._claim(f)
        added = S._insert(f.coeffs)
        if added is not None:
            queue.append(added)
    gens, index, by_first, down = A.generators, A.index, A.by_first, A.poset.down
    diagonal = A.convention == "reflexive"  # [x,x] is a generator
    while queue:
        row = queue.pop()
        starting, ending = {}, {}  # x -> (y, c) and y -> (x, c) of c [x,y]
        for i, c in row.items():
            x, y = gens[i]
            starting.setdefault(x, []).append((y, c))
            ending.setdefault(y, []).append((x, c))
        products = [
            {index[u, y]: c for y, c in terms}
            for x, terms in starting.items()
            for u in iterbits(down[x] | diagonal << x)
        ]
        products += [
            {index[x, v]: c for x, c in terms}
            for y, terms in ending.items()
            for _, v in by_first[y]
        ]
        for prod in products:
            added = S._insert(prod)
            if added is not None:
                queue.append(added)
    return S
