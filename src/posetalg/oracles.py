"""Deliberately slow reference computations.

Everything here is the direct quantifier-chasing definition with no clever
data structure, so agreement with the fast implementations is meaningful
evidence rather than a shared bug. Every exhaustive search is capped at
sizes where it stays instant. The table oracles at the end read a
multiplication table only through its entry dict, never through its index
of present products, and rescan that dict wherever a definition quantifies
over products.
"""

from itertools import permutations, product as _cartesian

from .errors import (
    ClosureViolation,
    NotAssociative,
    RecoveredRelationNotTransitive,
    SizeLimitExceeded,
)
from .poset import (
    Pair,
    Poset,
    all_pairs,
    iterbits,
    natural_labeling,
    transitive_closure,
)
from .rewriting import MAX_WORD_LEN, reduce_word

_SUBSET_LIMIT = 15
_PERM_LIMIT = 6
_WORD_LIMIT = 10 ** 5


def brute_up_closed_masks(n, above):
    """All up-closed subsets of an n-element order, by filtering 2^n masks.

    above[i] is the bitmask of elements strictly above i.
    """
    if n > _SUBSET_LIMIT:
        raise SizeLimitExceeded("subset filter capped at %d elements" % _SUBSET_LIMIT)
    out = []
    for mask in range(1 << n):
        if all(above[i] & ~mask == 0 for i in iterbits(mask)):
            out.append(mask)
    return out


def brute_antichain_count(n, above):
    """Antichains counted directly: subsets containing no comparable pair."""
    if n > _SUBSET_LIMIT:
        raise SizeLimitExceeded("subset filter capped at %d elements" % _SUBSET_LIMIT)
    count = 0
    for mask in range(1 << n):
        if all(above[i] & mask == 0 for i in iterbits(mask)):
            count += 1
    return count


def brute_covers(P):
    """Cover pairs by scanning every candidate middle element."""
    out = []
    for x in range(P.n):
        for y in iterbits(P.up[x]):
            if not any(P.strict(x, z) and P.strict(z, y) for z in range(P.n)):
                out.append(Pair(x, y))
    return out


def brute_pair_nesting(P):
    """(wider, narrower) masks of the pair poset by comparing every two
    comparable pairs: [u,v] is wider than [x,y] when u <= x and y <= v."""
    pairs = all_pairs(P)
    wider = [0] * len(pairs)
    narrower = [0] * len(pairs)
    for i, (x, y) in enumerate(pairs):
        for j, (u, v) in enumerate(pairs):
            if i != j and P.leq(u, x) and P.leq(y, v):
                wider[i] |= 1 << j
                narrower[j] |= 1 << i
    return wider, narrower


def brute_isomorphism(P, Q):
    """Exhaustive permutation search. Returns a mapping list or None."""
    if P.n > _PERM_LIMIT or Q.n > _PERM_LIMIT:
        raise SizeLimitExceeded("permutation search capped at %d" % _PERM_LIMIT)
    if P.n != Q.n:
        return None
    for perm in permutations(range(P.n)):
        if all(
            P.strict(x, y) == Q.strict(perm[x], perm[y])
            for x in range(P.n)
            for y in range(P.n)
        ):
            return list(perm)
    return None


def brute_dimension_up_to(R, max_degree):
    """Cumulative count of the distinct normal forms of all words of degree
    <= d, for each d up to max_degree, by reducing every word."""
    words = sum(R.poset.n ** d for d in range(1, max_degree + 1))
    if words > _WORD_LIMIT or max_degree > MAX_WORD_LEN:
        raise SizeLimitExceeded(
            "word enumeration capped at %d words of length <= %d"
            % (_WORD_LIMIT, MAX_WORD_LEN)
        )
    letters = range(R.poset.n)
    seen = set()
    counts = []
    for d in range(1, max_degree + 1):
        for word in _cartesian(letters, repeat=d):
            nf = reduce_word(R, word)
            if nf is not None:
                seen.add(nf)
        counts.append(len(seen))
    return counts


def matrix_product(a, b):
    """Dense textbook matrix multiplication over Fractions."""
    n = len(a)
    assert all(len(row) == n for row in a) and len(b) == n
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def element_product_via_matrices(f, g):
    """Multiply two algebra elements through their dense matrix images."""
    A = f.algebra
    A._claim(g)
    order = natural_labeling(A.poset)
    m = matrix_product(A.to_matrix(f), A.to_matrix(g))
    coeffs = {}
    for ix, x in enumerate(order):
        for iy, y in enumerate(order):
            c = m[ix][iy]
            if not c:
                continue
            # products of incidence-pattern matrices keep the pattern
            key = A.index[Pair(x, y)]
            coeffs[key] = c
    return A.element(coeffs)


# ---------------------------------------------------------------------------
# multiplication tables, read only through the entry dict


def brute_associativity_witness(table):
    """First (i, j, l) with (b_i b_j) b_l != b_i (b_j b_l), or None.

    Two sweeps over the entries in sorted order: every present (i, j) against
    every l < dim, then every present (j, l) against every i < dim.
    """
    entries = table.entries
    for (i, j), (c, k) in sorted(entries.items()):
        for l in range(table.dim):
            lhs = entries.get((k, l))
            inner = entries.get((j, l))
            rhs = entries.get((i, inner[1])) if inner else None
            left = (c * lhs[0], lhs[1]) if lhs else None
            right = (inner[0] * rhs[0], rhs[1]) if inner and rhs else None
            if left != right:
                return (i, j, l)
    for (j, l), (c, k) in sorted(entries.items()):
        for i in range(table.dim):
            if (i, j) not in entries and (i, k) in entries:
                return (i, j, l)
    return None


def _brute_validate(table):
    witness = brute_associativity_witness(table)
    if witness is not None:
        raise NotAssociative("witness %r" % (witness,), witness=witness)


def brute_quasi_idempotents(table):
    """Every i < dim whose square is a multiple of itself."""
    _brute_validate(table)
    return [
        i for i in range(table.dim)
        if table.entries.get((i, i), (None, None))[1] == i
    ]


def brute_principal_support(table, i):
    """Whole-table passes adding every product with a factor in the
    support, until a pass adds nothing."""
    _brute_validate(table)
    support = 1 << i
    changed = True
    while changed:
        changed = False
        for (a, b), (_, k) in table.entries.items():
            if not support >> k & 1 and (support >> a & 1 or support >> b & 1):
                support |= 1 << k
                changed = True
    return support


def brute_support_product(table, left, right):
    """Mask of every product of a member of left with a member of right."""
    mask = 0
    for (a, b), (_, k) in table.entries.items():
        if left >> a & 1 and right >> b & 1:
            mask |= 1 << k
    return mask


def brute_maximal_supports(table):
    """The complement of each quasi-idempotent e, after one whole-table pass
    per e confirming that no product other than e*e lands on e."""
    full = (1 << table.dim) - 1
    out = []
    for e in brute_quasi_idempotents(table):
        for (a, b), (_, k) in table.entries.items():
            if k == e and (a != e or b != e):
                raise ClosureViolation("product (%d,%d) lands on %d" % (a, b, e))
        out.append(full & ~(1 << e))
    return out


def _labels(qs):
    return ["e%d" % q for q in qs]


def brute_recover_by_ideal_products(table):
    """x < y iff the support product of the principal ideals is nonzero,
    refused unless that relation is transitive."""
    qs = brute_quasi_idempotents(table)
    n = len(qs)
    supports = [brute_principal_support(table, q) for q in qs]
    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if x != y and brute_support_product(table, supports[x], supports[y]):
                rows[x] |= 1 << y
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[x] >> y & 1 and rows[y] >> z & 1 and not rows[x] >> z & 1:
                    raise RecoveredRelationNotTransitive(
                        "not transitive at %r" % ((qs[x], qs[y], qs[z]),),
                        witness=(qs[x], qs[y], qs[z]),
                    )
    return Poset(_labels(qs), rows)


def brute_recover_by_links(table):
    """Transitive closure of the links x -> y, where the support product of
    the two maximal ideals misses part of their intersection."""
    qs = brute_quasi_idempotents(table)
    n = len(qs)
    maximals = brute_maximal_supports(table)
    links = [0] * n
    for x in range(n):
        for y in range(n):
            inter = maximals[x] & maximals[y]
            if x != y and brute_support_product(table, maximals[x], maximals[y]) != inter:
                links[x] |= 1 << y
    return Poset(_labels(qs), transitive_closure(n, links, _labels(qs)))
