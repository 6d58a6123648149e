"""Deliberately slow reference computations.

Everything here is the direct quantifier-chasing definition with no clever
data structure, so agreement with the fast implementations is meaningful
evidence rather than a shared bug. Every exhaustive search is capped at
sizes where it stays instant. to_matrix and nilpotency_index are the
literal definitions that element_product_via_matrices and acceptance
criterion 6 check against. The table oracles at the end read a
multiplication table only through its entry dict, never through its index
of present products, and rescan that dict wherever a definition quantifies
over products. The linear-algebra references (brute_rank, subspace_closure)
are what tests hold linalg.py to. The check suite imports nothing from
here: it runs on linalg.ideal_closure, counts antichains by a memoised
split, and reads product supports off the multiplication table.
"""

from fractions import Fraction
from itertools import permutations, product as _cartesian

from .algebra import AlgebraElement, MultiplicationTable
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
from .linalg import Subspace
from .recovery import _labels_for
from .rewriting import reduce_word

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


def brute_closure_witness(masks, op):
    """Closure of a mask family under op, by trying every two masks: the
    first (m1, m2) in list order with op(m1, m2) not listed, or None."""
    listed = set(masks)
    for m1 in masks:
        for m2 in masks:
            if op(m1, m2) not in listed:
                return (m1, m2)
    return None


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


def brute_rewrite_rules(P, triple_convention):
    """The rules of build_rewrite_system by testing every triple with P.leq,
    in the same insertion order."""
    rules = {}
    n = P.n
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if P.strict(a, b):
                rules[(b, a)] = None
            rules[(a, b, a)] = None
    distinct = triple_convention == "distinct_only"
    for a in range(n):
        for b in range(n):
            if not P.leq(a, b):
                continue
            for c in range(n):
                if not P.leq(b, c):
                    continue
                if distinct and (a == b or b == c or a == c):
                    continue
                rules[(a, b, c)] = (a, c)
    return rules


def brute_dimension_up_to(R, max_degree):
    """Cumulative count of the distinct normal forms of all words of degree
    <= d, for each d up to max_degree, by reducing every word."""
    words = sum(R.poset.n ** d for d in range(1, max_degree + 1))
    if words > _WORD_LIMIT:
        raise SizeLimitExceeded("word enumeration capped at %d words" % _WORD_LIMIT)
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


def brute_normal_forms(R, word, memo):
    got = memo.get(word)
    if got is not None:
        return got
    # at one position both a 2- and a 3-rule can in principle fire; try both
    options = []
    for p in range(len(word)):
        for lhs in (tuple(word[p : p + 2]), tuple(word[p : p + 3])):
            if len(lhs) >= 2 and lhs in R.rules:
                options.append((p, lhs))
    if not options:
        result = frozenset([word])
    else:
        acc = set()
        for p, lhs in options:
            rhs = R.rules[lhs]
            if rhs is None:
                acc.add(None)
            else:
                nxt = word[:p] + rhs + word[p + len(lhs) :]
                acc |= brute_normal_forms(R, nxt, memo)
        result = frozenset(acc)
    memo[word] = result
    return result


def brute_confluence_witnesses(R, max_len=5):
    """Words of length <= max_len whose normal form depends on the rewrite
    order, each with its full set of normal forms.  Empty list: no
    strategy dependence found at this scale.  Refused with SizeLimitExceeded,
    before any word is reduced, when there are more than _WORD_LIMIT
    such words."""
    n = R.poset.n
    words = 0
    for d in range(1, max_len + 1):
        words += n ** d
        if words > _WORD_LIMIT:
            raise SizeLimitExceeded(
                "confluence probe limited to %d words; %d letters up to length "
                "%d is more" % (_WORD_LIMIT, n, max_len)
            )
    witnesses = []
    memo = {}
    letters = range(n)
    for d in range(1, max_len + 1):
        for word in _cartesian(letters, repeat=d):
            forms = brute_normal_forms(R, word, memo)
            if len(forms) > 1:
                witnesses.append(
                    (word, sorted(forms, key=lambda t: (t is not None, t)))
                )
    return witnesses


def matrix_product(a, b):
    """Dense textbook matrix multiplication over Fractions."""
    n = len(a)
    assert all(len(row) == n for row in a) and len(b) == n
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def to_matrix(f):
    """Upper-triangular matrix of f under the natural labeling."""
    A = f.algebra
    n = A.poset.n
    pos = [0] * n
    for k, x in enumerate(natural_labeling(A.poset)):
        pos[x] = k
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i, c in f.coeffs.items():
        x, y = A.generators[i]
        mat[pos[x]][pos[y]] = c
    return mat


def nilpotency_index(A):
    """Smallest k with every k-fold generator product zero; None if unital."""
    if A.convention == "reflexive" and A.poset.n > 0:
        return None
    entries = A.multiplication_table().entries
    live = set(range(A.dim))
    k = 1
    while live:
        live = {t for (i, _), (_, t) in entries.items() if i in live}
        k += 1
    return k


def element_product_via_matrices(f, g):
    """Multiply two algebra elements through their dense matrix images."""
    A = f.algebra
    A._claim(g)
    order = natural_labeling(A.poset)
    m = matrix_product(to_matrix(f), to_matrix(g))
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
# linear algebra references


def brute_rank(vectors, dim):
    """Rank of coefficient dicts over dim coordinates, by dense Gaussian
    elimination over Fractions: every vector written out in full, one pivot
    column at a time."""
    mat = [[Fraction(v.get(i, 0)) for i in range(dim)] for v in vectors]
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            c = mat[r][col] / top[col]
            if c:
                mat[r] = [a - c * b for a, b in zip(mat[r], top)]
        rank += 1
    return rank


def subspace_closure(A, elems):
    """Smallest subspace containing elems and closed under left and right
    multiplication by every generator, by the definition: every new row is
    multiplied by all dim generators on both sides through A.multiply, into
    an exact echelon basis, until nothing new shows up.  The reference for
    linalg.ideal_closure."""
    S = Subspace(A, {})
    queue = []
    for f in elems:
        A._claim(f)
        added = S._insert(f.coeffs)
        if added is not None:
            queue.append(added)
    gens = [A.generator(i) for i in range(A.dim)]
    while queue:
        row = queue.pop()
        f = AlgebraElement(A, dict(row))
        for g in gens:
            for prod in (A.multiply(g, f), A.multiply(f, g)):
                if prod.coeffs:
                    added = S._insert(prod.coeffs)
                    if added is not None:
                        queue.append(added)
    return S


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


def brute_permuted_rescaled(table, perm, scales):
    """The scrambled table entry by entry in Fraction arithmetic:
    b_i b_j = c b_k becomes b'_perm[i] b'_perm[j] = c s_i s_j / s_k b'_perm[k]."""
    entries = {}
    for (i, j), (c, k) in table.entries.items():
        entries[(perm[i], perm[j])] = (
            Fraction(c) * scales[i] * scales[j] / scales[k],
            perm[k],
        )
    return MultiplicationTable(table.dim, entries)


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
    return Poset(_labels_for(qs), rows)


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
    return Poset(_labels_for(qs), transitive_closure(n, links, _labels_for(qs)))
