"""Rebuilding a poset from a scrambled multiplication table.

Input is a bare monomial table: no labels, no pair structure, just dim and
entries.  Everything works at the level of index supports, which survive
basis rescaling untouched (monomial products never cancel).  A support is a
plain int bitmask, bit k for basis index k, and the table is read through
its indexes of present products: MultiplicationTable.right and .left by
factor, and .landing by the index each product lands on.

Two independent routes, each on a table MultiplicationTable.placement()
places (a certified table is placed):

  recover_by_ideal_products
      Elements are the quasi-idempotents (basis vectors whose square is a
      nonzero multiple of themselves; these are the images of the diagonal
      generators).  x lies strictly below y exactly when the two-sided
      ideals they generate have a nonzero product, that is when some right
      factor of a member of I_x lies in I_y.  One walk of the members fills
      owner[k], the elements y with b_k in I_y, and row x ORs owner[b] over
      those factors: O(entries) ORs of n-bit ints, no element-pair loop.

  recover_by_links
      Dropping a quasi-idempotent e_x from the full support gives a maximal
      ideal M_x.  A link x -> y holds when M_x * M_y misses an index k of
      M_x n M_y, the image of (x, y), which happens only when nothing sits
      strictly between x and y.  Links are read in one pass: the products
      landing on k are e_x b_k, b_k e_y and one more for each element
      strictly between x and y, so k is missed exactly when two land on it.
      Links are exactly the covers; their transitive closure is the strict
      order.  The literal definition is brute_recover_by_links in oracles.py.

Both refuse what the table's checks refuse, NotAssociative first and then
NoPosetBehindTable, and nothing else.  An associative table that placement()
places has exactly the supports of an incidence algebra: one product on each
composable placed pair, landing on the composed pair.  So neither route can
meet a relation that is not a partial order, and neither checks for one
(the literal routes in oracles.py still do).  recover_table, the front
door, runs both.
"""

from .algebra import IncidenceAlgebra, scramble_draws
from .poset import Pair, Poset, iterbits, transitive_closure


def quasi_idempotents(table):
    """Indices i with b_i^2 = c * b_i, c != 0.  Validates associativity."""
    table.ensure_associative()
    return sorted(table.square)


def _placed_quasi_idempotents(table):
    """quasi_idempotents(table), once table.placement() places the table."""
    qs = quasi_idempotents(table)
    table.placement()
    return qs


def _members(table, i):
    """Indices spanning the two-sided ideal I_i, repeats allowed.

    In an associative monomial table every word a b_i b is a multiple of
    one product (a b_i) b, so the ideal is spanned by b_i, its right
    products R, its left products L and the right products of L.
    """
    right, none = table.right, {}
    yield i
    for _, k in right.get(i, none).values():
        yield k
    for _, l in table.left.get(i, none).values():
        yield l
        for _, k in right.get(l, none).values():
            yield k


def principal_support(table, i):
    """Support mask of the two-sided ideal generated by basis element i."""
    table.ensure_associative()
    support = 0
    for k in _members(table, i):
        support |= 1 << k
    return support


def _labels_for(indices):
    return ["e%d" % i for i in indices]


def recover_by_ideal_products(table):
    """Poset on the quasi-idempotents with x < y iff I_x * I_y != 0, that is
    iff some right factor of a member of I_x lies in I_y."""
    qs = _placed_quasi_idempotents(table)
    right = table.right
    owner = [0] * table.dim  # owner[k]: the elements y with b_k in I_y
    for y, q in enumerate(qs):
        bit = 1 << y
        for k in _members(table, q):
            owner[k] |= bit
    rows = []
    for x, q in enumerate(qs):
        # (a b_q b) c != 0 forces (b_q b) c != 0, so the right factors of
        # the members of I_q are those of its right products, b_q among them
        row = 0
        for _, r in right[q].values():
            for b in right[r]:
                row |= owner[b]
        rows.append(row & ~(1 << x))
    return Poset(_labels_for(qs), rows)


def _link_rows(table):
    qs = _placed_quasi_idempotents(table)
    pos = {q: x for x, q in enumerate(qs)}
    links = [0] * len(qs)
    for products in table.landing.values():
        # only e_x b_k and b_k e_y land on a k placed at a cover (x, y)
        if len(products) == 2:
            (a, b), (c, d) = products
            x, y = (a, d) if a in pos else (c, b)
            links[pos[x]] |= 1 << pos[y]
    return qs, links


def recover_by_links(table):
    """Poset on the quasi-idempotents: transitive closure of detected links."""
    qs, links = _link_rows(table)
    labels = _labels_for(qs)
    rows = transitive_closure(len(qs), links, labels)
    return Poset(labels, rows)


def recovered_links(table):
    """The raw link relation (before closure) as index pairs into the
    quasi-idempotent list."""
    qs, links = _link_rows(table)
    return [(x, y) for x in range(len(qs)) for y in iterbits(links[x])]


def recover_table(table):
    """The poset behind table by both routes, (via ideal products, via links)."""
    return recover_by_ideal_products(table), recover_by_links(table)


def _renamed(P, image):
    """P as recovery names it when element x sits at basis index image[x]:
    labelled e<image[x]> and listed in increasing image order."""
    order = sorted(range(P.n), key=image.__getitem__)
    pos = {x: t for t, x in enumerate(order)}
    rows = [sum(1 << pos[y] for y in iterbits(P.up[x])) for x in order]
    return Poset(_labels_for([image[x] for x in order]), rows)


def verify_roundtrip(P, seeds):
    """Scramble the reflexive table of P for each seed and recover it with
    recover_table; one row per seed.  A seed passes when both routes return
    exactly P renamed by the scramble's own permutation of the diagonal
    generators; the *_exact flags record that per route."""
    A = IncidenceAlgebra(P, "reflexive")
    table = A.multiplication_table()
    diagonal = [A.index[Pair(x, x)] for x in range(P.n)]
    results = []
    for seed in seeds:
        perm, scales = scramble_draws(table.dim, seed)
        puzzle = table.permuted_rescaled(perm, scales)
        want = _renamed(P, [perm[d] for d in diagonal])
        via_products, via_links = recover_table(puzzle)
        exact_a = via_products == want
        exact_b = via_links == want
        results.append(
            {
                "seed": seed,
                "ideal_products_exact": exact_a,
                "links_exact": exact_b,
                "schemes_agree": via_products == via_links,
                "passed": exact_a and exact_b,
            }
        )
    return results
