"""Rebuilding a poset from a scrambled multiplication table.

Input is a bare monomial table: no labels, no pair structure, just dim and
entries.  Everything works at the level of index supports, which survive
basis rescaling untouched (monomial products never cancel).  A support is a
plain int bitmask, bit k for basis index k, and the table is read through
its indexes of present products: MultiplicationTable.right and .left by
factor, and .landing by the index each product lands on.

Two independent routes:

  recover_by_ideal_products
      Elements are the quasi-idempotents (basis vectors whose square is a
      nonzero multiple of themselves; these are the images of the diagonal
      generators).  x lies strictly below y exactly when the two-sided
      ideals they generate have a nonzero product, that is when some right
      factor of a member of I_x lies in I_y.  Transitivity of the resulting
      relation is verified, never imposed.

  recover_by_links
      Dropping a quasi-idempotent e_x from the full support gives a maximal
      ideal M_x, refused unless no product but e_x * e_x lands on e_x.  A
      link x -> y holds when M_x * M_y misses an index k of M_x n M_y, the
      image of (x, y), which happens only when nothing sits strictly between
      x and y.  Links are read in one pass: k is missed exactly when every
      product landing on k starts at e_x or ends at e_y.  Links are exactly
      the covers; their transitive closure is the strict order.  The
      literal definition is brute_recover_by_links in oracles.py.

Both raise diagnostics (NotAssociative, NotMonomial, ClosureViolation,
RecoveredRelationNotTransitive, CycleDetected) rather than repairing
suspicious input.  recover_table, the front door, runs both, then refuses a
table that MultiplicationTable.placement() does not place.
"""

from .algebra import IncidenceAlgebra, scramble_draws
from .errors import ClosureViolation, RecoveredRelationNotTransitive
from .poset import Pair, Poset, iterbits, transitive_closure


def quasi_idempotents(table):
    """Indices i with b_i^2 = c * b_i, c != 0.  Validates associativity."""
    table.ensure_associative()
    return sorted(table.square)


def principal_support(table, i):
    """Support mask of the two-sided ideal generated by basis element i.

    In an associative monomial table every word a b_i b is a multiple of
    one product (a b_i) b, so the ideal is spanned by b_i, its right
    products R, its left products L and the right products of L.
    """
    table.ensure_associative()
    right, none = table.right, {}
    support = 1 << i
    for _, k in right.get(i, none).values():
        support |= 1 << k
    for l in {l for _, l in table.left.get(i, none).values()}:
        support |= 1 << l
        for _, k in right.get(l, none).values():
            support |= 1 << k
    return support


def _labels_for(indices):
    return ["e%d" % i for i in indices]


def recover_by_ideal_products(table):
    """Poset on the quasi-idempotents with x < y iff I_x * I_y != 0, that is
    iff some right factor of a member of I_x lies in I_y."""
    qs = quasi_idempotents(table)
    n = len(qs)
    supports = [principal_support(table, q) for q in qs]
    right, none = table.right, {}
    rows = [0] * n
    for x, q in enumerate(qs):
        # (a b_q b) c != 0 forces (b_q b) c != 0, so the right factors of
        # the members of I_q are those of b_q and of its right products
        factors = 0
        for r in {q} | {r for _, r in right.get(q, none).values()}:
            for b in right.get(r, none):
                factors |= 1 << b
        for y in range(n):
            if x != y and factors & supports[y]:
                rows[x] |= 1 << y
    for x in range(n):
        for y in iterbits(rows[x]):
            bad = rows[y] & ~rows[x]
            if bad:
                # covers the cyclic case too: x is never in rows[x]
                z = (bad & -bad).bit_length() - 1
                raise RecoveredRelationNotTransitive(
                    "x<y and y<z without x<z at quasi-idempotents (%d, %d, %d)"
                    % (qs[x], qs[y], qs[z]),
                    witness=(qs[x], qs[y], qs[z]),
                )
    return Poset(_labels_for(qs), rows)


def _link_rows(table):
    qs = quasi_idempotents(table)
    landing = table.landing
    for e in qs:
        stray = [p for p in landing[e] if p != (e, e)]
        if stray:
            raise ClosureViolation(
                "dropping index %d is not an ideal: product (%d,%d) lands on it"
                % ((e,) + stray[0])
            )
    n = len(qs)
    pos = {q: x for x, q in enumerate(qs)}
    everyone = (1 << n) - 1
    # an index no product reaches lies outside every M_x * M_y
    links = [everyone if len(landing) < table.dim else 0] * n
    into_all = 0
    for k, products in landing.items():
        if k in pos:
            continue
        a0, b0 = products[0]
        if a0 in pos:
            ends = {b for a, b in products if a != a0}
            if not ends:
                links[pos[a0]] = everyone
            elif len(ends) == 1 and ends <= pos.keys():
                links[pos[a0]] |= 1 << pos[ends.pop()]
        if b0 in pos:
            starts = {a for a, b in products if b != b0}
            if not starts:
                into_all |= 1 << pos[b0]
            elif len(starts) == 1 and starts <= pos.keys():
                links[pos[starts.pop()]] |= 1 << pos[b0]
    return qs, [(row | into_all) & ~(1 << x) for x, row in enumerate(links)]


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
    """The poset behind table by both routes, (via ideal products, via links),
    once table.placement() places it (a certified table is placed)."""
    via_products = recover_by_ideal_products(table)
    via_links = recover_by_links(table)
    if not table.certified():
        table.placement()
    return via_products, via_links


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
