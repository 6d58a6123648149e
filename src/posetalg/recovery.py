"""Rebuilding a poset from a scrambled multiplication table.

Input is a bare monomial table: no labels, no pair structure, just dim and
entries.  Everything works at the level of index supports, which survive
basis rescaling untouched (monomial products never cancel).  The table is
read through its placement and its index of present products by the index
each lands on, MultiplicationTable.landing.

Two routes, each on a table MultiplicationTable.placement() places (a
certified table is placed).  Both read the placement, so a fault in it
moves both the same way and their agreement does not check it; the
independent check is the comparison with the literal routes of oracles.py
in tests/test_table_oracles.py.

  recover_by_ideal_products
      Elements are the quasi-idempotents (basis vectors whose square is a
      nonzero multiple of themselves; these are the images of the diagonal
      generators).  x lies strictly below y exactly when the two-sided
      ideals they generate have a nonzero product.  In a unital algebra
      I_x I_y = A e_x A e_y A, which is nonzero exactly when the Peirce
      block e_x A e_y is, and on a placed table e_x b_k e_y != 0 exactly
      when k is placed at (x, y).  So the order is read off the placement
      in O(dim).  The literal ideal products are
      brute_recover_by_ideal_products in oracles.py.

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
from .poset import Poset, iterbits, transitive_closure


def quasi_idempotents(table):
    """Indices i with b_i^2 = c * b_i, c != 0.  Validates associativity."""
    table.ensure_associative()
    return sorted(table.square)


def _labels_for(indices):
    return ["e%d" % i for i in indices]


def recover_by_ideal_products(table):
    """Poset on the quasi-idempotents with x < y iff I_x * I_y != 0.

    I_x I_y = A e_x A e_y A is nonzero iff e_x A e_y is, as A is unital:
    placement() checked that e_q b_k = c_q b_k for each k placed at (q, .)
    and b_k e_q = c_q b_k for each k placed at (., q), c_q the coefficient
    of e_q's square, so the sum of the e_q / c_q is a unit.  And
    e_x b_k e_y != 0 iff index k is placed at (x, y)."""
    qs, (starts, ends) = quasi_idempotents(table), table.placement()
    pos = {q: x for x, q in enumerate(qs)}
    rows = [0] * len(qs)
    for q, r in zip(starts, ends):
        if q != r:
            rows[pos[q]] |= 1 << pos[r]
    return Poset(_labels_for(qs), rows)


def _link_rows(table):
    qs, (starts, ends) = quasi_idempotents(table), table.placement()
    pos = {q: x for x, q in enumerate(qs)}
    links = [0] * len(qs)
    for k, products in table.landing.items():
        # only e_x b_k and b_k e_y land on a k placed at a cover (x, y)
        if len(products) == 2:
            links[pos[starts[k]]] |= 1 << pos[ends[k]]
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
    results = []
    for seed in seeds:
        perm, scales = scramble_draws(table.dim, seed)
        puzzle = table.permuted_rescaled(perm, scales)
        # the canonical pair order puts [x,x] at index x
        want = _renamed(P, perm[: P.n])
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
