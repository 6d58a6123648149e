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
      Links are exactly the covers, and the strict order is their closure,
      taken along a linear extension read off the table: len(left[q])
      counts the indices placed at (., q), which is 1 + |down(q)|, so
      x < y gives x the smaller key.  Rows above are filled in decreasing
      key order and rows below in increasing order, one OR per link, so
      the closure costs a sort of n keys and one OR per link in each
      direction, not Warshall's n^2 row tests.  The literal definition is
      brute_recover_by_links in oracles.py.

Both refuse what the table's checks refuse, NotAssociative first and then
NoPosetBehindTable, and nothing else.  Neither checks the order it builds,
as placement() and associativity prove it a strict order.  On an associative
placed table every entry b_i b_j sits at a composable placed pair (e_q b_j
vanishes unless q is b_j's start, so b_i b_j = b_i e_(end i) b_j / c
vanishes unless end i = start j), and the pair count makes the two sets
equal.  So k at (x, y) and k' at (y, z) give a product, which lands on the
one index placed at (x, z): the placed pairs compose transitively.  The
placement refuses (x, y) beside (y, x), so x != z, and the placed pairs
off the diagonal are a strict order; with one index at each (x, x) and
the count above, the links are its covers.  Both routes hand their rows
to Poset._checked (the literal routes in oracles.py still validate).
recover_table, the front door, runs both.
"""

from .algebra import IncidenceAlgebra, scramble_draws
from .poset import Poset, iterbits


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
    up = [0] * len(qs)
    down = [0] * len(qs)
    for q, r in zip(starts, ends):
        if q != r:
            x, y = pos[q], pos[r]
            up[x] |= 1 << y
            down[y] |= 1 << x
    return Poset._checked(_labels_for(qs), up, down)


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
    """Poset on the quasi-idempotents: the closure of the detected links,
    taken along a linear extension (see the module docstring)."""
    qs, links = _link_rows(table)
    n, left = len(qs), table.left
    # 1 + |down(q)| indices are placed at (., q): smaller below
    order = sorted(range(n), key=[len(left[q]) for q in qs].__getitem__)
    up = [0] * n
    down = [0] * n
    for x in order:  # every link into x comes from an element already done
        if links[x]:
            below = down[x] | 1 << x
            for y in iterbits(links[x]):
                down[y] |= below
    for x in reversed(order):  # every link out of x goes to one already done
        if links[x]:
            above = 0
            for y in iterbits(links[x]):
                above |= up[y] | 1 << y
            up[x] = above
    return Poset._checked(_labels_for(qs), up, down)


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

    def moved(rows):
        return [sum(1 << pos[y] for y in iterbits(rows[x])) for x in order]

    labels = _labels_for([image[x] for x in order])
    return Poset._checked(labels, moved(P.up), moved(P.down))


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
