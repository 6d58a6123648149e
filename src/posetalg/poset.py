"""Finite posets as bitmask relation rows.

A Poset stores the strict order only: up[x] is the bitmask of elements
strictly above x, kept irreflexive, transitively closed and acyclic.  The
reflexive view is leq(x, y) == (x == y or strict(x, y)).  Everything else
in the package (comparable pairs, incidence algebras, ideals) is built on
top of these rows.

The canonical pair order used throughout is: diagonal pairs [x,x] in element
index order, then strict pairs sorted by natural-labeling position of their
endpoints.  PairPoset (the poset of comparable pairs under nesting) and the
algebra generator lists both follow it, so indices line up across modules.
"""

import re
from typing import NamedTuple

from .errors import (
    CapExceeded,
    CycleDetected,
    DuplicateLabel,
    ParseError,
    SizeLimitExceeded,
    UnknownLabel,
)
from .rng import LCG

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# \s matches exactly the characters for which str.isspace() is true
_BAD_LABEL_CHAR = re.compile(r"[\s<#]")


def iterbits(mask):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_label(label):
    if not isinstance(label, str) or not label:
        raise ValueError("labels must be nonempty strings, got %r" % (label,))
    if _BAD_LABEL_CHAR.search(label):
        raise ValueError("label %r contains whitespace, '<' or '#'" % (label,))


class Pair(NamedTuple):
    x: int
    y: int


class Poset:
    """Immutable finite poset on elements 0..n-1 with string labels."""

    __slots__ = ("n", "labels", "up", "down", "_index")

    def __init__(self, labels, up):
        labels = tuple(labels)
        up = tuple(up)
        n = len(labels)
        if len(up) != n:
            raise ValueError("need one relation row per element")
        for lab in labels:
            _check_label(lab)
        if len(set(labels)) != n:
            raise DuplicateLabel("duplicate label among %r" % (labels,))
        full = (1 << n) - 1
        for x in range(n):
            if up[x] & ~full:
                raise ValueError("relation row %d mentions elements out of range" % x)
            if up[x] >> x & 1:
                raise CycleDetected("element %r is strictly below itself" % labels[x])
        down = [0] * n
        for x in range(n):
            bit = 1 << x
            for y in iterbits(up[x]):
                if up[y] & bit:
                    raise CycleDetected(
                        "%r and %r are strictly below each other" % (labels[x], labels[y])
                    )
                if up[y] & ~up[x]:
                    raise ValueError("relation is not transitively closed")
                down[y] |= bit
        self._store(labels, up, tuple(down))

    @classmethod
    def _checked(cls, labels, up, down):
        # of rows a strict order as made, down the transpose of up, on
        # distinct valid labels: nothing is checked or closed again
        P = cls.__new__(cls)
        P._store(tuple(labels), tuple(up), tuple(down))
        return P

    def _store(self, labels, up, down):
        self.n = len(labels)
        self.labels = labels
        self.up = up
        self.down = down
        self._index = {lab: i for i, lab in enumerate(labels)}

    def strict(self, x, y):
        return bool(self.up[x] >> y & 1)

    def leq(self, x, y):
        return x == y or bool(self.up[x] >> y & 1)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel("no element labeled %r" % (label,)) from None

    def strict_pairs(self):
        for x in range(self.n):
            for y in iterbits(self.up[x]):
                yield Pair(x, y)

    def strict_pair_count(self):
        return sum(m.bit_count() for m in self.up)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        rels = " ".join(
            "%s<%s" % (self.labels[p.x], self.labels[p.y]) for p in covers(self)
        )
        return "<Poset %s%s>" % (",".join(self.labels), ": " + rels if rels else "")


def transitive_closure(n, rows, labels=None):
    """Close relation rows; raises CycleDetected if an element reaches itself."""
    rows = list(rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    for i in range(n):
        if rows[i] >> i & 1:
            who = labels[i] if labels is not None else i
            raise CycleDetected("cycle through element %r" % (who,))
    return rows


def poset_from_relations(labels, relations):
    """Build a Poset from labels and (smaller, larger) label pairs."""
    labels = list(labels)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel("duplicate label %r" % (lab,))
        seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    rows = [0] * n
    for a, b in relations:
        if a not in index:
            raise UnknownLabel("relation mentions unknown label %r" % (a,))
        if b not in index:
            raise UnknownLabel("relation mentions unknown label %r" % (b,))
        if a == b:
            raise CycleDetected("relation %r<%r relates an element to itself" % (a, b))
        rows[index[a]] |= 1 << index[b]
    return Poset(labels, transitive_closure(n, rows, labels))


# ---------------------------------------------------------------------------
# order queries; the private ones read strict relation rows, up[x] above x
# and down[x] below it, so they serve P (up, down) and its pair poset
# (wider, narrower) alike


def _covers(up, down):
    return [
        (x, y) for x in range(len(up)) for y in iterbits(up[x]) if up[x] & down[y] == 0
    ]


def covers(P):
    """Covering pairs: x < y with nothing strictly between."""
    return [Pair(x, y) for x, y in _covers(P.up, P.down)]


def natural_labeling(P):
    """A topological order of the elements, ties broken by original index.

    Returns the permutation as a list: entry k is the element in position k.
    """
    remaining = (1 << P.n) - 1
    order = []
    while remaining:
        for x in iterbits(remaining):
            if P.down[x] & remaining == 0:
                break
        order.append(x)
        remaining &= ~(1 << x)
    return order


def _levels(down):
    lev = [0] * len(down)
    # anything strictly below x has a strictly smaller down row, so this
    # order is topological
    for x in sorted(range(len(down)), key=lambda x: down[x].bit_count()):
        lev[x] = max((lev[d] + 1 for d in iterbits(down[x])), default=0)
    return lev


def levels(P):
    """Length of the longest chain strictly below each element (0 for minimal)."""
    return _levels(P.down)


def longest_chain_length(P):
    """Number of elements in a longest chain (0 for the empty poset)."""
    return max(levels(P), default=-1) + 1


def all_pairs(P):
    """Comparable pairs in the canonical order: diagonals, then strict pairs
    sorted by natural-labeling position."""
    pos = [0] * P.n
    for k, x in enumerate(natural_labeling(P)):
        pos[x] = k
    strict = sorted(P.strict_pairs(), key=lambda p: (pos[p.x], pos[p.y]))
    return [Pair(x, x) for x in range(P.n)] + strict


# ---------------------------------------------------------------------------
# the poset of comparable pairs under nesting


class PairPoset:
    """Comparable pairs [x,y] ordered by nesting: [x,y] below [u,v] when
    u <= x and y <= v.  Diagonal pairs are exactly the minimal elements.
    Upward-closed subsets of this poset are what the ideal machinery
    enumerates."""

    __slots__ = ("poset", "pairs", "wider", "narrower")

    def __init__(self, P):
        pairs = all_pairs(P)
        first = [0] * P.n  # pairs starting at x
        last = [0] * P.n  # pairs ending at y
        for i, (x, y) in enumerate(pairs):
            first[x] |= 1 << i
            last[y] |= 1 << i

        def spread(masks, rows):
            # the masks of x and of every element in rows[x]
            out = list(masks)
            for x in range(P.n):
                for u in iterbits(rows[x]):
                    out[x] |= masks[u]
            return out

        starts_below, starts_above = spread(first, P.down), spread(first, P.up)
        ends_above, ends_below = spread(last, P.up), spread(last, P.down)
        # [u,v] is wider than [x,y] when u <= x and y <= v
        wider = [starts_below[x] & ends_above[y] & ~(1 << i)
                 for i, (x, y) in enumerate(pairs)]
        narrower = [starts_above[x] & ends_below[y] & ~(1 << i)
                    for i, (x, y) in enumerate(pairs)]
        self.poset = P
        self.pairs = tuple(pairs)
        self.wider = tuple(wider)
        self.narrower = tuple(narrower)

    @property
    def size(self):
        return len(self.pairs)

    def principal_up(self, i):
        return (1 << i) | self.wider[i]

    def is_up_closed(self, mask):
        for i in iterbits(mask):
            if self.wider[i] & ~mask:
                return False
        return True

    def minimal_of(self, mask):
        return [i for i in iterbits(mask) if self.narrower[i] & mask == 0]

    def pair_label(self, i):
        p = self.pairs[i]
        labs = self.poset.labels
        return "[%s,%s]" % (labs[p.x], labs[p.y])


# ---------------------------------------------------------------------------
# upward-closed subsets

# Both branches of the recursion force decisions: including an element pulls
# in everything wider, excluding it rules out everything narrower.  Each
# up-set is emitted exactly once, masks come out in a fixed order.


def _up_closed_masks(n, above, below):
    # depth first, "in" before "out", on a stack: no recursion limit on n
    stack = [((1 << n) - 1, 0)]
    while stack:
        undecided, current = stack.pop()
        if not undecided:
            yield current
            continue
        i = (undecided & -undecided).bit_length() - 1
        forced_out = (1 << i) | below[i]
        stack.append((undecided & ~forced_out, current))
        forced_in = (1 << i) | above[i]
        stack.append((undecided & ~forced_in, current | forced_in))


def _antichain_count(above, below):
    # an antichain of the undecided mask U leaves out its lowest element i,
    # or holds it and nothing comparable to it; counts memoised on U, the
    # split worked on a stack: no recursion limit on the size
    memo = {0: 1}
    stack = [(1 << len(above)) - 1]
    while stack:
        undecided = stack[-1]
        if undecided in memo:
            stack.pop()
            continue
        low = undecided & -undecided
        i = low.bit_length() - 1
        without = undecided ^ low
        apart = without & ~(above[i] | below[i])
        missing = [m for m in (without, apart) if m not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[undecided] = memo[without] + memo[apart]
            stack.pop()
    return memo[(1 << len(above)) - 1]


def enumerate_up_sets(G, cap=20):
    """All upward-closed subsets of a PairPoset, as bitmasks (generator)."""
    if G.size > cap:
        raise CapExceeded(
            "pair poset has %d elements, cap is %d" % (G.size, cap), required=G.size
        )
    return _up_closed_masks(G.size, G.wider, G.narrower)


# ---------------------------------------------------------------------------
# stock posets and corpora


def _default_labels(k):
    if k <= 26:
        return [_LETTERS[i] for i in range(k)]
    return ["x%d" % i for i in range(k)]


def chain(k):
    full = (1 << k) - 1
    return Poset(_default_labels(k), [full ^ ((2 << i) - 1) for i in range(k)])


def antichain(k):
    return Poset(_default_labels(k), [0] * k)


def diamond():
    return poset_from_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def boolean_lattice(k):
    """Subsets of a k-element set ordered by inclusion.  Labels are the
    member letters joined, '0' for the empty set."""
    if k > 6:
        raise SizeLimitExceeded("boolean_lattice(%d) would have %d elements" % (k, 1 << k))
    n = 1 << k
    labels = []
    for s in range(n):
        labels.append("".join(_LETTERS[i] for i in iterbits(s)) or "0")
    rows = []
    for s in range(n):
        row = 0
        for t in range(n):
            if s != t and s & t == s:
                row |= 1 << t
        rows.append(row)
    return Poset(labels, rows)


def random_poset(k, edge_prob=0.3, seed=0):
    """Transitive closure of a random DAG on a fixed topological order.

    Edge draws use the package LCG, one draw per index pair (i, j), i < j,
    in row order, so a (k, edge_prob, seed) triple pins the poset exactly.
    """
    rng = LCG(seed)
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if rng.next_is_below(edge_prob):
                rows[i] |= 1 << j
    return Poset(["x%d" % i for i in range(k)], transitive_closure(k, rows))


def all_labeled_posets(n):
    """Every labeled poset on n elements (strict relation rows differ).

    Built by extension: each poset on k elements arises once from its
    restriction to the first k-1 by choosing the new element's strict
    down-set D and strict up-set U, where D is down-closed, U is up-closed,
    they are disjoint, and every member of D lies strictly below every
    member of U.
    """
    level = [()]
    for k in range(1, n + 1):
        prev_n = k - 1
        new_level = []
        for rows in level:
            down_rows = [0] * prev_n
            for x in range(prev_n):
                for y in iterbits(rows[x]):
                    down_rows[y] |= 1 << x
            down_sets = list(_up_closed_masks(prev_n, down_rows, rows))
            up_sets = list(_up_closed_masks(prev_n, rows, down_rows))
            for D in down_sets:
                for U in up_sets:
                    if D & U:
                        continue
                    if any(U & ~rows[d] for d in iterbits(D)):
                        continue
                    ext = list(rows) + [U]
                    newbit = 1 << prev_n
                    for d in iterbits(D):
                        ext[d] |= newbit
                    new_level.append(tuple(ext))
        level = new_level
    labels = _default_labels(n)
    return [Poset(labels, rows) for rows in level]


# ---------------------------------------------------------------------------
# text format and DOT export


def parse_poset(text):
    """Read the poset text format:

        # optional comments
        elements: a b c
        relations: a<b b<c

    The relation list may be spread over several 'relations:' lines and is
    transitively closed; covers are enough.
    """
    elements = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if elements is not None:
                raise ParseError("second elements line", line=lineno)
            elements = line[len("elements:") :].split()
            for lab in elements:
                if "<" in lab:
                    raise ParseError("label %r contains '<'" % (lab,), line=lineno)
        elif line.startswith("relations:"):
            for tok in line[len("relations:") :].split():
                left, sep, right = tok.partition("<")
                if not sep or not left or not right or "<" in right:
                    raise ParseError("bad relation token %r" % (tok,), line=lineno)
                relations.append((left, right))
        else:
            raise ParseError("unrecognized line %r" % (line,), line=lineno)
    if elements is None:
        raise ParseError("missing elements line")
    return poset_from_relations(elements, relations)


def format_poset(P):
    """Inverse of parse_poset, emitting covers only."""
    rels = " ".join("%s<%s" % (P.labels[p.x], P.labels[p.y]) for p in covers(P))
    return "elements: %s\nrelations:%s\n" % (
        " ".join(P.labels),
        " " + rels if rels else "",
    )


def _hasse_dot(kind, names, up, down):
    """DOT digraph named kind: one edge per cover, nodes ranked by level.

    Names are written as quoted IDs with '\\' and '"' escaped."""
    ids = ['"%s"' % n.replace("\\", "\\\\").replace('"', '\\"') for n in names]
    lines = ["digraph %s {" % kind, "  rankdir=BT;"]
    lines.extend("  %s;" % q for q in ids)
    ranks = {}
    for q, value in zip(ids, _levels(down)):
        ranks.setdefault(value, []).append(q + ";")
    for value in sorted(ranks):
        lines.append("  { rank=same; %s }" % " ".join(ranks[value]))
    for x, y in _covers(up, down):
        lines.append("  %s -> %s;" % (ids[x], ids[y]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_dot(P):
    """Hasse diagram as DOT: one edge per cover, nodes ranked by level."""
    return _hasse_dot("hasse", P.labels, P.up, P.down)


def pair_poset_dot(G):
    """Hasse diagram of the nesting order on comparable pairs."""
    names = [G.pair_label(i) for i in range(G.size)]
    return _hasse_dot("pairs", names, G.wider, G.narrower)
