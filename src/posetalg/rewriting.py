"""Word rewriting for the relation-presented companion of an incidence
algebra.

Generators are the poset elements themselves; relations (as rewrite rules):

    (i)   a b c -> a c    whenever a <= b <= c
    (ii)  a b a -> 0      for distinct a, b
    (iii) b a   -> 0      for strictly comparable a < b

The triple convention decides who may repeat in (i): 'allow_repeats' (the
default) reads <= reflexively, so a a b -> a b and a a a -> a a are rules;
'distinct_only' demands three distinct elements.

Every rule shortens or kills its word; RewriteSystem refuses any other.  So
reduction terminates, and by Newman's lemma the normal form is strategy-
independent exactly when every critical pair joins (Knuth and Bendix):
confluence_probe tests the overlap words of two left sides,
oracles.brute_confluence_witnesses every word.  Dimension counts are evidence
about posets and degrees, no more.

Reduction takes the leftmost redex, the shorter left side first, in one
left-to-right pass (Book and Otto, String-Rewriting Systems, 1993, ch. 2).
Each letter read goes onto a stack that is irreducible below it, so a redex
ends at the top, and of the two windows ending there the 3-letter one starts
first.  A match pops its left side and puts the right side in front of the
unread letters.  A rewrite drops a letter and puts back at most two, so the
pass is linear in the word's length.

The dimensions are counted, not enumerated.  Reduction stops only when no 2-
or 3-letter window is a left side, so every normal form is irreducible, and
an irreducible word is its own normal form; as no rule lengthens a word, the
normal forms of the words of degree <= d are exactly the irreducible words of
length 1..d.  dimension_up_to counts those over states that are the last two
letters of a word (Ufnarovski's graph: V. Ufnarovski, "A growth criterion for
graphs and algebras defined by words", 1982).  The state of an irreducible
pair a b is the integer a*n + b, and its successor row lists the states
b*n + c of the letters c for which neither b c nor a b c is a left side,
read off bitmasks of the rules; each degree pushes counts along the rows,
in O(d n^3).  The literal definition, reducing all n^d words of each
degree, is oracles.brute_dimension_up_to, and the literal rule builder,
testing every triple with P.leq, is oracles.brute_rewrite_rules.

Stabilization of the graded dimensions is promised under neither convention.
Under 'distinct_only' a poset with no 3-chain has no shortening rule: on
chain(2) the normal forms are the words a^i b^j, and the dimensions grow as
d(d+3)/2.  Even 'allow_repeats' grows on antichain(2): 2, 6, 10, 14, 18, 22.
"""

from .poset import iterbits

MAX_PROBE_DEGREE = 32


class RewriteSystem:
    """Rule set for one poset and triple convention.  Rules map a left side
    (tuple of element indices) to a shorter nonempty tuple or None for zero,
    so reduction terminates.  A left side must have 2 or 3 letters, the only
    windows reduction matches, and every letter must be an element index
    0..n-1, the only letters dimension_up_to counts."""

    __slots__ = ("poset", "triple_convention", "rules")

    def __init__(self, poset, triple_convention, rules):
        rules = dict(rules)
        n = poset.n
        for lhs, rhs in rules.items():
            if len(lhs) not in (2, 3):
                raise ValueError("left side %r is not 2 or 3 letters" % (lhs,))
            if rhs is not None and not 0 < len(rhs) < len(lhs):
                # the empty word would be a normal form no count includes, and
                # a rule that does not shorten its word need not terminate
                raise ValueError(
                    "rule %r -> %r: right side empty or not shorter" % (lhs, rhs)
                )
            for i in (*lhs, *(rhs or ())):
                if not (isinstance(i, int) and 0 <= i < n):
                    raise ValueError(
                        "rule %r -> %r: letter %r is not an element index"
                        % (lhs, rhs, i)
                    )
        self.poset, self.triple_convention, self.rules = poset, triple_convention, rules

    @classmethod
    def _checked(cls, poset, triple_convention, rules):
        R = cls.__new__(cls)  # of rules valid as made, not copied
        R.poset, R.triple_convention, R.rules = poset, triple_convention, rules
        return R

    def __repr__(self):
        return "<RewriteSystem %s %s, %d rules>" % (
            ",".join(self.poset.labels),
            self.triple_convention,
            len(self.rules),
        )


def build_rewrite_system(P, triple_convention="allow_repeats"):
    if triple_convention not in ("distinct_only", "allow_repeats"):
        raise ValueError("triple_convention must be 'distinct_only' or 'allow_repeats'")
    rules = {}
    n = P.n
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if P.strict(a, b):
                rules[(b, a)] = None
            rules[(a, b, a)] = None
    # the elements above a, itself included unless the triples are distinct;
    # a < b < c are distinct anyway.  a <= b <= a forces a == b, so no
    # clash with rule (ii)
    repeat = triple_convention == "allow_repeats"
    above = [P.up[a] | (1 << a if repeat else 0) for a in range(n)]
    for a in range(n):
        for b in iterbits(above[a]):
            for c in iterbits(above[b]):
                rules[(a, b, c)] = (a, c)
    return RewriteSystem._checked(P, triple_convention, rules)


def reduce_word(R, word):
    """Normal form of the word (element indices), None for zero: leftmost
    redex first, shorter left side first, in one linear pass (see the module
    docstring)."""
    pending = list(word)
    for i in pending:  # RewriteSystem's letter rule
        if not (isinstance(i, int) and 0 <= i < R.poset.n):
            raise ValueError("letter %r is not a poset element index" % (i,))
    pending.reverse()  # the next letter to read is last
    rules = R.rules
    out = []
    while pending:
        out.append(pending.pop())
        # out is irreducible below its top, so a redex ends at the top: the
        # 3-letter window, then the 2-letter one
        lhs = tuple(out[-3:])
        if lhs not in rules:
            lhs = lhs[-2:]
            if lhs not in rules:
                continue
        rhs = rules[lhs]
        if rhs is None:
            return None
        del out[-len(lhs) :]
        pending.extend(reversed(rhs))
    return tuple(out)


def dimension_up_to(R, max_degree):
    """Cumulative rank of the span of reduced words of degree <= d, for each
    d up to max_degree.

    Rules send a word to a word or to zero, so the span of reduced words is
    spanned by distinct normal forms, and the rank is their count.  Those
    normal forms are exactly the irreducible words of length 1..d, as the
    constructor refuses a rule that does not shorten (see the module
    docstring).  They are counted over their last two letters: a list indexed
    by the state a*n + b holds how many irreducible words of the current
    length end in a b, and the next length adds each count to the states of
    the state's successor row.  Reads only R.rules and R.poset.n.
    """
    if max_degree > MAX_PROBE_DEGREE:
        raise ValueError(
            "dimension probe limited to degree %d, asked for %d"
            % (MAX_PROBE_DEGREE, max_degree)
        )
    if max_degree < 1:
        return []
    n = R.poset.n
    nn = n * n
    # free[b]: the c with b c no left side; free3[a*n + b]: the c with a b c
    # no left side
    full = (1 << n) - 1
    free = [full] * n
    free3 = [full] * nn
    for lhs in R.rules:
        if len(lhs) == 2:
            free[lhs[0]] &= ~(1 << lhs[1])
        else:
            a, b, c = lhs
            free3[a * n + b] &= ~(1 << c)
    # each irreducible pair a b as the state a*n + b, with its successor row
    rows = [
        (a * n + b, [b * n + c for c in iterbits(free[b] & free3[a * n + b])])
        for a in range(n)
        for b in iterbits(free[a])
    ]
    total = n
    counts = [total]
    # irreducible words of the current length, by the state of their last
    # two letters
    ending = [0] * nn
    for s, _ in rows:
        ending[s] = 1
    for d in range(2, max_degree + 1):
        if d > 2:
            longer = [0] * nn
            for s, row in rows:
                count = ending[s]
                if count:
                    for t in row:
                        longer[t] += count
            ending = longer
        total += sum(ending)
        counts.append(total)
    return counts


def _rewrite_at(R, w, p, lhs):
    rhs = R.rules[lhs]
    return None if rhs is None else reduce_word(R, w[:p] + rhs + w[p + len(lhs) :])


def confluence_probe(R):
    """Overlap words of two left sides whose two rewrites reach different
    normal forms, with the forms sorted (zero, None, first); empty exactly when
    R is confluent."""
    by_first = {}
    for lhs in R.rules:
        by_first.setdefault(lhs[0], []).append(lhs)
    found = {}
    for l1 in R.rules:
        for p, letter in enumerate(l1):
            for l2 in by_first.get(letter, ()):
                # l1, then the letters of l2 that run past its end
                word = l1 + l2[len(l1) - p :]
                if (p == 0 and l2 == l1) or word[p : p + len(l2)] != l2:
                    continue
                forms = {_rewrite_at(R, word, 0, l1), _rewrite_at(R, word, p, l2)}
                if len(forms) > 1:
                    found.setdefault(word, set()).update(forms)
    return [(w, sorted(f, key=lambda t: (t is not None, t))) for w, f in found.items()]
