"""Word rewriting for the relation-presented companion of an incidence
algebra.

Generators are the poset elements themselves; relations (as rewrite rules):

    (i)   a b c -> a c    whenever a <= b <= c
    (ii)  a b a -> 0      for distinct a, b
    (iii) b a   -> 0      for strictly comparable a < b

The triple convention decides who may repeat in (i): 'allow_repeats' (the
default) reads <= reflexively, so a a b -> a b and a a a -> a a are rules;
'distinct_only' demands three distinct elements.

Reduction runs a fixed strategy, leftmost position first and shorter left
side first, to a fixpoint.  Every rule shortens or kills the word, so this
terminates; whether the normal form is strategy-independent is exactly what
confluence_probe measures, by exploring every redex choice and reporting
words with more than one normal form.  Dimension counts are evidence about
specific posets and degrees, nothing more.

The dimensions are counted, not enumerated.  Reduction stops only when no 2-
or 3-letter window is a left side, so every normal form is irreducible, and
an irreducible word is its own normal form; as no rule lengthens a word, the
normal forms of the words of degree <= d are exactly the irreducible words of
length 1..d.  dimension_up_to counts those over states that are the last two
letters of a word (Ufnarovski's graph: V. Ufnarovski, "A growth criterion for
graphs and algebras defined by words", 1982), extending a state (a, b) by c
when neither b c nor a b c is a left side, in O(d n^3).  The literal
definition, reducing all n^d words of each degree, is
oracles.brute_dimension_up_to.

Stabilization of the graded dimensions is promised under neither convention.
Under 'distinct_only' a poset with no 3-chain has no shortening rule: on
chain(2) the normal forms are the words a^i b^j, and the dimensions grow as
d(d+3)/2.  Even 'allow_repeats' grows on antichain(2): 2, 6, 10, 14, 18, 22.
"""

from itertools import product as _cartesian

from .errors import SizeLimitExceeded, WordLengthExceeded

MAX_WORD_LEN = 12
MAX_PROBE_DEGREE = 32
# words confluence_probe may enumerate, at a few microseconds each
MAX_PROBE_WORDS = 10 ** 5


class RewriteSystem:
    """Rule set for one poset and triple convention.  Rules map a left side
    (tuple of element indices) to a shorter tuple or None for zero."""

    __slots__ = ("poset", "triple_convention", "rules")

    def __init__(self, poset, triple_convention, rules):
        self.poset = poset
        self.triple_convention = triple_convention
        self.rules = dict(rules)

    def sorted_rules(self):
        return sorted(self.rules.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def rule_strings(self):
        labs = self.poset.labels
        out = []
        for lhs, rhs in self.sorted_rules():
            left = " ".join(labs[i] for i in lhs)
            right = "0" if rhs is None else " ".join(labs[i] for i in rhs)
            out.append("%s -> %s" % (left, right))
        return out

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
                # a <= b <= a forces a == b, so no clash with rule (ii)
                rules[(a, b, c)] = (a, c)
    return RewriteSystem(P, triple_convention, rules)


def _match_at(R, word, p):
    """The rule applying at position p, shorter left side first."""
    two = tuple(word[p : p + 2])
    if len(two) == 2 and two in R.rules:
        return two
    three = tuple(word[p : p + 3])
    if len(three) == 3 and three in R.rules:
        return three
    return None


def reduce_word(R, word):
    """Normal form of the word (a tuple of element indices), None for zero."""
    word = tuple(word)
    if len(word) > MAX_WORD_LEN:
        raise WordLengthExceeded(
            "word of length %d exceeds the limit %d" % (len(word), MAX_WORD_LEN)
        )
    for i in word:
        if not 0 <= i < R.poset.n:
            raise ValueError("letter %r is not a poset element index" % (i,))
    w = list(word)
    p = 0
    while p < len(w):
        lhs = _match_at(R, w, p)
        if lhs is None:
            p += 1
            continue
        rhs = R.rules[lhs]
        if rhs is None:
            return None
        w[p : p + len(lhs)] = rhs
        # a rewrite can only create redexes overlapping the edit
        p = max(0, p - 2)
    return tuple(w)


def dimension_up_to(R, max_degree):
    """Cumulative rank of the span of reduced words of degree <= d, for each
    d up to max_degree.

    Rules send a word to a word or to zero, so the span of reduced words is
    spanned by distinct normal forms, and the rank is their count.  Those
    normal forms are exactly the irreducible words of length 1..d (see the
    module docstring), counted over their last two letters.
    """
    if max_degree > MAX_PROBE_DEGREE:
        raise ValueError(
            "dimension probe limited to degree %d, asked for %d"
            % (MAX_PROBE_DEGREE, max_degree)
        )
    if max_degree < 1:
        return []
    n = R.poset.n
    rules = R.rules
    # each irreducible pair (a, b), with the pairs (b, c) it may move to
    successors = {}
    for a in range(n):
        for b in range(n):
            if (a, b) not in rules:
                successors[(a, b)] = [
                    (b, c)
                    for c in range(n)
                    if (b, c) not in rules and (a, b, c) not in rules
                ]
    total = n
    counts = [total]
    # irreducible words of the current length, by their last two letters
    ending = dict.fromkeys(successors, 1)
    for d in range(2, max_degree + 1):
        if d > 2:
            longer = dict.fromkeys(successors, 0)
            for state, count in ending.items():
                if count:
                    for nxt in successors[state]:
                        longer[nxt] += count
            ending = longer
        total += sum(ending.values())
        counts.append(total)
    return counts


def _all_normal_forms(R, word, memo):
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
                acc |= _all_normal_forms(R, nxt, memo)
        result = frozenset(acc)
    memo[word] = result
    return result


def confluence_probe(R, max_len=5):
    """Words of length <= max_len whose normal form depends on the rewrite
    order, each with its full set of normal forms.  Empty list: no
    strategy dependence found at this scale.  Refused with SizeLimitExceeded,
    before any word is reduced, when there are more than MAX_PROBE_WORDS
    such words."""
    n = R.poset.n
    words = 0
    for d in range(1, max_len + 1):
        words += n ** d
        if words > MAX_PROBE_WORDS:
            raise SizeLimitExceeded(
                "confluence probe limited to %d words; %d letters up to length "
                "%d is more" % (MAX_PROBE_WORDS, n, max_len)
            )
    witnesses = []
    memo = {}
    letters = range(n)
    for d in range(1, max_len + 1):
        for word in _cartesian(letters, repeat=d):
            forms = _all_normal_forms(R, word, memo)
            if len(forms) > 1:
                witnesses.append(
                    (word, sorted(forms, key=lambda t: (t is not None, t)))
                )
    return witnesses
