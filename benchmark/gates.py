"""Correctness gates for the benchmark, written independently of posetalg.

Each gate judges one op's output against what the benchmark itself knows
about the input: the source poset and the basis permutation of a scramble,
the documented shape of a check result, or a word count made here.  None of
them compares against numbers taken from the program's own output.
"""


def recovery_expectation(P, diagonal_index, perm):
    """What recovering the scramble of P must give.

    diagonal_index[x] is the generator index of the diagonal pair [x,x]
    before scrambling, and perm is the basis permutation the scramble used.
    Returns (sources, covers): sources maps each scrambled diagonal index to
    its source element, covers is the set of cover tokens 'e<k><e<l>' the
    formatted poset must list.
    """
    sources = {perm[diagonal_index[x]]: x for x in range(P.n)}
    label = {x: "e%d" % k for k, x in sources.items()}
    up = P.up
    covers = set()
    for x in range(P.n):
        row = up[x]
        for y in range(P.n):
            if row >> y & 1 and not any(
                row >> z & 1 and up[z] >> y & 1 for z in range(P.n)
            ):
                covers.add("%s<%s" % (label[x], label[y]))
    return sources, frozenset(covers)


def _source_of(label, sources):
    if not label.startswith("e") or not label[1:].isdigit():
        return None
    return sources.get(int(label[1:]))


def recovered_matches(Q, P, sources):
    """True when the recovered poset Q is P under the known relabelling:
    every element of Q names a scrambled diagonal index, every source element
    appears once, and Q's strict order is P's carried through the map."""
    if Q.n != P.n:
        return False
    src = [_source_of(lab, sources) for lab in Q.labels]
    if None in src or sorted(src) != list(range(P.n)):
        return False
    up = P.up
    for i in range(Q.n):
        for j in range(Q.n):
            if bool(Q.up[i] >> j & 1) != bool(up[src[i]] >> src[j] & 1):
                return False
    return True


def formatted_matches(text, sources, covers):
    """The text form of a recovered poset lists the expected elements and
    exactly the expected cover relations, in any order."""
    lines = text.splitlines()
    if len(lines) != 2:
        return False
    head, rels = lines
    if not head.startswith("elements:") or not rels.startswith("relations:"):
        return False
    elements = head[len("elements:"):].split()
    want = sorted("e%d" % k for k in sources)
    return sorted(elements) == want and frozenset(
        rels[len("relations:"):].split()
    ) == covers


def rewrite_left_sides(P, triple_convention):
    """Left sides of the rewriting rules, read from the presentation:
    b a for a < b, a b a for a != b, and a b c for a <= b <= c (three
    distinct letters under 'distinct_only')."""
    n = P.n
    up = P.up

    def leq(x, y):
        return x == y or bool(up[x] >> y & 1)

    sides = set()
    for a in range(n):
        for b in range(n):
            if a != b:
                sides.add((a, b, a))
                if up[a] >> b & 1:
                    sides.add((b, a))
    distinct = triple_convention == "distinct_only"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not (leq(a, b) and leq(b, c)):
                    continue
                if distinct and len({a, b, c}) < 3:
                    continue
                sides.add((a, b, c))
    return sides


def irreducible_word_counts(n, left_sides, max_degree):
    """Cumulative number of words of length <= d over n letters containing
    no left side as a factor, for d = 1..max_degree.

    Every left side has length 2 or 3, so a word is irreducible exactly when
    each of its 2- and 3-letter windows is; a transfer count over the last
    two letters extends words one letter at a time.
    """
    if max_degree < 1:
        return []
    if n == 0:
        return [0] * max_degree
    pairs = {(a, b) for a in range(n) for b in range(n) if (a, b) not in left_sides}
    counts = [n]
    if max_degree == 1:
        return counts
    state = {p: 1 for p in pairs}
    total = n + len(state)
    counts.append(total)
    for _ in range(3, max_degree + 1):
        nxt = {}
        for (a, b), ways in state.items():
            for c in range(n):
                if (b, c) in pairs and (a, b, c) not in left_sides:
                    nxt[(b, c)] = nxt.get((b, c), 0) + ways
        state = nxt
        total += sum(state.values())
        counts.append(total)
    return counts


class Tally:
    """Pass-by-pass verdicts for a fixed op list.

    An op whose input has a right answer (a poset behind a table, a check
    suite, a dimension count) and misses it makes the run incorrect.  An op
    whose input must be refused and is accepted is a failed op but leaves
    the run correct: it is the robustness defect the refusal inputs exist to
    count.
    """

    def __init__(self):
        self.failed = set()
        self.wrong = set()

    def record(self, op_index, passed, must_refuse):
        if passed:
            return
        self.failed.add(op_index)
        if not must_refuse:
            self.wrong.add(op_index)

    @property
    def correct(self):
        return not self.wrong
