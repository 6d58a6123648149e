"""The four benchmark workloads: seeded inputs, one op each, and its gate.

A workload's set-up builds a fixed op list from the seed.  The poset shapes
and sizes are pinned so that every seed costs about the same; the seed
chooses the scramble (basis permutation and rescale factors), which product
a tampered table loses, which labelling of a pinned shape a rewriting op
takes, the roundtrip seeds of the check suite and the order of the ops.

An op calls the library's public functions in the order a command of the
`posetalg` CLI does, each through the tracer, so that a traced pass records
one span per call.  Cached work is billed to the layer that does it:
`ensure_associative()` runs before the recovery routes and `pair_poset()`
before the checks.
"""

from itertools import permutations
from typing import NamedTuple

from posetalg import (
    IncidenceAlgebra,
    LCG,
    MultiplicationTable,
    Pair,
    Poset,
    PosetAlgebraError,
    RESCALE_FACTORS,
    antichain,
    boolean_lattice,
    build_rewrite_system,
    chain,
    diamond,
    dimension_up_to,
    format_poset,
    quasi_idempotents,
    random_poset,
    recover_by_ideal_products,
    recover_by_links,
)
from posetalg import checks as _checks

import gates


# ---------------------------------------------------------------------------
# inputs


def ordinal_sum(sizes):
    """Antichains of the given sizes stacked: every element of a level lies
    below every element of each later level."""
    total = sum(sizes)
    labels, rows = [], []
    start = 0
    for s in sizes:
        above = ((1 << total) - 1) ^ ((1 << (start + s)) - 1)
        for i in range(s):
            labels.append("x%d" % (start + i))
            rows.append(above)
        start += s
    return Poset(labels, rows)


def scrambled(table, rng):
    """Seeded basis permutation and rescale, returning the permutation too."""
    perm = list(range(table.dim))
    rng.shuffle(perm)
    scales = [rng.choice(RESCALE_FACTORS) for _ in range(table.dim)]
    return table.permuted_rescaled(perm, scales), perm


def four_chains(P):
    """Every (x, y, z) with x < w < y < z for some w."""
    up, down = P.up, P.down
    out = []
    for x in range(P.n):
        for y in range(P.n):
            if up[x] >> y & 1 and up[x] & down[y]:
                out.extend((x, y, z) for z in range(P.n) if up[y] >> z & 1)
    return out


class RecoverInput(NamedTuple):
    kind: str
    text: str
    poset: object
    sources: dict
    covers: frozenset
    n: int
    dim: int
    entries: int

    @property
    def must_refuse(self):
        return self.kind != "poset"


def _input(kind, P, puzzle, sources=None, covers=frozenset()):
    return RecoverInput(
        kind, puzzle.to_json_text(), P, sources or {}, covers,
        P.n, puzzle.dim, len(puzzle.entries),
    )


def genuine_input(P, rng):
    A = IncidenceAlgebra(P, "reflexive")
    puzzle, perm = scrambled(A.multiplication_table(), rng)
    diagonal = [A.index[Pair(x, x)] for x in range(P.n)]
    sources, covers = gates.recovery_expectation(P, diagonal, perm)
    return _input("poset", P, puzzle, sources, covers)


def tampered_input(P, rng):
    """P's table without the product [x,y][y,z] for a seeded chain
    x < w < y < z.  ([x,w][w,y])[y,z] is then zero while [x,w]([w,y][y,z])
    is [x,z], so the table is not associative and must be refused."""
    options = four_chains(P)
    if not options:
        raise ValueError("%r has no chain of four elements" % (P,))
    x, y, z = rng.choice(options)
    A = IncidenceAlgebra(P, "reflexive")
    entries = dict(A.multiplication_table().entries)
    del entries[(A.index[Pair(x, y)], A.index[Pair(y, z)])]
    return _input("tampered", P, scrambled(MultiplicationTable(A.dim, entries), rng)[0])


def twisted_input(rng):
    """The table of a1,a2 < b1,b2 < c1,c2 with the product [a1,b1][b1,c1]
    negated.  It stays associative, but the product of the signs of its
    eight triangles is -1, which no rescaling of an incidence table gives,
    so it must be refused."""
    P = ordinal_sum([2, 2, 2])
    A = IncidenceAlgebra(P, "reflexive")
    entries = dict(A.multiplication_table().entries)
    key = (A.index[Pair(0, 2)], A.index[Pair(2, 4)])
    coeff, k = entries[key]
    entries[key] = (-coeff, k)
    return _input("twisted", P, scrambled(MultiplicationTable(A.dim, entries), rng)[0])


DIM2_TEXT = '{"dim":2,"entries":[[0,0,"1",1]]}'


def dim2_input():
    """b0*b0 = b1 and nothing else: no quasi-idempotent, so no poset lies
    behind it and it must be refused."""
    return RecoverInput("no_poset", DIM2_TEXT, None, {}, frozenset(), 0, 2, 1)


# Pinned shapes; each recover workload has 100 ops of which 12 must be
# refused.  The middle of each op list is a block of 40 scrambles of one
# poset, and every other op is clearly cheaper or dearer, so op_p50_s is the
# median of that block: identical work whose cost differs only by the
# scramble.  The refusal inputs are small, so that however early validation
# finds their defect they stay below the block.
DEEP_CHAINS = [30, 22, 16, 14, 13, 12, 12, 12] + [10] * 40 + [6, 5, 4, 3]
DEEP_SUMS = [
    [3, 3, 3, 3, 3, 3], [2, 3, 2, 3, 2, 3, 2], [3, 3, 3, 3, 3],
    [2, 2, 2, 2, 2, 2, 2], [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1],
] * 3 + [[3, 2, 1, 3, 2, 1, 3]] + [
    [2, 2, 2], [3, 1, 3, 1], [1, 2, 1, 2, 1], [2, 2, 2, 2], [1, 3, 1],
] * 4
DEEP_TAMPERED = [chain(4), chain(5), chain(6), chain(5), chain(4)] * 2
WIDE_TAMPERED = [boolean_lattice(3)] * 4 + [ordinal_sum([2, 1, 1, 2])] * 3 \
    + [ordinal_sum([1, 2, 2, 1])] * 3


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def recover_deep_inputs(seed):
    rng = LCG(seed)
    ops = [genuine_input(chain(n), rng) for n in DEEP_CHAINS]
    for sizes in DEEP_SUMS:
        ops.append(genuine_input(ordinal_sum(_shuffled(sizes, rng)), rng))
    ops += [tampered_input(P, rng) for P in DEEP_TAMPERED]
    ops += [twisted_input(rng), dim2_input()]
    return _shuffled(ops, rng)


def recover_wide_inputs(seed):
    rng = LCG(seed)
    posets = [
        random_poset(80, 0.03, 1), random_poset(40, 0.1, 3), boolean_lattice(5),
        random_poset(50, 0.04, 2), boolean_lattice(4), boolean_lattice(4),
        ordinal_sum([12, 12]), ordinal_sum([10, 2, 10]), antichain(48), antichain(64),
    ]
    posets += [random_poset(26, 0.03, 7)] * 40
    for k in (30, 32, 34, 36):
        for i, p in enumerate((0.02, 0.03, 0.04, 0.05, 0.06)):
            posets.append(random_poset(k, p, 100 * k + i))
    posets += [random_poset(36, 0.07, 1), random_poset(36, 0.08, 2)]
    posets += [antichain(k) for k in (4, 8, 12, 16, 20)]
    posets += [diamond(), boolean_lattice(2), boolean_lattice(3), ordinal_sum([6, 6])]
    posets += [random_poset(k, 0.05, k) for k in (8, 10, 12, 14, 16, 18, 20)]
    ops = [genuine_input(P, rng) for P in posets]
    ops += [tampered_input(P, rng) for P in WIDE_TAMPERED]
    ops += [twisted_input(rng), dim2_input()]
    return _shuffled(ops, rng)


class RecoverWorkload:
    """One op: parse a scrambled table, validate it and recover the poset
    by both routes, as `posetalg recover` does."""

    def __init__(self, make_inputs):
        self.make_inputs = make_inputs

    def setup(self, seed):
        return self.make_inputs(seed)

    @staticmethod
    def fingerprint(inputs):
        return tuple(inp.text for inp in inputs)

    @staticmethod
    def size(inp):
        return inp.entries

    @staticmethod
    def run(tr, inp):
        try:
            table = tr.call(
                "algebra.from_json_text", MultiplicationTable.from_json_text, inp.text
            )
            tr.count("algebra.entries", len(table.entries))
            tr.count("algebra.dim", table.dim)
            tr.call("algebra.ensure_associative", table.ensure_associative)
            qs = tr.call("recovery.quasi_idempotents", quasi_idempotents, table)
            tr.count("recovery.elements", len(qs))
            tr.count("recovery.ideal_products_entries", len(table.entries))
            via_products = tr.call(
                "recovery.recover_by_ideal_products", recover_by_ideal_products, table
            )
            tr.count("recovery.links_entries", len(table.entries))
            via_links = tr.call("recovery.recover_by_links", recover_by_links, table)
            text = tr.call("poset.format_poset", format_poset, via_products)
        except PosetAlgebraError as e:
            tr.count("recovery.refused", 1)
            return e
        tr.count("recovery.recovered", 1)
        agree = via_products.labels == via_links.labels and via_products.up == via_links.up
        tr.count("recovery.agreed", int(agree))
        return via_products, via_links, text

    @staticmethod
    def judge(inp, result):
        if inp.must_refuse:
            return isinstance(result, PosetAlgebraError)
        if not isinstance(result, tuple):
            return False
        via_products, via_links, text = result
        return (
            gates.recovered_matches(via_products, inp.poset, inp.sources)
            and gates.recovered_matches(via_links, inp.poset, inp.sources)
            and gates.formatted_matches(text, inp.sources, inp.covers)
        )

    @staticmethod
    def describe(inputs):
        return _ranges(inputs, ("n", "dim", "entries"))


# ---------------------------------------------------------------------------
# the check suite over the shipped corpora

CHECK_NAMES = (
    "pair_minimals", "ideal_count", "sum_lemma", "intersection_meet",
    "product_lemma", "product_in_intersection", "bijections", "idempotence",
    "maximality", "diagonal_products", "span_corollary", "quasi_idempotents",
    "links_are_covers", "unscrambled_recovery", "scramble_identity", "roundtrip",
)


def check_calls(P, A, table, rng, inp):
    """The calls run_poset_checks makes, in its order and with its
    arguments; each returns a CheckResult named as in CHECK_NAMES."""
    c, cap = _checks, inp.enum_cap
    return (
        (c.check_pair_minimals, (P, A)),
        (c.check_ideal_count, (P, A, cap)),
        (c.check_sum_lemma, (P, A, cap)),
        (c.check_intersection_is_meet, (P, A, cap)),
        (c.check_product_lemma, (P, A)),
        (c.check_product_in_intersection, (P, A)),
        (c.check_bijections, (P, A)),
        (c.check_idempotence, (P, A)),
        (c.check_maximality, (P, A, cap)),
        (c.check_diagonal_products, (P, A)),
        (c.check_span_corollary, (P, A, rng, inp.n_lists)),
        (c.check_quasi_idempotents, (P, table)),
        (c.check_links_are_covers, (P, table)),
        (c.check_unscrambled_recovery, (P, table)),
        (c.check_scramble_identity, (P, table)),
        (c.check_roundtrip, (P, inp.seeds)),
    )


class CheckInput(NamedTuple):
    poset: object
    seeds: tuple
    rng_seed: int
    enum_cap: int = 12
    n_lists: int = 3

    must_refuse = False

    @property
    def n(self):
        return self.poset.n


class CheckWorkload:
    """One op: the 16 checks of `run_poset_checks` on one corpus poset, with
    the defaults of `posetalg check --corpus`."""

    @staticmethod
    def setup(seed):
        rng = LCG(seed)
        random7 = _checks.get_corpus("random7")
        posets = _checks.get_corpus("exhaustive4") + random7
        # each op draws its own roundtrip seeds and span-check seed, so that
        # the cost of a pass averages over many draws
        inputs = []
        for P in _shuffled(posets, rng):
            base = 1 + rng.next_below(1000)
            inputs.append(CheckInput(P, (base, base + 1), rng.next_below(1 << 16)))
        # the op replays run_poset_checks one check at a time; refuse to run
        # if the suite's checks, arguments or results have changed under it
        for P in [P for P in random7 if P.n == 4][:2]:
            inp = CheckInput(P, (1, 2), 7)
            want = _checks.run_poset_checks(
                inp.poset, inp.seeds, inp.enum_cap, inp.n_lists, inp.rng_seed
            )
            got = CheckWorkload.run(_Direct, inp)
            if got != want:
                raise RuntimeError("run_poset_checks now gives %r, the op %r"
                                   % (want, got))
        return inputs

    @staticmethod
    def fingerprint(inputs):
        return tuple((c.poset.labels, c.poset.up, c.seeds, c.rng_seed) for c in inputs)

    @staticmethod
    def size(inp):
        return inp.poset.n + inp.poset.strict_pair_count()

    @staticmethod
    def run(tr, inp):
        P = inp.poset
        A = tr.call("algebra.IncidenceAlgebra", IncidenceAlgebra, P, "reflexive")
        G = tr.call("poset.PairPoset", A.pair_poset)
        tr.count("poset.pairs", G.size)
        table = tr.call("algebra.multiplication_table", A.multiplication_table)
        tr.count("algebra.entries", len(table.entries))
        tr.count("algebra.dim", table.dim)
        tr.call("algebra.ensure_associative", table.ensure_associative)
        rng = LCG(inp.rng_seed)
        results = []
        calls = check_calls(P, A, table, rng, inp)
        for name, (check, args) in zip(CHECK_NAMES, calls):
            r = tr.call("checks." + name, check, *args)
            results.append(r)
            tr.count("checks.failed" if not r.passed else
                     "checks.skipped" if r.skipped else "checks.passed", 1)
        return results

    @staticmethod
    def judge(inp, results):
        return (
            isinstance(results, list)
            and tuple(r.name for r in results) == CHECK_NAMES
            and all(r.passed for r in results)
        )

    @staticmethod
    def describe(inputs):
        return _ranges(inputs, ("n",))


# ---------------------------------------------------------------------------
# the rewriting probe

CONVENTIONS = ("allow_repeats", "distinct_only")
# degree per poset size, so that no op reduces more than 5**6 words
PROBE_DEGREE = {0: 8, 1: 8, 2: 8, 3: 8, 4: 6, 5: 6}


class DimsInput(NamedTuple):
    poset: object
    convention: str
    degree: int
    expected: tuple

    must_refuse = False

    @property
    def n(self):
        return self.poset.n


class DimsWorkload:
    """One op: build the rewriting system of a small poset and count its
    graded dimensions, as `posetalg dims` does."""

    @staticmethod
    def setup(seed):
        rng = LCG(seed)
        exhaustive = _checks.get_corpus("exhaustive4")
        random7 = [P for P in _checks.get_corpus("random7") if P.n in (4, 5)]
        classes = {
            n: isomorphism_classes([P for P in exhaustive if P.n == n]) for n in (3, 4)
        }
        posets = [chain(n) for n in (2, 3, 4, 5)] + [diamond()]
        posets += [antichain(n) for n in (2, 3, 4, 5)]
        posets += random7
        # every shape of 3 and 4 elements, the 3-element ones twice; the seed
        # picks the labelling, so every seed does the same work
        posets += [rng.choice(c) for c in classes[3] * 2 + classes[4]]
        ops = []
        for P in posets:
            d = PROBE_DEGREE[P.n]
            for conv in CONVENTIONS:
                sides = gates.rewrite_left_sides(P, conv)
                want = tuple(gates.irreducible_word_counts(P.n, sides, d))
                ops.append(DimsInput(P, conv, d, want))
        return _shuffled(ops, rng)

    @staticmethod
    def fingerprint(inputs):
        return tuple((d.poset.up, d.convention, d.degree) for d in inputs)

    @staticmethod
    def size(inp):
        return inp.poset.n ** inp.degree

    @staticmethod
    def run(tr, inp):
        R = tr.call(
            "rewriting.build_rewrite_system", build_rewrite_system,
            inp.poset, inp.convention,
        )
        dims = tr.call("rewriting.dimension_up_to", dimension_up_to, R, inp.degree)
        tr.count("rewriting.normal_forms", dims[-1] if dims else 0)
        return dims

    @staticmethod
    def judge(inp, dims):
        return isinstance(dims, list) and tuple(dims) == inp.expected

    @staticmethod
    def describe(inputs):
        return _ranges(inputs, ("n", "degree"))


class _Direct:
    """Calls straight through, for the guard in CheckWorkload.setup."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, value):
        pass


def isomorphism_classes(posets):
    """The posets grouped by shape, in order of each shape's first member."""
    classes = {}
    for P in posets:
        # the least relabelling: (new index, new up-set) of every element
        key = min(
            tuple(sorted(
                (perm[x], sum(1 << perm[y] for y in range(P.n) if P.up[x] >> y & 1))
                for x in range(P.n)
            ))
            for perm in permutations(range(P.n))
        )
        classes.setdefault(key, []).append(P)
    return list(classes.values())


def _ranges(inputs, fields):
    out = {"ops": len(inputs), "must_refuse": sum(i.must_refuse for i in inputs)}
    for f in fields:
        values = [getattr(i, f) for i in inputs]
        out[f] = [min(values), max(values)]
    return out


WORKLOADS = {
    "recover_deep": RecoverWorkload(recover_deep_inputs),
    "recover_wide": RecoverWorkload(recover_wide_inputs),
    "check_corpus": CheckWorkload,
    "rewrite_dims": DimsWorkload,
}
