"""Incidence algebras over the rationals, with exact arithmetic throughout.

The algebra of a poset has one generator per comparable pair [x,y] (per
strictly comparable pair under the irreflexive convention) and the monomial
product [x,y][u,v] = [x,v] when y == u, zero otherwise.  Elements are sparse
rational combinations of generators; under a natural labeling their matrices
are upper triangular.

MultiplicationTable is the shareable face of an algebra: dimension plus
monomial structure constants, serialized as JSON.  Scrambling a table
(seeded basis permutation and rescale) produces the puzzles the recovery
module solves.
"""

import json
import re
import weakref
from fractions import Fraction
from itertools import count
from math import gcd

from . import poset as _poset
from .errors import (
    AlgebraMismatch,
    ConventionError,
    NoPosetBehindTable,
    NoUnit,
    NotAssociative,
    NotMonomial,
    ParseError,
)
from .poset import all_pairs
from .rng import LCG

RESCALE_FACTORS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(-3),
)

_UNCHECKED = object()
# the exponent of a coefficient text in E notation
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


class IncidenceAlgebra:
    """Incidence algebra of a poset under one of two conventions.

    reflexive: generators are all pairs x <= y, the diagonal sum is a unit.
    irreflexive: strict pairs only; the algebra is nilpotent and has no unit.
    """

    __slots__ = ("poset", "convention", "generators", "index", "by_first",
                 "_pair_poset", "_table")

    def __init__(self, poset, convention="reflexive"):
        if convention not in ("reflexive", "irreflexive"):
            raise ValueError("convention must be 'reflexive' or 'irreflexive'")
        pairs = all_pairs(poset)
        if convention == "irreflexive":
            pairs = [p for p in pairs if p.x != p.y]
        # by_first[u] lists (j, v) for each generator j = [u,v], in generator
        # order: the generators that [x,u] composes with on the right
        by_first = [[] for _ in range(poset.n)]
        for j, (u, v) in enumerate(pairs):
            by_first[u].append((j, v))
        self.poset = poset
        self.convention = convention
        self.generators = tuple(pairs)
        self.index = {p: i for i, p in enumerate(pairs)}
        self.by_first = by_first
        self._pair_poset = None
        self._table = None

    @property
    def dim(self):
        return len(self.generators)

    def _check_reflexive(self):
        if self.convention != "reflexive":
            raise ConventionError(
                "ideal calculus needs the reflexive convention (diagonal pairs)"
            )

    def pair_poset(self):
        """Comparable pairs under nesting, pair i being generator i.  Refuses
        the irreflexive convention, whose generators are strict pairs only."""
        if self._pair_poset is None:
            self._check_reflexive()
            self._pair_poset = _poset.PairPoset(self.poset)
        return self._pair_poset

    def same_algebra(self, other):
        return self.poset is other.poset and self.convention == other.convention

    # -- element construction

    def _gen_index(self, key):
        if isinstance(key, tuple):
            # (True, 1) and (0.0, 1.0) would hash as the pairs (1, 1) and (0, 1)
            ints = len(key) == 2 and type(key[0]) is int and type(key[1]) is int
            if not ints or key not in self.index:
                raise KeyError("%r is not a generator pair" % (key,))
            return self.index[key]
        if type(key) is not int:  # int() would truncate 1.7, True and '2'
            raise KeyError("%r is neither a generator index nor a pair" % (key,))
        if not 0 <= key < self.dim:
            raise KeyError("generator index %d out of range" % key)
        return key

    def element(self, mapping):
        """Element from {generator index or Pair: rational coefficient}."""
        coeffs = {}
        for key, value in mapping.items():
            c = Fraction(value)
            if c:
                i = self._gen_index(key)
                coeffs[i] = coeffs[i] + c if i in coeffs else c
        return AlgebraElement(self, {i: c for i, c in coeffs.items() if c})

    def generator(self, key):
        return AlgebraElement(self, {self._gen_index(key): Fraction(1)})

    def zero(self):
        return AlgebraElement(self, {})

    def unit(self):
        if self.convention != "reflexive":
            raise NoUnit("the irreflexive-convention algebra has no unit")
        return AlgebraElement(
            self, {x: Fraction(1) for x in range(self.poset.n)}
        )

    # -- arithmetic

    def add(self, f, g):
        self._claim(f)
        self._claim(g)
        coeffs = dict(f.coeffs)
        for i, c in g.coeffs.items():
            s = coeffs.get(i)
            if s is None:
                coeffs[i] = c
            elif s := s + c:
                coeffs[i] = s
            else:
                del coeffs[i]
        return AlgebraElement(self, coeffs)

    def scale(self, c, f):
        self._claim(f)
        c = Fraction(c)
        if not c:
            return self.zero()
        return AlgebraElement(self, {i: c * v for i, v in f.coeffs.items()})

    def multiply(self, f, g):
        self._claim(f)
        self._claim(g)
        gens = self.generators
        index = self.index
        starting = {}  # u -> the (v, c) of g's terms c [u,v], in g's order
        for j, cj in g.coeffs.items():
            u, v = gens[j]
            starting.setdefault(u, []).append((v, cj))
        coeffs = {}
        for i, ci in f.coeffs.items():
            x, y = gens[i]
            for v, cj in starting.get(y, ()):
                k = index[x, v]  # x <= y <= v, strict when x < y and y < v
                s = coeffs.get(k)
                if s is None:
                    coeffs[k] = ci * cj
                elif s := s + ci * cj:
                    coeffs[k] = s
                else:
                    del coeffs[k]
        return AlgebraElement(self, coeffs)

    def _claim(self, f):
        if not isinstance(f, AlgebraElement) or not self.same_algebra(f.algebra):
            raise AlgebraMismatch("element does not belong to this algebra")

    # -- views

    def multiplication_table(self):
        """The structure constants.  While a caller holds the table, later
        calls return that same table, which callers must not mutate; the
        algebra keeps only a weak reference, so a table nobody holds is
        freed and built again on the next call."""
        table = self._table and self._table()
        if table is None:
            index = self.index
            one = Fraction(1)
            entries = {}
            for i, (x, y) in enumerate(self.generators):
                # x <= y <= v gives x <= v, strict when y < v
                for j, v in self.by_first[y]:
                    entries[(i, j)] = (one, index[x, v])
            table = MultiplicationTable._checked(self.dim, entries)
            self._table = weakref.ref(table)
        return table

    def __repr__(self):
        return "<IncidenceAlgebra %s dim=%d %s>" % (
            ",".join(self.poset.labels),
            self.dim,
            self.convention,
        )


class AlgebraElement:
    """Sparse rational combination of generators.  Treat as immutable."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    def support(self):
        return sorted(self.coeffs)

    def coefficient(self, key):
        return self.coeffs.get(self.algebra._gen_index(key), Fraction(0))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra.same_algebra(other.algebra)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        return self.algebra.add(self, other)

    def __sub__(self, other):
        return self.algebra.add(self, self.algebra.scale(-1, other))

    def __neg__(self):
        return self.algebra.scale(-1, self)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        return self.algebra.scale(other, self)

    def __rmul__(self, other):
        return self.algebra.scale(other, self)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        labs = self.algebra.poset.labels
        parts = []
        for i in sorted(self.coeffs):
            x, y = self.algebra.generators[i]
            c = self.coeffs[i]
            name = "[%s,%s]" % (labs[x], labs[y])
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%s%s" % (c, name))
        return " + ".join(parts).replace("+ -", "- ")


class MultiplicationTable:
    """Monomial structure constants: (i, j) -> (coeff, k) meaning
    b_i b_j = coeff * b_k; missing entries are zero products.  The index
    right[i][j] = left[j][i] = (coeff, k) holds the same present products,
    landing[k] lists the keys (i, j) of those on b_k in entry order, and
    square[q] = c for each quasi-idempotent b_q b_q = c b_q; each is keyed
    only by indices that occur, so its size never follows dim.  All four
    are built together on the first read of any of them, so a table that
    is only compared, hashed, scrambled or written builds none.  Callers
    must not mutate them.
    The constructor checks dim, then copies and checks the entries;
    from_json_text, multiplication_table and permuted_rescaled, valid as
    made, skip both.

    Associativity is settled once per table: first by certified(), which
    proves a rescaled incidence table associative in O(entries) with scales
    solved as lowest-terms integer pairs, and only when that fails by the
    triple scan, which finds the witness a refusal reports or finds none
    (the table is associative but is not a rescaled incidence table)."""

    __slots__ = ("dim", "entries", "right", "left", "landing", "square",
                 "_witness", "_placed", "__weakref__")

    def __init__(self, dim, entries):
        if type(dim) is not int or dim < 0:  # refuses bools, as from_json_text does
            raise ValueError("dim must be a nonnegative integer, got %r" % (dim,))
        entries = dict(entries)
        for (i, j), (c, k) in entries.items():
            # what from_json_text refuses, bools included, ahead of the range test
            ints = type(i) is int and type(j) is int and type(k) is int
            if not ints or type(c) not in (int, Fraction):
                why = "indices must be ints and the coefficient an int or Fraction"
                raise ValueError("table entry (%r,%r)->(%r,%r): %s" % (i, j, c, k, why))
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError("table entry (%d,%d)->%d out of range" % (i, j, k))
            if not c:
                raise ValueError("table entry (%d,%d) has zero coefficient" % (i, j))
        self._store(dim, entries)

    @classmethod
    def _checked(cls, dim, entries):
        table = cls.__new__(cls)  # of entries valid as made, not copied
        table._store(dim, entries)
        return table

    def _store(self, dim, entries):
        self.dim = dim
        self.entries = entries
        self._witness = _UNCHECKED
        self._placed = None

    def __getattr__(self, name):  # runs only while the index slots are unset
        if name not in ("right", "left", "landing", "square"):
            raise AttributeError("MultiplicationTable has no attribute %r" % name)
        self.right = right = {}
        self.left = left = {}
        self.landing = landing = {}
        for key, hit in self.entries.items():
            i, j = key
            right.setdefault(i, {})[j] = hit
            left.setdefault(j, {})[i] = hit
            landing.setdefault(hit[1], []).append(key)
        self.square = {
            q: hit[0] for q, row in right.items() if (hit := row.get(q)) and hit[1] == q
        }
        return getattr(self, name)

    def __eq__(self, other):
        return (
            isinstance(other, MultiplicationTable)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def associativity_witness(self):
        """A triple (i, j, l) where (b_i b_j) b_l != b_i (b_j b_l), or None.

        None at once when certified() passes.  Otherwise the triple scan
        decides: any violating triple either has (i, j) present in the
        table, or has (i, j) absent while b_j b_l and the outer product are
        both present; the two sweeps below try only the l, resp. i, with a
        product present, since every other one gives zero on both sides.
        Computed once; this verdict, not certified()'s, is what the table
        keeps.
        """
        if self._witness is _UNCHECKED:
            self._witness = None if self.certified() else self._first_witness()
        return self._witness

    def certified(self):
        """True when the table is shown to be a rescaled incidence table of
        a poset, and hence associative, in O(entries).  Computed on each
        call; only the placement it reads is kept.
        The table must be placed, and scales s must give b_i b_j =
        (s_i s_j / s_k) b_k on every entry, with k placed at (x_i, y_j); then
        k -> s_k E_xy maps the table onto a span of scaled matrix units closed
        under products.  False says only that no certificate was found."""
        try:
            starts, ends = self.placement()
        except NoPosetBehindTable:
            return False
        square = self.square
        # placement() checked the entries with a quasi-idempotent factor
        num, den = _solve_scales(self, starts, ends)
        for (i, j), (c, k) in self.entries.items():
            if i in square or j in square:
                continue
            if (
                ends[i] != starts[j]
                or starts[k] != starts[i]
                or ends[k] != ends[j]
                # c s_k == s_i s_j, cross-multiplied over the integers
                or c.numerator * num[k] * den[i] * den[j]
                != c.denominator * den[k] * num[i] * num[j]
            ):
                return False
        return True

    def placement(self):
        """(starts, ends), index k placed at (starts[k], ends[k]): the one
        quasi-idempotent acting on b_k from the left, and from the right, each
        by its square's coefficient.  Raises NoPosetBehindTable naming what fails
        unless the placement is injective, places no two indices at (x, y) and
        (y, x) with x != y, and its composable pairs number the entries.
        Computed once; callers must not mutate the lists."""
        if self._placed is None:
            try:
                self._placed = self._place()
            except NoPosetBehindTable as e:
                self._placed = str(e)
        if type(self._placed) is str:
            raise NoPosetBehindTable(self._placed)
        return self._placed

    def _place(self):
        dim, right, left = self.dim, self.right, self.left
        if len(left) < dim or len(right) < dim:  # named before any dim-sized list
            k = next(k for k in count() if k not in left or k not in right)
            raise NoPosetBehindTable("index %d not placed" % k)
        starts = [None] * dim
        ends = [None] * dim
        for q, c in self.square.items():
            for j, hit in right[q].items():
                if starts[j] is not None or hit != (c, j):
                    raise NoPosetBehindTable(_misplaced(j, starts[j], q))
                starts[j] = q
            for i, hit in left[q].items():
                if ends[i] is not None or hit != (c, i):
                    raise NoPosetBehindTable(_misplaced(i, ends[i], q))
                ends[i] = q
        at = {}
        for k, xy in enumerate(zip(starts, ends)):
            if None in xy:
                raise NoPosetBehindTable("index %d not placed" % k)
            if at.setdefault(xy, k) != k:
                why = "indices %d and %d both placed at %r" % (at[xy], k, xy)
                raise NoPosetBehindTable(why)
        for (x, y), k in at.items():
            if x != y and (y, x) in at:  # x and y equivalent: a preorder
                why = "indices %d and %d placed at %r and %r"
                raise NoPosetBehindTable(why % (k, at[y, x], (x, y), (y, x)))
        # right[q] holds the indices placed at (q, .), left[q] those at (., q)
        n = len(self.entries)
        pairs = sum(len(right[q]) * len(left[q]) for q in self.square)
        if pairs != n:
            why = "%d entries but %d composable placed pairs" % (n, pairs)
            raise NoPosetBehindTable(why)
        return starts, ends

    def _first_witness(self):
        right, left, none = self.right, self.left, {}
        for (i, j), (c, k) in sorted(self.entries.items()):
            after_i = right.get(i, none)
            after_j = right.get(j, none)
            after_k = right.get(k, none)
            for l in sorted(after_k.keys() | after_j.keys()):
                lhs = after_k.get(l)
                inner = after_j.get(l)
                rhs = after_i.get(inner[1]) if inner else None
                left_side = (c * lhs[0], lhs[1]) if lhs else None
                right_side = (inner[0] * rhs[0], rhs[1]) if rhs else None
                if left_side != right_side:
                    return (i, j, l)
        for (j, l), (c, k) in sorted(self.entries.items()):
            bad = left.get(k, none).keys() - left.get(j, none).keys()
            if bad:
                return (min(bad), j, l)
        return None

    def ensure_associative(self):
        witness = self.associativity_witness()
        if witness is not None:
            raise NotAssociative(
                "table is not associative, witness indices %r" % (witness,),
                witness=witness,
            )

    def permuted_rescaled(self, perm, scales):
        """Relabel basis element i as perm[i] and rescale it by scales[i].

        perm must hold ints, and each scale must be a nonzero int or
        Fraction (bools and floats are refused, as the constructor refuses
        them).  Entry b_i b_j = c b_k becomes c * s_i * s_j / s_k, taken as
        the unreduced integer pair (c.num n_i n_j d_k, c.den d_i d_j n_k) of
        the scales' numerators n and denominators d; one Fraction is built
        per distinct pair (oracles.brute_permuted_rescaled is the literal
        expression)."""
        for x, p in enumerate(perm):
            if type(p) is not int:  # bools and floats would sort as a permutation
                raise ValueError("perm[%d] is %r, not an int" % (x, p))
        if sorted(perm) != list(range(self.dim)):
            raise ValueError("perm is not a permutation of 0..dim-1")
        if len(scales) != self.dim or any(not s for s in scales):
            raise ValueError("need one nonzero scale per basis element")
        for x, s in enumerate(scales):
            if type(s) not in (int, Fraction):
                raise ValueError("scale %d is %r, not an int or Fraction" % (x, s))
        nums = [s.numerator for s in scales]
        dens = [s.denominator for s in scales]
        made = {}
        entries = {}
        for (i, j), (c, k) in self.entries.items():
            pair = (
                c.numerator * nums[i] * nums[j] * dens[k],
                c.denominator * dens[i] * dens[j] * nums[k],
            )
            value = made.get(pair)
            if value is None:
                value = made[pair] = Fraction(*pair)
            entries[(perm[i], perm[j])] = (value, perm[k])
        return MultiplicationTable._checked(self.dim, entries)

    def to_json_text(self):
        rows = [
            [i, j, str(c), k] for (i, j), (c, k) in sorted(self.entries.items())
        ]
        return json.dumps({"dim": self.dim, "entries": rows}) + "\n"

    @classmethod
    def from_json_text(cls, text):
        """Parse the JSON that to_json_text writes.

        Raises ParseError for text that is not JSON, a document without an
        integer 'dim' >= 0 and an 'entries' list, a row that is not
        [i, j, coeff, k] with integer indices below dim, a coefficient that
        Fraction cannot read, whose exponent is past 4300 or whose digits
        cannot be written back, and a zero coefficient, and NotMonomial for
        a second row with the same (i, j).
        Each distinct coefficient text is read once."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise ParseError("not valid JSON: %s" % e) from None
        if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
            raise ParseError("table JSON needs 'dim' and 'entries'")
        dim = data["dim"]
        if type(dim) is not int or dim < 0:  # JSON true/false are bools
            raise ParseError("'dim' must be a nonnegative integer")
        if not isinstance(data["entries"], list):
            raise ParseError("'entries' must be a list")
        entries = {}
        # keyed by text, not by the JSON value: 1, 1.0 and true hash alike
        coefficients = {}
        for row in data["entries"]:
            if type(row) is not list or len(row) != 4:
                raise ParseError("each entry must be [i, j, coeff, k], got %r" % (row,))
            i, j, coeff, k = row
            if type(i) is not int or type(j) is not int or type(k) is not int:
                raise ParseError("entry indices must be integers in %r" % (row,))
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ParseError("entry indices out of range in %r" % (row,))
            text = str(coeff)
            c = coefficients.get(text)
            if c is None:
                c = coefficients[text] = _coefficient(text, coeff, row)
            if (i, j) in entries:
                raise NotMonomial("duplicate entry for product (%d, %d)" % (i, j))
            entries[(i, j)] = (c, k)
        return cls._checked(dim, entries)


def _misplaced(k, other, q):  # q acts on b_k wrongly, or other placed k first
    if other is None:
        return "index %d not placed: quasi-idempotent %d does not fix it" % (k, q)
    return "index %d claimed by quasi-idempotents %d and %d" % (k, other, q)


def _coefficient(text, coeff, row):
    """The nonzero Fraction that text = str(coeff) spells in a table row."""
    # Fraction would expand an exponent past Python's default int digit
    # limit (4300) into an integer that large before any check
    exponent = _EXPONENT.search(text)
    try:
        if exponent and abs(int(exponent.group(1))) > 4300:
            raise ParseError("coefficient exponent past 4300 in %r" % (row,))
        c = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad coefficient %r" % (coeff,)) from None
    if not c:
        raise ParseError("zero coefficient in %r (omit zero products)" % (row,))
    try:
        str(c)  # what to_json_text writes; past the int digit limit it raises
    except ValueError:
        raise ParseError("coefficient too long to write back in %r" % (row,)) from None
    return c


def _solve_scales(table, starts, ends):
    """Scales s with s_i s_j = c s_k on the entries free of quasi-idempotent
    factors, in a table whose index k is placed at (starts[k], ends[k]);
    s_q is the square coefficient of each quasi-idempotent q, and s_u is
    num[u] / den[u] in lowest terms with den[u] > 0.  The caller checks
    every entry against the result.

    An index that no such entry reaches is a cover.  The covers of a
    spanning forest of the undirected cover graph are set to 1, which a
    rescaling of the basis can always arrange, and every equation with two
    known scales then gives the third (a cross-multiplication and a gcd).
    When that stalls, the first unknown scale s_u becomes a parameter t_u,
    named by the index u, and carried as exponents beside the rational
    part.  An equation that closes with some parameter to the power 1 or -1
    solves for the lowest such in terms of the others, and a parameter
    never solved for is left at 1.  Propagation stops once every scale is
    known and no parameter is open."""
    right, left, landing, square = table.right, table.left, table.landing, table.square
    dim = len(starts)
    num = [None] * dim
    den = [1] * dim
    for q, c in square.items():
        num[q], den[q] = c.numerator, c.denominator
    root = {q: q for q in square}

    def find(q):
        while root[q] != q:
            root[q] = q = root[root[q]]
        return q

    todo = []
    for k in range(dim):
        # placing k checked that e_x b_k and b_k e_y are the only products
        # with a quasi-idempotent factor that land on it
        if num[k] is None and len(landing[k]) == 2:
            a, b = find(starts[k]), find(ends[k])
            if a != b:
                root[a] = b
                num[k] = 1
                todo.append(k)
    missing = num.count(None)
    exponents = {}  # index -> {parameter: power} while its scale has one
    none = {}

    def power_sum(*signed):
        out = {}
        for a, sign in signed:
            for p, power in exponents.get(a, none).items():
                out[p] = out.get(p, 0) + sign * power
        return {p: power for p, power in out.items() if power}

    def store(u, n, d):  # s_u = n / d in lowest terms with den[u] > 0
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        num[u], den[u] = n // g, d // g

    def learn(u, n, d, a, b, sign):
        nonlocal missing
        store(u, n, d)
        missing -= 1
        todo.append(u)
        e = power_sum((a, 1), (b, sign)) if exponents else none
        if e:
            exponents[u] = e

    def pin(i, j, c, k):
        e = power_sum((i, 1), (j, 1), (k, -1))
        p = next((p for p in sorted(e) if e[p] in (1, -1)), None)
        if p is None:
            return  # nothing to pin here; the caller's sweep judges
        sign = e.pop(p)
        # t_p = t * (the product of t_q ** (-sign * e[q]) over the others),
        # t = (c s_k / (s_i s_j)) ** sign = (tn / td) ** sign
        tn = c.numerator * num[k] * den[i] * den[j]
        td = c.denominator * den[k] * num[i] * num[j]
        for m in [m for m, rest in exponents.items() if p in rest]:
            rest = exponents[m]
            power = rest.pop(p)
            n, d = (tn, td) if sign * power > 0 else (td, tn)
            store(m, num[m] * n ** abs(power), den[m] * d ** abs(power))
            for q, f in e.items():
                rest[q] = rest.get(q, 0) - sign * f * power
            exponents[m] = {q: f for q, f in rest.items() if f}
            if not exponents[m]:
                del exponents[m]

    def settle(i, j, c, k):
        ni, nj, nk = num[i], num[j], num[k]
        if nk is None:
            if ni is not None and nj is not None:  # s_k = s_i s_j / c
                learn(k, ni * nj * c.denominator, den[i] * den[j] * c.numerator, i, j, 1)
        elif ni is None:
            if nj is not None:  # s_i = c s_k / s_j
                learn(i, c.numerator * nk * den[j], c.denominator * den[k] * nj, k, j, -1)
        elif nj is None:
            learn(j, c.numerator * nk * den[i], c.denominator * den[k] * ni, k, i, -1)
        elif exponents:
            pin(i, j, c, k)

    unknown = iter(range(dim))
    while True:
        while todo and (missing or exponents):
            a = todo.pop()
            for j, (c, k) in right[a].items():
                if j not in square:
                    settle(a, j, c, k)
            for i, (c, k) in left[a].items():
                if i not in square:
                    settle(i, a, c, k)
            for i, j in landing.get(a, ()):
                if i not in square and j not in square:
                    settle(i, j, right[i][j][0], a)
        if not missing:
            return num, den
        u = next(u for u in unknown if num[u] is None)
        num[u] = 1
        missing -= 1
        exponents[u] = {u: 1}
        todo.append(u)


def scramble_draws(dim, seed):
    """The seeded basis permutation and scales that scramble applies."""
    rng = LCG(seed)
    perm = list(range(dim))
    rng.shuffle(perm)
    scales = [rng.choice(RESCALE_FACTORS) for _ in range(dim)]
    return perm, scales


def scramble(table, seed):
    """Seeded basis permutation, then each basis vector rescaled by a factor
    from RESCALE_FACTORS.  Same seed, same puzzle."""
    return table.permuted_rescaled(*scramble_draws(table.dim, seed))
