"""Instance families: the paper's patterns as bounded families of
instances, each in one enumeration order, and the registry that reads them
from spec text and certificate descriptors. Nothing here searches:
``search`` scans these families and writes their certificates.

Instances are finite sets of values with role labels. Enumeration is
deterministic for a fixed bound: instances are ordered by their element
tuple sorted descending, ties broken by the generator tuple, except for the
symbolic families (expquad, shape, fep) whose elements can be astronomically
large; those order by generator tuples instead, which is still a sorted
order on the bounded part of the instance: expquad by (b, a), shape and fep
by (max generator, generator tuple), whose index is found in closed form.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import partial
from importlib import import_module
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ._arith import _exp_pairs, iroot
from ._intlog import tower_upto
from ._spec import BOOL, INT, STR, Param, ParamType, _Struct, read_spec, write_spec
from .colourings import parse_seq
from .errors import BudgetExceeded, ParseError
from .tower import ExpTerm, power, to_text

Value = Union[int, ExpTerm]


def _materialize(base: int, exp: int) -> Value:
    """a^b as a plain int when within the exactness cutoff, else a term."""
    t = power(base, exp)
    return t if t.exact is None else t.exact


class Instance(_Struct):
    __slots__ = _fields = ("roles", "values", "generators")

    def witness_json(self, colour: int) -> dict:
        return {
            "generators": list(self.generators),
            "elements": [
                {"role": r, "value": str(v) if isinstance(v, int) else to_text(v)}
                for r, v in zip(self.roles, self.values)
            ],
            "colour": colour,
        }


Row = Tuple[Tuple[Value, ...], Tuple[int, ...]]
# An offset pattern of the shift-and kernel: (least largest element m, the
# offsets o > 0 such that m - o are the other free elements, a value whose
# colour class is pinned or None). The row at m holds m, each m - o and the
# pinned value. A family's ``_shifts(hi)`` lists its patterns by
# non-increasing least largest element, so the rows of largest element m are
# the translates to m of the patterns whose least largest element is <= m,
# in list order; ``_translate_index`` reads a row's index off that.
Shift = Tuple[int, Tuple[int, ...], Optional[int]]


def _weight_from_text(text: str) -> dict:
    if text == "table":
        raise ParseError("inline weight tables are not supported here")
    return {"const": int(text)}


# shape edges [[i, j], ...], ';'-joined in spec text since ',' separates keys
EDGES = ParamType(
    "edge list",
    lambda v: type(v) is list and all(
        type(e) is list and list(map(type, e)) == [int, int] for e in v),
    lambda t: [list(e) for e in
               import_module(".patterns", __package__).parse_edges(t, ";")],
    lambda v: ";".join(f"{i}-{j}" for i, j in v),
)
# spec text names a constant weight; a table comes only from a descriptor
WEIGHT = ParamType("weight object", lambda v: type(v) is dict, _weight_from_text,
                   lambda v: str(v["const"]) if "const" in v else "table")


class InstanceFamily:
    """A bounded family of instances in a fixed enumeration order.

    A row is the (values, generators) pair of one instance. Each family
    gives ``_row(i)``, the row at index i, in closed form or by bisecting a
    cumulative count; that is the one definition of its order. ``nth``
    gives the instance at an index with role labels; the row walk reads
    ``_scan_row(i, check)``, whose values may be a lazy iterable over the
    instance's (a long build calls the budget's ``check``), and an Instance
    is built only for a witness; ``_upto(m)`` counts the rows up to m of
    its order. ``search._search`` picks the search of a family.

    ``params`` declares the parameters besides the bound, in constructor
    order; each is kept as the attribute of its descriptor key, from which
    ``descriptor()`` and ``spec`` are written. ``capped`` families take the
    element cap as the keyword ``cap``.
    """

    kind: str
    bound: int
    roles: Tuple[str, ...]
    params: Tuple[Param, ...] = ()
    capped = False

    def count(self) -> int:
        return self._upto(self.bound)

    def _row(self, i: int) -> Row:
        raise NotImplementedError

    def _scan_row(self, i: int, check=None) -> Row:
        return self._row(i)

    def _instance(self, values: Tuple[Value, ...],
                  generators: Tuple[int, ...]) -> Instance:
        return Instance(self.roles, values, generators)

    def instances(self) -> Iterator[Instance]:
        return map(self.nth, range(self.count()))

    def nth(self, i: int) -> Instance:
        """The instance at index i of the enumeration order, built from
        ``_row(i)``; IndexError outside [0, count())."""
        if not 0 <= i < self.count():
            raise IndexError(i)
        return self._instance(*self._row(i))

    def descriptor(self) -> dict:
        desc = {"kind": self.kind, "bound": self.bound}
        for p in self.params:
            desc[p.key] = getattr(self, p.key)
        return desc

    @property
    def spec(self) -> str:
        """Spec text that ``parse_family`` reads back to this descriptor
        (at the same bound)."""
        return write_spec(self)


class _BuiltFamily(InstanceFamily):
    """Rows built from generator tuples g in order of the largest generator
    M, those of M being ``_with_max(range(2, M + 1))``; ``_tuple(i)`` and
    ``_rank(g)`` map an index to its tuple and back. Scans read
    ``_lazy(g)``, generators first, so nothing past a row's first colour
    mismatch is built; instances read ``_elements(g)``, by default the same
    values as a tuple. The class search lists only the tuples of M inside
    M's colour class, ``_with_max`` over the class's members up to M."""

    def _elements(self, g: Tuple[int, ...]) -> Tuple[Value, ...]:
        return tuple(self._lazy(g))

    def _row(self, i: int) -> Row:
        return self._elements(g := self._tuple(i)), g

    def _scan_row(self, i: int, check=None) -> Row:
        return self._lazy(g := self._tuple(i)), g


class _TranslateFamily(InstanceFamily):
    """Rows in order of their largest element m, those of m being the
    translates to m of the ``_shifts`` patterns, in the patterns' order."""


class ExpTripleFamily(InstanceFamily):
    """Instances {a, b, a^b} for a, b >= 2 with a^b <= bound."""

    kind = "exptriple"
    roles = ("a", "b", "a^b")
    params = (Param("strict", BOOL, False),)
    capped = True

    def __init__(self, bound: int, strict: bool, *, cap: int = 10**6):
        self.bound = bound
        self.strict = strict
        self._pairs = [
            t for t in _exp_pairs(bound, cap=cap)
            if not (strict and t[1] == t[2])
        ]

    def count(self) -> int:
        return len(self._pairs)

    def _row(self, i: int) -> Row:
        p, a, b = self._pairs[i]
        return (a, b, p), (a, b)


class ExpTripleLogCondFamily(InstanceFamily):
    """Pairs {b, a^b} over triples satisfying the iterated-log condition
    log_(r) a <= b; a is carried as metadata in the generators."""

    kind = "exptriple-logcond"
    roles = ("b", "a^b")
    params = (Param("r", INT, 1),)
    capped = True

    def __init__(self, bound: int, r: int, *, cap: int = 10**6):
        if r < 0:
            raise ValueError("r must be non-negative")
        self.bound = bound
        self.r = r
        self._pairs = _exp_pairs(bound, cap=cap, last_a=self._last_a)

    def _last_a(self, b: int, top: int) -> int:
        """Largest a in [1, top] with log_(r) a <= b: a <= 2^2^...^b."""
        return tower_upto(b, self.r, top)

    def count(self) -> int:
        return len(self._pairs)

    def _row(self, i: int) -> Row:
        p, a, b = self._pairs[i]
        return (b, p), (a, b)


class ExpQuadrupleFamily(_BuiltFamily):
    """Instances {a, b, a^b, b^a} for 2 <= a <= b <= bound.

    The bound caps the generators; the power elements stay symbolic when
    huge. Enumeration order is (b, a) ascending.
    """

    kind = "expquad"
    roles = ("a", "b", "a^b", "b^a")

    def __init__(self, bound: int):
        self.bound = bound

    def _upto(self, m: int) -> int:
        """Number of pairs with b <= m."""
        n = max(0, m - 1)
        return n * (n + 1) // 2

    @staticmethod
    def _lazy(g: Tuple[int, int]) -> Iterator[Value]:
        # a, b, then a^b and b^a, each power built when it is reached
        return itertools.chain(g, map(_materialize, g, g[::-1]))

    def _with_max(self, digits: Sequence[int]) -> Iterator[Tuple[int, int]]:
        return ((a, digits[-1]) for a in digits)

    def _rank(self, g: Tuple[int, int]) -> int:
        return self._upto(g[1] - 1) + g[0] - 2

    def _tuple(self, i: int) -> Tuple[int, int]:
        # b(b-1)/2 pairs have second coordinate <= b; take the least b
        # with more than i of them
        b = (1 + math.isqrt(8 * i + 1)) // 2 + 1
        return 2 + i - (b - 1) * (b - 2) // 2, b


def _schur_upto(s: int) -> int:
    """Number of Schur triples with sum <= s."""
    return max(0, s) ** 2 // 4


class SchurFamily(_TranslateFamily):
    """Instances {x, y, x+y} with x <= y and x + y <= bound."""

    kind = "schur"
    roles = ("x", "y", "x+y")

    def __init__(self, bound: int):
        self.bound = bound

    _upto = staticmethod(_schur_upto)

    def _shifts(self, hi: int) -> List[Shift]:
        # {x, s - x, s} for fixed x is a translate of (x, 0) with x's class
        # pinned; y >= x needs s >= 2x, and y ascends as x descends
        return [(2 * x, (x,), x) for x in range(hi // 2, 0, -1)]

    def _row(self, i: int) -> Row:
        # the least s with more than i triples of sum <= s
        s = math.isqrt(4 * i + 3) + 1
        y = (s + 1) // 2 + i - _schur_upto(s - 1)
        return (s - y, y, s), (s - y, y)


class SchurPlusExpFamily(InstanceFamily):
    """Joint instances {x, y, x+y} u {a, b, a^b}, all six elements coloured.

    Ordered by the overall max element m. Within m, the sum triples with
    sum below m (in their order), each with every power triple of power m,
    come first; then the sum triples with sum m, each with every power
    triple of power <= m. The instance count is the product of the two
    family counts. ``_row(i)`` bisects ``_upto`` for m and decodes i by
    the split ``index`` encodes.
    """

    kind = "schurplusexp"
    capped = True

    def __init__(self, bound: int, *, cap: int = 10**6):
        self.bound = bound
        self.schur = SchurFamily(bound)
        self.exp = ExpTripleFamily(bound, False, cap=cap)
        self.roles = self.schur.roles + self.exp.roles
        self._powers = [p for p, _, _ in self.exp._pairs]

    def _exp_upto(self, m: int) -> int:
        return bisect.bisect_right(self._powers, m)

    def _upto(self, m: int) -> int:
        """Number of joint instances with max element <= m."""
        return _schur_upto(m) * self._exp_upto(m)

    def _row(self, i: int) -> Row:
        # the max element m is the least with more than i instances of max
        # element <= m; then i is decoded by the two cases of ``index``
        m = bisect.bisect_right(range(self.bound + 1), i, key=self._upto)
        s_lt, e_lt = _schur_upto(m - 1), self._exp_upto(m - 1)
        e_eq = self._exp_upto(m) - e_lt
        j = i - s_lt * e_lt
        if j < s_lt * e_eq:
            si, k = divmod(j, e_eq)
            ei = e_lt + k
        else:
            si, ei = divmod(i, e_lt + e_eq)
        sv, sg = self.schur._row(si)
        ev, eg = self.exp._row(ei)
        return sv + ev, sg + eg

    def index(self, si: int, ei: int) -> int:
        """Enumeration index of the joint instance of sum triple ``si`` and
        power triple ``ei`` (indices in their own families)."""
        s, p = self.schur._row(si)[0][2], self._powers[ei]
        m = max(s, p)
        # the s_lt * e_lt instances of max element below m come first
        s_lt, e_lt, e_le = _schur_upto(m - 1), self._exp_upto(m - 1), self._exp_upto(m)
        if s < m:
            return s_lt * e_lt + si * (e_le - e_lt) + ei - e_lt
        return si * e_le + ei


def _nth_tuple(i: int, m: int) -> Tuple[int, ...]:
    """The generator tuple at index i of the (max, tuple) order on
    [2, oo)^m. The (M - 2)^m tuples of max below M come first, so M is
    iroot(i, m) + 2; the block of max M is then decoded lexicographically."""
    M = iroot(i, m) + 2
    j = i - (M - 2) ** m
    out, seen = [], False
    for r in range(m - 1, -1, -1):
        if seen:  # M has appeared: the rest counts in base M - 1
            d, j = divmod(j, (M - 1) ** r)
            out.append(d + 2)
            continue
        # each digit below M leaves the completions that still contain M
        per = (M - 1) ** r - (M - 2) ** r
        if j < (M - 2) * per:
            d, j = divmod(j, per)
            out.append(d + 2)
        else:
            j -= (M - 2) * per
            out.append(M)
            seen = True
    return tuple(out)


def _tuple_rank(g: Tuple[int, ...]) -> int:
    """The index of g in the (max, tuple) order on [2, oo)^m, the inverse of
    ``_nth_tuple``: the (M - 2)^m tuples of max below M, then per digit d
    the completions with a smaller digit there that contain M."""
    M, m = max(g), len(g)
    i, seen = (M - 2) ** m, False
    for r, d in zip(range(m - 1, -1, -1), g):
        i += (d - 2) * ((M - 1) ** r - (0 if seen else (M - 2) ** r))
        seen = seen or d == M
    return i


def _tuples_with_max(digits: Sequence[int], m: int) -> Iterator[Tuple[int, ...]]:
    """The tuples in digits^m that contain M = digits[-1], for ascending
    ``digits``, lexicographically: each prefix in digits^(m-1) takes every
    last digit once it holds M, else only M."""
    M = digits[-1]
    lasts = [(d,) for d in digits]
    for prefix in itertools.product(digits, repeat=m - 1):
        if M in prefix:
            yield from map(prefix.__add__, lasts)
        else:
            yield prefix + (M,)


class _TupleFamily(_BuiltFamily):
    """Pattern instances over every generator tuple in [2, bound]^m, ordered
    by (max generator, generator tuple); ``_elements`` and ``_lazy`` give
    the pattern's elements on one tuple."""

    capped = True

    def __init__(self, bound: int, m: int, cap: int):
        self.bound = bound
        self.m = m
        if self.count() > cap:
            raise BudgetExceeded(f"{max(0, bound - 1)}^{m} generator tuples "
                                 f"exceed the element cap {cap}")

    def _upto(self, M: int) -> int:
        return max(0, M - 1) ** self.m

    def _with_max(self, digits: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        return _tuples_with_max(digits, self.m)

    def _tuple(self, i: int) -> Tuple[int, ...]:
        return _nth_tuple(i, self.m)

    _rank = staticmethod(_tuple_rank)


class ShapeFamily(_TupleFamily):
    """Shape-pattern instances over all generator tuples in [2, bound]^m.

    The role labels follow the pattern's deduplicated elements, so they are
    derived per instance from its generators.
    """

    kind = "shape"
    params = (Param("m", INT), Param("edges", EDGES, []))

    def __init__(self, bound: int, m: int, edges: List[List[int]], *,
                 cap: int = 10**6):
        from .patterns import ShapeRelation, shape_row, shape_values
        self.relation = ShapeRelation(m, tuple(map(tuple, edges)))
        super().__init__(bound, m, cap)
        # the descriptor lists the edges in the relation's order
        self.edges = [list(e) for e in self.relation.edges]
        edges = sorted(self.relation.edges)
        self._shape_row = partial(shape_row, edges)
        self._values = partial(shape_values, edges)

    def _elements(self, xs: Tuple[int, ...]) -> Tuple[Value, ...]:
        return self._shape_row(xs)[0]

    def _lazy(self, xs: Tuple[int, ...]) -> Iterator[Value]:
        return self._values(xs)

    def _instance(self, values: Tuple[Value, ...],
                  xs: Tuple[int, ...]) -> Instance:
        roles = tuple(f"x{s}" if isinstance(s, int) else "x{}^x{}".format(*s)
                      for s in self._shape_row(xs)[1])
        return Instance(roles, values, xs)


class FepFamily(_TupleFamily):
    """Weighted exponential-product pattern instances; every pattern element
    must take the same colour for the instance to count as monochromatic.
    Each element is labelled with its own tower text."""

    kind = "fep"
    params = (Param("m", INT), Param("weight", WEIGHT, spec_key="w"))

    def __init__(self, bound: int, m: int, weight: dict, *, cap: int = 10**6):
        from .patterns import WeightFn, fep_caps, fep_row, fep_values
        self._caps, self._fep_row, self._fep_values = fep_caps, fep_row, fep_values
        try:
            self._weight = WeightFn.from_json(weight)
        except (AttributeError, KeyError, TypeError):
            raise ParseError(f"bad fep weight {weight!r}") from None
        if m < 1:
            raise ValueError(f"fep needs m >= 1, got m={m}")
        super().__init__(bound, m, cap)
        self.weight = self._weight.to_json()
        self.cap = cap

    def _elements(self, xs: Tuple[int, ...]) -> Tuple[Value, ...]:
        return self._fep_row(self._caps(self._weight, xs), xs, self.cap)[0]

    def _lazy(self, xs: Tuple[int, ...], check=None) -> Iterable[Value]:
        return self._fep_values(self._caps(self._weight, xs), xs, self.cap, check)

    def _scan_row(self, i: int, check=None) -> Row:
        # a row over the cap is built whole, calling the scan's budget check
        return self._lazy(g := self._tuple(i), check), g

    def _walk_only(self) -> bool:
        # the walk looks up a table weight and builds a row over the cap on
        # every row it reaches, one-class or not
        from .patterns import fep_candidate_count
        k = self._weight.const
        return k is None or fep_candidate_count((k,) * self.m) > self.cap

    def _instance(self, values: Tuple[Value, ...],
                  xs: Tuple[int, ...]) -> Instance:
        return Instance(tuple(to_text(e) for e in values), values, xs)


class DifferencePairFamily(_TranslateFamily):
    """Pairs {x, x + b_n} with both elements <= bound, over the sequence
    indices [start, n_max]. Ordered by the larger element, then x."""

    kind = "diffpair"
    roles = ("x", "x+b_n")
    params = (Param("seq", STR), Param("nmax", INT, 12))

    def __init__(self, bound: int, seq: str, nmax: int):
        self.bound = bound
        self.nmax = nmax
        parsed = parse_seq(seq)
        self.seq = parsed.name
        fraction = parsed.first_non_integer
        if fraction is not None and fraction <= nmax:
            raise ParseError(
                f"difference-pair family needs an integer sequence, "
                f"not {parsed.name}"
            )
        diffs = []
        # the sequence increases: the first b_n >= bound ends the differences
        for n in range(parsed.start, nmax + 1):
            v = parsed.exact(n)
            if v >= bound:
                break
            diffs.append((n, v))
        # descending difference = ascending x for a fixed larger element
        self._diffs = sorted(diffs, key=lambda t: -t[1])
        # With j differences below m, the pairs with larger element <= m
        # number j*m - sums[j], sums[j] adding the j smallest: linear in m
        # between differences. breaks[k] is that count at m equal to the
        # (k+1)-th smallest difference, with k differences below it.
        self._ascending = [v for _, v in reversed(self._diffs)]
        self._sums = [0, *itertools.accumulate(self._ascending)]
        self._breaks = [j * v - self._sums[j] for j, v in enumerate(self._ascending)]

    def _upto(self, m: int) -> int:
        """Number of pairs with larger element <= m."""
        j = bisect.bisect_left(self._ascending, m)
        return j * m - self._sums[j]

    def _row(self, i: int) -> Row:
        # i from breaks[j - 1] to below breaks[j] (or the count) puts j
        # differences below the least m with j*m - sums[j] > i; the pairs
        # past m - 1 index those j, the last j of the descending list
        j = bisect.bisect_right(self._breaks, i)
        m = (i + self._sums[j]) // j + 1
        r = i - (j * (m - 1) - self._sums[j])
        n, v = self._diffs[len(self._diffs) - j + r]
        return (m - v, m), (n, m - v)

    def _shifts(self, hi: int) -> List[Shift]:
        return [(v + 1, (v,), None) for _, v in self._diffs]


class GridFamily(_TranslateFamily):
    """One-dimensional grids: progressions {s, s+d, ..., s+L*d} in [bound].
    Ordered by the largest element s+L*d, then by descending d."""

    kind = "grid"
    params = (Param("len", INT),)

    def __init__(self, bound: int, length: int):
        if length < 1:
            raise ValueError("grid length must be >= 1")
        self.len = length
        self.bound = bound

    # built per instance, so an empty family of long grids costs nothing
    roles = property(lambda self: tuple(f"s+{i}d" for i in range(self.len + 1)))

    def _upto(self, m: int) -> int:
        """Number of progressions with largest element <= m: the largest
        element t + 1 contributes t // L of them, summed over t < m."""
        L = self.len
        q, r = divmod(max(0, m), L)
        return L * q * (q - 1) // 2 + r * q

    def _progression(self, m: int, d: int) -> Row:
        s = m - self.len * d
        return tuple(s + i * d for i in range(self.len + 1)), (s, d)

    def _row(self, i: int) -> Row:
        # the L*q progressions of largest element in [qL + 1, qL + L], q of
        # each, follow the L*q*(q-1)/2 of largest element <= qL; q is the
        # largest with L*q*(q-1)/2 <= i
        L = self.len
        q = (1 + math.isqrt(4 * (2 * i // L) + 1)) // 2
        j = i - L * q * (q - 1) // 2
        return self._progression(q * L + 1 + j // q, q - j % q)

    def _shifts(self, hi: int) -> List[Shift]:
        L = self.len
        return [(L * d + 1, tuple(i * d for i in range(L, 0, -1)), None)
                for d in range((hi - 1) // L, 0, -1)]


FAMILIES: Dict[str, type] = {cls.kind: cls for cls in (
    ExpTripleFamily, ExpTripleLogCondFamily, ExpQuadrupleFamily, SchurFamily,
    SchurPlusExpFamily, ShapeFamily, FepFamily, DifferencePairFamily, GridFamily,
)}


def parse_family(spec: str, bound: int, *, cap: int = 10**6,
                 default_r: Optional[int] = None) -> InstanceFamily:
    """The family of spec text at ``bound``, read by ``read_spec`` with
    the kinds and keys ``FAMILIES`` declares: exptriple[:strict=1],
    exptriple-logcond[:r=N], expquad, schur, schurplusexp,
    shape:m=M[,edges=1-2;2-3], fep:m=M,w=K, diffpair:seq=S[,nmax=N] and
    grid:len=L; ``default_r``, when given, is the default of r. The
    descriptor goes to ``family_from_descriptor``; ``cap`` bounds the lists
    a family builds (power pairs, generator tuples, pattern elements)."""
    defaults = {} if default_r is None else {"r": default_r}
    cls, values = read_spec(spec, FAMILIES, "family", defaults)
    return family_from_descriptor({"kind": cls.kind, "bound": bound, **values}, cap=cap)


def family_from_descriptor(desc: dict, *, cap: int = 10**6) -> InstanceFamily:
    """The family a certificate's descriptor names. The descriptor carries
    the kind, the bound and every parameter its kind declares; a missing
    key, a value of the wrong type or one the family refuses raises
    ParseError. Lists over ``cap`` raise BudgetExceeded."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    cls = FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown family descriptor {desc!r}")
    args = []
    for key, typ in [("bound", INT)] + [(p.key, p.type) for p in cls.params]:
        if not typ.check(desc.get(key)):
            raise ParseError(f"family descriptor {desc!r} needs {typ.name} {key}")
        args.append(desc[key])
    try:
        return cls(*args, **({"cap": cap} if cls.capped else {}))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
