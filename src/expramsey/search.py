"""Instance enumeration and certificate-producing monochromatic search.

Instances are finite sets of values with role labels. Enumeration is
deterministic for a fixed bound: instances are ordered by their element
tuple sorted descending, ties broken by the generator tuple, except for the
symbolic families (expquad, shape, fep) whose elements can be astronomically
large; those order by generator tuples instead, which is still a sorted
order on the bounded part of the instance: expquad by (b, a), shape and fep
by (max generator, generator tuple), whose index is found in closed form.

Certificates serialize to canonical JSON (sorted keys, no whitespace); the
wall-time measurement lives on the object but stays out of the bytes so
replays are byte-identical. Ramsey-number computation is in ``ramsey``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from functools import partial
from importlib import import_module
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from . import _lazy_attributes
from ._arith import _exp_pairs, iroot
from ._spec import (
    BOOL, INT, STR, Param, ParamType, _Record, _Struct, read_spec, write_spec,
)
from .colourings import Colouring, LogStarColouring, parse_colouring, parse_seq
from .errors import BudgetExceeded, ParseError
# not called here: bench/spans.py traces compare_iter_log and eval_exact
# through these bindings (_last_a solves compare_iter_log's condition, and
# terms carry their exact value)
from .tower import compare_iter_log, eval_exact  # noqa: F401
from .tower import ExpTerm, power, to_text

Value = Union[int, ExpTerm]

# nor these, which load their module when first read, so a scan that builds
# no shape or fep family compiles neither patterns nor ramsey: bench/spans.py
# traces fep and shape_pattern (the families build their rows from the same
# pieces) and patches the two Ramsey constraint builders, though the Ramsey
# drivers call ramsey's own bindings
__getattr__ = _lazy_attributes(globals(), {
    "fep": "patterns", "shape_pattern": "patterns",
    "_ap_constraints": "ramsey", "_exp_triples_upto": "ramsey"})


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
    cumulative count, and may override ``rows()`` with a cheaper walk in
    the same order. ``instances()`` and ``nth`` give value tuples with role
    labels; scans read ``scan_rows()`` and ``_scan_row(i)``, whose values
    may be a lazy iterable over the instance's, and an Instance is built
    only for a witness. ``_search`` gives ``_window_scan``'s search, or None
    for the row walk; ``_upto(m)`` counts the rows up to m of its order.

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

    def rows(self) -> Iterator[Row]:
        """Every row in enumeration order; families with a cheaper
        sequential walk than ``_row`` at each index override this."""
        for i in range(self.count()):
            yield self._row(i)

    def _row(self, i: int) -> Row:
        raise NotImplementedError

    def scan_rows(self) -> Iterator[Row]:
        return self.rows()

    def _scan_row(self, i: int) -> Row:
        return self._row(i)

    def _instance(self, values: Tuple[Value, ...],
                  generators: Tuple[int, ...]) -> Instance:
        return Instance(self.roles, values, generators)

    def instances(self) -> Iterator[Instance]:
        for values, generators in self.rows():
            yield self._instance(values, generators)

    def nth(self, i: int) -> Instance:
        """The instance at index i of the enumeration order, the same as
        the i-th of ``instances()``, found through ``_row`` without walking
        the enumeration."""
        if not 0 <= i < self.count():
            raise IndexError(i)
        return self._instance(*self._row(i))

    def _search(self, colouring: Colouring) -> Optional[WindowSearch]:
        return None

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

    def _tuples(self) -> Iterator[Tuple[int, ...]]:
        return (g for M in range(2, self.bound + 1)
                for g in self._with_max(range(2, M + 1)))

    def _search(self, colouring: Colouring) -> Optional[WindowSearch]:
        return _class_search(colouring, self)

    def _elements(self, g: Tuple[int, ...]) -> Tuple[Value, ...]:
        return tuple(self._lazy(g))

    def _row(self, i: int) -> Row:
        return self._elements(g := self._tuple(i)), g

    def scan_rows(self) -> Iterator[Row]:
        return ((self._lazy(g), g) for g in self._tuples())

    def _scan_row(self, i: int) -> Row:
        return self._lazy(g := self._tuple(i)), g


class _TranslateFamily(InstanceFamily):
    """Rows in order of their largest element m, those of m being the
    translates to m of the ``_shifts`` patterns, in the patterns' order."""

    def _search(self, colouring: Colouring) -> Optional[WindowSearch]:
        return _translate_search(self)


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
        """Largest a in [1, top] with log_(r) a <= b. log2 increases, so
        that is a <= 2^2^...^b with r twos, built only while below top."""
        t = b
        for _ in range(self.r):
            if t >= top.bit_length():
                return top
            t = 1 << t
        return min(t, top)

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

    def _search(self, colouring: Colouring) -> Optional[WindowSearch]:
        if isinstance(colouring, LogStarColouring):
            return _level_box_search(colouring, self)
        return super()._search(colouring)

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

    def rows(self) -> Iterator[Row]:
        for s in range(2, self.bound + 1):
            for y in range((s + 1) // 2, s):
                yield (s - y, y, s), (s - y, y)

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
    family counts.
    """

    kind = "schurplusexp"
    capped = True

    def __init__(self, bound: int, *, cap: int = 10**6):
        self.bound = bound
        self.schur = SchurFamily(bound)
        self.exp = ExpTripleFamily(bound, False, cap=cap)
        self.roles = self.schur.roles + self.exp.roles
        self._powers = [p for p, _, _ in self.exp._pairs]
        # The number of power triples of power <= m is constant from one
        # distinct power q up to the next. Per such segment: q, the power
        # triples of power below q and up to q (_counts[g], _counts[g + 1]),
        # and the joint instances with max element at most the segment's end.
        self._starts = sorted(set(self._powers))
        self._counts = [0] + [self._exp_upto(q) for q in self._starts]
        ends = [q - 1 for q in self._starts[1:]] + [bound]
        self._ends = [_schur_upto(m) * e for m, e in zip(ends, self._counts[1:])]

    def _exp_upto(self, m: int) -> int:
        return bisect.bisect_right(self._powers, m)

    def _search(self, colouring: Colouring) -> Optional[WindowSearch]:
        return _joint_search(self)

    def _upto(self, m: int) -> int:
        """Number of joint instances with max element <= m."""
        return _schur_upto(m) * self._exp_upto(m)

    def rows(self) -> Iterator[Row]:
        exps = list(self.exp.rows())
        for m in range(2, self.bound + 1):
            lo, hi = self._exp_upto(m - 1), self._exp_upto(m)
            s_lt = _schur_upto(m - 1)
            for si in range(0 if hi > lo else s_lt, _schur_upto(m)):
                sv, sg = self.schur._row(si)
                for ev, eg in exps[lo:hi] if si < s_lt else exps[:hi]:
                    yield sv + ev, sg + eg

    def _row(self, i: int) -> Row:
        # The max element m is the least with more than i instances of max
        # element <= m. In i's segment the power count e_le is fixed, so m is
        # the least with more than i // e_le sum triples of sum <= m; only
        # m = q has power triples of power m.
        g = bisect.bisect_right(self._ends, i)
        q, e_le = self._starts[g], self._counts[g + 1]
        m = max(q, math.isqrt(4 * (i // e_le) + 3) + 1)
        e_lt = self._counts[g] if m == q else e_le
        s_lt, e_eq = _schur_upto(m - 1), e_le - e_lt
        j = i - s_lt * e_lt
        if j < s_lt * e_eq:
            si, k = divmod(j, e_eq)
            ei = e_lt + k
        else:
            si, ei = divmod(j - s_lt * e_eq, e_le)
            si += s_lt
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

    def _lazy(self, xs: Tuple[int, ...]) -> Iterable[Value]:
        return self._fep_values(self._caps(self._weight, xs), xs, self.cap)

    def _search(self, colouring: Colouring) -> Optional[WindowSearch]:
        # the walk looks up a table weight and builds a row over the cap on
        # every row it reaches, one-class or not
        from .patterns import fep_candidate_count
        k = self._weight.const
        if k is None or fep_candidate_count((k,) * self.m) > self.cap:
            return None
        return super()._search(colouring)

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

    def rows(self) -> Iterator[Row]:
        diffs = self._diffs
        for m in range(2, self.bound + 1):
            for n, v in diffs:
                x = m - v
                if x >= 1:
                    yield (x, m), (n, x)

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
        self.roles = tuple(f"s+{i}d" for i in range(length + 1))

    def _upto(self, m: int) -> int:
        """Number of progressions with largest element <= m: the largest
        element t + 1 contributes t // L of them, summed over t < m."""
        L = self.len
        q, r = divmod(max(0, m), L)
        return L * q * (q - 1) // 2 + r * q

    def _progression(self, m: int, d: int) -> Row:
        s = m - self.len * d
        return tuple(s + i * d for i in range(self.len + 1)), (s, d)

    def rows(self) -> Iterator[Row]:
        L = self.len
        for m in range(L + 1, self.bound + 1):
            for d in range((m - 1) // L, 0, -1):
                yield self._progression(m, d)

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


# ---------------------------------------------------------------------------
# certificates

class Certificate(_Record):
    __slots__ = _fields = ("family", "colouring", "bound", "instances_checked",
                           "result", "seed", "schema")

    @property
    def verified(self) -> bool:
        return self.result.get("type") == "AvoidanceVerified"


def _certificate(family: InstanceFamily, colouring: Colouring,
                 index: Optional[int], seed: int) -> Certificate:
    """The one writer of certificates: avoidance of the whole family when
    ``index`` is None, else the counterexample at ``index``, whose witness
    is ``nth(index)`` in the one colour ``_mono_rows`` reads off it; a row
    that is not monochromatic raises ValueError."""
    if index is None:
        checked, result = family.count(), {"type": "AvoidanceVerified"}
    else:
        inst = family.nth(index)
        (_, _, colour), = _mono_rows(colouring, [(inst.values, ())], _Budget(None))
        checked = index + 1
        result = {"type": "Counterexample", "witness": inst.witness_json(colour)}
    return Certificate(family=family.descriptor(), colouring=colouring.spec,
                       bound=family.bound, instances_checked=checked,
                       result=result, seed=seed)


class _Budget:
    def __init__(self, secs: Optional[float]):
        self.deadline = None if secs is None else time.monotonic() + secs

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted during search")


def _mono_rows(colouring: Colouring, rows: Iterator[Row], budget: _Budget
               ) -> Iterator[Tuple[int, Tuple[int, ...], int]]:
    """(position, generators, colour) of each row among ``rows`` whose
    values all take one colour. Each distinct value is coloured once per call, through a
    table of ints and terms that lives as long as the call; colourings
    cache nothing, so this table is the walk's only colour cache. A row
    stops at its first colour mismatch."""
    cache: Dict[Value, int] = {}
    get = cache.get
    for j, (values, generators) in enumerate(rows):
        if j % 4096 == 0:
            budget.check()
        c = None
        for v in values:
            cv = get(v)
            if cv is None:
                cv = cache[v] = colouring(v)
            if c is None:
                c = cv
            elif cv != c:
                break
        else:
            yield j, generators, c


def _walk(colouring: Colouring, family: InstanceFamily, budget: _Budget
          ) -> Optional[int]:
    """Index of the first monochromatic row, or None."""
    for i, _, _ in _mono_rows(colouring, family.scan_rows(), budget):
        return i
    return None


def _first_translates(carr: bytearray, classes: Sequence[int],
                      shifts: List[Shift], lo: int, hi: int, budget: _Budget
                      ) -> Dict[int, Tuple[int, int]]:
    """For each class rank c in ``classes`` with a monochromatic translate
    of some pattern in ``shifts`` whose largest element m lies in [lo, hi],
    the (m, j) of the first: the least m, then the least position j.
    ``carr[v]`` is the class rank of v for v in [1, hi] and 0 at v = 0.

    Bit-parallel shift-and matching (Baeza-Yates and Gonnet, CACM 35(10),
    1992) over one-bit lanes: bit v of the lane int of c is set iff carr[v]
    is c, so the lane shifted left by o has bit m set iff m - o is in c. The
    AND of the lane with its shifts by a pattern's offsets marks each m
    whose translate lies in c, m - o <= 0 included as no bit is set there;
    the lowest marked bit from the pattern's least m on is its first. The
    budget is checked every 256 patterns."""
    todo: Dict[Optional[int], List[Tuple[int, int, Tuple[int, ...]]]] = {}
    for j, (m_min, offsets, pin) in enumerate(shifts):
        start = max(lo, m_min)
        if start <= hi:
            key = None if pin is None else carr[pin]
            todo.setdefault(key, []).append((start, j, offsets))
    free = todo.pop(None, [])
    # a translate has at least its offsets' count plus one distinct
    # elements, so a class with fewer members holds none
    fewest = 1 + min((len(offsets) for _, offsets, _ in shifts), default=0)
    first: Dict[int, Tuple[int, int]] = {}
    for c in classes:
        # the digits of v = len(carr) - 1 down to 0, 1 where carr[v] is c
        lane = int(carr.translate(b"0" * c + b"1" + b"0" * (255 - c))[::-1], 2)
        if lane.bit_count() < fewest:
            continue
        for n, (start, j, offsets) in enumerate(free + todo.get(c, [])):
            if n % 256 == 0:
                budget.check()
            mask = lane
            for o in offsets:
                if not mask:
                    break
                mask &= lane << o
            mask >>= start
            if mask:
                m = start + (mask & -mask).bit_length() - 1
                if c not in first or (m, j) < first[c]:
                    first[c] = m, j
    return first


def _translate_index(family: InstanceFamily, shifts: List[Shift],
                     m: int, j: int) -> int:
    """Enumeration index of the translate to m of pattern j of ``shifts``:
    the rows of largest element below m come first, then those of m, one
    per pattern of least largest element <= m. The patterns past that bound
    head the list, by the order stated at ``Shift``."""
    return family._upto(m - 1) + j - bisect.bisect_left(
        shifts, -m, key=lambda s: -s[0])


# (carr, the rank of each colour, lo, hi, budget) -> the index of the first
# monochromatic row with m (see _window_scan) in [lo, hi], or None
WindowSearch = Callable[[bytearray, Dict[int, int], int, int, _Budget],
                        Optional[int]]


def _translate_search(family: InstanceFamily) -> WindowSearch:
    """Search of a family whose rows at each largest element m are the
    translates to m of its ``_shifts`` patterns, in the patterns' order."""
    def search(carr, ranks, lo, hi, budget):
        shifts = family._shifts(hi)
        classes = range(1, len(ranks) + 1)
        first = _first_translates(carr, classes, shifts, lo, hi, budget)
        if not first:
            return None
        return _translate_index(family, shifts, *min(first.values()))
    return search


def _joint_search(family: SchurPlusExpFamily) -> WindowSearch:
    """Class decomposition: a joint instance is monochromatic exactly when
    one colour class holds both its sum triple and its power triple. The
    joint order is monotone in each part's index, so the first joint
    instance pairs some class's first sum triple with its first power
    triple. Power triples are read off ``carr`` in order of their power;
    a class's sum triples are searched by the shift-and kernel, restricted
    to that class, once it has a power triple, from 1 on at first and then
    window by window, so a colouring with no monochromatic power triple
    never searches them."""
    pairs, schur = family.exp._pairs, family.schur
    exp_first: Dict[int, int] = {}  # class rank -> first power triple
    sum_first: Dict[int, int] = {}  # class rank -> first sum triple
    next_pair = 0

    def search(carr, ranks, lo, hi, budget):
        nonlocal next_pair
        fresh = []
        while next_pair < len(pairs) and pairs[next_pair][0] <= hi:
            p, a, b = pairs[next_pair]
            if carr[a] == carr[b] == carr[p] and carr[p] not in exp_first:
                exp_first[carr[p]] = next_pair
                fresh.append(carr[p])
            next_pair += 1
        waiting = [c for c in exp_first if c not in sum_first and c not in fresh]
        shifts = schur._shifts(hi) if fresh or waiting else []
        for cs, start in ((fresh, 1), (waiting, lo)):
            for c, (m, j) in _first_translates(carr, cs, shifts, start, hi, budget).items():
                sum_first[c] = _translate_index(schur, shifts, m, j)
        return min((family.index(sum_first[c], ei)
                    for c, ei in exp_first.items() if c in sum_first), default=None)
    return search


def _level_box_search(colouring: LogStarColouring,
                      family: ExpQuadrupleFamily) -> WindowSearch:
    """Box search of {a, b, a^b, b^a} under a log-star colouring, whose rows
    come in order of (b, a).

    The levels L(a^b) and L(b^a) are non-decreasing in a and in b, so on a
    box a1 <= a <= min(a2, b), b1 <= b <= b2 both lie between their values
    at the low corner (a1, max(b1, a1)) and the high corner (a2, b2). Where
    the corners agree the two power colours are constant (the colours
    repeat with period r + 2, so only the level is monotone): the box is
    cleared unless both rank as one class c, and then its first row is the
    first a of class c, paired with the first b >= a of class c. Any other
    box is halved: along a where the levels change on its low-b edge,
    along b where that edge is flat. The lower half of b is searched first;
    the right half of a only for rows before the left half's first, so the
    first row found is the walk's. Corner levels are memoized for one
    window. The budget is checked at each box."""
    level, of_count = colouring.level_power, colouring._of_count

    def search(carr, ranks, lo, hi, budget):
        memo: Dict[Tuple[int, int], Tuple[int, int]] = {}

        def levels(a, b):
            got = memo.get((a, b))
            if got is None:
                got = memo[a, b] = level(a, b), level(b, a)
            return got

        def first(a1, a2, b1, b2):
            # (b, a) of the box's first monochromatic row, or None
            b1, a2 = max(b1, a1), min(a2, b2)
            if b1 > b2:
                return None
            budget.check()
            low = levels(a1, b1)
            if low == levels(a2, b2):
                c = ranks.get(of_count(low[0]))
                if c is None or c != ranks.get(of_count(low[1])):
                    return None
                x = carr.find(c, a1, a2 + 1)
                b = -1 if x < 0 else carr.find(c, max(b1, x), b2 + 1)
                return None if b < 0 else (b, x)
            if low == levels(min(a2, b1), b1):
                m = (b1 + b2) // 2
                return first(a1, a2, b1, m) or first(a1, a2, m + 1, b2)
            m = (a1 + a2) // 2
            left = first(a1, m, b1, b2)
            return first(m + 1, a2, b1, b2 if left is None else left[0] - 1) or left

        got = first(2, hi, lo, hi)
        return None if got is None else family._rank(got[::-1])
    return search


def _class_search(colouring: Colouring, family: _BuiltFamily) -> WindowSearch:
    """Search over the largest generator m of rows that start with their
    generators and build nothing before them. The walk ends a row at its
    first generator mismatch, so only ``_with_max`` over m's class up to m
    is listed, built by ``_lazy`` and checked by ``_mono_rows`` (budget
    checks every 4,096 rows); ``_rank`` gives the first one's index."""
    def search(carr, ranks, lo, hi, budget):
        members: Dict[int, List[int]] = {}  # class rank -> its ints in [2, M]

        def rows():
            for M in range(2, hi + 1):
                digits = members.setdefault(carr[M], [])
                digits.append(M)
                if M >= lo:
                    for g in family._with_max(digits):
                        yield family._lazy(g), g

        for _, g, _ in _mono_rows(colouring, rows(), budget):
            return family._rank(g)
        return None
    return search


def _window_scan(colouring: Colouring, family: InstanceFamily, budget: _Budget,
                 search: WindowSearch) -> Optional[int]:
    """Index of the first monochromatic row of a family whose rows come in
    order of an integer m, its generators in [1, m], or None; m is the
    largest element for the translate and joint searches, the largest
    generator for the box and class searches.

    The values are coloured in ascending order by ``colour_range``, in
    blocks of at most 4096 that fill windows of m that double, into
    ``carr`` as class ranks, the colours numbered 1, 2, ... by first
    appearance; an early counterexample colours at most about twice the
    values a row walk colours. The budget is checked before each block, and
    by the search: every 256 patterns by the shift-and kernel, at each box
    by the level box search, every 4,096 rows by the class search.

    A value whose colouring raises (its block ends short), or whose colour
    would be a 256th class, ends the windows: the rows whose m is below it
    are searched, and the rows from there on are walked by ``_mono_rows``,
    so what raises or returns is what the row walk raises or returns."""
    if family.count() == 0:
        return None
    carr, ranks = bytearray(1), {}
    lo, hi = 1, 8
    while lo <= family.bound:
        top = min(hi, family.bound)
        for a in range(lo, top + 1, 4096):
            budget.check()
            b = min(a + 4095, top)
            cs = colouring.colour_range(a, b)
            for c in dict.fromkeys(cs):
                if c not in ranks:
                    if len(ranks) == 255:
                        cs = cs[:cs.index(c)]
                        break
                    ranks[c] = len(ranks) + 1
            carr += bytes(map(ranks.__getitem__, cs))
            if len(cs) <= b - a:
                break
        end = len(carr) - 1
        got = search(carr, ranks, lo, end, budget) if end >= lo else None
        if got is not None:
            return got
        if end < top:
            start = family._upto(end)
            rows = map(family._scan_row, range(start, family.count()))
            for j, _, _ in _mono_rows(colouring, rows, budget):
                return start + j
            return None
        lo, hi = top + 1, 2 * hi
    return None


def find_monochromatic(colouring: Union[Colouring, str],
                       family: Union[InstanceFamily, str],
                       bound: Optional[int] = None, *,
                       seed: int = 0,
                       threads: int = 1,
                       budget_secs: Optional[float] = None,
                       cap: int = 10**6) -> Certificate:
    """First monochromatic instance in enumeration order, or avoidance.

    The result is a certificate; its wall_time attribute is measured but not
    serialized. The family's ``_search`` picks ``_window_scan``'s search:
    the shift-and kernel for diffpair, schur and grid, class decomposition
    for schurplusexp, the level box search for expquad under a log-star
    colouring, and the one-class tuple search for shape, other expquad and
    fep with a constant weight and at most ``cap`` candidates per row. The
    rest take the row walk. Either gives the first monochromatic row's
    index, from which ``_certificate`` writes the certificate, the witness
    read from ``nth``; ``verify_certificate`` rebuilds it the same way.
    ``threads`` is checked but changes neither the certificate nor the
    speed: every search runs in this process. ``threads`` < 1 or a NaN
    ``budget_secs`` raises ValueError.
    """
    t0 = time.perf_counter()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if budget_secs is not None and math.isnan(budget_secs):
        raise ValueError("budget_secs must be a number of seconds, got nan")
    if isinstance(colouring, str):
        colouring = parse_colouring(colouring)
    if isinstance(family, str):
        if bound is None:
            raise ValueError("a string family spec needs an explicit bound")
        default_r = colouring.r if isinstance(colouring, LogStarColouring) else None
        family = parse_family(family, bound, cap=cap, default_r=default_r)
    budget = _Budget(budget_secs)

    search = family._search(colouring)
    index = (_walk(colouring, family, budget) if search is None
             else _window_scan(colouring, family, budget, search))
    cert = _certificate(family, colouring, index, seed)
    cert.wall_time = time.perf_counter() - t0
    return cert


def verify_certificate(cert: Certificate) -> bool:
    """Accept a certificate only if it is the one ``find_monochromatic``
    writes for its family, colouring and seed: the certificate is rebuilt
    by ``_certificate`` and its canonical bytes must be the rebuilt ones,
    so every field, the witness text and the canonical colouring spec are
    checked at once. An avoidance claim is rebuilt by replaying the search;
    a counterexample from the one instance at ``instances_checked - 1``,
    through ``nth``, in its colour if it is monochromatic. ``seed`` and
    ``instances_checked`` must also be ints (not bools): a string seed
    would rebuild to the same bytes. Anything that raises, a malformed
    ``result`` or ``witness`` included, rejects the certificate.

    The family is rebuilt under the default element cap of 10^6, so a
    descriptor over it, such as that of a certificate made with ``--cap``
    above 10^6, is rejected."""
    try:
        if type(cert.seed) is not int or type(cert.instances_checked) is not int:
            return False
        colouring = parse_colouring(cert.colouring)
        family = family_from_descriptor(cert.family)
        if cert.result["type"] == "AvoidanceVerified":
            rebuilt = find_monochromatic(colouring, family, seed=cert.seed)
        else:
            rebuilt = _certificate(family, colouring, cert.instances_checked - 1,
                                   cert.seed)
        return rebuilt.to_json() == cert.to_json()
    except Exception:
        return False
