"""Instance enumeration, monochromatic search, and Ramsey-number computation.

Instances are finite sets of values with role labels. Enumeration is
deterministic for a fixed bound: instances are ordered by their element
tuple sorted descending, ties broken by the generator tuple, except for the
symbolic families (expquad, shape, fep) whose elements can be astronomically
large; those order by generator tuples instead, which is still a sorted
order on the bounded part of the instance: expquad by (b, a), shape and fep
by (max generator, generator tuple), whose index is found in closed form.

Certificates serialize to canonical JSON (sorted keys, no whitespace); the
wall-time measurement lives on the object but stays out of the bytes so
replays are byte-identical.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field, fields
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ._arith import iroot
from ._spec import BOOL, INT, STR, Param, ParamType, read_spec, write_spec
from .colourings import Colouring, LogStarColouring, parse_colouring, parse_seq
from .errors import BudgetError, BudgetExceeded, ParseError
from .patterns import (
    ShapeRelation, WeightFn, fep_caps, fep_row, fep_values, parse_edges,
    shape_row, shape_values,
)
# not called here: bench/spans.py traces fep and shape_pattern through these
# bindings, and the families build their rows from the same pieces
from .patterns import fep, shape_pattern  # noqa: F401
from .tower import (
    ExpTerm,
    compare_iter_log,
    equal_value,
    eval_exact,
    parse_term,
    power,
    to_text,
)

SCHEMA_VERSION = 1

Value = Union[int, ExpTerm]


def _materialize(base: int, exp: int) -> Value:
    """a^b as a plain int when within the exactness cutoff, else a term."""
    t = power(base, exp)
    bv = eval_exact(t)
    return bv.exact if bv.is_exact else t


def _value_text(v: Value) -> str:
    return str(v) if isinstance(v, int) else to_text(v)


@dataclass(frozen=True)
class Instance:
    roles: Tuple[str, ...]
    values: Tuple[Value, ...]
    generators: Tuple[int, ...]

    def witness_json(self, colour: int) -> dict:
        return {
            "generators": list(self.generators),
            "elements": [
                {"role": r, "value": _value_text(v)}
                for r, v in zip(self.roles, self.values)
            ],
            "colour": colour,
        }


def _first_above(cum: Callable[[int], int], i: int, lo: int, hi: int) -> int:
    """Least m in [lo, hi] with cum(m) > i, for cum non-decreasing."""
    while lo < hi:
        mid = (lo + hi) // 2
        if cum(mid) > i:
            hi = mid
        else:
            lo = mid + 1
    return lo


Row = Tuple[Tuple[Value, ...], Tuple[int, ...]]
# An offset pattern of the shift-and kernel: (least largest element m, the
# offsets o > 0 such that m - o are the other free elements, a value whose
# colour class is pinned or None). The row at m holds m, each m - o and the
# pinned value.
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
    lambda t: [list(e) for e in parse_edges(t, ";")],
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
    labels; scans and the sampled re-check of ``verify_certificate`` read
    ``scan_rows()`` and ``_scan_row(i)``, whose values may be a lazy
    iterable over the instance's, and an Instance is built only for a witness.

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
        raise NotImplementedError

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
    """Rows built from generator tuples g, walked by ``_tuples()`` and found
    by ``_tuple(i)``. Scans read ``_lazy(g)``, generators first, so nothing
    past a row's first colour mismatch is built; instances read
    ``_elements(g)``, by default the same values as a tuple."""

    def _elements(self, g: Tuple[int, ...]) -> Tuple[Value, ...]:
        return tuple(self._lazy(g))

    def _row(self, i: int) -> Row:
        return self._elements(g := self._tuple(i)), g

    def scan_rows(self) -> Iterator[Row]:
        return ((self._lazy(g), g) for g in self._tuples())

    def _scan_row(self, i: int) -> Row:
        return self._lazy(g := self._tuple(i)), g


def _exp_tops(bound: int, cap: Optional[int] = None,
              last_a: Optional[Callable[[int, int], int]] = None
              ) -> List[Tuple[int, int]]:
    """(b, the last a) for each exponent b of the pairs of ``_exp_pairs``,
    counted from integer roots without listing a pair."""
    tops = []
    total = 0
    for b in range(2, bound.bit_length()):
        top = iroot(bound, b)
        if last_a is not None:
            top = last_a(b, top)
        tops.append((b, top))
        total += top - 1
        if cap is not None and total > cap:
            raise BudgetExceeded(
                f"power pairs a^b <= bound exceed the element cap {cap}"
            )
    return tops


def _exp_pairs(bound: int, *, cap: Optional[int] = None,
               last_a: Optional[Callable[[int, int], int]] = None
               ) -> List[Tuple[int, int, int]]:
    """All (p, a, b) with a, b >= 2 and p = a^b <= bound, sorted by
    (p, max(a,b), min(a,b), a, b): element tuples descending, generator
    tie-break.

    ``last_a(b, top)`` shortens the range of a for each b to [2, last_a];
    the pairs are counted from integer roots first, and more than ``cap``
    of them raise BudgetExceeded before any list is built.
    """
    tops = _exp_tops(bound, cap, last_a)
    out = [(a**b, a, b) for b, top in tops for a in range(2, top + 1)]
    out.sort(key=lambda t: (t[0], max(t[1], t[2]), min(t[1], t[2]), t[1], t[2]))
    return out


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
        self.bound = bound
        self.r = r
        self._pairs = _exp_pairs(bound, cap=cap, last_a=self._last_a)

    def _last_a(self, b: int, top: int) -> int:
        """Largest a in [1, top] with log_(r) a <= b. log_(r) is
        non-decreasing, so the condition holds on a prefix of a and one
        bisection finds the first a past it."""
        return _first_above(lambda a: not compare_iter_log(a, self.r, b),
                            0, 2, top + 1) - 1

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

    def count(self) -> int:
        n = max(0, self.bound - 1)
        return n * (n + 1) // 2

    @staticmethod
    def _lazy(g: Tuple[int, int]) -> Iterator[Value]:
        # a, b, then a^b and b^a, each power built when it is reached
        return itertools.chain(g, map(_materialize, g, g[::-1]))

    def _tuples(self) -> Iterator[Tuple[int, int]]:
        return ((a, b) for b in range(2, self.bound + 1) for a in range(2, b + 1))

    def _tuple(self, i: int) -> Tuple[int, int]:
        # b(b-1)/2 pairs have second coordinate <= b; take the least b
        # with more than i of them
        b = (1 + math.isqrt(8 * i + 1)) // 2 + 1
        return 2 + i - (b - 1) * (b - 2) // 2, b


def _schur_upto(s: int) -> int:
    """Number of Schur triples with sum <= s."""
    return max(0, s) ** 2 // 4


class SchurFamily(InstanceFamily):
    """Instances {x, y, x+y} with x <= y and x + y <= bound."""

    kind = "schur"
    roles = ("x", "y", "x+y")

    def __init__(self, bound: int):
        self.bound = bound

    _upto = staticmethod(_schur_upto)

    def count(self) -> int:
        return _schur_upto(self.bound)

    def rows(self) -> Iterator[Row]:
        for s in range(2, self.bound + 1):
            for y in range((s + 1) // 2, s):
                yield (s - y, y, s), (s - y, y)

    def _shifts(self, hi: int) -> List[Shift]:
        # {x, s - x, s} for fixed x is a translate of (x, 0) with x's class
        # pinned; y >= x needs s >= 2x, and y ascends as x descends
        return [(2 * x, (x,), x) for x in range(hi // 2, 0, -1)]

    def _shift_index(self, m: int, shift: Shift) -> int:
        x = shift[2]
        return self.index(x, m - x)

    def _row(self, i: int) -> Row:
        # the least s with more than i triples of sum <= s
        s = math.isqrt(4 * i + 3) + 1
        y = (s + 1) // 2 + i - _schur_upto(s - 1)
        return (s - y, y, s), (s - y, y)

    @staticmethod
    def index(x: int, y: int) -> int:
        """Enumeration index of the triple {x, y, x+y} with x <= y."""
        s = x + y
        return _schur_upto(s - 1) + y - (s + 1) // 2


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

    def count(self) -> int:
        return self.schur.count() * self.exp.count()

    def _exp_upto(self, m: int) -> int:
        return bisect.bisect_right(self._powers, m)

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


def _tuples_with_max(M: int, m: int) -> Iterator[Tuple[int, ...]]:
    """The tuples in [2, M]^m that contain M, lexicographically: each
    prefix in [2, M]^(m-1) takes every last digit once it holds M, else
    only M."""
    lasts = [(d,) for d in range(2, M + 1)]
    for prefix in itertools.product(range(2, M + 1), repeat=m - 1):
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
        n = max(0, bound - 1)
        if n**m > cap:
            raise BudgetExceeded(f"{n}^{m} generator tuples exceed the element cap {cap}")
        self._count = n**m

    def count(self) -> int:
        return self._count

    def _tuples(self) -> Iterator[Tuple[int, ...]]:
        return (xs for M in range(2, self.bound + 1) for xs in _tuples_with_max(M, self.m))

    def _tuple(self, i: int) -> Tuple[int, ...]:
        return _nth_tuple(i, self.m)


class ShapeFamily(_TupleFamily):
    """Shape-pattern instances over all generator tuples in [2, bound]^m.

    The role labels follow the pattern's deduplicated elements, so they are
    derived per instance from its generators.
    """

    kind = "shape"
    params = (Param("m", INT), Param("edges", EDGES, []))

    def __init__(self, bound: int, m: int, edges: List[List[int]], *,
                 cap: int = 10**6):
        self.relation = ShapeRelation(m, tuple(map(tuple, edges)))
        super().__init__(bound, m, cap)
        # the descriptor lists the edges in the relation's order
        self.edges = [list(e) for e in self.relation.edges]
        self._sorted_edges = sorted(self.relation.edges)

    def _elements(self, xs: Tuple[int, ...]) -> Tuple[Value, ...]:
        return shape_row(self._sorted_edges, xs)[0]

    def _lazy(self, xs: Tuple[int, ...]) -> Iterator[Value]:
        return shape_values(self._sorted_edges, xs)

    def _instance(self, values: Tuple[Value, ...],
                  xs: Tuple[int, ...]) -> Instance:
        roles = tuple(f"x{s}" if isinstance(s, int) else "x{}^x{}".format(*s)
                      for s in shape_row(self._sorted_edges, xs)[1])
        return Instance(roles, values, xs)


class FepFamily(_TupleFamily):
    """Weighted exponential-product pattern instances; every pattern element
    must take the same colour for the instance to count as monochromatic.
    Each element is labelled with its own tower text."""

    kind = "fep"
    params = (Param("m", INT), Param("weight", WEIGHT, spec_key="w"))

    def __init__(self, bound: int, m: int, weight: dict, *, cap: int = 10**6):
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
        return fep_row(fep_caps(self._weight, xs), xs, self.cap)[0]

    def _lazy(self, xs: Tuple[int, ...]) -> Iterable[Value]:
        return fep_values(fep_caps(self._weight, xs), xs, self.cap)

    def _instance(self, values: Tuple[Value, ...],
                  xs: Tuple[int, ...]) -> Instance:
        return Instance(tuple(to_text(e) for e in values), values, xs)


class DifferencePairFamily(InstanceFamily):
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

    def count(self) -> int:
        return self._upto(self.bound)

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

    def _index_at(self, m: int, v: int) -> int:
        # after the pairs of larger element below m come those of m with a
        # larger difference, which is below m
        a = self._ascending
        return self._upto(m - 1) + bisect.bisect_left(a, m) - bisect.bisect_right(a, v)

    def _shifts(self, hi: int) -> List[Shift]:
        return [(v + 1, (v,), None) for _, v in self._diffs]

    def _shift_index(self, m: int, shift: Shift) -> int:
        return self._index_at(m, shift[1][0])


class GridFamily(InstanceFamily):
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

    def count(self) -> int:
        return self._upto(self.bound)

    def _progression(self, m: int, d: int) -> Row:
        s = m - self.len * d
        return tuple(s + i * d for i in range(self.len + 1)), (s, d)

    def rows(self) -> Iterator[Row]:
        L = self.len
        for m in range(L + 1, self.bound + 1):
            for d in range((m - 1) // L, 0, -1):
                yield self._progression(m, d)

    def _row(self, i: int) -> Row:
        m = _first_above(self._upto, i, self.len + 1, self.bound)
        return self._progression(m, (m - 1) // self.len - (i - self._upto(m - 1)))

    def index(self, s: int, d: int) -> int:
        """Enumeration index of the progression with start s, difference d."""
        m = s + self.len * d
        return self._upto(m - 1) + (m - 1) // self.len - d

    def _shifts(self, hi: int) -> List[Shift]:
        L = self.len
        return [(L * d + 1, tuple(i * d for i in range(L, 0, -1)), None)
                for d in range((hi - 1) // L, 0, -1)]

    def _shift_index(self, m: int, shift: Shift) -> int:
        d = shift[1][-1]
        return self.index(m - self.len * d, d)


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

def canonical_json(obj) -> str:
    """The byte form of every JSON output: sorted keys, no whitespace and
    one trailing newline, so identical runs are byte-identical."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class _Record:
    """A result record: its JSON holds every dataclass field but wall_time,
    which stays out of the bytes so replays are byte-identical."""

    def to_json_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "wall_time"}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


@dataclass
class Certificate(_Record):
    family: dict
    colouring: str
    bound: int
    instances_checked: int
    result: dict
    seed: int
    schema: int = SCHEMA_VERSION
    wall_time: float = field(default=0.0, compare=False)

    @property
    def verified(self) -> bool:
        return self.result.get("type") == "AvoidanceVerified"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Certificate":
        return cls(
            family=obj["family"],
            colouring=obj["colouring"],
            bound=obj["bound"],
            instances_checked=obj["instances_checked"],
            result=obj["result"],
            seed=obj.get("seed", 0),
            schema=obj.get("schema", SCHEMA_VERSION),
        )


class _Budget:
    def __init__(self, secs: Optional[float]):
        self.deadline = None if secs is None else time.monotonic() + secs

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted during search")


def _mono_rows(colouring: Colouring, rows: Iterator[Row], budget: _Budget
               ) -> Iterator[Tuple[int, int]]:
    """(position, colour) of each row among ``rows`` whose values all take
    one colour. Each distinct value is coloured once per call, through a
    local cache, and a row stops at its first colour mismatch."""
    cache: Dict[Value, int] = {}
    get = cache.get
    for j, (values, _) in enumerate(rows):
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
            yield j, c


def _walk(colouring: Colouring, family: InstanceFamily, budget: _Budget,
          offset: int = 0, step: int = 1) -> Tuple[Optional[int], Optional[dict]]:
    """First monochromatic row among the indices offset, offset + step, ...
    as (index, witness), or (None, None); an Instance is built only for the
    witness."""
    rows = itertools.islice(family.scan_rows(), offset, None, step)
    for j, c in _mono_rows(colouring, rows, budget):
        i = offset + j * step
        return i, family.nth(i).witness_json(c)
    return None, None


def _level_run_end(level: Callable[[int], int], lev: int, lo: int, hi: int) -> int:
    """Largest x in [lo, hi] with level(x) == lev, where level is
    non-decreasing on [lo, hi] and level(lo) == lev: gallop, then bisect."""
    step = 1
    while lo + step <= hi and level(lo + step) == lev:
        lo += step
        step *= 2
    hi = min(hi, lo + step - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if level(mid) == lev:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _find_mono_quad_logstar(colouring: LogStarColouring,
                            family: ExpQuadrupleFamily,
                            budget: _Budget) -> Tuple[Optional[int], Optional[dict]]:
    """Run scan of {a, b, a^b, b^a} under the log-star colouring, in the
    (b, a) enumeration order of the generic walk.

    For fixed b the levels L(a^b) and L(b^a) are non-decreasing in a, so
    [2, b] splits into runs on which both are constant; each run's end is
    found by galloping and bisection on the levels (the colours repeat with
    period r + 2, so they are not monotone). Only runs whose two power
    colours equal colour(b) are walked against the colours of a.
    """
    carr = [0, 0] + [colouring(v) for v in range(2, family.bound + 1)]
    level, of_count = colouring.level_power, colouring._of_count
    base = 0  # index of the instance (2, b)
    for b in range(2, family.bound + 1):
        budget.check()
        cb = carr[b]
        a, end_ab, end_ba = 2, 1, 1
        while a <= b:
            if end_ab < a:
                lev_ab = level(a, b)
                end_ab = _level_run_end(lambda x: level(x, b), lev_ab, a, b)
            if end_ba < a:
                lev_ba = level(b, a)
                end_ba = _level_run_end(lambda x: level(b, x), lev_ba, a, b)
            end = min(end_ab, end_ba)
            if of_count(lev_ab) == cb == of_count(lev_ba):
                for x in range(a, end + 1):
                    if carr[x] == cb:
                        idx = base + x - 2
                        return idx, family.nth(idx).witness_json(cb)
            a = end + 1
        base += b - 1
    return None, None


def _first_translates(carr: bytearray, classes: Sequence[int],
                      shifts: List[Shift], lo: int, hi: int, budget: _Budget
                      ) -> Dict[int, Tuple[int, int]]:
    """For each class rank c in ``classes`` with a monochromatic translate
    of some pattern in ``shifts`` whose largest element m lies in [lo, hi],
    the (m, j) of the first: the least m, then the least position j.
    ``carr[v]`` is the class rank of v for v in [1, hi] and 0 at v = 0.

    Bit-parallel shift-and matching (Baeza-Yates and Gonnet, CACM 35(10),
    1992) over byte lanes: byte v of the lane int of c is 1 iff carr[v] is
    c, so the lane shifted left by 8*o has byte m set iff m - o is in c. The
    AND of the lane with its shifts by a pattern's offsets marks each m
    whose translate lies in c, m - o <= 0 included as no byte is set there;
    the lowest marked byte from the pattern's least m on is its first. The
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
        if carr.count(c) < fewest:
            continue
        table = bytearray(256)
        table[c] = 1
        lane = int.from_bytes(carr.translate(table), "little")
        for n, (start, j, offsets) in enumerate(free + todo.get(c, [])):
            if n % 256 == 0:
                budget.check()
            mask = lane
            for o in offsets:
                if not mask:
                    break
                mask &= lane << 8 * o
            mask >>= 8 * start
            if mask:
                m = start + ((mask & -mask).bit_length() - 1) // 8
                if c not in first or (m, j) < first[c]:
                    first[c] = m, j
    return first


# (carr, class ranks, lo, hi, budget) -> (index, class rank) of the first
# monochromatic row with largest element in [lo, hi], or None
WindowSearch = Callable[[bytearray, range, int, int, _Budget],
                        Optional[Tuple[int, int]]]


def _translate_search(family: InstanceFamily) -> WindowSearch:
    """Search of a family whose rows at each largest element m are the
    translates to m of its ``_shifts`` patterns, in the patterns' order."""
    def search(carr, classes, lo, hi, budget):
        shifts = family._shifts(hi)
        first = _first_translates(carr, classes, shifts, lo, hi, budget)
        if not first:
            return None
        (m, j), c = min((mj, c) for c, mj in first.items())
        return family._shift_index(m, shifts[j]), c
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

    def search(carr, classes, lo, hi, budget):
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
                sum_first[c] = schur._shift_index(m, shifts[j])
        return min(((family.index(sum_first[c], ei), c)
                    for c, ei in exp_first.items() if c in sum_first), default=None)
    return search


def _window_scan(colouring: Colouring, family: InstanceFamily, budget: _Budget,
                 search: WindowSearch) -> Tuple[Optional[int], Optional[dict]]:
    """First monochromatic row of a family whose rows come in order of their
    largest element m, every element in [1, m], as (index, witness).

    The values are coloured in ascending order into ``carr`` as class ranks,
    the colours numbered 1, 2, ... by first appearance, in windows of m that
    double, so an early counterexample colours at most about twice the
    values a row walk colours. The budget is checked at each window and
    every 4096 values coloured, and by the search every 256 patterns.

    A value whose colouring raises, or whose colour would be a 256th class,
    ends the windows: the rows whose largest element is below it are
    searched, and the rows from there on are walked by ``_mono_rows``, so
    what raises or returns is what the row walk raises or returns."""
    if family.count() == 0:
        return None, None
    carr, ranks = bytearray(1), {}
    colour, rank, append = colouring.colour, ranks.get, carr.append
    lo, hi = 1, 8
    while lo <= family.bound:
        budget.check()
        top = min(hi, family.bound)
        for v in range(lo, top + 1):
            if v % 4096 == 0:
                budget.check()
            try:
                c = colour(v)
            except Exception:  # whatever it is, the walk below meets it at v
                break
            r = rank(c)
            if r is None:
                if len(ranks) == 255:
                    break
                r = ranks[c] = len(ranks) + 1
            append(r)
        end = len(carr) - 1
        got = (search(carr, range(1, len(ranks) + 1), lo, end, budget)
               if end >= lo else None)
        if got is not None:
            idx, r = got
            return idx, family.nth(idx).witness_json(list(ranks)[r - 1])
        if end < top:
            start = family._upto(end)
            rows = map(family._row, range(start, family.count()))
            for j, c in _mono_rows(colouring, rows, budget):
                return start + j, family.nth(start + j).witness_json(c)
            return None, None
        lo, hi = top + 1, 2 * hi
    return None, None


def find_monochromatic(colouring: Union[Colouring, str],
                       family: Union[InstanceFamily, str],
                       bound: Optional[int] = None, *,
                       seed: int = 0,
                       threads: int = 1,
                       budget_secs: Optional[float] = None,
                       cap: int = 10**6) -> Certificate:
    """First monochromatic instance in enumeration order, or avoidance.

    The result is a certificate; its wall_time attribute is measured but not
    serialized. diffpair, schur and grid go through the shift-and kernel,
    schurplusexp through its class decomposition (both in ``_window_scan``),
    expquad under a log-star colouring through its level-run scan, and
    every other family through the row walk, which builds a shape, fep or
    expquad row lazily, generators first, only while its colours agree;
    witnesses are tuples from ``nth``. With ``threads`` > 1 the row walk
    runs in that many processes, each over the indices of one residue
    class; the other scans start no pool, as one pass of them costs less
    than starting it. The certificate bytes are the same for any thread
    count.
    """
    t0 = time.perf_counter()
    if isinstance(colouring, str):
        colouring = parse_colouring(colouring)
    if isinstance(family, str):
        if bound is None:
            raise ValueError("a string family spec needs an explicit bound")
        default_r = colouring.r if isinstance(colouring, LogStarColouring) else None
        family = parse_family(family, bound, cap=cap, default_r=default_r)
    budget = _Budget(budget_secs)

    if isinstance(family, ExpQuadrupleFamily) and isinstance(colouring, LogStarColouring):
        first_idx, witness = _find_mono_quad_logstar(colouring, family, budget)
    elif isinstance(family, SchurPlusExpFamily):
        first_idx, witness = _window_scan(colouring, family, budget,
                                          _joint_search(family))
    elif isinstance(family, (DifferencePairFamily, SchurFamily, GridFamily)):
        first_idx, witness = _window_scan(colouring, family, budget,
                                          _translate_search(family))
    elif threads > 1:
        # imported here: the pool pulls in multiprocessing, which would cost
        # every other process (each CLI call, say) import time for nothing
        from concurrent.futures import ProcessPoolExecutor
        first_idx, witness, n = None, None, threads
        with ProcessPoolExecutor(max_workers=n) as pool:
            shards = pool.map(_walk, [colouring] * n, [family] * n,
                              [budget] * n, range(n), [n] * n)
            for idx, wit in shards:
                if idx is not None and (first_idx is None or idx < first_idx):
                    first_idx, witness = idx, wit
    else:
        first_idx, witness = _walk(colouring, family, budget)

    if witness is None:
        result = {"type": "AvoidanceVerified"}
        checked = family.count()
    else:
        result = {"type": "Counterexample", "witness": witness}
        checked = first_idx + 1
    cert = Certificate(
        family=family.descriptor(),
        colouring=colouring.spec,
        bound=family.bound,
        instances_checked=checked,
        result=result,
        seed=seed,
    )
    cert.wall_time = time.perf_counter() - t0
    return cert


_SAMPLE_RATE, _SAMPLE_CAP = 0.01, 10_000


def verify_certificate(cert: Certificate) -> bool:
    """Re-evaluate a certificate. A counterexample is checked exactly: its
    witness must be the instance at index ``instances_checked - 1``, rebuilt
    through ``nth``, with the same generators, roles and values, and that
    instance is recoloured. An avoidance claim is re-checked on a sample:
    ``instances_checked`` must be the family's count, and a 1% sample of the
    rows, at most 10,000, drawn by ``random.Random(cert.seed)``, is read
    through ``_row`` and recoloured; any monochromatic row rejects it.

    The family is rebuilt under the default element cap of 10^6, so a
    descriptor over it, such as that of a certificate made with ``--cap``
    above 10^6, is rejected."""
    try:
        colouring = parse_colouring(cert.colouring)
        family = family_from_descriptor(cert.family)
    except (ParseError, ValueError, BudgetError):
        return False
    result, budget = cert.result, _Budget(None)
    if result.get("type") == "Counterexample":
        i = cert.instances_checked
        wit = result.get("witness")
        if (type(i) is not int or not 1 <= i <= family.count()
                or not isinstance(wit, dict)):
            return False
        inst = family.nth(i - 1)
        elements = wit.get("elements")
        if (wit.get("generators") != list(inst.generators)
                or not isinstance(elements, list)
                or len(elements) != len(inst.values)):
            return False
        try:
            for el, role, v in zip(elements, inst.roles, inst.values):
                if el.get("role") != role or not equal_value(parse_term(el["value"]), v):
                    return False
            mono = next(_mono_rows(colouring, [(inst.values, ())], budget), None)
        except Exception:
            return False
        return mono is not None and mono[1] == wit.get("colour")
    if result.get("type") == "AvoidanceVerified":
        total = family.count()
        if cert.instances_checked != total:
            return False
        if total == 0:
            return True
        n = min(_SAMPLE_CAP, max(1, int(total * _SAMPLE_RATE)))
        rng = random.Random(cert.seed)
        rows = map(family._scan_row, sorted(rng.sample(range(total), min(n, total))))
        return next(_mono_rows(colouring, rows, budget), None) is None
    return False


# ---------------------------------------------------------------------------
# Ramsey-number computation

@dataclass
class RamseyComputation(_Record):
    kind: str
    k: int
    params: dict
    value: Optional[int]
    n_max: int
    witness: Optional[dict]
    methods_agree: Optional[bool]
    seed: int
    schema: int = SCHEMA_VERSION
    wall_time: float = field(default=0.0, compare=False)

    @property
    def exceeds_budget(self) -> bool:
        return self.value is None


_TRIPLE_CAP = 2 * 10**6


def _exp_triples_upto(n: int, cap: Optional[int] = None) -> List[Tuple[int, int, int]]:
    """All (a, b, a^b) with a, b >= 2 and a^b <= n, capped as in _exp_pairs."""
    return [(a, b, p) for p, a, b in _exp_pairs(n, cap=cap)]


def _backtrack_colouring(values: List[int],
                         constraints: List[Tuple[int, ...]],
                         k: int, node_cap: int = 20_000_000,
                         *, alternate: bool = False
                         ) -> Optional[Dict[int, int]]:
    """Colouring with no constraint set monochromatic, or None if impossible.

    Backtracking with not-all-equal propagation to a fixpoint: a constraint
    with all but one member placed in one colour forbids that colour to the
    last member, a member left with one colour takes it at once (which may
    force others), and an empty domain or a monochromatic constraint fails
    the branch. Values are branched in degree order (the smallest value
    first), so contradictions surface among the dense values near the root.
    Colour classes open in first-use order, so the first value takes colour
    1; a forced colour beyond that order fails the branch. Propagation drops
    only colours no solution extending the partial assignment can take, so
    solutions come in the order of plain branching: the first is the same.

    ``alternate`` is a second, independent order for cross-checking a
    refutation: descending degree, ties to the largest value, no value
    pinned to the root. The search runs on an explicit stack.
    """
    m = len(values)
    if m == 0:
        return {}
    index = {v: i for i, v in enumerate(values)}
    cons = {frozenset([index[v] for v in c]) for c in constraints}
    if any(len(pos) == 1 for pos in cons):
        return None
    degree = [0] * m
    # constraint ci owns slots b = ci*(k+1) .. b+k of `state`: state[b] sums
    # p+1 over its members not yet placed (the last one is read off it) and
    # state[b+c] counts those placed in colour c; need[b] is its size less 1
    k1, full = k + 1, (1 << k) - 1
    state, need = [0] * (len(cons) * k1), [0] * (len(cons) * k1)
    by_pos: List[List[int]] = [[] for _ in range(m)]
    for b, pos in zip(range(0, len(state), k1), cons):
        state[b], need[b] = sum(pos) + len(pos), len(pos) - 1
        for p in pos:
            degree[p] += 1
            by_pos[p].append(b)
    if alternate:
        order = sorted(range(m), key=lambda p: (-degree[p], -p))
    else:
        order = sorted(range(m), key=lambda p: (p != 0, -degree[p], p))
    forbid, assign = [0] * m, [0] * m  # forbid: bit c-1 set = c impossible
    # every position assigned (p >= 0) and colour forbidden (~(q*(k+1) + c)),
    # in order; the positions not yet placed are the propagation queue
    trail: List[int] = []

    def place(p: int, c: int) -> bool:
        """Assign c at p and propagate; on a dead end undo all, return False."""
        mark = i = len(trail)
        assign[p], ok = c, True
        trail.append(p)
        while i < len(trail):
            p, i = trail[i], i + 1
            if p < 0:
                continue
            c, p1 = assign[p], p + 1
            for b in by_pos[p]:
                state[b] -= p1
                n = state[b + c] = state[b + c] + 1
                if n < need[b] or not ok:
                    continue
                q = state[b] - 1
                if n > need[b] or (q >= 0 and assign[q] == c):
                    ok = False
                elif q >= 0 and not assign[q] and not forbid[q] >> (c - 1) & 1:
                    f = forbid[q] = forbid[q] | 1 << (c - 1)
                    trail.append(~(q * k1 + c))
                    left = full ^ f
                    if not left:
                        ok = False
                    elif not left & (left - 1):
                        assign[q] = left.bit_length()
                        trail.append(q)
            if not ok:  # the positions queued after p were never counted
                for e in trail[i:]:
                    if e >= 0:
                        assign[e] = 0
                trail[i:] = [e for e in trail[i:] if e < 0]
                undo(mark)
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            if e < 0:
                q, c = divmod(~e, k1)
                forbid[q] ^= 1 << (c - 1)
                continue
            c, p1, assign[e] = assign[e], e + 1, 0
            for b in by_pos[e]:
                state[b] += p1
                state[b + c] -= 1

    # Depth-first search over `order`. Depth r holds the colour last tried at
    # order[r] (0 on entering, which counts one node; k+1 once forced), the
    # trail length on entering and the colour classes used above it.
    tried, marks, used = [0] * m, [0] * m, [0] * (m + 1)
    nodes, r = 0, 0
    while True:
        p, u, c = order[r], used[r], tried[r]
        if c == 0:
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceeded("colouring search exceeded the node budget")
            marks[r] = len(trail)
        if c == 0 and assign[p]:  # forced: one colour, if first-use allows it
            c, top, tried[r] = assign[p], u + 1, k1
        else:
            top, f = min(k, u + 1), forbid[p]
            c += 1
            while c <= top and (f >> (c - 1) & 1 or not place(p, c)):
                c += 1
            tried[r] = c
        if c <= top:
            used[r + 1] = c if c > u else u
            r += 1
            if r == m:
                return dict(zip(values, assign))
            tried[r] = 0
        elif r == 0:
            return None
        else:
            r -= 1
            undo(marks[r])


def _colouring_is_free(colours: List[int],
                       constraints: List[Tuple[int, ...]]) -> bool:
    """No constraint is monochromatic under ``colours`` (v's at v - 1)."""
    return all(len({colours[v - 1] for v in cons}) > 1 for cons in constraints)


def _methods_agree(colours: List[int], cons_below: List[Tuple[int, ...]],
                   values_at: List[int], cons_at: List[Tuple[int, ...]],
                   k: int) -> bool:
    """Two exact checks of a threshold: the witness colouring of [value-1]
    leaves no constraint monochromatic, and the alternate order refutes the
    constraints at value. A second solve out of nodes has not agreed."""
    if not _colouring_is_free(colours, cons_below):
        return False
    try:
        return _backtrack_colouring(values_at, cons_at, k, alternate=True) is None
    except BudgetExceeded:
        return False


def _threshold(kind: str, k: int, params: dict, n_max: int, seed: int,
               t0: float, value: Optional[int],
               assign: Optional[Dict[int, int]], problem: Callable
               ) -> RamseyComputation:
    """The record of a threshold search begun at ``t0``: ``value`` is the
    least n whose ``problem(n)`` (values, constraints) has no k-colouring,
    or None past ``n_max``. The witness colours [value - 1] by ``assign``,
    values it leaves out in colour 1; ``_methods_agree`` re-checks it."""
    witness, agree = None, None
    if value is not None:
        colours = [1] * (value - 1)
        for v, c in (assign or {}).items():
            colours[v - 1] = c
        agree = _methods_agree(colours, problem(value - 1)[1], *problem(value), k)
        witness = {"n": value - 1, "colours": colours}
    comp = RamseyComputation(
        kind=kind, k=k, params=params, value=value, n_max=n_max,
        witness=witness, methods_agree=agree, seed=seed,
    )
    comp.wall_time = time.perf_counter() - t0
    return comp


def exp_ramsey_number(k: int, n_max: int = 10**5, *, seed: int = 0) -> RamseyComputation:
    """Least N such that every k-colouring of [N] has a monochromatic
    {a, b, a^b}. Ceilings that climb to ``n_max``, each the integer square
    root of the one above it and the least below 16, are solved in turn; a
    colouring at ``n_max`` means value None, and otherwise a binary search
    over the candidate power values between the last solvable ceiling and
    the first unsolvable one finds the least unsolvable one. Only the
    triples up to that ceiling are listed, and each probe's triples are a
    prefix of them.
    The witness colouring of [N-1] is re-checked and a second branching
    order must refute [N] for ``methods_agree``. ``seed`` is recorded only.

    The ceiling below the first unsolvable one is below the answer, so the
    triples listed lie below the answer's square: below 16 for k = 1 and
    below 2^32 for k = 2. More than ``_TRIPLE_CAP`` triples up to ``n_max``,
    at an ``n_max`` above about 3.9 * 10^12, raise BudgetExceeded before
    any is listed."""
    if k < 1 or n_max < 1:
        raise ValueError(f"need k >= 1 and n_max >= 1, got k={k}, n_max={n_max}")
    t0 = time.perf_counter()
    _exp_tops(n_max, _TRIPLE_CAP)
    triples: List[Tuple[int, int, int]] = []
    powers: List[int] = []

    def problem(n: int) -> Tuple[List[int], List[Tuple[int, ...]]]:
        cut = triples[:bisect.bisect_right(powers, n)]
        return sorted({v for t in cut for v in t}), cut

    def unsolvable(n: int) -> bool:
        return _backtrack_colouring(*problem(n), k) is None

    # unsolvability is monotone in N: a valid colouring of [N] restricts to
    # any smaller range. A ceiling costs about the square root of the next
    # one up, so the climb costs little more than its last solve.
    ceilings = [n_max]
    while ceilings[-1] >= 16:
        ceilings.append(math.isqrt(ceilings[-1]))
    value, solved = None, 0
    for ceiling in reversed(ceilings):
        triples = _exp_triples_upto(ceiling)
        powers = [p for _, _, p in triples]
        if unsolvable(ceiling):
            candidates = sorted({p for p in powers if p > solved})
            value = candidates[bisect.bisect_left(
                candidates, True, hi=len(candidates) - 1, key=unsolvable)]
            break
        solved = ceiling
    assign = None if value is None else _backtrack_colouring(*problem(value - 1), k)
    return _threshold("exptriple", k, {}, n_max, seed, t0, value, assign, problem)


def _ap_constraints(n: int, length: int) -> List[Tuple[int, ...]]:
    out = []
    for d in range(1, (n - 1) // max(1, length - 1) + 1):
        for s in range(1, n - (length - 1) * d + 1):
            out.append(tuple(s + i * d for i in range(length)))
    return out


def vdw_number(k: int, length: int, n_max: int = 64, *, seed: int = 0) -> RamseyComputation:
    """Exact van der Waerden number W_k(length): one backtracking solve per
    n from ``length`` up, stopping at the first unsatisfiable n. The witness
    colouring of [W-1] is re-checked and a second branching order must
    refute [W] for ``methods_agree``. ``seed`` is recorded only."""
    if k < 1 or length < 2 or n_max < 1:
        raise ValueError("need k >= 1, progression length >= 2 and n_max >= 1")
    t0 = time.perf_counter()

    def problem(n: int) -> Tuple[List[int], List[Tuple[int, ...]]]:
        return list(range(1, n + 1)), _ap_constraints(n, length)

    value, assign = None, None
    for n in range(length, n_max + 1):
        found = _backtrack_colouring(*problem(n), k)
        if found is None:
            value = n
            break
        assign = found
    return _threshold("vdw", k, {"len": length}, n_max, seed, t0, value,
                      assign, problem)


def export_dimacs(values: Sequence[int], constraints: Sequence[Tuple[int, ...]],
                  k: int) -> str:
    """CNF encoding of the no-monochromatic-constraint colouring problem.

    Variable (v, c) is x[v][c] = index(v)*k + c; clauses force exactly one
    colour per value and forbid each constraint set from being single-
    coloured.
    """
    index = {v: i for i, v in enumerate(values)}

    def var(v: int, c: int) -> int:
        return index[v] * k + c

    clauses: List[List[int]] = []
    for v in values:
        clauses.append([var(v, c) for c in range(1, k + 1)])
        for c1 in range(1, k + 1):
            for c2 in range(c1 + 1, k + 1):
                clauses.append([-var(v, c1), -var(v, c2)])
    for cons in constraints:
        distinct = sorted(set(cons))
        if len(distinct) < 2:
            continue
        for c in range(1, k + 1):
            clauses.append([-var(v, c) for v in distinct])
    lines = [f"p cnf {len(values) * k} {len(clauses)}"]
    for cl in clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# grids and ordered unions

def find_monochromatic_grid(colouring: Callable, n: int, length: int,
                            bound: int, *, cap: int = 10**6
                            ) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Corner s and difference d with the colouring constant on
    s + d*[0, length]^n inside [1, bound]^n, or None.

    For n = 1 this is progression search; the colouring is called on ints.
    For n >= 2 the colouring is called on point tuples.
    """
    if bound**n > cap:
        raise BudgetExceeded(f"{bound}^{n} grid points exceed the cap {cap}")

    def colour_at(pt: Tuple[int, ...]) -> int:
        return colouring(pt[0]) if n == 1 else colouring(pt)

    offsets = list(itertools.product(range(length + 1), repeat=n))
    for d in range(1, (bound - 1) // length + 1):
        top = bound - length * d
        for s in itertools.product(range(1, top + 1), repeat=n):
            c0 = colour_at(tuple(s[i] + d * offsets[0][i] for i in range(n)))
            if all(
                colour_at(tuple(s[i] + d * off[i] for i in range(n))) == c0
                for off in offsets[1:]
            ):
                return (tuple(s), d)
    return None


def ordered_fu_search(colouring: Callable, m: int, n: int
                      ) -> Optional[List[Tuple[int, ...]]]:
    """Ordered blocks A_1 < ... < A_m of [1, n] with every nonempty union of
    blocks the same colour, or None. The colouring is called on bitmasks
    (bit i-1 set means element i is in the set).
    """
    if n > 20:
        raise BudgetExceeded("ordered union search is capped at n = 20")
    if m < 1:
        raise ValueError("need at least one block")
    masks_by_min: List[List[int]] = [[] for _ in range(n + 2)]
    for mask in range(1, 1 << n):
        masks_by_min[(mask & -mask).bit_length()].append(mask)

    def unions_ok(blocks: List[int], target: int) -> bool:
        # every union involving the newly added block must match
        new = blocks[-1]
        rest = blocks[:-1]
        for bits in range(1 << len(rest)):
            u = new
            for i in range(len(rest)):
                if bits >> i & 1:
                    u |= rest[i]
            if colouring(u) != target:
                return False
        return True

    def extend(blocks: List[int], target: int) -> Optional[List[int]]:
        if len(blocks) == m:
            return blocks
        start = blocks[-1].bit_length() + 1 if blocks else 1
        for lo in range(start, n + 1):
            for mask in masks_by_min[lo]:
                blocks.append(mask)
                if unions_ok(blocks, target):
                    got = extend(blocks, target)
                    if got is not None:
                        return got
                blocks.pop()
        return None

    for first_min in range(1, n + 1):
        for mask in masks_by_min[first_min]:
            got = extend([mask], colouring(mask))
            if got is not None:
                return [
                    tuple(i + 1 for i in range(n) if b >> i & 1) for b in got
                ]
    return None
