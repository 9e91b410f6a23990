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
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ._arith import iroot
from ._spec import BOOL, INT, STR, Param, ParamType, read_spec, write_spec
from .colourings import Colouring, LogStarColouring, parse_colouring, parse_seq
from .errors import BudgetError, BudgetExceeded, ParseError
from .patterns import (
    ShapeRelation, WeightFn, fep_caps, fep_row, parse_edges, shape_row,
)
# not called here: bench/spans.py traces fep and shape_pattern through these
# bindings, and the families build their rows from the same pieces
from .patterns import fep, shape_pattern  # noqa: F401
from .tower import (
    ExpTerm,
    as_term,
    compare_iter_log,
    dedup_key,
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

    def distinct_values(self) -> List[Value]:
        seen, out = set(), []
        for v in self.values:
            key = v if isinstance(v, int) else dedup_key(v)
            if key not in seen:
                seen.add(key)
                out.append(v)
        return out

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
    the same order. ``instances()`` and ``nth`` add the role labels; scans
    read rows and build an Instance only for a witness.

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


class ExpQuadrupleFamily(InstanceFamily):
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
    def _values(a: int, b: int) -> Tuple[Value, ...]:
        return (a, b, _materialize(a, b), _materialize(b, a))

    def rows(self) -> Iterator[Row]:
        for b in range(2, self.bound + 1):
            for a in range(2, b + 1):
                yield self._values(a, b), (a, b)

    def _row(self, i: int) -> Row:
        # b(b-1)/2 pairs have second coordinate <= b; take the least b
        # with more than i of them
        b = (1 + math.isqrt(8 * i + 1)) // 2 + 1
        a = 2 + i - (b - 1) * (b - 2) // 2
        return self._values(a, b), (a, b)


def _schur_upto(s: int) -> int:
    """Number of Schur triples with sum <= s."""
    return max(0, s) ** 2 // 4


class SchurFamily(InstanceFamily):
    """Instances {x, y, x+y} with x <= y and x + y <= bound."""

    kind = "schur"
    roles = ("x", "y", "x+y")

    def __init__(self, bound: int):
        self.bound = bound

    def count(self) -> int:
        return _schur_upto(self.bound)

    def rows(self) -> Iterator[Row]:
        for s in range(2, self.bound + 1):
            for y in range((s + 1) // 2, s):
                yield (s - y, y, s), (s - y, y)

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
        # distinct power up to the next; per such segment, the number of
        # joint instances with max element at most its end.
        self._starts = sorted(set(self._powers))
        ends = [q - 1 for q in self._starts[1:]] + [bound]
        self._ends = [_schur_upto(m) * self._exp_upto(m) for m in ends]

    def count(self) -> int:
        return self.schur.count() * self.exp.count()

    def _exp_upto(self, m: int) -> int:
        return bisect.bisect_right(self._powers, m)

    def _max_element(self, i: int) -> int:
        """Max element m of the joint instance at index i: the least m
        with more than i instances of max element <= m."""
        q = self._starts[bisect.bisect_right(self._ends, i)]
        # within the segment the power count e is fixed, so m is the least
        # with more than i // e sum triples of sum <= m
        return max(q, math.isqrt(4 * (i // self._exp_upto(q)) + 3) + 1)

    def rows(self) -> Iterator[Row]:
        exps = list(self.exp.rows())
        for m in range(2, self.bound + 1):
            lo, hi = self._exp_upto(m - 1), self._exp_upto(m)
            s_lt = _schur_upto(m - 1)
            for si in range(0 if hi > lo else s_lt, _schur_upto(m)):
                sv, sg = self.schur._row(si)
                for ev, eg in exps[lo:hi] if si < s_lt else exps[:hi]:
                    yield sv + ev, sg + eg

    def _blocks(self, m: int) -> Tuple[int, int, int, int, int]:
        """(instances before m, sum triples below m, first power triple of
        power m, power triples of power m, power triples of power <= m)."""
        s_lt = _schur_upto(m - 1)
        e_lt, e_le = self._exp_upto(m - 1), self._exp_upto(m)
        return s_lt * e_lt, s_lt, e_lt, e_le - e_lt, e_le

    def _row(self, i: int) -> Row:
        before, s_lt, e_lt, e_eq, e_le = self._blocks(self._max_element(i))
        j = i - before
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
        before, s_lt, e_lt, e_eq, e_le = self._blocks(m)
        if s < m:
            return before + si * e_eq + ei - e_lt
        return before + s_lt * e_eq + (si - s_lt) * e_le + ei


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


class _TupleFamily(InstanceFamily):
    """Pattern instances over every generator tuple in [2, bound]^m, ordered
    by (max generator, generator tuple); ``_elements`` gives the pattern's
    elements on one tuple."""

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

    def _elements(self, xs: Tuple[int, ...]) -> Tuple[Value, ...]:
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        for M in range(2, self.bound + 1):
            for xs in _tuples_with_max(M, self.m):
                yield self._elements(xs), xs

    def _row(self, i: int) -> Row:
        xs = _nth_tuple(i, self.m)
        return self._elements(xs), xs


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
        diffs = []
        for n in range(parsed.start, nmax + 1):
            v = parsed.exact(n)
            if v is None:
                raise ParseError(
                    f"difference-pair family needs an integer sequence, "
                    f"not {parsed.name}"
                )
            if v < bound:
                diffs.append((n, v))
        # descending difference = ascending x for a fixed larger element
        self._diffs = sorted(diffs, key=lambda t: -t[1])

    def _upto(self, m: int) -> int:
        """Number of pairs with larger element <= m."""
        return sum(m - v for _, v in self._diffs if v < m)

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
        m = _first_above(self._upto, i, 2, self.bound)
        # the differences below m form a suffix of the descending list
        fits = [t for t in self._diffs if t[1] < m]
        n, v = fits[i - self._upto(m - 1)]
        return (m - v, m), (n, m - v)


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

@dataclass
class Certificate:
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

    def to_json_obj(self) -> dict:
        # wall_time deliberately excluded: replays must be byte-identical
        return {
            "schema": self.schema,
            "family": self.family,
            "colouring": self.colouring,
            "bound": self.bound,
            "instances_checked": self.instances_checked,
            "result": self.result,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":")) + "\n"

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


def _instance_colour(colouring: Colouring, inst: Instance) -> Optional[int]:
    """The common colour when the instance is monochromatic, else None."""
    c = None
    for v in inst.distinct_values():
        cv = colouring(v)
        if c is None:
            c = cv
        elif cv != c:
            return None
    return c


def _walk(colouring: Colouring, family: InstanceFamily, budget: _Budget,
          offset: int = 0, step: int = 1) -> Tuple[Optional[int], Optional[dict]]:
    """First monochromatic row among the indices offset, offset + step, ...
    as (index, witness), or (None, None).

    Each distinct value is coloured once per walk, through a local cache,
    and an Instance is built only for the witness.
    """
    cache: Dict[Value, int] = {}
    get = cache.get
    rows = itertools.islice(family.rows(), offset, None, step)
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


def _find_mono_schurplusexp(colouring: Colouring, family: SchurPlusExpFamily,
                            budget: _Budget) -> Tuple[Optional[int], Optional[dict]]:
    """Class decomposition: an instance is monochromatic exactly when one
    colour class contains both a full sum triple and a full power triple.
    Avoidance never touches the quadratic-size product enumeration; when a
    class has both, the first joint instance in enumeration order combines
    that class's first monochromatic sum triple and power triple.
    """
    bound = family.bound
    exp_mono: Dict[int, int] = {}
    for i, inst in enumerate(family.exp.instances()):
        c = _instance_colour(colouring, inst)
        if c is not None and c not in exp_mono:
            exp_mono[c] = i
    if not exp_mono:
        return None, None
    budget.check()
    carr = [0] * (bound + 1)
    for v in range(1, bound + 1):
        carr[v] = colouring(v)
    best = None  # (index, colour) of the earliest joint instance
    for klass, ei in exp_mono.items():
        budget.check()
        vals = [v for v in range(1, bound + 1) if carr[v] == klass]
        smin: Optional[Tuple[int, int, int]] = None
        for ix, x in enumerate(vals):
            # for fixed x the first valid y minimizes (sum, y); candidates
            # with equal sums still need comparing since y falls as x rises
            for y in vals[ix:]:
                s = x + y
                if s > bound:
                    break
                if carr[s] == klass:
                    cand = (s, y, x)
                    if smin is None or cand < smin:
                        smin = cand
                    break
        if smin is None:
            continue
        s, y, x = smin
        cand = (family.index(SchurFamily.index(x, y), ei), klass)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None, None
    idx, klass = best
    return idx, family.nth(idx).witness_json(klass)


def find_monochromatic(colouring: Union[Colouring, str],
                       family: Union[InstanceFamily, str],
                       bound: Optional[int] = None, *,
                       seed: int = 0,
                       threads: int = 1,
                       budget_secs: Optional[float] = None,
                       cap: int = 10**6) -> Certificate:
    """First monochromatic instance in enumeration order, or avoidance.

    The result is a certificate; its wall_time attribute is measured but not
    serialized. With ``threads`` > 1 the walk runs in that many processes,
    each over the indices of one residue class.
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
        first_idx, witness = _find_mono_schurplusexp(colouring, family, budget)
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


def verify_certificate(cert: Certificate, *, sample_rate: float = 0.01,
                       sample_cap: int = 10000) -> bool:
    """Re-evaluate a certificate. A witness must be the instance at index
    ``instances_checked - 1``, rebuilt through ``nth``, and that instance is
    recoloured; avoidance claims are re-checked on a seeded random sample of
    indices, each instance found through ``nth``.

    The family is rebuilt under the default element cap of 10^6, so a
    descriptor over it, such as that of a certificate made with ``--cap``
    above 10^6, is rejected."""
    try:
        colouring = parse_colouring(cert.colouring)
        family = family_from_descriptor(cert.family)
    except (ParseError, ValueError, BudgetError):
        return False
    result = cert.result
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
            c = _instance_colour(colouring, inst)
        except Exception:
            return False
        return c is not None and c == wit.get("colour")
    if result.get("type") == "AvoidanceVerified":
        total = family.count()
        if cert.instances_checked != total:
            return False
        if total == 0:
            return True
        n = min(sample_cap, max(1, int(total * sample_rate)))
        rng = random.Random(cert.seed)
        for i in sorted(rng.sample(range(total), min(n, total))):
            if _instance_colour(colouring, family.nth(i)) is not None:
                return False
        return True
    return False


# ---------------------------------------------------------------------------
# Ramsey-number computation

@dataclass
class RamseyComputation:
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

    def to_json_obj(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "k": self.k,
            "params": self.params,
            "value": self.value,
            "n_max": self.n_max,
            "witness": self.witness,
            "methods_agree": self.methods_agree,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":")) + "\n"


def _exp_triples_upto(n: int) -> List[Tuple[int, int, int]]:
    """All (a, b, a^b) with a, b >= 2 and a^b <= n."""
    return [(a, b, p) for p, a, b in _exp_pairs(n)]


def _backtrack_colouring(values: List[int],
                         constraints: List[Tuple[int, ...]],
                         k: int, node_cap: int = 20_000_000,
                         *, alternate: bool = False
                         ) -> Optional[Dict[int, int]]:
    """Colouring with no constraint set monochromatic, or None if impossible.

    Backtracking with not-all-equal propagation: once a constraint has all
    but one member assigned a single colour, that colour is forbidden for
    the remaining member, and an empty domain fails the branch immediately.
    Values are branched in degree order (the smallest value first) so that
    contradictions surface among the constraint-dense values near the root
    instead of being rediscovered under every assignment of the sparse ones.
    Colour classes are introduced in first-use order, which fixes the first
    value's colour to 1 and prunes colour permutations.

    ``alternate`` selects a second, independent branching order for
    cross-checking a refutation: descending degree with ties broken by the
    largest value first, and no value pinned to the root. The search runs on
    an explicit stack, so its depth is not bounded by the recursion limit.
    """
    m = len(values)
    if m == 0:
        return {}
    index = {v: i for i, v in enumerate(values)}
    cons: List[Tuple[int, ...]] = []
    for c in constraints:
        pos = tuple(sorted({index[v] for v in c}))
        if len(pos) == 1:
            return None
        cons.append(pos)
    cons = sorted(set(cons))
    degree = [0] * m
    for pos in cons:
        for p in pos:
            degree[p] += 1
    if alternate:
        order = sorted(range(m), key=lambda p: (-degree[p], -p))
    else:
        order = sorted(range(m), key=lambda p: (p != 0, -degree[p], p))
    by_pos: List[List[int]] = [[] for _ in range(m)]
    for ci, pos in enumerate(cons):
        for p in pos:
            by_pos[p].append(ci)

    cnt = [0] * len(cons)
    common = [0] * len(cons)  # 0 unset, -1 mixed, else the single colour
    forbid = [0] * m  # bitmask, bit c-1 set = colour c impossible
    assign = [0] * m
    full = (1 << k) - 1

    def place(p: int, c: int):
        """Apply bookkeeping for assigning colour c at p; returns the undo
        trail, or None after rolling back on a detected dead end."""
        trail = []
        for ci in by_pos[p]:
            trail.append((0, ci, cnt[ci], common[ci]))
            cnt[ci] += 1
            if common[ci] == 0:
                common[ci] = c
            elif common[ci] != -1 and common[ci] != c:
                common[ci] = -1
            if common[ci] == -1:
                continue
            pos = cons[ci]
            if cnt[ci] == len(pos):
                undo(trail)
                return None
            if cnt[ci] == len(pos) - 1:
                q = next(q for q in pos if assign[q] == 0)
                trail.append((1, q, forbid[q], 0))
                forbid[q] |= 1 << (c - 1)
                if forbid[q] == full:
                    undo(trail)
                    return None
        return trail

    def undo(trail) -> None:
        for kind, i, a, b in reversed(trail):
            if kind == 0:
                cnt[i], common[i] = a, b
            else:
                forbid[i] = a

    # Depth-first search over the positions in `order`. Depth r holds the
    # colour last tried at order[r] (0 on entering the depth, which counts
    # one node), the undo trail of the colour in place, and the number of
    # colour classes used at the depths above it.
    tried = [0] * m
    trails: List[list] = [[]] * m
    used = [0] * (m + 1)
    nodes, r = 0, 0
    while True:
        p = order[r]
        if tried[r] == 0:
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceeded("colouring search exceeded the node budget")
        c = tried[r] + 1
        top = min(k, used[r] + 1)
        trail = None
        while c <= top:
            if not forbid[p] >> (c - 1) & 1:
                assign[p] = c
                trail = place(p, c)
                if trail is not None:
                    break
                assign[p] = 0
            c += 1
        if trail is not None:
            tried[r], trails[r] = c, trail
            used[r + 1] = max(used[r], c)
            r += 1
            if r == m:
                return {v: assign[index[v]] for v in values}
            tried[r] = 0
            continue
        if r == 0:
            return None
        r -= 1
        undo(trails[r])
        assign[order[r]] = 0


def _witness_array(n: int, assign: Dict[int, int]) -> List[int]:
    return [assign.get(v, 1) for v in range(1, n + 1)]


def _colouring_is_free(colours: List[int],
                       constraints: List[Tuple[int, ...]]) -> bool:
    """No constraint is monochromatic under ``colours``, the colouring of
    [1..len(colours)] with value v at index v - 1."""
    for cons in constraints:
        cs = {colours[v - 1] for v in cons}
        if len(cs) == 1:
            return False
    return True


def _methods_agree(colours: List[int], cons_below: List[Tuple[int, ...]],
                   values_at: List[int], cons_at: List[Tuple[int, ...]],
                   k: int) -> bool:
    """Two exact checks of a threshold: the witness colouring of [value-1]
    leaves no constraint monochromatic, and the alternate branching order
    refutes the constraints at value. A second solve that runs out of nodes
    has not agreed."""
    if not _colouring_is_free(colours, cons_below):
        return False
    try:
        return _backtrack_colouring(values_at, cons_at, k, alternate=True) is None
    except BudgetExceeded:
        return False


def _exp_problem(n: int) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """The values and {a, b, a^b} constraints of the exponential problem on [n]."""
    triples = _exp_triples_upto(n)
    return sorted({v for t in triples for v in t}), triples


def exp_ramsey_number(k: int, n_max: int = 10**5, *, seed: int = 0) -> RamseyComputation:
    """Least N such that every k-colouring of [N] has a monochromatic
    {a, b, a^b}; binary search over candidate power values. The witness
    colouring of [N-1] is re-checked and a second branching order must
    refute [N] for ``methods_agree``. ``seed`` is recorded only."""
    if k < 1:
        raise ValueError("need at least one colour")
    t0 = time.perf_counter()
    candidates = sorted({p for p, _, _ in _exp_pairs(n_max)})

    def sat_at(n: int) -> Optional[Dict[int, int]]:
        return _backtrack_colouring(*_exp_problem(n), k)

    # unsolvability is monotone in N: a valid colouring of [N] restricts to
    # any smaller range, so binary-search the first unsatisfiable candidate
    lo, hi, first_unsat = 0, len(candidates) - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        if sat_at(candidates[mid]) is None:
            first_unsat = mid
            hi = mid - 1
        else:
            lo = mid + 1
    if first_unsat is None:
        comp = RamseyComputation(
            kind="exptriple", k=k, params={}, value=None, n_max=n_max,
            witness=None, methods_agree=None, seed=seed,
        )
        comp.wall_time = time.perf_counter() - t0
        return comp
    value = candidates[first_unsat]
    below = value - 1
    colours = _witness_array(below, sat_at(below) or {})
    agree = _methods_agree(colours, _exp_triples_upto(below),
                           *_exp_problem(value), k)
    comp = RamseyComputation(
        kind="exptriple", k=k, params={}, value=value, n_max=n_max,
        witness={"n": below, "colours": colours}, methods_agree=agree,
        seed=seed,
    )
    comp.wall_time = time.perf_counter() - t0
    return comp


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
    if k < 1 or length < 2:
        raise ValueError("need k >= 1 and progression length >= 2")
    t0 = time.perf_counter()
    value, assign_below = None, None
    prev_assign: Optional[Dict[int, int]] = None
    for n in range(length, n_max + 1):
        assign = _backtrack_colouring(
            list(range(1, n + 1)), _ap_constraints(n, length), k)
        if assign is None:
            value = n
            assign_below = prev_assign
            break
        prev_assign = assign
    if value is None:
        comp = RamseyComputation(
            kind="vdw", k=k, params={"len": length}, value=None, n_max=n_max,
            witness=None, methods_agree=None, seed=seed,
        )
        comp.wall_time = time.perf_counter() - t0
        return comp
    below = value - 1
    colours = _witness_array(below, assign_below or {})
    agree = _methods_agree(colours, _ap_constraints(below, length),
                           list(range(1, value + 1)),
                           _ap_constraints(value, length), k)
    comp = RamseyComputation(
        kind="vdw", k=k, params={"len": length}, value=value, n_max=n_max,
        witness={"n": below, "colours": colours}, methods_agree=agree,
        seed=seed,
    )
    comp.wall_time = time.perf_counter() - t0
    return comp


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
