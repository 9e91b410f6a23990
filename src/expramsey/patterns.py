"""Pattern families over tower terms.

Generators for subset-sum, subset-product, exponential, weighted-product,
exponential-product, and shape patterns, plus the directed-cycle decision on
shape relations. Every generator returns a PatternSet: a deduplicated,
deterministically ordered collection of terms, each with a provenance record
that reconstructs how it was built.

Deduplication follows the term module's convention: exact value below the
cutoff, canonical structure above it.

The shape and fep recipes are written once, as lazy candidate generators
over pieces kept in bounded lru caches: a shape edge's power, fep's candidate
recipes per exponent caps and its factors. ``shape_row``/``fep_row``
deduplicate them; ``shape_values``/``fep_values`` hand them to scans.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._spec import _Struct
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    ExactnessRequired,
    ParseError,
    SymbolicUnsupported,
    WeightUndefined,
)
from .tower import (
    ExpTerm,
    Literal,
    as_term,
    dedup_key,
    power,
    product,
    to_text,
)

DEFAULT_ELEMENT_CAP = 10**6


def _as_terms(xs) -> Tuple[ExpTerm, ...]:
    return tuple(as_term(x) for x in xs)


def _require_gt1(xs: Sequence[ExpTerm], family: str) -> None:
    # huge symbolic terms are certainly > 1; only exact values can fail
    for x in xs:
        if x.exact is not None and x.exact <= 1:
            raise ValueError(f"{family} generators must all exceed 1, got {to_text(x)}")


class PatternSet(_Struct):
    __slots__ = _fields = ("family", "generators", "elements", "provenance")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def exact_values(self) -> set:
        """Values of the exactly evaluable elements."""
        return {e.exact for e in self.elements if e.exact is not None}

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "generators": [to_text(g) for g in self.generators],
            "elements": [to_text(e) for e in self.elements],
            "provenance": list(self.provenance),
        }


class _Builder:
    """Accumulates elements, keeping the first provenance per distinct value."""

    def __init__(self, family: str, generators: Tuple[ExpTerm, ...]):
        self.family = family
        self.generators = generators
        self.seen: dict = {}
        self.elements: List[ExpTerm] = []
        self.provenance: List[dict] = []

    def add(self, t: ExpTerm, prov: dict) -> None:
        key = dedup_key(t)
        if key in self.seen:
            return
        self.seen[key] = len(self.elements)
        self.elements.append(t)
        self.provenance.append(prov)

    def done(self) -> PatternSet:
        return PatternSet(
            self.family, self.generators, tuple(self.elements), tuple(self.provenance)
        )


def _check_candidates(family: str, n: int, cap: int) -> None:
    """Refuse a generation of ``n`` candidates above ``cap`` before any is
    built."""
    if n > cap:
        raise BudgetExceeded(
            f"{family} generation has {n} candidates, over the element cap {cap}")


def _nonempty_subsets(m: int) -> Iterable[Tuple[int, ...]]:
    """Index subsets of range(m), by increasing size then lexicographically."""
    for size in range(1, m + 1):
        yield from itertools.combinations(range(m), size)


def finite_sums(xs, cap: int = DEFAULT_ELEMENT_CAP) -> PatternSet:
    """All nonempty-subset sums of literal generators; more than ``cap``
    subsets raise BudgetExceeded."""
    xs = _as_terms(xs)
    _check_candidates("fs", (1 << len(xs)) - 1, cap)
    for x in xs:
        if not isinstance(x, Literal):
            raise SymbolicUnsupported("subset sums of symbolic towers are not defined")
    b = _Builder("fs", xs)
    for idx in _nonempty_subsets(len(xs)):
        s = sum(xs[i].value for i in idx)
        b.add(Literal(s), {"indices": [i + 1 for i in idx]})
    return b.done()


def finite_products(xs, cap: int = DEFAULT_ELEMENT_CAP) -> PatternSet:
    """All nonempty-subset products; symbolic generators allowed. More than
    ``cap`` subsets raise BudgetExceeded."""
    xs = _as_terms(xs)
    _check_candidates("fp", (1 << len(xs)) - 1, cap)
    b = _Builder("fp", xs)
    for idx in _nonempty_subsets(len(xs)):
        t = product(*(xs[i] for i in idx))
        b.add(t, {"indices": [i + 1 for i in idx]})
    return b.done()


def finite_exponentials(xs, cap: int = DEFAULT_ELEMENT_CAP) -> PatternSet:
    """The order-respecting exponential compositions of the generators.

    Recursive structure: the block at index i consists of x_i raised to the
    product e_{i+1}*...*e_m, where each e_j is either omitted or drawn from
    the full suffix family starting at j; the block at m is x_m itself.
    The candidates of the blocks are counted before each block is built,
    and more than ``cap`` in all raise BudgetExceeded.
    """
    xs = _as_terms(xs)
    _require_gt1(xs, "fe")
    m = len(xs)
    # suffix[j] = all elements of the family over xs[j:], built bottom-up
    suffix: List[List[Tuple[ExpTerm, dict]]] = [[] for _ in range(m)]
    blocks: List[List[Tuple[ExpTerm, dict]]] = [[] for _ in range(m)]
    candidates = 0
    for i in range(m - 1, -1, -1):
        candidates += math.prod(1 + len(suffix[j]) for j in range(i + 1, m))
        _check_candidates("fe", candidates, cap)
        block: List[Tuple[ExpTerm, dict]] = []
        pools = []
        for j in range(i + 1, m):
            pools.append([None] + [e for e, _ in suffix[j]])
        for choice in itertools.product(*pools):
            picked = [e for e in choice if e is not None]
            exponent = product(*picked) if picked else Literal(1)
            t = power(xs[i], exponent)
            prov = {
                "i": i + 1,
                "exponents": [to_text(e) if e is not None else None for e in choice],
            }
            block.append((t, prov))
        blocks[i] = block
        suffix[i] = block + (suffix[i + 1] if i + 1 < m else [])
    b = _Builder("fe", xs)
    for i in range(m):
        for t, prov in blocks[i]:
            b.add(t, prov)
    return b.done()


# ---------------------------------------------------------------------------
# weight functions

def _set_key(values: Iterable[int]) -> str:
    return ",".join(str(v) for v in sorted(set(values)))


class WeightFn(_Struct):
    """Weight on finite sets of positive integers, or a constant.

    Table keys are frozensets of values. A monotone (normalized) table
    answers a query A with max{W(B) : B in table, B subset of A}, which is the
    closure used by the exponential-product family.
    """

    __slots__ = _fields = ("const", "table", "monotone")
    _defaults = {"const": None, "table": None, "monotone": False}

    @classmethod
    def constant(cls, k: int) -> "WeightFn":
        if k < 0:
            raise ValueError("weights must be non-negative")
        return cls(const=k)

    def lookup(self, values: FrozenSet[int]) -> int:
        if self.const is not None:
            return self.const
        assert self.table is not None
        values = frozenset(values)
        if not self.monotone:
            if values in self.table:
                return self.table[values]
            raise WeightUndefined(f"weight undefined on {{{_set_key(values)}}}")
        best = None
        for key, w in self.table.items():
            if key <= values and (best is None or w > best):
                best = w
        if best is None:
            raise WeightUndefined(f"weight undefined on {{{_set_key(values)}}}")
        return best

    def normalized(self) -> "WeightFn":
        if self.const is not None or self.monotone:
            return self
        return WeightFn(table=self.table, monotone=True)

    def to_json(self) -> dict:
        if self.const is not None:
            return {"const": self.const}
        assert self.table is not None
        return {"table": {_set_key(k): v for k, v in sorted(self.table.items(), key=lambda kv: _set_key(kv[0]))}}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightFn":
        if "const" in obj:
            return cls.constant(int(obj["const"]))
        table = {}
        for key, v in obj["table"].items():
            vals = frozenset(int(p) for p in key.split(",") if p != "")
            table[vals] = int(v)
        return cls(table=table)


@lru_cache(maxsize=1 << 16)
def _exact(x) -> int:
    """A generator's exact value, which weight lookups need."""
    v = as_term(x).exact
    if v is None:
        raise ExactnessRequired("weight lookups need exactly evaluable generators")
    return v


def weighted_products(S, W: WeightFn, xs, cap: int = DEFAULT_ELEMENT_CAP) -> PatternSet:
    """Products x_i^{p_i} over i in S with 0 <= p_i <= W(suffix values of i).

    Includes the empty product 1 (all exponents zero). S uses 1-based indices
    into xs. More than ``cap`` exponent tuples raise BudgetExceeded.
    """
    xs = _as_terms(xs)
    m = len(xs)
    S = sorted(set(S))
    for i in S:
        if not 1 <= i <= m:
            raise ValueError(f"index {i} outside [1, {m}]")
    caps = {i: W.lookup(frozenset(map(_exact, xs[i:]))) for i in S}
    _check_candidates("fpw", math.prod(caps[i] + 1 for i in S), cap)
    b = _Builder("fpw", xs)
    for ps in itertools.product(*(range(caps[i] + 1) for i in S)):
        factors = [power(xs[i - 1], p) for i, p in zip(S, ps) if p >= 1]
        t = product(*factors) if factors else Literal(1)
        b.add(t, {"exponents": {str(i): p for i, p in zip(S, ps)}})
    return b.done()


def fep_caps(W: WeightFn, xs) -> Tuple[int, ...]:
    """fep's exponent caps: W(values of x_{j+1}..x_m) for j = 1..m, with the
    weight normalized to be monotone first."""
    Wn = W.normalized()
    return tuple(Wn.lookup(frozenset(map(_exact, xs[j:]))) for j in range(1, len(xs) + 1))


@lru_cache(maxsize=1 << 16)
def _fep_factor(x, pairs: tuple) -> ExpTerm:
    """The factor x^e, for e the product of y^p over ``pairs`` ((y, p), ...)
    with p >= 1."""
    return power(x, product(*(power(y, p) for y, p in pairs)))


def _fep_candidates(caps: Tuple[int, ...], xs) -> Iterator[tuple]:
    """fep's candidates on xs with exponent caps ``caps``, built one at a
    time: (element, (B, exponent choice per base)). The nonempty base sets
    B (1-based) come by increasing size then lexicographically; each base i
    has the powers p_j over its free suffix (j > i outside B), as
    ((j, p_j), ...), and the choices of all bases run lexicographically,
    one product over their concatenated supports."""
    m = len(xs)
    for idx in _nonempty_subsets(m):
        B = tuple(i + 1 for i in idx)
        supports = [[j for j in range(i + 1, m + 1) if j not in B] for i in B]
        for ps in itertools.product(*(range(caps[j - 1] + 1)
                                      for support in supports for j in support)):
            it = iter(ps)  # each zip below takes its support's share of ps
            choice = tuple(tuple(zip(support, it)) for support in supports)
            terms = (_fep_factor(xs[i - 1], tuple((xs[j - 1], p) for j, p in exps if p))
                     for i, exps in zip(B, choice))
            yield product(*terms), (B, choice)


def fep_row(caps: Tuple[int, ...], xs, cap: int = DEFAULT_ELEMENT_CAP,
            check: Optional[Callable[[], None]] = None
            ) -> Tuple[Tuple[ExpTerm, ...], tuple]:
    """fep's deduplicated elements on generators xs (ints or terms, each
    > 1) with exponent caps ``caps``, and the recipe (B, exponent choice per
    base) of each. A new distinct element past the ``cap``-th raises
    BudgetExceeded. ``check``, a scan's budget, is called every 4,096
    candidates: the cap never stops a row whose candidates coincide."""
    first: dict = {}  # dedup key -> (element, recipe), in insertion order
    for n, (t, recipe) in enumerate(_fep_candidates(caps, xs)):
        if check is not None and n & 4095 == 0:
            check()
        key = dedup_key(t)
        if key not in first:
            if len(first) >= cap:
                raise BudgetExceeded(f"fep generation exceeded the element cap {cap}")
            first[key] = t, recipe
    return tuple(zip(*first.values())) if first else ((), ())


@lru_cache(maxsize=1 << 16)
def fep_candidate_count(caps: Tuple[int, ...]) -> int:
    """fep's candidates, repeats included, on len(caps) generators with
    exponent caps ``caps``, in O(m^2): with k bases among the indices below
    j, a free index j multiplies the choices by (caps[j-1] + 1)^k."""
    ways = [1]  # ways[k]: the choices over the indices so far with k bases
    for c in caps:
        free = [w * (c + 1) ** k for k, w in enumerate(ways)]
        ways = [a + b for a, b in zip(free + [0], [0] + ways)]
    return sum(ways[1:])


def fep_values(caps: Tuple[int, ...], xs, cap: int = DEFAULT_ELEMENT_CAP,
               check: Optional[Callable[[], None]] = None) -> Iterable:
    """fep's elements on xs, built when asked for: the generators as given,
    then the candidates of ``fep_row`` in order, repeats included. A row of
    more than ``cap`` candidates is built by ``fep_row`` with ``check``."""
    if fep_candidate_count(caps) > cap:
        return fep_row(caps, xs, cap, check)[0]
    return itertools.chain(xs, (t for t, _ in _fep_candidates(caps, xs)))


def fep(W: WeightFn, xs, cap: int = DEFAULT_ELEMENT_CAP) -> PatternSet:
    """Exponential-product family: products of x_i^{e_i} over nonempty bases B.

    Each exponent e_i is a weighted product supported on the indices above i
    that are outside B, with the weight normalized to be monotone first.
    Generation enumerates B by increasing size then lexicographically and
    exponent tuples lexicographically; the element cap guards blowup.
    """
    xs = _as_terms(xs)
    _require_gt1(xs, "fep")
    elements, recipes = fep_row(fep_caps(W, xs), xs, cap)
    provenance = tuple(
        {"B": list(B),
         "exponents": {str(i): {str(j): p for j, p in exps} for i, exps in zip(B, choice)}}
        for B, choice in recipes
    )
    return PatternSet("fep", xs, elements, provenance)


# ---------------------------------------------------------------------------
# shape patterns and the cycle decision

class ShapeRelation(_Struct):
    __slots__ = _fields = ("m", "edges")

    def __init__(self, m: int, edges: Iterable[Tuple[int, int]] = frozenset()):
        if m < 1:
            raise ValueError("relation needs m >= 1")
        # sorted, so the iteration order descriptors record is the set's own
        edges = frozenset(sorted(edges))
        for (i, j) in edges:
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError(f"edge ({i},{j}) outside [{m}]x[{m}]")
        super().__init__(m, edges)


def parse_edges(text: str, sep: str) -> List[Tuple[int, int]]:
    """Edges written ``i-j`` and joined by ``sep``; empty parts are skipped."""
    edges = []
    for part in filter(None, map(str.strip, text.split(sep))):
        try:
            i, j = map(int, part.split("-"))
        except ValueError:
            raise ParseError(f"bad edge {part!r}; expected i-j") from None
        edges.append((i, j))
    return edges


@lru_cache(maxsize=1 << 16)
def _keyed(a, b=1) -> ExpTerm:
    """a^b: a shape element when b is 1, else the element of a shape edge."""
    return power(a, b)


def shape_values(edges: Sequence[Tuple[int, int]], xs) -> Iterator:
    """The shape pattern's elements on xs, built when asked for: the
    generators as given, then x_i^{x_j} per edge (i, j), repeats included."""
    return itertools.chain(xs, (_keyed(xs[i - 1], xs[j - 1]) for i, j in edges))


def shape_row(edges: Sequence[Tuple[int, int]], xs
              ) -> Tuple[Tuple[ExpTerm, ...], tuple]:
    """The shape pattern's deduplicated elements on generators xs (ints or
    terms, each > 1) over ``edges`` in sorted order: ``shape_values`` by
    first occurrence, with the source of each, a generator's 1-based index
    or an edge (i, j)."""
    first: dict = {}  # dedup key -> (element, source), in insertion order
    sources = itertools.chain(range(1, len(xs) + 1), edges)
    for src, x in zip(sources, shape_values(edges, xs)):
        t = _keyed(x)
        first.setdefault(dedup_key(t), (t, src))
    return tuple(zip(*first.values()))


def shape_pattern(R: ShapeRelation, xs, cap: int = DEFAULT_ELEMENT_CAP) -> PatternSet:
    """Generators plus x_i^{x_j} for every edge (i, j); more than ``cap``
    generators and edges raise BudgetExceeded."""
    xs = _as_terms(xs)
    if len(xs) != R.m:
        raise ArityMismatch(f"relation expects {R.m} generators, got {len(xs)}")
    _check_candidates("shape", R.m + len(R.edges), cap)
    _require_gt1(xs, "shape")
    elements, sources = shape_row(sorted(R.edges), xs)
    provenance = tuple({"generator": s} if isinstance(s, int) else {"edge": list(s)}
                       for s in sources)
    return PatternSet("shape", xs, elements, provenance)


class CycleCheck(Tuple[bool, Optional[Tuple[Tuple[int, int], ...]]]):
    """(cyclic, witness edge list when cyclic); truthy iff cyclic."""

    def __new__(cls, cyclic: bool, witness=None):
        return super().__new__(cls, (cyclic, witness))

    @property
    def cyclic(self) -> bool:
        return self[0]

    @property
    def witness(self):
        return self[1]

    def __bool__(self) -> bool:
        return self[0]


def has_directed_cycle(R: ShapeRelation) -> CycleCheck:
    """Depth-first cycle detection with an explicit edge-cycle witness."""
    adj: Dict[int, List[int]] = {i: [] for i in range(1, R.m + 1)}
    for (i, j) in sorted(R.edges):
        adj[i].append(j)
    state = {i: 0 for i in adj}  # 0 unvisited, 1 on stack, 2 done
    stack: List[int] = []

    def dfs(u: int) -> Optional[Tuple[Tuple[int, int], ...]]:
        state[u] = 1
        stack.append(u)
        for v in adj[u]:
            if state[v] == 1:
                # cycle: from v along the stack back to u, then edge (u, v)
                start = stack.index(v)
                nodes = stack[start:]
                edges = tuple(
                    (nodes[a], nodes[a + 1]) for a in range(len(nodes) - 1)
                ) + ((u, v),)
                return edges
            if state[v] == 0:
                got = dfs(v)
                if got is not None:
                    return got
        stack.pop()
        state[u] = 2
        return None

    for i in sorted(adj):
        if state[i] == 0:
            got = dfs(i)
            if got is not None:
                return CycleCheck(True, got)
    return CycleCheck(False, None)
