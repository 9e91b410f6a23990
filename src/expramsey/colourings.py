"""Counterexample colourings as deterministic evaluators.

Each construction is a class with a colour count ``k``, a machine-readable
``rule`` descriptor, and a ``colour`` method accepting plain integers or
tower terms. Instances are immutable.

A subclass declares ``kind`` and ``params`` (the grammar families use),
keeps each parameter as the attribute of its key and implements ``colour``,
its rule; calling the colouring calls ``colour``. The base class writes
``spec`` and ``rule`` from ``params``. A colouring caches nothing: the scan
that colours a value many times keeps its own table for the length of one
call (``search._mono_rows``, or the colour array of a window scan).

``colour_range`` colours an int range for the window scan: ``colour`` per
value by default, and a block kernel where the ints have structure:
schurexp reads l(x) off the perfect powers the block holds
(``_arith.root_exponents``), logstar emits one run per level between the
tower numbers, lacunary takes floor(4p * x / q) mod 4 for each alpha = p/q,
and a product combines its parts' lists. A subclass that overrides
``colour`` gets the default back, never a range rule that bypasses it.

The lacunary constructions keep alpha as an exact rational, so every
fractional-part test on integer inputs is exact integer arithmetic. Real
inputs (the double-log colouring) go through certified dyadic intervals,
whose precision is raised until decisive.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ._arith import root_exponents
from ._intlog import (
    PREC_SCHEDULE,
    TOWERS,
    _log2_step,
    log2_scaled_bounds,
    log_star_int,
    log_star_scaled,
)
from ._spec import INT, STR, Param, _Struct, read_spec, write_spec
from .errors import (
    OutOfDomain,
    ParseError,
    SequenceNotSufficientlyLacunary,
    UncertifiableComparison,
)
# not called here: bench/spans.py traces eval_exact through this binding
from .tower import eval_exact  # noqa: F401
from .tower import (
    ExpTerm,
    Power,
    _concrete_value,
    _log2_term_scaled,
    _pow2_exponent_term,
    as_term,
    eval_mod,
    log_star,
    max_root_exponent_mod,
    nu_p,
    power,
)

if TYPE_CHECKING:  # only the lacunary construction imports it, where it runs
    from fractions import Fraction

Value = Union[int, ExpTerm]


class Colouring:
    """Deterministic map from integers / tower terms to [1, k]; see the
    module docstring for what a subclass declares and implements. It is not
    total: ``colour`` may raise an EvaluationError, where a value lies
    outside its domain or no strategy certifies its colour, as
    ``logstar:r=1`` does on ``3^3^3^3^3^3`` (the CLI exits 4)."""

    kind: str
    params: Tuple[Param, ...] = ()
    k: int

    def colour(self, x: Value) -> int:
        raise NotImplementedError

    def __call__(self, x: Value) -> int:
        return self.colour(x)

    def colour_range(self, lo: int, hi: int) -> List[int]:
        """``colour(v)`` for the ints v in [lo, hi], lo >= 1, stopping
        before the first v whose colour raises; [] when lo > hi. The block
        kernels of schurexp, logstar, lacunary and product give the same."""
        colour, out = self.colour, []
        try:
            for v in range(lo, hi + 1):
                out.append(colour(v))
        except Exception:  # a caller that needs v's colour meets it again
            pass
        return out

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "colour" in vars(cls) and "colour_range" not in vars(cls):
            cls.colour_range = Colouring.colour_range

    @property
    def spec(self) -> str:
        """Canonical mini-language string for certificates."""
        return write_spec(self)

    @property
    def rule(self) -> dict:
        """Machine-readable descriptor: the kind and each parameter."""
        return {"type": self.kind, **{p.key: getattr(self, p.key) for p in self.params}}


class ConstColouring(Colouring):
    kind = "const"
    params = (Param("k", INT, 1),)

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError("need at least one colour")
        self.k = k

    def colour(self, x: Value) -> int:
        return 1


class LogStarColouring(Colouring):
    """f(1) = r+3; f(x) = ((L(x) - 1) mod (r+2)) + 1 for x > 1."""

    kind = "logstar"
    params = (Param("r", INT, 1),)

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be a positive integer")
        self.r = r
        self.k = r + 3

    def _of_count(self, L: int) -> int:
        return ((L - 1) % (self.r + 2)) + 1

    def colour(self, x: Value) -> int:
        if isinstance(x, int):
            return self.k if x == 1 else self._of_count(log_star_int(x))
        t = as_term(x)
        if t.exact is not None:
            return self.colour(t.exact)
        return self._of_count(log_star(t))

    def colour_range(self, lo: int, hi: int) -> List[int]:
        # one run per level: L(x) = L on (t_{L-1}, t_L], and past the last tower
        out = [self.k] if lo == 1 <= hi else []
        x = max(lo, 2)
        while x <= hi:
            L = log_star_int(x)
            end = min(hi, TOWERS[L]) if L < len(TOWERS) else hi
            out += [self._of_count(L)] * (end - x + 1)
            x = end + 1
        return out

    def level_power(self, a: int, b: int) -> int:
        """L(a^b) for plain integers a, b >= 2, without building a^b.

        Uses L(a^b) = 1 + L(b * log2 a), which holds for every a^b >= 2; the
        power-of-two track is exact and the rest is certified at 16 bits with
        a fallback to the full symbolic machinery on the rare straddle. For
        fixed b it is non-decreasing in a, and for fixed a in b.
        """
        if a & (a - 1) == 0:
            return 1 + log_star_int((a.bit_length() - 1) * b)
        lo, hi = log2_scaled_bounds(a, 16)
        j = log_star_scaled(lo * b, hi * b, 16)
        if j is not None:
            return 1 + j
        return log_star(power(a, b))

    def colour_power(self, a: int, b: int) -> int:
        """Colour of a^b for plain integers a, b >= 2: the colour of the
        level ``level_power(a, b)``, with no term objects."""
        return self._of_count(self.level_power(a, b))


class SchurExpColouring(Colouring):
    """16 colours encoding the pair (x mod 4, l(x) mod 4)."""

    kind = "schurexp"
    k = 16

    def pair(self, x: Value) -> Tuple[int, int]:
        t = as_term(x)
        return (eval_mod(t, 4), max_root_exponent_mod(t, 4))

    def colour(self, x: Value) -> int:
        p = self.pair(x)
        return 4 * p[0] + p[1] + 1

    def colour_range(self, lo: int, hi: int) -> List[int]:
        return [1 + 4 * (x & 3) + (l & 3)
                for x, l in zip(range(lo, hi + 1), root_exponents(lo, hi))]


# ---------------------------------------------------------------------------
# forbidden-difference sequences

class DifferenceSequence:
    """Descriptor for a forbidden-difference sequence b_n, n >= start; every
    sequence here is increasing."""

    name: str
    start: int
    # least n >= start with b_n not an integer, None when there is none
    first_non_integer: Optional[int] = None

    def exact(self, n: int) -> Optional[int]:
        """Integer value when the sequence is integer-valued."""
        return None

    def bounds(self, n: int, prec: int) -> Tuple[int, int]:
        """Certified scaled bounds: lo <= b_n * 2**prec <= hi."""
        v = self.exact(n)
        if v is None:
            raise NotImplementedError
        return (v << prec, v << prec)


class NTimesPow2Sequence(DifferenceSequence):
    """b_n = n * 2^n."""

    name = "n*2^n"
    start = 1

    def exact(self, n: int) -> int:
        return n << n


class GeometricSequence(DifferenceSequence):
    """b_n = c^n for a fixed integer c >= 2."""

    def __init__(self, c: int):
        if c < 2:
            raise ValueError("geometric ratio must be >= 2")
        self.c = c
        self.name = f"{c}^n"
        self.start = 1

    def exact(self, n: int) -> int:
        return self.c**n


class NPowNLog2Sequence(DifferenceSequence):
    """b_n = n^n * log2(n), real-valued; starts at 2 since log2(1) = 0."""

    name = "n^n*log2n"
    start = 2
    first_non_integer = 3  # the least n >= 2 that is not a power of two

    def exact(self, n: int) -> Optional[int]:
        # n^n * log2 n is an integer only when n is a power of two
        if n & (n - 1) == 0:
            return n**n * (n.bit_length() - 1)
        return None

    def bounds(self, n: int, prec: int) -> Tuple[int, int]:
        # exact on powers of two, as log2_scaled_bounds is
        lo, hi = log2_scaled_bounds(n, prec)
        m = n**n
        return (m * lo, m * hi)


_SEQ_GEOMETRIC = re.compile(r"^(\d+)\^n$")


def parse_seq(text: str) -> DifferenceSequence:
    text = text.strip()
    if text == "n*2^n":
        return NTimesPow2Sequence()
    if text == "n^n*log2n":
        return NPowNLog2Sequence()
    m = _SEQ_GEOMETRIC.match(text)
    if m:
        return GeometricSequence(int(m.group(1)))
    raise ParseError(f"unknown sequence descriptor {text!r}")


def _rat_bounds(seq: DifferenceSequence, n: int, prec: int) -> Tuple[Fraction, Fraction]:
    from fractions import Fraction
    lo, hi = seq.bounds(n, prec)
    d = 1 << prec
    return Fraction(lo, d), Fraction(hi, d)


def _check_four_lacunary(seq: DifferenceSequence, indices: Sequence[int], bounds) -> None:
    for a, b in zip(indices, indices[1:]):
        for prec in PREC_SCHEDULE:
            alo, ahi = bounds(a, prec)
            blo, bhi = bounds(b, prec)
            if blo > 4 * ahi:
                break
            if bhi <= 4 * alo:
                raise SequenceNotSufficientlyLacunary(
                    f"b_{b} <= 4*b_{a} for sequence {seq.name}"
                )
        else:
            raise SequenceNotSufficientlyLacunary(
                f"could not certify b_{b} > 4*b_{a} for sequence {seq.name}"
            )


def _alpha_step(lo: Fraction, hi: Fraction, blo: Fraction,
                bhi: Fraction) -> Optional[Tuple[Fraction, Fraction]]:
    """The first admissible component ((j+1/4)/blo, (j+3/4)/bhi) inside
    [lo, hi], less an eighth of it at each end, or None if there is none
    (see build_lacunary_alpha)."""
    j = max(0, -((1 - 4 * lo * blo) // 4))
    clo, chi = (4 * j + 1) / (4 * blo), (4 * j + 3) / (4 * bhi)
    if not clo < chi <= hi:
        return None
    w = chi - clo
    return clo + w / 8, chi - w / 8


class LacunaryAlpha(_Struct):
    """Exact rational alpha with {alpha * b_n} inside (1/4, 3/4) for all n.

    The final nested interval is kept as the precision witness; alpha is its
    midpoint.
    """

    __slots__ = _fields = ("alpha", "seq_name", "indices", "interval")


def build_lacunary_alpha(
    seq: Union[str, DifferenceSequence],
    n_max: int,
    indices: Optional[Sequence[int]] = None,
) -> LacunaryAlpha:
    """Nested-interval construction of alpha for a 4-lacunary (sub)sequence.

    At step n the admissible alpha satisfy alpha*b_n in (j+1/4, j+3/4) for
    some integer j; with certified bounds blo <= b_n <= bhi the interval
    [(j+1/4)/blo, (j+3/4)/bhi] is safe for every b_n in range. Each step
    keeps one such component lying wholly inside the current interval and
    shrinks it by an eighth on both sides. Full containment preserves the
    width invariant (>= 3/8 of a period), which the ratio bound > 4 turns
    into the existence of the next component; partial overlaps could leave
    an arbitrarily thin sliver and strand the construction later.

    One candidate is checked per precision: j0 = max(0, ceil(lo*blo - 1/4)),
    the least j whose left end (j+1/4)/blo is not below lo. From j0 on the
    right end (j+3/4)/bhi rises with j and the width does not (blo <= bhi),
    so j0 is the first admissible component or none is, and then the step
    raises the precision.
    """
    from fractions import Fraction
    if isinstance(seq, str):
        seq = parse_seq(seq)
    if indices is None:
        indices = list(range(seq.start, n_max + 1))
    else:
        indices = list(indices)
    if not indices:
        raise ValueError("need at least one sequence index")
    bounds = lru_cache(maxsize=None)(partial(_rat_bounds, seq))
    _check_four_lacunary(seq, indices, bounds)
    lo, hi = Fraction(0), Fraction(1)
    for n in indices:
        for prec in PREC_SCHEDULE:
            step = _alpha_step(lo, hi, *bounds(n, prec))  # blo > 0: every b_n >= 2
            if step is not None:
                lo, hi = step
                break
        else:
            raise SequenceNotSufficientlyLacunary(
                f"no admissible interval at index {n} of {seq.name}"
            )
    alpha = (lo + hi) / 2
    return LacunaryAlpha(alpha, seq.name, tuple(indices), (lo, hi))


class LacunaryColouring(Colouring):
    """Product over residue classes of quarter-interval colourings.

    The sequence is split into l interleaved classes, l minimal with
    (ratio lower bound)^l > 4, so each class is 4-lacunary; one exact alpha
    per class. Colour of x combines the per-class quarter indices of
    {alpha_i * x}; k = 4^l.
    """

    kind = "lacunary"
    params = (Param("seq", STR), Param("nmax", INT, 12))

    def __init__(self, seq: Union[str, DifferenceSequence], nmax: int):
        if isinstance(seq, str):
            seq = parse_seq(seq)
        if nmax < seq.start:
            raise ValueError(f"nmax below the sequence start {seq.start}")
        self.sequence = seq
        self.seq = seq.name
        self.nmax = nmax
        indices = list(range(seq.start, nmax + 1))
        ratio_lb = self._ratio_lower_bound(indices)
        if ratio_lb <= 1:
            raise SequenceNotSufficientlyLacunary(
                f"{seq.name} is not lacunary on [{seq.start}, {nmax}]"
            )
        l, acc = 1, ratio_lb
        while acc <= 4:
            l += 1
            acc *= ratio_lb
            if l > 64:
                raise SequenceNotSufficientlyLacunary(
                    f"{seq.name} ratio too close to 1 for a finite partition"
                )
        self.alphas: List[LacunaryAlpha] = []
        for i in range(l):
            cls = indices[i::l]
            if not cls:
                continue
            self.alphas.append(build_lacunary_alpha(seq, nmax, indices=cls))
        # alpha_i = p/q, whose quarter index weighs 4^i in the colour
        self._quarters = tuple((a.alpha.numerator, a.alpha.denominator, 4**i)
                               for i, a in enumerate(self.alphas))
        self.k = 4 ** len(self.alphas)

    @property
    def rule(self) -> dict:
        return {**super().rule, "classes": len(self.alphas)}

    def _ratio_lower_bound(self, indices: Sequence[int]) -> Fraction:
        from fractions import Fraction
        best: Optional[Fraction] = None
        for a, b in zip(indices, indices[1:]):
            for prec in PREC_SCHEDULE:
                _, ahi = _rat_bounds(self.sequence, a, prec)
                blo, _ = _rat_bounds(self.sequence, b, prec)
                if blo > ahi:
                    r = blo / ahi
                    best = r if best is None or r < best else best
                    break
            else:
                raise SequenceNotSufficientlyLacunary(
                    f"could not certify growth of {self.seq} at {a}->{b}"
                )
        return best if best is not None else Fraction(5)

    def colour(self, x: Value) -> int:
        # {p/q * x} = (p * (x mod q) mod q) / q, so x mod q suffices
        if isinstance(x, int):
            if x < 0:
                raise OutOfDomain("difference colourings are defined for x >= 0")
            residue = x.__mod__
        else:
            t = as_term(x)
            if t.exact is not None:
                return self.colour(t.exact)
            residue = lambda q: eval_mod(t, q)
        out = 1
        for p, q, w in self._quarters:
            out += w * (4 * (p * residue(q) % q) // q)
        return out

    def colour_range(self, lo: int, hi: int) -> List[int]:
        out = [1] * (hi - lo + 1)
        for p, q, w in self._quarters:
            # 4 * (p * x mod q) // q is floor(4p * x / q) mod 4
            ys = range(4 * p * lo, 4 * p * (hi + 1), 4 * p)
            out = [c + w * (y // q & 3) for c, y in zip(out, ys)]
        return out

    def colour_scaled(self, ylo: int, yhi: int, prec: int) -> Optional[int]:
        """Colour of a real y enclosed by [ylo, yhi]/2**prec, or None."""
        if ylo < 0:
            raise OutOfDomain("difference colourings are defined for y >= 0")
        out = 1
        for p, q, w in self._quarters:
            bigq = q << prec
            nlo, nhi = p * ylo, p * yhi
            if nlo // bigq != nhi // bigq:
                return None
            rlo, rhi = nlo % bigq, nhi - (nlo - nlo % bigq)
            qlo, qhi = (4 * rlo) // bigq, (4 * rhi) // bigq
            if qlo != qhi:
                return None
            out += w * qlo
        return out


class Pow2AbbColouring(Colouring):
    """Composes the n*2^n lacunary colouring with the double 2-adic valuation.

    c(x) = f(nu2(nu2(x))) on the even numbers; 1 and the odd numbers, where
    the double valuation is undefined, share the one reserved extra colour.
    """

    kind = "pow2abb"
    params = (Param("nmax", INT, 10),)

    def __init__(self, nmax: int = 10):
        self.inner = LacunaryColouring(NTimesPow2Sequence(), nmax)
        self.nmax = nmax
        self.k = self.inner.k + 1

    def colour(self, x: Value) -> int:
        t = as_term(x)
        if t.exact == 1:
            return self.k
        v = nu_p(t, 2)  # may raise ExactnessRequired for huge exponents
        if v == 0:
            return self.k
        w = 0
        while v % 2 == 0:
            v //= 2
            w += 1
        return self.inner.colour(w)


class AbbbColouring(Colouring):
    """Composes the n^n*log2(n) lacunary colouring with log2 log2 x.

    Exact on x = 2^(2^y); other x >= 3 go through certified dyadic intervals.
    x in {1, 2}, where the double log is not positive, share the reserved
    extra colour.
    """

    kind = "abbb"
    params = (Param("nmax", INT, 8),)

    def __init__(self, nmax: int = 8):
        self.inner = LacunaryColouring(NPowNLog2Sequence(), nmax)
        self.nmax = nmax
        self.k = self.inner.k + 1

    def colour(self, x: Value) -> int:
        t = as_term(x)
        if t.exact is not None and t.exact <= 2:
            return self.k
        e = _pow2_exponent_term(t)
        if e is not None:
            if e.exact is not None and e.exact & (e.exact - 1) == 0:
                # x = 2^(2^y): the double log is the exact integer y
                return self.inner.colour(e.exact.bit_length() - 1)
            if e.exact is None and self._too_wide(e):
                raise UncertifiableComparison("cannot certify double-log colour")
        for prec in PREC_SCHEDULE:
            if e is not None:
                l2 = _log2_term_scaled(e, prec)
            else:
                # x >= 3, so log2 x > 1 and one more log2 gives an enclosure
                l2 = _log2_step(*_log2_term_scaled(t, prec), prec)
            got = self.inner.colour_scaled(l2[0], l2[1], prec)
            if got is not None:
                return got
        raise UncertifiableComparison("cannot certify double-log colour")

    def _too_wide(self, e: ExpTerm) -> bool:
        """Whether no scheduled precision can certify the colour of
        y = log2 log2 x = log2 e, for x = 2^e with e not exact.

        For e = b^E with b not a power of two and E materializable to v, the
        enclosure of y at precision p is (lo*v, hi*v) / 2^p, and
        log2_scaled_bounds(b, p) is at least one unit wide: at least v units
        at every p. colour_scaled certifies only when, for each alpha = a/q,
        both ends of a*y/q lie in one quarter of one unit, which needs
        4*a*v < q*2^p. The right side grows with p, so once
        4*a*v >= q*2^P at the top precision P it fails at every p."""
        if not isinstance(e, Power):
            return False
        base, v = e.base.exact, _concrete_value(e.exponent)
        if v is None or base is None or base & (base - 1) == 0:
            return False
        top = PREC_SCHEDULE[-1]
        return any(4 * p * v >= q << top for p, q, _ in self.inner._quarters)


class TableColouring(Colouring):
    """Finite lookup table on [1, N]."""

    def __init__(self, assignments, k: Optional[int] = None, path: Optional[str] = None):
        if isinstance(assignments, dict):
            n = max(assignments) if assignments else 0
            table = [assignments.get(i) for i in range(1, n + 1)]
            if any(c is None for c in table):
                raise ValueError("table must be total on [1, N]")
        else:
            table = list(assignments)
        if not table:
            raise ValueError("empty colour table")
        self.table: List[int] = [int(c) for c in table]
        self.k = k if k is not None else max(self.table)
        if any(not 1 <= c <= self.k for c in self.table):
            raise ValueError("table colours must lie in [1, k]")
        self.path = path

    def colour(self, x: Value) -> int:
        v = as_term(x).exact
        if v is None or not 1 <= v <= len(self.table):
            raise OutOfDomain(
                f"table colouring is defined on [1, {len(self.table)}]"
            )
        return self.table[v - 1]

    @property
    def rule(self) -> dict:
        return {"type": "table", "k": self.k, "map": self.table}

    @property
    def spec(self) -> str:
        if self.path is not None:
            return f"table:{self.path}"
        return f"table:k={self.k},inline"


class ProductColouring(Colouring):
    """Componentwise product; k is the product of the component counts."""

    def __init__(self, parts: Sequence[Colouring]):
        parts = list(parts)
        if not parts:
            raise ValueError("product of no colourings")
        self.parts = parts
        self.k = 1
        for p in parts:
            self.k *= p.k

    def colour(self, x: Value) -> int:
        out, base = 0, 1
        for p in self.parts:
            out += (p.colour(x) - 1) * base
            base *= p.k
        return out + 1

    def colour_range(self, lo: int, hi: int) -> List[int]:
        # a part's list ends where its colour raises, and so the product's
        out, base = [1] * (hi - lo + 1), 1
        for p in self.parts:
            cs = p.colour_range(lo, lo + len(out) - 1)
            out = [c + (d - 1) * base for c, d in zip(out, cs)]
            base *= p.k
        return out

    @property
    def rule(self) -> dict:
        return {"type": "product", "parts": [p.rule for p in self.parts]}

    @property
    def spec(self) -> str:
        return "product:" + "+".join(p.spec for p in self.parts)


# ---------------------------------------------------------------------------
# spec-op factories and the mini-language

def product_colouring(parts: Sequence[Colouring]) -> Colouring:
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    return ProductColouring(parts)


COLOURINGS: Dict[str, type] = {cls.kind: cls for cls in (
    ConstColouring, LogStarColouring, SchurExpColouring, LacunaryColouring,
    Pow2AbbColouring, AbbbColouring,
)}


def parse_colouring(spec: str) -> Colouring:
    """Parse the colouring mini-language: ``kind[:key=value,...]`` for the
    kinds and keys ``COLOURINGS`` declares (const:k=1, logstar:r=1, schurexp,
    lacunary:seq=n*2^n,nmax=12, pow2abb:nmax=10, abbb:nmax=8), and
    table:path.json, product:specA+specB."""
    head, _, body = spec.strip().partition(":")
    head = head.strip()
    if head == "table":
        if not body:
            raise ParseError("table colouring needs a JSON file path")
        try:
            with open(body, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read table colouring file {body!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON in table colouring file {body!r}: {exc}") from None
        # docs/table-colouring.schema.json (type() is int excludes bools);
        # TableColouring checks that the colours lie in [1, k]
        if (not isinstance(obj, dict) or sorted(obj) != ["k", "map"]
                or not isinstance(obj["map"], list) or not obj["map"]
                or any(type(c) is not int for c in [obj["k"], *obj["map"]]) or obj["k"] < 1):
            raise ParseError(f"table colouring file {body!r} needs exactly an int k >= 1"
                             " and a non-empty list map of ints")
        return TableColouring(obj["map"], k=obj["k"], path=body)
    if head == "product":
        if not body:
            raise ParseError("product colouring needs component specs")
        return product_colouring([parse_colouring(p) for p in body.split("+")])
    cls, values = read_spec(spec, COLOURINGS, "colouring")
    return cls(**values)
