"""Counterexample colourings as total, deterministic evaluators.

Each construction is a class with a colour count ``k``, a machine-readable
``rule`` descriptor, and a ``colour`` method accepting plain integers or
tower terms. Instances are immutable apart from the int memo and are safe to
share across worker processes.

A subclass declares ``kind`` and ``params`` (the grammar families use),
keeps each parameter as the attribute of its key and implements
``_colour``, the uncached rule. The base class writes ``spec`` and ``rule``
from ``params``, and its ``colour`` memoizes ``_colour`` on ints in
``_memo``, so each int is coloured once per object; a pickle leaves the
memo behind.

The lacunary constructions keep alpha as an exact rational, so every
fractional-part test on integer inputs is exact integer arithmetic. Real
inputs (the double-log colouring) go through certified dyadic intervals,
widened until decisive.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._intlog import (
    PREC_SCHEDULE,
    _log2_interval_step,
    log2_scaled_bounds,
    log_star_int,
    log_star_scaled,
)
from ._spec import INT, STR, Param, read_spec, write_spec
from .errors import (
    OutOfDomain,
    ParseError,
    SequenceNotSufficientlyLacunary,
    UncertifiableComparison,
)
from .tower import (
    ExpTerm,
    Literal,
    _log2_term_scaled,
    _pow2_exponent_term,
    as_term,
    eval_exact,
    eval_mod,
    log_star,
    max_root_exponent_mod,
    nu_p,
    power,
)

Value = Union[int, ExpTerm]


class Colouring:
    """Total deterministic map from integers / tower terms to [1, k]; see
    the module docstring for what a subclass declares and implements."""

    kind: str
    params: Tuple[Param, ...] = ()
    k: int

    def __new__(cls, *args, **kwargs):
        # made here, not in __init__, so no subclass can leave it out
        self = super().__new__(cls)
        self._memo: Dict[int, int] = {}
        return self

    def __getstate__(self) -> dict:
        # the memo is a cache: a worker process unpickles through __new__,
        # which gives it a fresh one, so it is not sent along
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def colour(self, x: Value) -> int:
        if not isinstance(x, int):
            return self._colour(x)
        got = self._memo.get(x)
        if got is None:
            got = self._memo[x] = self._colour(x)
        return got

    def _colour(self, x: Value) -> int:
        raise NotImplementedError

    def __call__(self, x: Value) -> int:
        return self.colour(x)

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

    def _colour(self, x: Value) -> int:
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

    def _colour(self, x: Value) -> int:
        if isinstance(x, int):
            return self.k if x == 1 else self._of_count(log_star_int(x))
        t = as_term(x)
        bv = eval_exact(t)
        if bv.is_exact:
            return self.colour(bv.exact)
        return self._of_count(log_star(t))

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

    def _colour(self, x: Value) -> int:
        p = self.pair(x)
        return 4 * p[0] + p[1] + 1


# ---------------------------------------------------------------------------
# forbidden-difference sequences

class DifferenceSequence:
    """Descriptor for a forbidden-difference sequence b_n, n >= start."""

    name: str
    start: int

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

    def exact(self, n: int) -> Optional[int]:
        # n^n * log2 n is an integer only when n is a power of two
        if n & (n - 1) == 0:
            return n**n * (n.bit_length() - 1)
        return None

    def bounds(self, n: int, prec: int) -> Tuple[int, int]:
        v = self.exact(n)
        if v is not None:
            return (v << prec, v << prec)
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
    v = seq.exact(n)
    if v is not None:
        f = Fraction(v)
        return f, f
    lo, hi = seq.bounds(n, prec)
    d = 1 << prec
    return Fraction(lo, d), Fraction(hi, d)


def _check_four_lacunary(seq: DifferenceSequence, indices: Sequence[int]) -> None:
    for a, b in zip(indices, indices[1:]):
        for prec in PREC_SCHEDULE:
            _, ahi = _rat_bounds(seq, a, prec)
            blo, _ = _rat_bounds(seq, b, prec)
            if blo > 4 * ahi:
                break
            bhi = _rat_bounds(seq, b, prec)[1]
            alo = _rat_bounds(seq, a, prec)[0]
            if bhi <= 4 * alo:
                raise SequenceNotSufficientlyLacunary(
                    f"b_{b} <= 4*b_{a} for sequence {seq.name}"
                )
        else:
            raise SequenceNotSufficientlyLacunary(
                f"could not certify b_{b} > 4*b_{a} for sequence {seq.name}"
            )


@dataclass(frozen=True)
class LacunaryAlpha:
    """Exact rational alpha with {alpha * b_n} inside (1/4, 3/4) for all n.

    The final nested interval is kept as the precision witness; alpha is its
    midpoint.
    """

    alpha: Fraction
    seq_name: str
    indices: Tuple[int, ...]
    interval: Tuple[Fraction, Fraction]

    def check(self, seq: DifferenceSequence, n: int) -> bool:
        """Exact (or certified) verification of one fractional-part constraint."""
        for prec in PREC_SCHEDULE:
            blo, bhi = _rat_bounds(seq, n, prec)
            plo = self.alpha * blo
            phi = self.alpha * bhi
            if plo.__floor__() != phi.__floor__():
                continue
            flo = plo - plo.__floor__()
            fhi = phi - phi.__floor__()
            if Fraction(1, 4) < flo and fhi < Fraction(3, 4):
                return True
            if fhi <= Fraction(1, 4) or flo >= Fraction(3, 4):
                return False
        raise UncertifiableComparison(
            f"cannot certify fractional part of alpha*b_{n}"
        )


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
    """
    if isinstance(seq, str):
        seq = parse_seq(seq)
    if indices is None:
        indices = list(range(seq.start, n_max + 1))
    else:
        indices = list(indices)
    if not indices:
        raise ValueError("need at least one sequence index")
    _check_four_lacunary(seq, indices)
    lo, hi = Fraction(0), Fraction(1)
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    for n in indices:
        placed = False
        for prec in PREC_SCHEDULE:
            blo, bhi = _rat_bounds(seq, n, prec)
            if blo <= 0:
                continue
            j = max(0, (lo * blo - quarter).__floor__())
            j_stop = (hi * bhi).__ceil__() + 1
            while j <= j_stop:
                clo = (j + quarter) / blo
                chi = (j + three_quarters) / bhi
                if clo >= lo and chi <= hi and chi > clo:
                    w = chi - clo
                    lo, hi = clo + w / 8, chi - w / 8
                    placed = True
                    break
                j += 1
            if placed:
                break
        if not placed:
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
        self.num_classes = l
        self.alphas: List[LacunaryAlpha] = []
        for i in range(l):
            cls = indices[i::l]
            if not cls:
                continue
            self.alphas.append(build_lacunary_alpha(seq, nmax, indices=cls))
        self.k = 4 ** len(self.alphas)

    @property
    def rule(self) -> dict:
        return {**super().rule, "classes": len(self.alphas)}

    def _ratio_lower_bound(self, indices: Sequence[int]) -> Fraction:
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

    def _colour(self, x: Value) -> int:
        # {p/q * x} = (p * (x mod q) mod q) / q, so x mod q suffices
        if isinstance(x, int):
            if x < 0:
                raise OutOfDomain("difference colourings are defined for x >= 0")
            residue = x.__mod__
        else:
            t = as_term(x)
            bv = eval_exact(t)
            if bv.is_exact:
                return self.colour(bv.exact)
            residue = lambda q: eval_mod(t, q)
        cs = []
        for a in self.alphas:
            p, q = a.alpha.numerator, a.alpha.denominator
            cs.append(4 * (p * residue(q) % q) // q + 1)
        return self._combine(cs)

    def colour_scaled(self, ylo: int, yhi: int, prec: int) -> Optional[int]:
        """Colour of a real y enclosed by [ylo, yhi]/2**prec, or None."""
        if ylo < 0:
            raise OutOfDomain("difference colourings are defined for y >= 0")
        cs = []
        for a in self.alphas:
            p, q = a.alpha.numerator, a.alpha.denominator
            bigq = q << prec
            nlo, nhi = p * ylo, p * yhi
            if nlo // bigq != nhi // bigq:
                return None
            rlo, rhi = nlo % bigq, nhi - (nlo - nlo % bigq)
            qlo, qhi = (4 * rlo) // bigq, (4 * rhi) // bigq
            if qlo != qhi:
                return None
            cs.append(qlo + 1)
        return self._combine(cs)

    def _combine(self, cs: Sequence[int]) -> int:
        out, base = 0, 1
        for c in cs:
            out += (c - 1) * base
            base *= 4
        return out + 1


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

    def _colour(self, x: Value) -> int:
        t = as_term(x)
        bv = eval_exact(t)
        if bv.is_exact and bv.exact == 1:
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

    def _colour(self, x: Value) -> int:
        t = as_term(x)
        bv = eval_exact(t)
        if bv.is_exact:
            v = bv.exact
            if v <= 2:
                return self.k
            if v & (v - 1) == 0:
                e = v.bit_length() - 1
                if e & (e - 1) == 0:
                    # x = 2^(2^y): the double log is the exact integer y
                    return self.inner.colour(e.bit_length() - 1)
            for prec in PREC_SCHEDULE:
                l1 = log2_scaled_bounds(v, prec)
                l2 = _log2_interval_step(l1[0], l1[1], prec)
                got = self.inner.colour_scaled(l2[0], l2[1], prec)
                if got is not None:
                    return got
            raise UncertifiableComparison(
                "cannot certify double-log colour"
            )
        e = _pow2_exponent_term(t)
        if e is not None:
            ev = eval_exact(e)
            if ev.is_exact and ev.exact & (ev.exact - 1) == 0:
                return self.inner.colour(ev.exact.bit_length() - 1)
        for prec in PREC_SCHEDULE:
            if e is not None:
                ev = eval_exact(e)
                if ev.is_exact:
                    l2 = log2_scaled_bounds(ev.exact, prec)
                else:
                    l2 = _log2_term_scaled(e, prec)
            else:
                l1 = _log2_term_scaled(t, prec)
                l2 = _log2_interval_step(l1[0], l1[1], prec)
            got = self.inner.colour_scaled(l2[0], l2[1], prec)
            if got is not None:
                return got
        raise UncertifiableComparison("cannot certify double-log colour")


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

    def _colour(self, x: Value) -> int:
        t = as_term(x)
        bv = eval_exact(t)
        if bv.is_huge or not 1 <= bv.exact <= len(self.table):
            raise OutOfDomain(
                f"table colouring is defined on [1, {len(self.table)}]"
            )
        return self.table[bv.exact - 1]

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

    def _colour(self, x: Value) -> int:
        out, base = 0, 1
        for p in self.parts:
            out += (p.colour(x) - 1) * base
            base *= p.k
        return out + 1

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
        if not isinstance(obj, dict) or "k" not in obj or "map" not in obj:
            raise ParseError(f'table colouring file {body!r} needs {{"k", "map"}}')
        return TableColouring(obj["map"], k=int(obj["k"]), path=body)
    if head == "product":
        if not body:
            raise ParseError("product colouring needs component specs")
        return product_colouring([parse_colouring(p) for p in body.split("+")])
    cls, values = read_spec(spec, COLOURINGS, "colouring")
    return cls(**values)
