"""Symbolic power-tower integers and their colour-relevant functionals.

Terms plus the operations the counterexample colourings need: guarded exact
evaluation, residues of tower-sized values (totient chain), the iterated-log
count L, the maximal-root exponent l, p-adic valuations, and certified
iterated-log comparisons.

A term denotes a positive integer built from decimal literals, right-
associative exponentiation, and multiplication, without ever materializing
values that would be astronomically large. Every term denotes an integer >= 1
by construction. Terms are immutable and hashable; two terms are equal when
their class and fields are (``value``, ``base`` and ``exponent``, or
``factors``); :func:`dedup_key` keys a term by its exact value at or below
the cutoff and by its canonical structure above it.

Canonical form, maintained by the factory functions ``literal`` / ``power`` /
``product`` (use those rather than the raw constructors):

- nested products are flattened and ``Literal(1)`` factors dropped;
- adjacent literal factors are merged by multiplication while both stay at or
  below the exactness cutoff;
- ``Power(x, Literal(1))`` collapses to ``x`` and a base denoting 1 collapses
  to ``Literal(1)``.

The exactness cutoff ``DEFAULT_CUTOFF`` (``2**64``, a constant, so no output
depends on the environment) separates the exact regime from the symbolic one:
:func:`eval_exact` returns the exact value when it is at most the cutoff and
the verdict Huge otherwise. Huge is still informative, it certifies
value > cutoff. Each node holds that verdict from construction in its field
``exact`` (the value, or None for Huge), set in O(1) from its children's, so
reading it never walks the tree; only cutoffs above ``DEFAULT_CUTOFF``
recurse, and they start from the children's fields.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple, Union

# factorint is not called here; bench/spans.py traces it through this binding
from ._arith import factorint, nu, root_exponent, totient  # noqa: F401
from ._intlog import (
    PREC_SCHEDULE,
    _log2_step,
    iter_log_le,
    log2_scaled_bounds,
    log_star_int,
    log_star_scaled,
    tower_upto,
)
from ._spec import _Struct
from .errors import (
    ExactnessRequired,
    ParseError,
    UncertifiableComparison,
    UncertifiableLogStar,
    UnsupportedShape,
)

DEFAULT_CUTOFF = 2**64
_CUTOFF_BITS = DEFAULT_CUTOFF.bit_length()


def _at_most(v: Optional[int], cutoff: int) -> Optional[int]:
    return v if v is not None and v <= cutoff else None


def _set_exact(node, v: Optional[int]) -> None:
    """A node's last step of construction: its exact value, and no hash yet."""
    _set_exact_slot(node, v if v is not None and v <= DEFAULT_CUTOFF else None)
    _set_hash(node, None)


class _Term(_Struct):
    """A node: ==, hash and repr read ``_fields``, not ``exact`` or ``_hash``.
    Each node class reads its fields in ``_key`` itself, faster than a loop."""

    __slots__ = ("exact", "_hash")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key())
            _set_hash(self, h)
        return h

    def __str__(self):
        return to_text(self)


# frozen classes write each slot through its descriptor's own __set__, which
# is faster than object.__setattr__ looking the descriptor up by name
_set_exact_slot, _set_hash = _Term.exact.__set__, _Term._hash.__set__


class Literal(_Term):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError("Literal value must be an int")
        if value < 1:
            raise ValueError("Literal value must be a positive integer")
        _set_value(self, value)
        _set_exact(self, value)

    def _key(self) -> tuple:
        return (self.value,)


_set_value = Literal.value.__set__


class Power(_Term):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: "ExpTerm", exponent: "ExpTerm"):
        # exponent 1 would break canonical uniqueness; the factory collapses it
        if isinstance(exponent, Literal) and exponent.value == 1:
            raise ValueError("Power with exponent Literal(1) is not canonical")
        _set_base(self, base)
        _set_exponent(self, exponent)
        b, e = base.exact, exponent.exact
        if b == 1:
            _set_exact(self, 1)
        elif b is None or e is None or (b.bit_length() - 1) * e > _CUTOFF_BITS:
            _set_exact(self, None)  # b^e >= 2^((bits(b)-1)*e) > cutoff: no **
        else:
            _set_exact(self, b**e)

    def _key(self) -> tuple:
        return (self.base, self.exponent)


_set_base, _set_exponent = Power.base.__set__, Power.exponent.__set__


class Product(_Term):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: Tuple["ExpTerm", ...]):
        if len(factors) < 2:
            raise ValueError("Product needs at least two factors")
        if any(isinstance(f, Literal) and f.value == 1 for f in factors):
            raise ValueError("Product with a Literal(1) factor is not canonical")
        _set_factors(self, factors)
        acc = 1
        for f in factors:
            if f.exact is None or acc > DEFAULT_CUTOFF:
                acc = None
                break
            acc *= f.exact
        _set_exact(self, acc)

    def _key(self) -> tuple:
        return (self.factors,)


_set_factors = Product.factors.__set__


ExpTerm = Union[Literal, Power, Product]


def as_term(x) -> ExpTerm:
    """Coerce an int or term to a term."""
    if isinstance(x, (Literal, Power, Product)):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Literal(x)
    raise TypeError(f"cannot interpret {x!r} as a tower term")


def literal(value: int) -> Literal:
    return Literal(value)


def power(base, exponent) -> ExpTerm:
    base = as_term(base)
    exponent = as_term(exponent)
    if isinstance(exponent, Literal) and exponent.value == 1:
        return base
    if isinstance(base, Literal) and base.value == 1:
        return base
    return Power(base, exponent)


def product(*factors) -> ExpTerm:
    flat = []
    for f in factors:
        f = as_term(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        elif isinstance(f, Literal) and f.value == 1:
            continue
        else:
            flat.append(f)
    merged: list = []
    for f in flat:
        if (
            merged
            and isinstance(f, Literal)
            and isinstance(merged[-1], Literal)
            and merged[-1].value <= DEFAULT_CUTOFF
            and f.value <= DEFAULT_CUTOFF
        ):
            merged[-1] = Literal(merged[-1].value * f.value)
        else:
            merged.append(f)
    if not merged:
        return Literal(1)
    if len(merged) == 1:
        return merged[0]
    return Product(tuple(merged))


class BoundedValue(_Struct):
    """Exact value at or below ``cutoff``, or the verdict Huge (exact=None).

    Huge certifies a lower bound: the denoted value exceeds ``cutoff``.
    """

    __slots__ = _fields = ("exact", "cutoff")

    def __init__(self, exact: Optional[int], cutoff: int):
        _set_bounded_exact(self, exact)
        _set_cutoff(self, cutoff)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def __str__(self):
        if self.is_exact:
            return str(self.exact)
        return f"Huge(>{self.cutoff})"


_set_bounded_exact, _set_cutoff = BoundedValue.exact.__set__, BoundedValue.cutoff.__set__


def eval_exact(t: ExpTerm, cutoff: Optional[int] = None) -> BoundedValue:
    """Evaluate exactly when the value is at most ``cutoff``, else Huge.

    At a cutoff up to ``DEFAULT_CUTOFF`` this reads the term's ``exact``
    field, which each node holds from construction; only larger cutoffs
    recurse, from the children's fields. Exponentiation is guarded by a
    logarithmic size estimate before any multiplication, so the cost is
    bounded by the cutoff, not by the value.
    """
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF
    t = as_term(t)
    if t.exact is None and cutoff > DEFAULT_CUTOFF:
        return BoundedValue(_eval_bounded(t, cutoff), cutoff)
    return BoundedValue(_at_most(t.exact, cutoff), cutoff)


def _eval_bounded(t: ExpTerm, cutoff: int) -> Optional[int]:
    if t.exact is not None or cutoff <= DEFAULT_CUTOFF:
        return _at_most(t.exact, cutoff)
    # from here t exceeds DEFAULT_CUTOFF, so a power's base is not 1
    if isinstance(t, Literal):
        return _at_most(t.value, cutoff)
    if isinstance(t, Product):
        acc = 1
        for f in t.factors:
            fv = _eval_bounded(f, cutoff)
            if fv is None:
                return None
            acc *= fv
            if acc > cutoff:
                return None
        return acc
    bv = _eval_bounded(t.base, cutoff)
    if bv is None:
        return None  # base alone exceeds the cutoff and the exponent is >= 1
    # exponents above ceil(log2 cutoff)+1 force Huge for any base >= 2
    ev = _eval_bounded(t.exponent, cutoff.bit_length() + 1)
    if ev is None or (bv.bit_length() - 1) * ev > cutoff.bit_length():
        return None
    return _at_most(bv**ev, cutoff)


def dedup_key(t: ExpTerm):
    """Hashable identity: ("v", exact value) when at most the cutoff,
    else ("s", canonical structure)."""
    t = as_term(t)
    return ("s", t) if t.exact is None else ("v", t.exact)


# ---------------------------------------------------------------------------
# textual syntax: INT, right-associative ^, *, parentheses


def to_text(t: ExpTerm) -> str:
    if isinstance(t, Literal):
        return str(t.value)
    if isinstance(t, Product):
        # products are flattened, so a factor is a Literal or a Power; ^
        # binds tighter than * and needs no parentheses here
        return "*".join(map(to_text, t.factors))
    base = to_text(t.base)
    if isinstance(t.base, (Power, Product)):
        base = f"({base})"
    exp = to_text(t.exponent)
    if isinstance(t.exponent, Product):
        exp = f"({exp})"
    return f"{base}^{exp}"


def parse_term(text: str) -> ExpTerm:
    """Parse the textual tower syntax; inverse of :func:`to_text`."""
    tokens = _tokenize(text)
    term, pos = _parse_product(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"unexpected {tokens[pos][0]!r} at position {tokens[pos][1]} in {text!r}")
    return term


# ASCII digits only (str.isdigit also takes "²" and "٣"); \s is str.isspace
_TOKEN = re.compile(r"([0-9]+|[\^*()])|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(2):
            raise ParseError(f"unexpected character {m.group(2)!r} at position {m.start()} in {text!r}")
        tokens.append((m.group(1), m.start()))
    if not tokens:
        raise ParseError("empty expression")
    return tokens


def _parse_product(tokens, pos):
    term, pos = _parse_power(tokens, pos)
    factors = [term]
    while pos < len(tokens) and tokens[pos][0] == "*":
        nxt, pos = _parse_power(tokens, pos + 1)
        factors.append(nxt)
    if len(factors) == 1:
        return factors[0], pos
    return product(*factors), pos


def _parse_power(tokens, pos):
    base, pos = _parse_atom(tokens, pos)
    if pos < len(tokens) and tokens[pos][0] == "^":
        exp, pos = _parse_power(tokens, pos + 1)  # right-associative
        return power(base, exp), pos
    return base, pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise ParseError("unexpected end of expression")
    tok, at = tokens[pos]
    if tok == "(":
        term, pos = _parse_product(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise ParseError(f"missing ')' for '(' at position {at}")
        return term, pos + 1
    if tok.isdigit():
        try:
            v = int(tok)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ParseError(f"literal of {len(tok)} digits at position {at} is too long") from None
        if v < 1:
            raise ParseError(f"literal must be >= 1, got {tok} at position {at}")
        return Literal(v), pos + 1
    raise ParseError(f"unexpected {tok!r} at position {at}")


# ---------------------------------------------------------------------------
# residues of tower-sized values

def eval_mod(t: ExpTerm, m: int) -> int:
    """Denoted value mod m, without materializing the value.

    Powers go through the generalized Euler lift: a^b = a^(phi(m) + b mod
    phi(m)) (mod m) holds for every base once b >= log2(m), and whether b
    clears that threshold is read off b's exact field.
    """
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    if m == 1:
        return 0
    t = as_term(t)
    if isinstance(t, Literal):
        return t.value % m
    if isinstance(t, Product):
        acc = 1
        for f in t.factors:
            acc = acc * eval_mod(f, m) % m
        return acc
    am = eval_mod(t.base, m)
    need = (m - 1).bit_length()  # = ceil(log2 m) for m >= 2
    e = t.exponent.exact
    if e is not None and e < need:
        return pow(am, e, m)
    phi = totient(m)
    e = phi + eval_mod(t.exponent, phi)
    return pow(am, e, m)


# ---------------------------------------------------------------------------
# iterated-log count L

# Generous ceiling for materializing exponents: anything whose
# value stays under 2^(2^20) (a megabit) is cheap to hold as an int, yet the
# module cutoff keeps such values out of the exact regime.
_BIG_BITS = 1 << 20
_big_cutoff_cache: Optional[int] = None


def _big_cutoff() -> int:
    global _big_cutoff_cache
    if _big_cutoff_cache is None:
        _big_cutoff_cache = 1 << _BIG_BITS
    return _big_cutoff_cache


def _concrete_value(t: ExpTerm) -> Optional[int]:
    """The denoted integer when it is materializable (maybe above the cutoff)."""
    if isinstance(t, Literal):
        return t.value
    return _eval_bounded(t, _big_cutoff())


def _pow2_exponent_term(t: ExpTerm) -> Optional[ExpTerm]:
    """E with t = 2^E when t is 2-power-structured, else None."""
    if isinstance(t, Power):
        # an integer root of a power of two is itself a power of two, so
        # recursing on the base loses nothing and materializes nothing
        eb = _pow2_exponent_term(t.base)
        if eb is not None:
            # (2^y)^e = 2^(y*e)
            return product(eb, t.exponent)
        return None
    v = t.value if isinstance(t, Literal) else t.exact
    if v is not None and v >= 2 and v & (v - 1) == 0:
        return Literal(v.bit_length() - 1)
    return None


def _is_tower_term(t: ExpTerm) -> bool:
    """Whether t denotes one of the tower numbers 1, 2, 4, 16, 65536, ..."""
    v = _concrete_value(t)
    while v is None:
        e = _pow2_exponent_term(t)
        if e is None:
            return False
        t = e
        v = _concrete_value(t)
    while v > 2:
        if v & (v - 1):
            return False
        v = v.bit_length() - 1
    return True


def _log2_term_scaled(t: ExpTerm, prec: int) -> Tuple[int, int]:
    """Certified scaled bounds on log2(value of t).

    Supports exact subterms, powers with materializable exponents, and
    products thereof; anything else raises UncertifiableLogStar.
    """
    v = t.value if isinstance(t, Literal) else t.exact
    if v is not None:
        if v == 1:
            return (0, 0)
        return log2_scaled_bounds(v, prec)
    if isinstance(t, Power):
        ve = _concrete_value(t.exponent)
        if ve is None:
            raise UncertifiableLogStar(
                "log2 bounds need a materializable exponent"
            )
        blo, bhi = _log2_term_scaled(t.base, prec)
        return (blo * ve, bhi * ve)
    if isinstance(t, Product):
        lo = hi = 0
        for f in t.factors:
            flo, fhi = _log2_term_scaled(f, prec)
            lo += flo
            hi += fhi
        return (lo, hi)
    raise UncertifiableLogStar("unsupported term shape for log2 bounds")


def _log2_sandwich(t: ExpTerm) -> Optional[Tuple[ExpTerm, ExpTerm]]:
    """Terms k*E and (k+1)*E with k*E <= log2(t) < (k+1)*E, for t = a^E over
    a materializable base a >= 3, k = floor(log2 a); else None. The lower
    bound is strict unless a is a power of two."""
    if not isinstance(t, Power):
        return None
    va = _concrete_value(t.base)
    if va is None or va < 3:
        return None
    k = va.bit_length() - 1
    return product(Literal(k), t.exponent), product(Literal(k + 1), t.exponent)


def log_star(t: ExpTerm) -> int:
    """L(t): the least k with log2 applied k times pushing the value to <= 1.

    Exact values and literals of any size go through bit inspection;
    2-power-structured towers through L(2^y) = L(y) + 1; everything else
    through L(t) = 1 + L(log2 t) on certified interval bounds of log2 t,
    widened on demand. When those bounds cannot be formed (an exponent too
    big to materialize), log2 t is sandwiched between two terms whose counts
    decide it. Raises UncertifiableLogStar when no strategy certifies.
    """
    t = as_term(t)
    v = t.value if isinstance(t, Literal) else t.exact
    if v is not None:
        return log_star_int(v)
    e = _pow2_exponent_term(t)
    if e is not None:
        # every term denotes >= 1 and t is Huge, so the exponent denotes >= 2
        return 1 + log_star(e)
    sandwich = None
    for prec in PREC_SCHEDULE:
        try:
            lo, hi = _log2_term_scaled(t, prec)
        except UncertifiableLogStar:
            sandwich = _log2_sandwich(t)
            break
        if lo >= 1:
            j = log_star_scaled(lo, hi, prec)
            if j is not None:
                return 1 + j
    if sandwich is not None:
        jlo, jhi = log_star(sandwich[0]), log_star(sandwich[1])
        if jlo == jhi:
            return 1 + jlo
        # L jumps just above each tower number, and a tower at the lower end
        # means k = 1, a = 3: the sandwiched value is strictly above it
        if jhi == jlo + 1 and _is_tower_term(sandwich[0]):
            return 1 + jhi
    raise UncertifiableLogStar(
        f"cannot certify log_star of {to_text(t)}"
    )


# ---------------------------------------------------------------------------
# maximal-root exponent l

def _literal_product(t: Product) -> int:
    """The value of a product whose factors are all literals."""
    out = 1
    for f in t.factors:
        if not isinstance(f, Literal):
            raise UnsupportedShape(
                "maximal-root exponent of a huge product needs literal factors"
            )
        out *= f.value
    return out


def max_root_exponent(t: ExpTerm) -> int:
    """l(t) = max{b : value = a^b}, computed from exact integer roots.

    l(1) = 0 by convention. Exact values and huge products of literals go
    through :func:`root_exponent` on the integer; huge powers use
    l(a^b) = l(a)*b, which needs the exponent exactly.
    """
    t = as_term(t)
    if t.exact is not None:
        return root_exponent(t.exact)
    if isinstance(t, Power):
        la = max_root_exponent(t.base)
        if la == 0:
            return 0
        if t.exponent.exact is None:
            raise ExactnessRequired(
                "exact maximal-root exponent of a power needs an exact exponent"
            )
        return la * t.exponent.exact
    if isinstance(t, Product):
        return root_exponent(_literal_product(t))
    raise UnsupportedShape("huge literal exceeded the evaluation cutoff")


def max_root_exponent_mod(t: ExpTerm, n: int) -> int:
    """l(t) mod n; tolerates huge exponents via l(a^b) = l(a)*b."""
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    t = as_term(t)
    if t.exact is not None:
        return root_exponent(t.exact) % n
    if isinstance(t, Power):
        la = max_root_exponent_mod(t.base, n)
        return la * eval_mod(t.exponent, n) % n
    if isinstance(t, Product):
        return root_exponent(_literal_product(t)) % n
    raise UnsupportedShape("huge literal exceeded the evaluation cutoff")


# ---------------------------------------------------------------------------
# p-adic valuation

def nu_p(t: ExpTerm, p: int) -> int:
    """Multiplicity of the prime p in the denoted value."""
    t = as_term(t)
    if isinstance(t, Literal):
        return nu(t.value, p)
    if isinstance(t, Product):
        return sum(nu_p(f, p) for f in t.factors)
    c = nu_p(t.base, p)
    if c == 0:
        return 0
    if t.exponent.exact is None:
        raise ExactnessRequired(
            "exact valuation of a power needs an exact exponent"
        )
    return c * t.exponent.exact


# ---------------------------------------------------------------------------
# certified iterated-log comparison

def compare_iter_log(a: ExpTerm, r: int, b: ExpTerm) -> bool:
    """Decide log2 applied r times to a, compared <= b; certified or raised.

    Ints and literals of any size take the exact rule a <= T_r(b) of
    :func:`iter_log_le`. A huge a = 2^E compares E with r - 1 logs; any
    other huge a compares an enclosure of log2 a, widened on demand, with
    the int T_(r-1)(b), or with log2 b (after one more log2 at r = 1). An
    a = c^E with no enclosure compares the sandwich terms around log2 a
    with r - 1 logs (see ``_log2_sandwich``).
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    a = as_term(a)
    b = as_term(b)
    av = a.value if isinstance(a, Literal) else a.exact
    bv = b.value if isinstance(b, Literal) else b.exact
    if av is not None and bv is not None:
        return iter_log_le(av, r, bv)
    if a == b or a.exact is not None or r and av is not None:
        # log2^(r)(a) <= a = b; or a <= cutoff < b; or r >= 1 and log2 a
        # is below the bit length of the int a, far below the huge b
        return True
    if r == 0 and b.exact is not None:
        return False  # a > cutoff >= b
    e = _pow2_exponent_term(a) if r else None
    if e is not None:
        return compare_iter_log(e, r - 1, b)
    for prec in PREC_SCHEDULE:
        try:
            lo, hi = _log2_term_scaled(a, prec)
            if r and bv is not None:
                # log2 a <= T_(r-1)(b), built no further than past hi
                blo = bhi = tower_upto(bv, r - 1, (hi >> prec) + 1) << prec
            elif r > 1 or r and hi <= DEFAULT_CUTOFF << prec:
                # b > cutoff: at r = 1 log2 a <= hi is at most the cutoff,
                # and past it T_(r-1)(b) >= 2^b exceeds every int, hi too
                return True
            else:
                blo, bhi = _log2_term_scaled(b, prec)
                if r:
                    lo, hi = _log2_step(lo, hi, prec)
        except UncertifiableLogStar:
            break  # a term's shape, not the precision, refuses an enclosure
        if hi <= blo:
            return True
        if lo > bhi:
            return False
    sandwich = _log2_sandwich(a) if r else None
    if sandwich is not None:
        # log2 a lies strictly inside the sandwich and iterated logs are
        # monotone: the upper term below b, or the lower one above it, decides
        for term, answer in ((sandwich[1], True), (sandwich[0], False)):
            try:
                if compare_iter_log(term, r - 1, b) == answer:
                    return answer
            except UncertifiableComparison:
                pass
    raise UncertifiableComparison("cannot certify the iterated-log comparison")
