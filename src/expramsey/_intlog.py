"""Exact and certified-interval base-2 logarithms on Python integers.

Everything here is integer arithmetic; no binary floating point enters any
certified path. Dyadic bounds are represented as scaled integers: the pair
``(lo, hi)`` at precision ``prec`` encloses a real x when
``lo <= x * 2**prec <= hi``.

Facts this module relies on (each is load-bearing and tested):

- The iterated-log thresholds are the tower numbers t_0 = 1, t_1 = 2,
  t_{j+1} = 2**t_j; the least-k test ``log2^(k)(x) <= 1`` ties exactly when x
  is one of them, and those are powers of two, detected by bit inspection.
- For an integer n >= 2: if n = 2**e then log_star(n) = 1 + log_star(e).
  Otherwise n has k+1 bits with k < log2(n) < k+1 and no tower number lies
  strictly inside (k, k+1) while any tower equal to k+1 still yields the same
  count, hence log_star(n) = 1 + log_star(bit_length(n)).
- log2 of a non-power-of-two integer is irrational, so certified comparisons
  against integers terminate at finite precision, and so does the retry that
  tightens ``log2_scaled_bounds`` to one unit: 2**prec * log2(n) is never an
  integer, so enough guard bits put both rounded ends in one unit interval.
- ln m = 2**r * ln(m**(1/2**r)) for m > 0, and for x > 0 with
  z = (x - 1)/(x + 1), ln x = 2 atanh(z) = 2 * sum_{j>=0} z**(2j+1)/(2j+1).
  For 0 <= z <= 1/3 the terms after the first N sum to at most
  z**(2N+1)/((2N+1)(1 - z**2)) <= (9/8) z**(2N+1). ln 2 = 2 atanh(1/3).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Optional, Tuple

from .errors import UncertifiableComparison

# towers of 2: t_5 = 2**65536 is an 8 KiB integer, cheap to keep around;
# t_6 onward are handled by logarithmic descent instead of materialization
TOWERS = [1, 2, 4, 16, 65536, 2**65536]

PREC_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def log_star_int(n: int) -> int:
    """Exact iterated-log count: least k with log2^(k)(n) <= 1."""
    if n < 1:
        raise ValueError("log_star is defined for positive integers")
    k = 0
    while n > 1:
        bl = n.bit_length()
        n = bl - 1 if n & (n - 1) == 0 else bl
        k += 1
    return k


@lru_cache(maxsize=None)
def _ln2_scaled(w: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2**w * ln 2 <= hi, from ln 2 = 2 atanh(1/3).

    t runs through floor(2**w / 3**(2j+1)) exactly, so each of the N kept
    terms is below its floor plus one, and the dropped tail is below 9/8.
    """
    t = (1 << w) // 3
    s = 0
    d = 1
    while t:
        s += t // d
        t //= 9
        d += 2
    return 2 * s, 2 * (s + d // 2 + 2)


def _ln_scaled(n: int, k: int, r: int, w: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2**w * ln(n / 2**k) <= hi, for 2**k < n < 2**(k+1).

    ln m = 2**(r+1) atanh(z) with z = (m**(1/2**r) - 1) / (m**(1/2**r) + 1),
    every step rounded outward at w bits.
    """
    one = 1 << w
    # [lo, hi] / 2**w encloses m, then its 2**r-th root
    if k <= w:
        lo = hi = n << (w - k)
    else:
        lo = n >> (k - w)
        hi = lo + 1
    for _ in range(r):
        lo = isqrt(lo << w)
        hi = isqrt((hi << w) - 1) + 1
    # z rounded down and up, then the series: zlo runs through floors of its
    # odd powers, zhi through ceilings, until zhi's reach one unit
    zlo = ((lo - one) << w) // (lo + one)
    zhi = -((-(hi - one) << w) // (hi + one))
    qlo = (zlo * zlo) >> w
    qhi = -((-zhi * zhi) >> w)
    slo = shi = 0
    d = 1
    while zhi > 1:
        slo += zlo // d
        shi -= -zhi // d
        zlo = (zlo * qlo) >> w
        zhi = -((-zhi * qhi) >> w)
        d += 2
    shi += 2  # zhi <= 1 bounds the next power; the tail is below 9/8 of it
    return slo << (r + 1), shi << (r + 1)


@lru_cache(maxsize=1 << 16)
def log2_scaled_bounds(n: int, prec: int) -> Tuple[int, int]:
    """Certified dyadic bounds on log2(n): the tightest ones at ``prec``.

    Returns (lo, hi) with lo <= 2**prec * log2(n) <= hi. For a power of two
    lo == hi, the exact value; otherwise lo = floor(2**prec * log2(n)) and
    hi = lo + 1, and the inequalities are strict.

    log2(n) = k + ln(n / 2**k) / ln 2, both logarithms enclosed at ``prec``
    plus guard bits; an enclosure wider than one unit is computed again with
    twice the guard bits.
    """
    if n < 1:
        raise ValueError("log2 of a non-positive integer")
    k = n.bit_length() - 1
    if n & (n - 1) == 0:
        return (k << prec, k << prec)
    # about sqrt(prec)/4 roots balance the roots against the series terms
    r = (isqrt(prec) >> 2) + 1
    guard = r + prec.bit_length() + 8
    while True:
        w = prec + guard
        lnlo, lnhi = _ln_scaled(n, k, r, w)
        l2lo, l2hi = _ln2_scaled(w)
        flo = (lnlo << prec) // l2hi
        fhi = -((-lnhi << prec) // l2lo)
        if fhi - flo == 1:
            return ((k << prec) + flo, (k << prec) + fhi)
        guard <<= 1


_tower_shift_cache: dict = {}


def _towers_scaled(prec: int):
    got = _tower_shift_cache.get(prec)
    if got is None:
        got = [t << prec for t in TOWERS]
        _tower_shift_cache[prec] = got
    return got


def log_star_of_scaled(x: int, prec: int) -> int:
    """log_star of the exact rational x / 2**prec (x >= 1)."""
    if x < 1:
        raise ValueError("log_star of a non-positive value")
    ts = _towers_scaled(prec)
    if x <= ts[0]:
        return 0
    for j in range(1, 6):
        if x <= ts[j]:
            return j
    # value v > t_5: log_star(v) = 1 + log_star(log2 v); log2 v lies between
    # the integers bl-1-prec and bl-prec and the power-of-two tie is exact
    bl = x.bit_length()
    if x & (x - 1) == 0:
        return 1 + log_star_int(bl - 1 - prec)
    return 1 + log_star_int(bl - prec)


def log_star_scaled(lo: int, hi: int, prec: int) -> Optional[int]:
    """log_star of a real enclosed by [lo, hi]/2**prec, or None if uncertified.

    Sound for any enclosure: log_star is monotone, so equal endpoint counts
    pin the value. Exact enclosures (lo == hi) always certify.
    """
    jlo = log_star_of_scaled(lo, prec)
    if lo == hi:
        return jlo
    jhi = log_star_of_scaled(hi, prec)
    return jlo if jlo == jhi else None


def _log2_interval_step(lo: int, hi: int, prec: int) -> Tuple[int, int]:
    """One certified log2 of an enclosure with lo > 2**prec (value > 1)."""
    llo, _ = log2_scaled_bounds(lo, prec)
    _, lhi = log2_scaled_bounds(hi, prec)
    shift = prec << prec
    return llo - shift, lhi - shift


def iter_log_le(a: int, r: int, b: int) -> bool:
    """Certified decision of log2^(r)(a) <= b for integers a >= 1, b >= 1.

    Walks the exact power-of-two track as far as it goes (ties live there and
    only there), then switches to interval iteration; the remaining value is
    irrational so widening always terminates.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    cur = a
    steps = 0
    while steps < r:
        if cur <= 1:
            # the next log is <= 0 and everything after stays below 1 <= b
            return True
        if cur & (cur - 1) == 0:
            cur = cur.bit_length() - 1
            steps += 1
            continue
        break
    if steps == r:
        return cur <= b
    rem = r - steps
    for prec in PREC_SCHEDULE:
        one = 1 << prec
        lo, hi = log2_scaled_bounds(cur, prec)
        undecided = False
        for _ in range(rem - 1):
            if hi <= one:
                return True  # value certainly <= 1, later logs only shrink
            if lo <= one:
                undecided = True  # enclosure straddles 1, refine
                break
            lo, hi = _log2_interval_step(lo, hi, prec)
        if undecided:
            continue
        if hi <= b << prec:
            return True
        if lo > b << prec:
            return False
    raise UncertifiableComparison(
        f"iterated log comparison undecided at precision {PREC_SCHEDULE[-1]}"
    )
