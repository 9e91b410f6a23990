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
- The count steps only past tower numbers, which are integers, so a real
  x >= 1 and its ceiling have the same count: an enclosure's ends are
  counted as the integers ceil(lo / 2**prec) and ceil(hi / 2**prec).
- log2 of a non-power-of-two integer is irrational, so certified comparisons
  against integers terminate at finite precision, and so does the retry that
  tightens ``log2_scaled_bounds`` to one unit: 2**prec * log2(n) is never an
  integer, so enough guard bits put both rounded ends in one unit interval.
- For integers a, b >= 1 and r >= 0, log2^(r)(a) <= b iff a <= T_r(b),
  where T_0(b) = b and T_{j+1}(b) = 2**T_j(b): for x > 0, log2 x <= y iff
  x <= 2**y, which peels one log at a time while the iterates are
  positive. Once an iterate log2^(j)(a), j < r, is 1 or less, the next is
  at most 0 and the answer is True; so is the rule's, as then
  a <= T_j(1) <= T_j(b) <= T_r(b) (T grows in b and in j).
- ln m = 2**r * ln(m**(1/2**r)) for m > 0, and for x > 0 with
  z = (x - 1)/(x + 1), ln x = 2 atanh(z) = 2 * sum_{j>=0} z**(2j+1)/(2j+1).
  For 0 <= z <= 1/3 the terms after the first N sum to at most
  z**(2N+1)/((2N+1)(1 - z**2)) <= (9/8) z**(2N+1). ln 2 = 2 atanh(1/3).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import isqrt
from typing import Optional, Tuple

# towers of 2: t_5 = 2**65536 is an 8 KiB integer, cheap to keep around;
# t_6 onward are handled by logarithmic descent instead of materialization
TOWERS = [1, 2, 4, 16, 65536, 2**65536]

PREC_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def log_star_int(n: int) -> int:
    """Exact iterated-log count: least k with log2^(k)(n) <= 1. Above the
    last tower n steps to ceil(log2 n), which keeps the count since the
    towers are ints; from there the count is n's place among the towers."""
    if n < 1:
        raise ValueError("log_star is defined for positive integers")
    k = 0
    while n > TOWERS[-1]:
        bl = n.bit_length()
        n = bl - 1 if n & (n - 1) == 0 else bl
        k += 1
    return k + bisect_left(TOWERS, n)


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


def log_star_scaled(lo: int, hi: int, prec: int) -> Optional[int]:
    """log_star of a real enclosed by [lo, hi]/2**prec (lo >= 1), or None
    if uncertified: the count of each end is that of its ceiling.

    Sound for any enclosure: log_star is monotone, so equal endpoint counts
    pin the value. Exact enclosures (lo == hi) always certify.
    """
    jlo = log_star_int(-(-lo >> prec))
    if lo == hi:
        return jlo
    jhi = log_star_int(-(-hi >> prec))
    return jlo if jlo == jhi else None


def _log2_step(lo: int, hi: int, prec: int) -> Tuple[int, int]:
    """Enclosure of log2 of the real enclosed by [lo, hi]/2**prec, lo >= 1."""
    shift = prec << prec
    return (log2_scaled_bounds(lo, prec)[0] - shift,
            log2_scaled_bounds(hi, prec)[1] - shift)


def tower_upto(b: int, r: int, top: int) -> int:
    """min(T_r(b), top), for T_0(b) = b and T_{j+1}(b) = 2**T_j(b). Once an
    exponent reaches top's bit length the next tower exceeds top, so no
    tower larger than top is built."""
    t = b
    for _ in range(r):
        if t >= top.bit_length():
            return top
        t = 1 << t
    return min(t, top)


def iter_log_le(a: int, r: int, b: int) -> bool:
    """Exact decision of log2^(r)(a) <= b for integers a >= 1, b >= 1:
    a <= T_r(b)."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return a <= tower_upto(b, r, a)
