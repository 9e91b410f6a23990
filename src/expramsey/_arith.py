"""Exact integer roots, the maximal-root exponent, and budgeted factorization.

l(n) = max{b : n = a^b} comes from exact k-th roots for prime k (Bernstein,
"Detecting perfect powers in essentially linear time", Math. Comp. 1998);
over a block of ints it comes from listing the powers a^b the block holds.
Factorization serves only ``totient`` (for ``eval_mod``) and the reference
``gcd_of_exponents``: trial division up to 10**6, then Brent's variant of
Pollard's rho under an iteration budget whose exhaustion raises
FactorizationBudgetExceeded rather than returning a partial answer.
The power pairs a^b <= bound that the exponential families and the Ramsey
solver read are counted from integer roots before any is listed.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, List, Optional, Tuple

from .errors import BudgetExceeded, FactorizationBudgetExceeded

TRIAL_LIMIT = 10**6
DEFAULT_RHO_BUDGET = 2_000_000

# deterministic Miller-Rabin witness set for n < 3.3e24 (covers 64-bit inputs
# with a wide margin); beyond that the same witnesses make the test a strong
# probabilistic one, which is adequate for desk-scale cofactors
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, in exact integer arithmetic."""
    if n < 1:
        return 0
    if k == 2:
        return isqrt(n)
    # Newton's iteration from above: r**k > n for the start value, and the
    # integer step decreases strictly until it reaches the floor root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


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
    tie-break. The key (p, max(a,b), a) gives that order: for fixed p and
    max M the pairs are at most (M, b) and (a', M) with a' < M, and
    M^b = a'^M forces b >= a' (x / ln x increases from 3 on, and M = 3,
    a' = 2 has no solution), so both keys put (a', M) first.

    ``last_a(b, top)`` shortens the range of a for each b to [2, last_a];
    the pairs are counted from integer roots first, and more than ``cap``
    of them raise BudgetExceeded before any list is built.
    """
    tops = _exp_tops(bound, cap, last_a)
    out = [(a**b, a, b) for b, top in tops for a in range(2, top + 1)]
    out.sort(key=lambda t: (t[0], max(t[1], t[2]), t[1]))
    return out


@lru_cache(maxsize=256)
def _root_tests(n: int) -> tuple:
    """(k, q, (q - 1) // k) for each prime k < n, q the least prime = 1 mod k."""
    out = []
    for k in range(2, n):
        if is_probable_prime(k):
            q = k + 1
            while not is_probable_prime(q):
                q += k
            out.append((k, q, (q - 1) // k))
    return tuple(out)


def root_exponent(n: int) -> int:
    """l(n) = max{b : n = a^b} for n >= 1; l(1) = 0.

    n = r**k gives l(n) = k * l(r), and a perfect power n > 1 is an exact
    k-th power for some prime k with 2**k <= n, so testing the primes below
    the bit length, from the smallest, finds every step. A root r of n that
    failed a smaller prime fails it too, so the test resumes at k. For a
    prime q = 1 mod k, n = r**k forces n**((q-1)/k) = 0 or 1 mod q (Fermat),
    which rules out most k before any root is taken.
    """
    if n < 1:
        raise ValueError("l is defined for positive integers")
    if n == 1:
        return 0
    out, i = 1, 0
    tests = _root_tests(n.bit_length())
    while i < len(tests):
        k, q, e = tests[i]
        if pow(n, e, q) <= 1:
            r = iroot(n, k)
            if r**k == n:
                n, out = r, out * k
                tests = _root_tests(n.bit_length())
                continue
        i += 1
    return out


def root_exponents(lo: int, hi: int) -> List[int]:
    """l(v) for each v in [lo, hi], lo >= 1: 1 everywhere and 0 at v = 1,
    then for each b with 2**b <= hi, ascending, b at every a**b in the
    block, so the largest exponent of each perfect power is kept."""
    out = [1] * (hi - lo + 1)
    if lo == 1 <= hi:
        out[0] = 0
    for b in range(2, hi.bit_length()):
        for a in range(max(2, iroot(lo - 1, b) + 1), iroot(hi, b) + 1):
            out[a**b - lo] = b
    return out


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, budget: list) -> int:
    """A non-trivial factor of composite odd n, consuming budget[0] iterations."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                cnt = min(m, r - k)
                if budget[0] < cnt:
                    raise FactorizationBudgetExceeded(
                        f"rho budget exhausted while factoring {n}"
                    )
                budget[0] -= cnt
                for _ in range(cnt):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                if budget[0] <= 0:
                    raise FactorizationBudgetExceeded(
                        f"rho budget exhausted while factoring {n}"
                    )
                budget[0] -= 1
        if g != n:
            return g
        c += 1  # rare: retry with a different polynomial


def factorint(n: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> dict:
    """Full prime factorization {p: e} of n >= 1 (empty dict for 1)."""
    if n < 1:
        raise ValueError("factorint is defined for positive integers")
    out: dict = {}
    if n == 1:
        return out
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # wheel over 6k+-1 up to the trial limit
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f <= TRIAL_LIMIT and f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out[f] = e
        f += inc[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if f * f > n:
        out[n] = out.get(n, 0) + 1
        return out
    budget = [rho_budget]
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


def gcd_of_exponents(n: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> int:
    """gcd of the exponents in the prime factorization of n; 0 for n = 1."""
    fac = factorint(n, rho_budget)
    g = 0
    for e in fac.values():
        g = gcd(g, e)
    return g


@lru_cache(maxsize=4096)
def totient(m: int) -> int:
    if m < 1:
        raise ValueError("totient of a non-positive integer")
    out = m
    for p in factorint(m):
        out -= out // p
    return out


def nu(n: int, p: int) -> int:
    """Multiplicity of the prime p in n >= 1."""
    if n < 1:
        raise ValueError("valuation of a non-positive integer")
    if p < 2:
        raise ValueError("valuation needs a base of at least 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
