"""Reference answers the benchmark checks expramsey's outputs against.

Each oracle works from definitions, not from the package's algorithms:

- L(n), the iterated-log count, by comparing n with the tower numbers
  1, 2, 4, 16, 65536, 2**65536 (L(n) is the least k with n <= t_k);
- l(n), the maximal-root exponent, by integer k-th roots for prime k up to
  log2 n, recursing on the root (the perfect-power test of Bernstein,
  "Detecting perfect powers in essentially linear time", Math. Comp. 1998),
  with no factorization;
- log2 applied r times to n compared with b, through n <= 2^2^...^b;
- instance counts of the scan families from their defining inequalities;
- known Ramsey values: W(2,4) = 35, W(3,3) = 27 (Chvatal 1970), and the
  exponential numbers 4 (one colour) and 65536 (two colours).

Terms are materialized by :func:`materialize`, a plain evaluator with a size
guard, independent of ``tower.eval_exact`` and of the exactness cutoff.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

TOWER_5_BITS = 65536  # t_5 = 2**65536
MATERIALIZE_BITS = TOWER_5_BITS + 1  # values up to and including t_5

KNOWN_VDW = {(2, 4): 35, (3, 3): 27, (2, 3): 9}
KNOWN_EXP = {1: 4, 2: 65536}


# ---------------------------------------------------------------------------
# integers

def log_star(n: int) -> int:
    """Least k with n <= t_k, for 1 <= n <= 2**65536."""
    if n < 1:
        raise ValueError("log_star needs n >= 1")
    for k, t in enumerate((1, 2, 4, 16, 65536)):
        if n <= t:
            return k
    if n <= 1 << TOWER_5_BITS:
        return 5
    raise ValueError("value above t_5; not materializable here")


def _of_count(r: int, L: int) -> int:
    return (L - 1) % (r + 2) + 1


def logstar_colour(r: int, n: int) -> int:
    return r + 3 if n == 1 else _of_count(r, log_star(n))


def iroot(n: int, k: int) -> int:
    """Largest x with x**k <= n (integer Newton iteration from above)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def max_root_exponent(n: int) -> int:
    """l(n) = max{b : n = a^b}; l(1) = 0."""
    if n < 1:
        raise ValueError("l needs n >= 1")
    if n == 1:
        return 0
    b, k = 1, 2
    while 1 << k <= n:
        if is_prime(k):
            x = iroot(n, k)
            if x**k == n:
                n, b = x, b * k
                continue  # the root may be a k-th power again
        k += 1
    return b


def schurexp_colour(n: int) -> int:
    return 4 * (n % 4) + max_root_exponent(n) % 4 + 1


def lacunary_colour(colouring, n: int) -> int:
    """Colour of n >= 0 from the alphas a LacunaryColouring published:
    quarter index of frac(alpha * n) per class, combined in base 4."""
    out, base = 0, 1
    for a in colouring.alphas:
        frac = (a.alpha * n) % 1
        out += int(4 * frac) * base
        base *= 4
    return out + 1


def nu2(n: int) -> int:
    return (n & -n).bit_length() - 1


def pow2abb_colour(colouring, n: int) -> int:
    if n == 1 or n % 2:
        return colouring.k
    return lacunary_colour(colouring.inner, nu2(nu2(n)))


def iter_log_le(n: int, r: int, b: int) -> bool:
    """log2 applied r times to n is <= b, via n <= 2^(2^...^b) and the
    identity n <= 2^X  <=>  bit_length(n - 1) <= X for integers n >= 1."""
    while r > 0:
        if n <= 1:
            return True
        n = (n - 1).bit_length()
        r -= 1
    return n <= b


def ref_colour(colouring, n: int) -> Optional[int]:
    """Reference colour of a plain integer, or None without an oracle."""
    rule = colouring.rule
    kind = rule["type"]
    if kind == "logstar":
        return logstar_colour(rule["r"], n)
    if kind == "schurexp":
        return schurexp_colour(n)
    if kind == "lacunary":
        return lacunary_colour(colouring, n)
    if kind == "pow2abb":
        return pow2abb_colour(colouring, n)
    return None


# ---------------------------------------------------------------------------
# terms

def materialize(term, max_bits: int = MATERIALIZE_BITS) -> Optional[int]:
    """Value of a tower term when it has at most ``max_bits`` bits."""
    from expramsey.tower import Literal, Power, Product

    if isinstance(term, Literal):
        return term.value if term.value.bit_length() <= max_bits else None
    if isinstance(term, Product):
        acc = 1
        for f in term.factors:
            v = materialize(f, max_bits)
            if v is None:
                return None
            acc *= v
            if acc.bit_length() > max_bits:
                return None
        return acc
    if isinstance(term, Power):
        base = materialize(term.base, max_bits)
        if base is None:
            return None
        if base == 1:
            return 1
        exp = materialize(term.exponent, max_bits.bit_length() + 1)
        if exp is None or (base.bit_length() - 1) * exp >= max_bits:
            return None
        v = base**exp
        return v if v.bit_length() <= max_bits else None
    raise TypeError(f"not a tower term: {term!r}")


# ---------------------------------------------------------------------------
# scan families: counts, enumeration order, exact replays

def exp_pairs(bound: int) -> List[Tuple[int, int, int]]:
    """(a^b, a, b) for a, b >= 2 with a^b <= bound, in the documented
    enumeration order (power, max(a,b), min(a,b), a, b)."""
    out = []
    b = 2
    while 1 << b <= bound:
        a = 2
        while a**b <= bound:
            out.append((a**b, a, b))
            a += 1
        b += 1
    out.sort(key=lambda t: (t[0], max(t[1], t[2]), min(t[1], t[2]), t[1], t[2]))
    return out


def logcond_pairs(bound: int, r: int) -> List[Tuple[int, int, int]]:
    return [t for t in exp_pairs(bound) if iter_log_le(t[1], r, t[2])]


def schur_instances(bound: int):
    """(x, y, x+y) with 1 <= x <= y, ordered by sum, then y ascending."""
    for s in range(2, bound + 1):
        for y in range((s + 1) // 2, s):
            yield s - y, y, s


def diff_sequence(seq_name: str, n_max: int) -> List[int]:
    if seq_name != "n*2^n":
        raise ValueError(f"no reference for sequence {seq_name}")
    return [n << n for n in range(1, n_max + 1)]


def family_count(kind: str, bound: int, **params) -> int:
    if kind == "expquad":
        n = bound - 1
        return n * (n + 1) // 2
    if kind == "exptriple":
        return len(exp_pairs(bound))
    if kind == "exptriple-logcond":
        return len(logcond_pairs(bound, params["r"]))
    if kind == "schur":
        return sum(s // 2 for s in range(2, bound + 1))
    if kind == "schurplusexp":
        return family_count("schur", bound) * family_count("exptriple", bound)
    if kind == "diffpair":
        return sum(bound - d for d in diff_sequence(params["seq"], params["nmax"])
                   if d < bound)
    if kind in ("shape", "fep"):
        return (bound - 1) ** params["m"]
    raise ValueError(f"no reference count for family {kind}")


def _power_log_star_small(a: int, b: int) -> int:
    """L(a^b) for 2 <= a, b with b * bit_length(a) < 65536, so a^b < t_5."""
    if b * (a.bit_length() - 1) >= 17:
        return 5  # a^b >= 2^17 > t_4 = 65536 and a^b < 2^65536 = t_5
    return log_star(a**b)


def first_mono(colouring, kind: str, bound: int, **params) -> Optional[Tuple[int, Tuple[int, ...], int]]:
    """(index, generators, colour) of the first monochromatic instance of a
    bounded-int family in enumeration order, or None when there is none.

    An exact replay over every instance; colours come from :func:`ref_colour`.
    """
    colour = _Colours(colouring)
    if kind == "exptriple":
        for i, (p, a, b) in enumerate(exp_pairs(bound)):
            if colour[a] == colour[b] == colour[p]:
                return i, (a, b), colour[a]
        return None
    if kind == "exptriple-logcond":
        for i, (p, a, b) in enumerate(logcond_pairs(bound, params["r"])):
            if colour[b] == colour[p]:
                return i, (a, b), colour[b]
        return None
    if kind == "schur":
        for i, (x, y, s) in enumerate(schur_instances(bound)):
            if colour[x] == colour[y] == colour[s]:
                return i, (x, y), colour[x]
        return None
    if kind == "expquad":
        r = colouring.rule["r"]
        if bound * bound.bit_length() >= TOWER_5_BITS:
            raise ValueError("expquad replay needs a^b below t_5")
        i = 0
        for b in range(2, bound + 1):
            cb = colour[b]
            for a in range(2, b + 1):
                if colour[a] == cb:
                    if (_of_count(r, _power_log_star_small(a, b)) == cb
                            and _of_count(r, _power_log_star_small(b, a)) == cb):
                        return i, (a, b), cb
                i += 1
        return None
    if kind == "diffpair":
        diffs = diff_sequence(params["seq"], params["nmax"])
        order = sorted(((d, n) for n, d in enumerate(diffs, 1) if d < bound),
                       reverse=True)
        # a monochromatic pair exists iff some (x, x+d) shares a colour; the
        # first in (larger element, x) order is found by a second, ordered
        # pass only when the unordered check finds one
        if all(colour[x] != colour[x + d] for d, _ in order
               for x in range(1, bound - d + 1)):
            return None
        i = 0
        for m in range(2, bound + 1):
            for d, n in order:
                x = m - d
                if x >= 1:
                    if colour[x] == colour[m]:
                        return i, (n, x), colour[x]
                    i += 1
        return None
    raise ValueError(f"no replay for family {kind}")


class _Colours(dict):
    """Reference colours, computed on first use."""

    def __init__(self, colouring):
        super().__init__()
        self.colouring = colouring

    def __missing__(self, v: int) -> int:
        c = self[v] = ref_colour(self.colouring, v)
        return c


def schurplusexp_avoids(colouring, bound: int) -> bool:
    """A joint instance {x, y, x+y} u {a, b, a^b} is monochromatic exactly
    when one colour class holds a monochromatic sum triple and a
    monochromatic power triple, so avoidance is an empty intersection."""
    colour = _Colours(colouring)
    exp_classes = {colour[a] for p, a, b in exp_pairs(bound)
                   if colour[a] == colour[b] == colour[p]}
    for x, y, s in schur_instances(bound):
        c = colour[x]
        if c in exp_classes and colour[y] == c and colour[s] == c:
            return False
    return True


# ---------------------------------------------------------------------------
# Ramsey witnesses

def vdw_witness_ok(colours: Sequence[int], k: int, length: int) -> bool:
    """No monochromatic length-term progression in the colouring of [n]."""
    n = len(colours)
    if any(not 1 <= c <= k for c in colours):
        return False
    for d in range(1, n):
        for s in range(1, n - (length - 1) * d + 1):
            c = colours[s - 1]
            if all(colours[s - 1 + i * d] == c for i in range(1, length)):
                return False
    return True


def exp_witness_ok(colours: Sequence[int], k: int) -> bool:
    """No monochromatic {a, b, a^b} with a^b <= n in the colouring of [n]."""
    n = len(colours)
    if any(not 1 <= c <= k for c in colours):
        return False
    for p, a, b in exp_pairs(n):
        if colours[a - 1] == colours[b - 1] == colours[p - 1]:
            return False
    return True
