"""Term algebra, exact/modular evaluation, and the certified log machinery."""

import copy
import functools
import itertools
import math
import pickle
import random
import sys
import time
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expramsey import _arith, _intlog, colourings, tower
from expramsey._arith import factorint, gcd_of_exponents, root_exponent
from expramsey._intlog import (
    PREC_SCHEDULE,
    TOWERS,
    iter_log_le,
    log2_scaled_bounds,
    log_star_int,
    log_star_scaled,
)
from expramsey.colourings import parse_colouring
from expramsey.errors import (
    ExpRamseyError,
    FactorizationBudgetExceeded,
    ParseError,
    UncertifiableComparison,
    UncertifiableLogStar,
)
from expramsey.tower import (
    DEFAULT_CUTOFF,
    Literal,
    Power,
    Product,
    _log2_sandwich,
    _log2_term_scaled,
    _pow2_exponent_term,
    as_term,
    compare_iter_log,
    dedup_key,
    eval_exact,
    eval_mod,
    literal,
    log_star,
    max_root_exponent,
    max_root_exponent_mod,
    nu_p,
    parse_term,
    power,
    product,
    to_text,
)


def tower_term(h: int):
    """Right-nested 2-tower of height h as a term: h=1 -> 2, h=2 -> 2^2, ..."""
    t = literal(2)
    for _ in range(h - 1):
        t = power(2, t)
    return t


# ---------------------------------------------------------------------------
# factories and normal form

def test_factory_normalization():
    assert power(2, 1) == Literal(2)
    assert product(literal(2)) == Literal(2)
    # literal factors collapse by multiplication
    assert product(2, product(3, 5)) == Literal(30)
    assert product(1, 1) == Literal(1)
    t = product(2, power(3, 100))
    assert isinstance(t, Product) and len(t.factors) == 2


def test_literal_must_be_positive():
    with pytest.raises(ValueError):
        Literal(0)
    with pytest.raises(ValueError):
        literal(-3)


def test_as_term_accepts_ints_and_terms():
    assert as_term(7) == Literal(7)
    t = power(2, 3)
    assert as_term(t) is t


# ---------------------------------------------------------------------------
# parser and printer

@pytest.mark.parametrize("text", ["2", "2^3", "2^3^2", "2*3^2", "2^2*3"])
def test_parse_to_text_round_trip(text):
    assert to_text(parse_term(text)) == text


def test_parse_collapses_literal_products():
    # canonical form multiplies adjacent literal factors out
    assert parse_term("7*11") == Literal(77)


def test_parse_right_associative():
    assert parse_term("2^3^2") == power(2, power(3, 2))
    assert eval_exact(parse_term("2^3^2")).exact == 2**9


@pytest.mark.parametrize("bad", ["", "2^^3", "x", "2^", "(2", "2**3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_term(bad)


@pytest.mark.parametrize("bad, at", [("2^\u00b2", 2), ("\u0663^2", 0), ("7*\uff18", 2)])
def test_parse_takes_only_ascii_digits(bad, at):
    # str.isdigit accepts superscripts, Arabic-Indic and full-width digits;
    # to_text writes none of them, so parse_term refuses them
    with pytest.raises(ParseError, match=f"position {at}"):
        parse_term(bad)


def test_parse_refuses_a_literal_past_the_int_string_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for text, at in (("1" * 5000, 0), ("2^" + "1" * 5000, 2)):
            with pytest.raises(ParseError, match=f"5000 digits at position {at}"):
                parse_term(text)
        assert parse_term("1" * 4300) == Literal(int("1" * 4300))
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_round_trip_random_trees():
    rng = random.Random(11)

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return literal(rng.randint(1, 50))
        if rng.random() < 0.5:
            return power(rng.randint(2, 9), tree(depth - 1))
        return product(tree(depth - 1), tree(depth - 1))

    for _ in range(300):
        t = tree(3)
        assert parse_term(to_text(t)) == t


# ---------------------------------------------------------------------------
# evaluation

def test_eval_exact_small_towers():
    assert eval_exact(tower_term(4)).exact == 65536
    assert eval_exact(parse_term("2^2^2^2")).exact == 65536
    assert eval_exact(product(2, power(2, 5))).exact == 64


def test_eval_exact_huge_past_cutoff():
    bv = eval_exact(power(2, 65536))
    assert bv.exact is None and not bv.is_exact
    # explicit cutoff override
    assert not eval_exact(power(2, 10), cutoff=100).is_exact
    assert eval_exact(power(2, 10), cutoff=2000).exact == 1024


def test_dedup_key_merges_equal_exact_values():
    assert dedup_key(power(2, 4)) == dedup_key(literal(16))
    assert dedup_key(power(2, 65536)) != dedup_key(power(3, 65536))
    assert (dedup_key(product(power(2, 32), power(2, 32))) == dedup_key(power(2, 64))
            == ("v", 2**64))
    # a product of small factors can exceed the cutoff, and so can a literal
    big = product(power(2, 40), power(3, 40))
    assert dedup_key(big) == ("s", big)
    assert dedup_key(literal(9)) == ("v", 9)


def _reference_eval_bounded(t, cutoff):
    """The tree walk eval_exact ran before terms held their value: the value
    of t when at most cutoff, else None."""
    if isinstance(t, Literal):
        return t.value if t.value <= cutoff else None
    if isinstance(t, Product):
        acc = 1
        for f in t.factors:
            fv = _reference_eval_bounded(f, cutoff)
            if fv is None:
                return None
            acc *= fv
            if acc > cutoff:
                return None
        return acc
    bv = _reference_eval_bounded(t.base, cutoff)
    if bv is None:
        return None
    if bv == 1:
        return 1
    ev = _reference_eval_bounded(t.exponent, cutoff.bit_length() + 1)
    if ev is None:
        return None
    if (bv.bit_length() - 1) * ev > cutoff.bit_length():
        return None
    val = bv**ev
    return val if val <= cutoff else None


CUTOFF_EDGES = [power(2, 64), literal(2**64), literal(2**64 + 1), power(2**32, 2),
                power(2, power(2, 6)), power(2, 65), power(3, 40), power(3, 41),
                product(power(2, 32), power(2, 32)), product(power(2, 32), power(2, 32), 2),
                product(power(2, 40), power(3, 30)), product(2**63, power(2, 2)),
                Power(Literal(1), power(2, 100))]


def _one_power(e):
    # a raw node whose base denotes 1; the factory would collapse it
    return Literal(1) if e == Literal(1) else Power(Literal(1), e)


TERMS = st.recursive(
    st.one_of(st.integers(min_value=1, max_value=2**70).map(literal),
              st.integers(min_value=1, max_value=70).map(literal),
              st.sampled_from(CUTOFF_EDGES)),
    lambda kids: st.one_of(
        st.builds(power, kids, kids),
        st.lists(kids, min_size=1, max_size=4).map(lambda fs: product(*fs)),
        kids.map(_one_power)),
    max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(TERMS)
def test_eval_exact_matches_the_tree_walk(t):
    for c in (1, 2, 65, 66, 2**64 - 1, 2**64, 2**64 + 1, 2**4096):
        assert eval_exact(t, c).exact == _reference_eval_bounded(t, c), c
    assert t.exact == _reference_eval_bounded(t, 2**64)


@settings(max_examples=300, deadline=None)
@given(TERMS, st.integers(min_value=1, max_value=10**12))
def test_eval_mod_matches_the_materialized_value(t, m):
    v = _reference_eval_bounded(t, 2**4096)
    if v is not None:
        assert eval_mod(t, m) == v % m


def test_exact_field_leaves_identity_unchanged():
    t = power(2, product(3, power(5, 7)))
    assert repr(Literal(5)) == "Literal(value=5)"
    assert repr(power(2, 3)) == "Power(base=Literal(value=2), exponent=Literal(value=3))"
    assert to_text(t) == "2^(3*5^7)"
    # == and hash compare base and exponent only: a node whose exact field
    # is forced to another value still equals, hashes and prints the same
    forged = Power(t.base, t.exponent)
    object.__setattr__(forged, "exact", 12345)
    assert forged == t and hash(forged) == hash(t) and repr(forged) == repr(t)
    assert Power(t.base, literal(3)) != t and Power(literal(3), t.exponent) != t
    assert t != to_text(t) and Literal(5) != 5
    # the hash is that of the compared fields, as a frozen dataclass's is
    assert hash(t) == hash((t.base, t.exponent))
    assert hash(Literal(2**70)) == hash((2**70,))
    assert hash(t.exponent) == hash((t.exponent.factors,))
    assert product(power(2, 3), 5) == Product((Power(Literal(2), Literal(3)), Literal(5)))
    assert len({power(2, 3), Power(Literal(2), Literal(3))}) == 1


def test_a_term_hashes_its_fields_once(monkeypatch):
    t = tower_term(40)
    keys = []
    for cls in (Literal, Power, Product):
        monkeypatch.setattr(cls, "_key", lambda self, key=cls._key: keys.append(self) or key(self))
    h = hash(t)
    assert len(keys) == 79  # once per node: 39 powers, each over its own 2
    assert hash(t) == h and hash(power(2, t)) == hash((literal(2), t))
    assert len(keys) == 82  # the new power, its base 2 and the literal(2) above


def test_exact_field_survives_pickle_and_copy():
    for t in (literal(7), literal(2**70), power(2, 64), power(2, 65), tower_term(5),
              product(power(2, 32), power(2, 32)), product(power(2, 40), power(3, 30))):
        fresh = pickle.dumps(t)
        hash(t)  # the hash it keeps stays out of the pickle
        assert pickle.dumps(t) == fresh
        for u in (pickle.loads(fresh), copy.deepcopy(t), copy.copy(t)):
            assert u == t and u.exact == t.exact == _reference_eval_bounded(t, 2**64)
    # pickles and copies rebuild exact from the fields, as each raw
    # constructor does
    forged = power(2, 6)
    object.__setattr__(forged, "exact", 5)
    assert pickle.loads(pickle.dumps(forged)).exact == copy.deepcopy(forged).exact == 64
    assert Literal(2**70).exact is None and Literal(5).exact == 5
    assert Power(literal(2), literal(70)).exact is None
    assert Power(literal(2), literal(6)).exact == 64
    big = product(power(2, 40), power(3, 30))
    assert big.exact is None
    assert Product(big.factors[:1] + (literal(3),)).exact == 3 * 2**40
    with pytest.raises(TypeError):
        Literal(3, exact=4)  # not a constructor argument


def test_eval_exact_at_the_default_cutoff_walks_nothing(monkeypatch):
    tall = tower_term(30)
    wide = product(*(power(k, 3) for k in range(2, 42)))
    small = product(*(power(2, 1 + k % 2) for k in range(40)))
    assert len(wide.factors) == len(small.factors) == 40
    walks = []
    walk = tower._eval_bounded

    def counted(t, cutoff):
        walks.append(cutoff)
        return walk(t, cutoff)

    monkeypatch.setattr(tower, "_eval_bounded", counted)
    for t in (tall, wide, small):
        eval_exact(t)
        eval_exact(t, 2**64)
        eval_exact(t, 1000)
    assert walks == []
    assert eval_exact(small).exact == 2**60
    assert not eval_exact(tall).is_exact and not eval_exact(wide).is_exact
    # larger cutoffs still recurse
    assert eval_exact(wide, 2**4096).exact == _reference_eval_bounded(wide, 2**4096)
    assert walks


def test_eval_mod_huge_tower():
    assert eval_mod(power(2, 65536), 100) == pow(2, 65536, 100)
    assert eval_mod(power(7, power(7, 7)), 10) == pow(7, 7**7, 10)
    t = power(2, power(2, 65536))  # exponent itself huge
    assert eval_mod(t, 3) == 1  # 2^even mod 3


def test_eval_mod_matches_exact_on_random_trees():
    rng = random.Random(7)

    def tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return literal(rng.randint(1, 40))
        if rng.random() < 0.5:
            return power(rng.randint(2, 6), tree(depth - 1))
        return product(tree(depth - 1), tree(depth - 1))

    checked = 0
    while checked < 1500:
        t = tree(3)
        bv = eval_exact(t)
        if not bv.is_exact:
            continue
        m = rng.randint(2, 10**6)
        assert eval_mod(t, m) == bv.exact % m
        checked += 1


# ---------------------------------------------------------------------------
# iterated log: exact integers

def test_log_star_int_frozen_table():
    expect = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 16: 3, 17: 4,
              65536: 4, 65537: 5, 2**64: 5}
    for x, l in expect.items():
        assert log_star_int(x) == l, x


def test_log_star_int_jumps_exactly_above_towers():
    # n = 5 is the last tower in the table; above it the count steps down
    for n in range(1, 6):
        t = TOWERS[n]
        assert log_star_int(t) == n
        assert log_star_int(t + 1) == n + 1


def _log_star_by_steps(n):
    """The count one step at a time: n -> ceil(log2 n) until n <= 1."""
    k = 0
    while n > 1:
        n = n.bit_length() - (n & (n - 1) == 0)
        k += 1
    return k


def test_log_star_int_matches_the_step_loop_above_the_last_tower():
    rng = random.Random(5)
    xs = [TOWERS[-1] + 1, 2 * TOWERS[-1], 4 * TOWERS[-1] - 1]
    xs += [TOWERS[-1] + rng.getrandbits(rng.randrange(65536, 200_000))
           for _ in range(30)]
    for x in xs:
        assert x > TOWERS[-1]
        assert log_star_int(x) == _log_star_by_steps(x), x.bit_length()
    # and below it, where the table answers
    for x in range(1, 2**12):
        assert log_star_int(x) == _log_star_by_steps(x), x


def test_log_star_int_monotone_random():
    rng = random.Random(3)
    for _ in range(2000):
        x = rng.randint(1, 2**80)
        y = rng.randint(1, 2**80)
        if x > y:
            x, y = y, x
        assert log_star_int(x) <= log_star_int(y)


# ---------------------------------------------------------------------------
# iterated log: symbolic terms

def test_log_star_symbolic_towers():
    assert log_star(tower_term(5)) == 5
    assert log_star(tower_term(6)) == 6
    assert log_star(tower_term(7)) == 7
    assert log_star(power(2, 65536)) == 5


def test_log_star_huge_non_power_of_two():
    # 3^1000: log2 is about 1585, so L = 1 + L(1585) = 1 + 4
    assert log_star(power(3, 1000)) == 5
    assert log_star(power(3, power(3, 3))) == log_star_int(3**27)
    assert log_star(product(3, power(2, 100))) == log_star_int(3 * 2**100)


def test_log_star_shift_law_symbolic():
    # L(2^y) = L(y) + 1 for y >= 1
    for h in range(1, 7):
        y = tower_term(h)
        assert log_star(power(2, y)) == log_star(y) + 1
    assert log_star(power(2, power(3, 1000))) == log_star(power(3, 1000)) + 1


def test_log_star_refuses_a_term_with_a_literal_past_the_digit_limit():
    # the refusal's message must not print the term: str() of a literal
    # past 4,300 digits raises ValueError, which is no EvaluationError
    t = product(literal(3**10000), parse_term("3^3^3^3^3^3"))
    with pytest.raises(UncertifiableLogStar):
        log_star(t)
    with pytest.raises(UncertifiableLogStar):
        parse_colouring("logstar:r=1").colour(t)


def test_log_star_reads_a_literal_of_any_size_by_bit_inspection(monkeypatch):
    def refuse(n, prec):
        raise AssertionError("a literal needs no certified interval")

    monkeypatch.setattr(tower, "log2_scaled_bounds", refuse)
    f = parse_colouring("logstar:r=1")
    rng = random.Random(11)
    ks = [65, 66, 100, 1000, 8192, 8193, 16384, 19999]
    values = [v for k in ks for v in (2**k - 3, 2**k - 1, 2**k, 2**k + 1)]
    values += [rng.getrandbits(k) | 1 << (k - 1) for k in rng.sample(range(65, 20_001), 30)]
    for v in values:
        assert 65 <= v.bit_length() <= 20_000
        assert log_star(Literal(v)) == log_star_int(v), v.bit_length()
        assert f.colour(Literal(v)) == f.colour(v), v.bit_length()


def _log_star_by_scaled_table(x, prec):
    """log_star of x / 2**prec from the tower table scaled by 2**prec, the
    rule log_star_scaled counted by before it took ceilings: its oracle."""
    if x < 1:
        raise ValueError("log_star of a non-positive value")
    ts = [t << prec for t in TOWERS]
    if x <= ts[0]:
        return 0
    for j in range(1, 6):
        if x <= ts[j]:
            return j
    bl = x.bit_length()
    if x & (x - 1) == 0:
        return 1 + log_star_int(bl - 1 - prec)
    return 1 + log_star_int(bl - prec)


def _log_star_scaled_by_table(lo, hi, prec):
    jlo = _log_star_by_scaled_table(lo, prec)
    if lo == hi:
        return jlo
    jhi = _log_star_by_scaled_table(hi, prec)
    return jlo if jlo == jhi else None


@pytest.mark.parametrize("prec", PREC_SCHEDULE)
def test_log_star_scaled_matches_the_scaled_table_at_the_towers(prec):
    # every enclosure whose ends are t_j * 2**prec or one unit either side
    ends = sorted({(t << prec) + d for t in TOWERS for d in (-1, 0, 1)} - {0})
    for lo, hi in itertools.combinations_with_replacement(ends, 2):
        assert log_star_scaled(lo, hi, prec) == _log_star_scaled_by_table(lo, hi, prec)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PREC_SCHEDULE), st.integers(0, 200_000 - 65_538 - PREC_SCHEDULE[-1]),
       st.sampled_from(["pow2", "pow2-1", "pow2+1", "random"]),
       st.sampled_from(["same", "+1", "next pow2", "next pow2+1", "random"]),
       st.integers(0, 2**64))
def test_log_star_scaled_matches_the_scaled_table_above_t5(prec, extra, lo_kind, hi_kind, seed):
    """Random enclosures of reals above t_5, with ends up to 2**200000."""
    rng = random.Random(seed)
    bits = 65_538 + prec + extra  # lo / 2**prec > 2**65536 = t_5
    top = 1 << (bits - 1)
    lo = {"pow2": top, "pow2-1": top - 1, "pow2+1": top + 1,
          "random": top | rng.getrandbits(bits - 1)}[lo_kind]
    hi = {"same": lo, "+1": lo + 1, "next pow2": 2 * top, "next pow2+1": 2 * top + 1,
          "random": lo + rng.getrandbits(rng.randrange(bits))}[hi_kind]
    assert lo >> prec > TOWERS[-1] and hi.bit_length() <= 200_001
    assert log_star_scaled(lo, hi, prec) == _log_star_scaled_by_table(lo, hi, prec)


# ---------------------------------------------------------------------------
# max root exponent l(x) and valuations

def test_max_root_exponent_values():
    cases = {1: 0, 2: 1, 4: 2, 8: 3, 36: 2, 64: 6, 72: 1, 65536: 16,
             2**64 - 59: 1, (2**32 - 5) ** 2: 2}
    for x, l in cases.items():
        assert max_root_exponent(literal(x)) == l, x


def test_max_root_exponent_symbolic():
    assert max_root_exponent(power(6, 10)) == 10
    assert max_root_exponent(power(4, 3)) == 6  # 4^3 = 2^6
    assert max_root_exponent(product(power(2, 10), power(3, 5))) == 5


def test_max_root_exponent_mod_agrees():
    rng = random.Random(5)
    for _ in range(500):
        x = rng.randint(1, 10**6)
        y = rng.randint(1, 30)
        t = power(x, y) if x > 1 else literal(1)
        assert max_root_exponent_mod(t, 4) == max_root_exponent(t) % 4


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=2**64))
def test_root_exponent_matches_factorization(n):
    assert root_exponent(n) == gcd_of_exponents(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=2**40),
       st.integers(min_value=2, max_value=64))
def test_root_exponent_of_constructed_powers(r, k):
    assert root_exponent(r**k) == k * gcd_of_exponents(r)


def test_max_root_exponent_of_huge_literal_products():
    t = Product((Literal(3**80), Literal(3**40)))
    assert not eval_exact(t).is_exact
    assert max_root_exponent(t) == 120
    assert max_root_exponent_mod(t, 7) == 120 % 7
    assert max_root_exponent(Product((Literal(2**70), Literal(3)))) == 1


def test_max_root_exponent_never_factorizes(monkeypatch):
    rng = random.Random(23)
    ints = [1, 2, 2**64, 2**64 - 59, (2**32 - 5) ** 2, 3**40, 6**24]
    ints += [rng.randint(2, 2**64) for _ in range(40)]
    pows = [(rng.randint(2, 10**6), rng.randint(2, 40)) for _ in range(200)]
    want_ints = [gcd_of_exponents(x) if x > 1 else 0 for x in ints]
    want_pows = [gcd_of_exponents(x) * y for x, y in pows]

    def refuse(*args, **kwargs):
        raise AssertionError("l must not factorize")

    monkeypatch.setattr(_arith, "factorint", refuse)
    monkeypatch.setattr(tower, "factorint", refuse)
    for x, lx in zip(ints, want_ints):
        assert max_root_exponent(literal(x)) == lx, x
        assert max_root_exponent_mod(literal(x), 4) == lx % 4, x
    for (x, y), lx in zip(pows, want_pows):
        assert max_root_exponent(power(x, y)) == lx, (x, y)
        assert max_root_exponent_mod(power(x, y), 4) == lx % 4, (x, y)


def test_nu_p_refuses_a_base_that_is_not_prime():
    # 0 and 4 before 1: a valuation loop that trusts p = 1 never ends
    for p in (0, 4, -3, 1):
        for t in (literal(12), power(2, 3), product(4, power(3, 5))):
            with pytest.raises(ValueError):
                nu_p(t, p)
    for p in (0, 1, -2):
        with pytest.raises(ValueError):
            _arith.nu(12, p)


def test_nu_p_values():
    assert nu_p(literal(8), 2) == 3
    assert nu_p(literal(9), 2) == 0
    assert nu_p(power(2, 100), 2) == 100
    assert nu_p(power(6, 10), 2) == 10
    assert nu_p(product(4, power(3, 5)), 2) == 2
    assert nu_p(literal(45), 3) == 2


# ---------------------------------------------------------------------------
# certified comparisons

def test_compare_iter_log_exact_cases():
    assert compare_iter_log(literal(4), 1, literal(2))       # log2 4 = 2 <= 2
    assert not compare_iter_log(literal(5), 1, literal(2))   # log2 5 > 2
    assert compare_iter_log(literal(16), 2, literal(2))      # loglog 16 = 2
    assert compare_iter_log(literal(2**16), 2, literal(4))
    assert not compare_iter_log(literal(2**17), 2, literal(4))
    assert compare_iter_log(literal(3), 0, literal(5))
    assert not compare_iter_log(literal(5), 0, literal(3))


def test_compare_iter_log_symbolic():
    big = power(2, 65536)
    assert compare_iter_log(big, 1, literal(65536))
    assert not compare_iter_log(big, 1, literal(65535))
    assert compare_iter_log(big, 2, literal(16))
    # huge bound swallows anything exact
    assert compare_iter_log(literal(10**9), 1, big)
    # two huge terms at r = 0 are ordered by their log2 enclosures
    assert compare_iter_log(power(2, 100), 0, power(3, 100))
    assert not compare_iter_log(power(3, 100), 0, power(2, 100))
    assert compare_iter_log(power(2, 100), 0, power(2, 100))
    # log2 3^(10^6) is about 1.6 * 10^6, below 2^100 but above the cutoff
    assert compare_iter_log(power(3, 10**6), 1, power(2, 100))
    # log2 3^(2^80) = 2^80 * 1.58...: one more log of both sides orders it
    # against 2^81 and 2^80
    assert compare_iter_log(power(3, power(2, 80)), 1, power(2, 81))
    assert not compare_iter_log(power(3, power(2, 80)), 1, power(2, 80))


def test_iter_log_le_refines_an_enclosure_that_straddles_1():
    # log2^(4) 65537 is about 1 + 5.2 * 10^-7, which 16 bits cannot tell
    # from 1; log2^(4) 65535 is just below 1
    assert iter_log_le(65537, 5, 1)
    assert not iter_log_le(65537, 4, 1)
    assert iter_log_le(65535, 4, 1)


def test_iter_log_le_matches_float_reference():
    rng = random.Random(13)
    for _ in range(1000):
        a = rng.randint(2, 10**9)
        b = rng.randint(1, 60)
        r = rng.randint(1, 3)
        v = float(a)
        for _ in range(r):
            v = math.log2(v)
        # skip razor-thin margins where float error could disagree
        if abs(v - b) < 1e-6:
            continue
        assert iter_log_le(a, r, b) == (v <= b)


# ---------------------------------------------------------------------------
# dyadic log2 bounds

def reference_log2_scaled_bounds(n: int, prec: int):
    """The first log2_scaled_bounds, one interval squaring per output bit:
    its enclosure is one unit wide unless a squaring straddles 2."""
    if n < 1:
        raise ValueError("log2 of a non-positive integer")
    k = n.bit_length() - 1
    if n & (n - 1) == 0:
        return (k << prec, k << prec)
    wp = prec + 8
    # mantissa interval [mlo, mhi] / 2**wp enclosing n / 2**k, inside [1, 2)
    if k <= wp:
        mlo = mhi = n << (wp - k)
    else:
        mlo = n >> (k - wp)
        mhi = mlo + 1
    acc = 0
    frac_lo = frac_hi = None
    for i in range(prec):
        mlo *= mlo
        mhi *= mhi
        # mantissas are now scaled by 2**(2*wp); "value >= 2" means >= thresh
        thresh = 1 << (2 * wp + 1)
        if mlo >= thresh:
            bit = 1
            mlo >>= wp + 1
            mhi = (mhi >> (wp + 1)) + 1
        elif mhi < thresh:
            bit = 0
            mlo >>= wp
            mhi = (mhi >> wp) + 1
        else:
            # enclosure straddles 2: the remaining bits are undecided
            rem = prec - i
            frac_lo = acc << rem
            frac_hi = (acc + 1) << rem
            break
        acc = (acc << 1) | bit
    else:
        frac_lo = acc
        frac_hi = acc + 1
    return ((k << prec) + frac_lo, (k << prec) + frac_hi)


def _tightening_log2_scaled_bounds(n: int, prec: int):
    """log2_scaled_bounds as it was before it computed once: the guard bits
    doubled until the enclosure was (floor, floor + 1) of 2^prec log2 n,
    which near a power of two takes about as many guard bits as n has.
    Kept as the oracle of the tightest enclosure."""
    if n < 1:
        raise ValueError("log2 of a non-positive integer")
    k = n.bit_length() - 1
    if n & (n - 1) == 0:
        return (k << prec, k << prec)
    r = (math.isqrt(prec) >> 2) + 1
    guard = r + prec.bit_length() + 8
    while True:
        w = prec + guard
        lnlo, lnhi = _intlog._ln_scaled(n, k, r, w)
        l2lo, l2hi = _intlog._ln2_scaled(w)
        flo = (lnlo << prec) // l2hi
        fhi = -((-lnhi << prec) // l2lo)
        if fhi - flo == 1:
            return ((k << prec) + flo, (k << prec) + fhi)
        guard <<= 1


def _log2_bounds_checked(n: int, prec: int):
    """log2_scaled_bounds(n, prec) for n >= 3 not a power of two, checked to
    be 1 or 2 units wide and, where n^(2^prec) has at most 2^22 bits, to
    satisfy 2^lo < n^(2^prec) < 2^hi in exact integers."""
    lo, hi = log2_scaled_bounds(n, prec)
    assert hi - lo in (1, 2), (n, prec)
    if n.bit_length() << prec <= 1 << 22:
        assert 1 << lo < n ** (2**prec) < 1 << hi, (n, prec)
    return lo, hi


def test_log2_scaled_bounds_exact_oracle():
    for prec in (0, 1, 5, 16):
        for n in (3, 5, 6, 7, 10, 100, 12345):
            _log2_bounds_checked(n, prec)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=2**40), st.integers(min_value=0, max_value=11))
def test_log2_scaled_bounds_holds_the_floor(n, prec):
    """lo <= floor(2^prec log2 n) < hi, at most two units apart, by comparing
    2^lo and 2^hi with n^(2^prec); the tightest enclosure lies inside."""
    if n & (n - 1) == 0:
        n += 1
    lo, hi = _log2_bounds_checked(n, prec)
    flo, fhi = _tightening_log2_scaled_bounds(n, prec)
    assert lo <= flo < fhi <= hi


def _decimal_log2_scaled(n: int, prec: int):
    """2^prec log2 n from decimal's correctly rounded ln, and a margin on
    its error. The working digits exceed the digits of the integer part by
    40, so the few roundings (two ln, one division, one product) leave an
    error below 10^-38, far inside the margin of 10^-20."""
    digits = len(str(n.bit_length() << prec)) + 40
    with localcontext() as ctx:
        ctx.prec = digits
        x = Decimal(n).ln() / Decimal(2).ln() * (Decimal(2) ** prec)
    return x, Decimal(10) ** -20


@pytest.mark.parametrize("prec", [16, 64, 256, 1024, 4096])
def test_log2_scaled_bounds_against_decimal(prec):
    rng = random.Random(prec)
    ns = [3, 5, 7, 2**64 + 1, 2**4000 - 1, 3**2000]
    ns += [rng.getrandbits(rng.randint(2, 3000)) | 1 for _ in range(4 if prec > 1024 else 12)]
    checked = 0
    for n in ns:
        lo, hi = _log2_bounds_checked(n, prec)
        x, margin = _decimal_log2_scaled(n, prec)
        near = x.to_integral_value()
        if abs(x - near) <= margin:
            continue  # within the oracle's own error of an integer
        assert Decimal(lo) < x < Decimal(hi), (n, prec)
        checked += 1
    assert checked >= len(ns) - 1


def test_ln_enclosure_holds_at_a_few_bits():
    """The mantissa logarithm before the division by ln 2, at 2 to 40 bits,
    where a unit dropped from a rounding or from the series tail shows."""
    rng = random.Random(7)
    for _ in range(3000):
        n = rng.getrandbits(rng.randint(2, 80)) | 1
        if n < 3:
            continue
        k, r, w = n.bit_length() - 1, rng.randint(0, 4), rng.randint(2, 40)
        lo, hi = _intlog._ln_scaled(n, k, r, w)
        with localcontext() as ctx:
            ctx.prec = 60
            x = (Decimal(n) / Decimal(2) ** k).ln() * Decimal(2) ** w
        assert lo <= x <= hi, (n, r, w)


def test_ln2_bounds_against_decimal():
    for w in (1, 8, 33, 200, 1100):
        lo, hi = _intlog._ln2_scaled(w)
        with localcontext() as ctx:
            ctx.prec = w // 3 + 30
            x = Decimal(2).ln() * (Decimal(2) ** w)
        assert lo < x < hi
        assert hi - lo <= 4 * w


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=2**70),
                 st.integers(min_value=1, max_value=3000).map(lambda b: 2**b - 1),
                 st.integers(min_value=2, max_value=3000).map(lambda b: 2**b + 1)),
       st.sampled_from([0, 1, 2, 3, 7, 16, 16, 16, 32, 64, 100]))
def test_log2_scaled_bounds_nest_in_the_reference(n, prec):
    """Around the squaring routine where that is one unit wide, overlapping
    it elsewhere (where a squaring straddled 2); equal to it on powers of
    two."""
    ref = reference_log2_scaled_bounds(n, prec)
    if n & (n - 1) == 0:
        assert log2_scaled_bounds(n, prec) == ref
        return
    got = _log2_bounds_checked(n, prec)
    if ref[1] - ref[0] <= 1:
        assert got[0] <= ref[0] and ref[1] <= got[1]
    else:
        assert got[0] < ref[1] and ref[0] < got[1]


def test_log2_scaled_bounds_straddles_are_tightened():
    # arguments where a squaring of the reference straddles 2, found by
    # searching n from 3 upward
    for n, prec in ((195, 16), (473, 16), (601, 64), (1791, 64)):
        ref = reference_log2_scaled_bounds(n, prec)
        assert ref[1] - ref[0] > 1
        lo, hi = _log2_bounds_checked(n, prec)
        assert ref[0] <= lo and hi <= ref[1]


def test_log2_scaled_bounds_power_of_two_is_tight():
    lo, hi = log2_scaled_bounds(1024, 8)
    assert lo == hi == 10 * 2**8
    for e in (0, 1, 5, 64, 3000):
        for prec in (0, 16, 4096):
            assert log2_scaled_bounds(2**e, prec) == (e << prec, e << prec)


@pytest.mark.parametrize("n", [0, -1, -8])
def test_log2_scaled_bounds_rejects_non_positive(n):
    with pytest.raises(ValueError):
        log2_scaled_bounds(n, 16)


# The colourings whose colours are certified through log2_scaled_bounds.
KERNEL_COLOURINGS = ("logstar:r=1", "logstar:r=3", "abbb:nmax=8", "pow2abb:nmax=10",
                     "lacunary:seq=n*2^n,nmax=12", "lacunary:seq=n^n*log2n,nmax=6")


def _kernel_corpus(seed: int):
    """Term texts shaped like the benchmark's symbolic corpus: every tower of
    height 1 to 5 over 2 and 3, 2^3^2^3^2^3 (its abbb colour runs the whole
    precision schedule and is refused), then huge literals, powers, products
    and nested powers; with (r, b) for compare_iter_log and (a, r, b) for
    iter_log_le."""
    rng = random.Random(seed)
    texts = ["^".join(bases) for h in range(1, 6)
             for bases in itertools.product("23", repeat=h)] + ["2^3^2^3^2^3"]
    for _ in range(25):
        bits = rng.randint(65, 3000)
        texts.append(str(rng.getrandbits(bits) | 1 << (bits - 1) | 1))
        texts.append(f"{rng.randint(2, 1000)}^{rng.randint(2, 3000)}")
        texts.append("*".join(f"{rng.randint(2, 60)}^{rng.randint(2, 200)}"
                              for _ in range(rng.randint(2, 3))))
        texts.append(f"({rng.randint(2, 30)}^{rng.randint(2, 40)})^{rng.randint(2, 40)}")
    compares = [(rng.randint(1, 3), rng.randint(1, 2**16)) for _ in texts]
    ints = []
    for _ in range(500):
        a, r = rng.getrandbits(rng.randint(2, 3000)) | 1, rng.randint(1, 4)
        near = a  # b within a unit or two of the integer part of log2^(r)(a)
        for _ in range(r):
            near = near.bit_length()
        ints.append((a, r, rng.randint(max(1, near - 2), near + 1)))
    return texts, compares, ints


def _kernel_outcomes(texts, compares, ints):
    """Each call's ("ok", value) or ("refused", error class), with freshly
    parsed colourings."""
    cols = [parse_colouring(spec) for spec in KERNEL_COLOURINGS]

    def call(f, *args):
        try:
            return ("ok", f(*args))
        except ExpRamseyError as e:
            return ("refused", type(e).__name__)

    out = []
    for text, (r, b) in zip(texts, compares):
        t = parse_term(text)
        out += [(text, spec, call(col, t)) for spec, col in zip(KERNEL_COLOURINGS, cols)]
        out.append((text, "log_star", call(log_star, t)))
        out.append((text, "compare_iter_log", call(compare_iter_log, t, r, literal(b))))
    out += [(a, "iter_log_le", call(iter_log_le, a, r, b)) for a, r, b in ints]
    return out


def test_callers_agree_with_the_reference_kernel(monkeypatch):
    """Every caller of log2_scaled_bounds gives the same answers with the
    reference routine patched in at each binding; the new kernel refuses a
    call only where the reference refused it too."""
    corpus = _kernel_corpus(2016)
    got = _kernel_outcomes(*corpus)
    straddles = []

    @functools.lru_cache(maxsize=None)
    def reference(n, prec):
        lo, hi = reference_log2_scaled_bounds(n, prec)
        if hi - lo > 1:
            straddles.append((n, prec))
        return lo, hi

    for module in (_intlog, tower, colourings):
        monkeypatch.setattr(module, "log2_scaled_bounds", reference)
    want = _kernel_outcomes(*corpus)
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for (arg, call, g), (_, _, w) in zip(got, want):
        if g[0] == "refused":
            assert w[0] == "refused", (arg, call, g, w)
        elif w[0] == "ok":
            assert g == w, (arg, call, g, w)
    # the corpus reaches both kinds of reference enclosure
    assert straddles
    assert sum(w[2][0] == "ok" for w in want) > len(want) // 2


def test_log2_scaled_bounds_computes_once_near_a_power_of_two(monkeypatch):
    """One enclosure per cache miss at the fixed guard, even where the value
    lies a hair below an integer and the tightest enclosure would need
    thousands of guard bits."""
    widths = []
    real = _intlog._ln_scaled
    monkeypatch.setattr(_intlog, "_ln_scaled",
                        lambda n, k, r, w: widths.append(w) or real(n, k, r, w))
    n, prec = 2**8192 - 3, 16
    lo, hi = _intlog.log2_scaled_bounds.__wrapped__(n, prec)
    guard = (math.isqrt(prec) >> 2) + 1 + prec.bit_length() + 8
    assert widths == [prec + guard]
    # 2^16 log2 n lies just below 8192 * 2^16
    assert hi - lo in (1, 2) and lo < 8192 << prec <= hi


def _near_power_corpus(seed: int):
    """n within 2^20 of 2^k for k <= 8192, a third of them with k a power of
    two, where log2 of a power of n lands a hair from a tower number; past
    k = 4096 no scheduled precision separates log2 n from the nearby
    integer, and only the bit length of n puts the enclosure on its side."""
    rng = random.Random(seed)
    ns = []
    while len(ns) < 30:
        k = 1 << rng.randint(1, 13) if len(ns) % 3 == 0 else rng.randint(2, 8192)
        n = 2**k + rng.choice((-1, 1)) * rng.randint(1, 2**20)
        if n >= 3 and n & (n - 1):
            ns.append((k, n))
    return ns


def _near_power_outcomes(ns):
    """("ok", value) or ("refused", error class) of the abbb and logstar
    colours of n, n^3, n^(2^16/k) and 3 n^2, and of compare_iter_log on n^3
    and n^(2^16/k) against integers at and beside the near ties."""
    cols = [parse_colouring(spec) for spec in ("abbb:nmax=8", "logstar:r=1", "logstar:r=3")]

    def call(f, *args):
        try:
            return ("ok", f(*args))
        except ExpRamseyError as e:
            return ("refused", type(e).__name__)

    out = []
    for k, n in ns:
        # log2 of the power is 2^16 = t_4 to within a hair when k | 2^16
        top = power(n, max(2, (1 << 16) // k))
        for t in (literal(n), power(n, 3), top, product(3, power(n, 2))):
            out += [call(col, t) for col in cols]
        for b in (3 * k - 1, 3 * k, 3 * k + 1):
            out.append(call(compare_iter_log, power(n, 3), 1, literal(b)))
        for r, b in ((1, 1 << 16), (2, 16), (3, 4), (4, 2)):
            out.append(call(compare_iter_log, top, r, literal(b)))
    return out


def test_callers_agree_with_the_tightening_kernel_near_powers_of_two(monkeypatch):
    """The colours and verdicts the tightest enclosures gave, from enclosures
    computed once and precision raised by the callers; nothing the tightening
    kernel answers is refused."""
    ns = _near_power_corpus(37)
    got = _near_power_outcomes(ns)
    oracle = functools.lru_cache(maxsize=None)(_tightening_log2_scaled_bounds)
    for module in (_intlog, tower, colourings):
        monkeypatch.setattr(module, "log2_scaled_bounds", oracle)
    want = _near_power_outcomes(ns)
    assert got == want
    assert sum(w[0] == "ok" for w in want) > len(want) // 2


# ---------------------------------------------------------------------------
# the exact iterated-log rule against the interval decisions it replaced

def _interval_log2_iterated(lo: int, hi: int, prec: int, j: int):
    """The interval iteration the exact rule replaced, kept as an oracle."""
    one = 1 << prec
    shift = prec << prec
    for _ in range(j):
        if hi <= one:
            return True
        if lo <= one:
            return None
        lo = log2_scaled_bounds(lo, prec)[0] - shift
        hi = log2_scaled_bounds(hi, prec)[1] - shift
    return lo, hi


def _interval_iter_log_le(a: int, r: int, b: int) -> bool:
    """The power-of-two track and interval iteration the exact rule
    replaced, kept as an oracle: it refuses some near ties and takes
    minutes near powers of two."""
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
        got = _interval_log2_iterated(*log2_scaled_bounds(cur, prec), prec, rem - 1)
        if got is None:
            continue
        if got is True or got[1] <= b << prec:
            return True
        if got[0] > b << prec:
            return False
    raise UncertifiableComparison(
        f"iterated log comparison undecided at precision {PREC_SCHEDULE[-1]}"
    )


def _interval_compare_iter_log(a, r: int, b) -> bool:
    """compare_iter_log as it was before the exact rule, kept as an oracle:
    r - 1 interval logs of log2 a."""
    if r < 0:
        raise ValueError("r must be non-negative")
    a = as_term(a)
    b = as_term(b)
    av, bv = a.exact, b.exact
    if av is not None and bv is not None:
        return _interval_iter_log_le(av, r, bv)
    if r == 0:
        if av is not None:
            return True  # a <= cutoff < b
        if bv is not None:
            return False  # a > cutoff >= b
        if a == b:
            return True
        for prec in PREC_SCHEDULE:
            try:
                alo, ahi = _log2_term_scaled(a, prec)
                blo, bhi = _log2_term_scaled(b, prec)
            except UncertifiableLogStar:
                break
            if ahi <= blo:
                return True
            if alo > bhi:
                return False
        raise UncertifiableComparison(
            "cannot order two huge terms"
        )
    if av is not None:
        # iterated logs never exceed the start value, which is <= cutoff < b
        return True
    e = _pow2_exponent_term(a)
    if e is not None:
        return _interval_compare_iter_log(e, r - 1, b)
    sandwich = None
    for prec in PREC_SCHEDULE:
        try:
            lo, hi = _log2_term_scaled(a, prec)
        except UncertifiableLogStar:
            sandwich = _log2_sandwich(a)
            break
        got = _interval_log2_iterated(lo, hi, prec, r - 1)
        if got is None:
            continue
        if got is True:
            return True
        lo, hi = got
        if bv is not None:
            if hi <= bv << prec:
                return True
            if lo > bv << prec:
                return False
        elif hi <= DEFAULT_CUTOFF << prec:
            return True  # <= cutoff < b
        else:
            # huge symbolic b: take one more log of both sides
            try:
                tlo, thi = _log2_term_scaled(b, prec)
            except UncertifiableLogStar:
                continue
            got = _interval_log2_iterated(lo, hi, prec, 1)
            if got is not None:
                if got[1] <= tlo:
                    return True
                if got[0] > thi:
                    return False
    if sandwich is not None:
        # log2 a lies strictly inside the sandwich and iterated logs are
        # monotone: the upper term below b, or the lower one above it, decides
        for term, answer in ((sandwich[1], True), (sandwich[0], False)):
            try:
                if _interval_compare_iter_log(term, r - 1, b) == answer:
                    return answer
            except UncertifiableComparison:
                pass
    raise UncertifiableComparison(
        f"cannot certify iterated-log comparison of {to_text(a)} against {to_text(b)}"
    )


def _bits_iter_log_le(a: int, r: int, b: int) -> bool:
    """log2^(r)(a) <= b read off bit lengths: a <= 2^x iff
    bit_length(a - 1) <= x, for integers a >= 1."""
    for _ in range(r):
        if a <= 1:
            return True
        a = (a - 1).bit_length()
    return a <= b


def _agrees_with_oracle(new, old, *args) -> None:
    """``new`` gives ``old``'s verdict wherever ``old`` answers, so it never
    refuses there; where ``old`` raises, ``new`` may answer."""
    try:
        want = old(*args)
    except (ExpRamseyError, ValueError):  # refused, or failed to say why
        return
    assert new(*args) is want, args


@pytest.mark.parametrize("seed", [1, 7])
def test_exact_rule_agrees_with_the_interval_decisions_on_the_kernel_corpus(seed):
    texts, compares, ints = _kernel_corpus(seed)
    # and towers of height 3 to 6 over 3 and 6, 3^3^3^3^3^3 among them
    texts += ["^".join(bs) for h in range(3, 7) for bs in itertools.product("36", repeat=h)]
    terms = list(map(parse_term, texts))
    rng = random.Random(seed)
    for t in terms:
        for r, b in [rng.choice(compares), (rng.randint(0, 4), rng.randint(1, 80))]:
            _agrees_with_oracle(compare_iter_log, _interval_compare_iter_log,
                                t, r, literal(b))
        # a huge symbolic right side, and the r = 0 ordering
        _agrees_with_oracle(compare_iter_log, _interval_compare_iter_log,
                            t, rng.randint(0, 3), rng.choice(terms))
    for a, r, b in ints:
        _agrees_with_oracle(iter_log_le, _interval_iter_log_le, a, r, b)
        _agrees_with_oracle(compare_iter_log, _interval_compare_iter_log,
                            literal(a), r, literal(b))


@st.composite
def _huge_ints(draw, min_bits=1, max_bits=70000):
    """Ints of ``min_bits`` to ``max_bits`` bits, their low bits from a
    seeded random source: ints drawn whole past a few thousand bits exceed
    hypothesis's entropy limit."""
    n = draw(st.integers(min_bits, max_bits))
    return 1 << (n - 1) | draw(st.randoms(use_true_random=False)).getrandbits(n - 1)


@st.composite
def _near_ties(draw):
    """(a, r, b) with a up to 2^70000 off a power of two by a relative gap
    of at least 2^-600, which keeps the interval oracle to a few
    milliseconds, and b within a unit or two of the integer part of
    log2^(r)(a)."""
    k = draw(st.integers(2, 70000))
    d = draw(_huge_ints(max(1, k - 599), k))
    a = (1 << k) + d if draw(st.booleans()) else (1 << k) - d
    r = draw(st.integers(1, 3))
    near = a
    for _ in range(r):
        near = near.bit_length()
    return a, r, draw(st.integers(max(1, near - 2), near + 1))


@settings(max_examples=150, deadline=None)
@given(_near_ties())
def test_exact_rule_agrees_with_the_interval_decisions_on_near_ties(case):
    _agrees_with_oracle(iter_log_le, _interval_iter_log_le, *case)
    a, r, b = case
    _agrees_with_oracle(compare_iter_log, _interval_compare_iter_log,
                        literal(a), r, literal(b))
    assert iter_log_le(a, r, b) is _bits_iter_log_le(a, r, b)


@settings(max_examples=300, deadline=None)
@given(_huge_ints(), st.integers(0, 6), st.integers(1, 2**20))
def test_iter_log_le_never_raises_and_matches_bit_lengths(a, r, b):
    assert iter_log_le(a, r, b) is _bits_iter_log_le(a, r, b)
    assert compare_iter_log(literal(a), r, literal(b)) is _bits_iter_log_le(a, r, b)


def test_exact_rule_decides_what_the_interval_decisions_could_not():
    # log2(2^5000 + 1) exceeds 5000 by about 2^-4999, past 4096 bits
    assert not iter_log_le(2**5000 + 1, 1, 5000)
    with pytest.raises(UncertifiableComparison):
        _interval_iter_log_le(2**5000 + 1, 1, 5000)
    # just below T_2(16) = 2^65536, whose enclosures took minutes to narrow
    start = time.perf_counter()
    assert not iter_log_le(2**65536 - 1, 2, 15)
    assert time.perf_counter() - start < 0.1
    # a literal past str()'s digit limit: the refusal's message raised
    assert not compare_iter_log(literal(2**65536 + 1), 2, literal(16))
    assert compare_iter_log(literal(2**65536), 2, literal(16))


# ---------------------------------------------------------------------------
# factorization

def test_factorint_reconstructs_and_is_prime():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 10**6)
        f = factorint(n)
        prod = 1
        for p, e in f.items():
            prod *= p**e
            assert all(p % q for q in range(2, min(p, 1000)) if q * q <= p)
        assert prod == n


def test_gcd_of_exponents():
    assert gcd_of_exponents(36) == 2
    assert gcd_of_exponents(64) == 6
    assert gcd_of_exponents(2**4 * 3**2) == 2
    assert gcd_of_exponents(2**4 * 3**3) == 1


def test_factorization_budget_raises():
    n = 1000000007 * 1000000009  # semiprime out of trial-division reach
    with pytest.raises(FactorizationBudgetExceeded):
        factorint(n, rho_budget=5)
    assert factorint(n) == {1000000007: 1, 1000000009: 1}
