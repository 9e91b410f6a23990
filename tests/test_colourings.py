"""Explicit colouring constructions and the colouring mini-language."""

import hashlib
import itertools
import json
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expramsey.colourings import (
    COLOURINGS,
    AbbbColouring,
    ConstColouring,
    GeometricSequence,
    LacunaryColouring,
    LogStarColouring,
    NPowNLog2Sequence,
    NTimesPow2Sequence,
    Pow2AbbColouring,
    ProductColouring,
    SchurExpColouring,
    TableColouring,
    build_lacunary_alpha,
    parse_colouring,
    parse_seq,
    product_colouring,
)
from expramsey import colourings, tower
from expramsey._intlog import PREC_SCHEDULE, log2_scaled_bounds
from expramsey.errors import (
    ExpRamseyError,
    OutOfDomain,
    ParseError,
    SequenceNotSufficientlyLacunary,
    UncertifiableComparison,
)
from expramsey.tower import literal, parse_term, power, product


# ---------------------------------------------------------------------------
# log* colouring

def test_logstar_values_r1():
    f = LogStarColouring(1)
    assert f.k == 4
    assert [f.colour(x) for x in (2, 4, 16, 65536)] == [1, 2, 3, 1]
    assert f.colour(1) == 4


def test_logstar_symbolic_r2():
    f = LogStarColouring(2)
    # L(2^65536) = 5, residue mod 4 gives colour 1
    assert f.colour(power(2, 65536)) == 1


def test_logstar_requires_positive_r():
    with pytest.raises(ValueError):
        LogStarColouring(0)


def test_logstar_colour_power_matches_generic():
    f = LogStarColouring(1)
    rng = random.Random(29)
    for _ in range(400):
        a = rng.randint(2, 300)
        b = rng.randint(2, 300)
        assert f.colour_power(a, b) == f.colour(power(a, b))


def test_logstar_no_mono_pair_under_log_condition_spot():
    # log2 a <= b forces colour(b) != colour(a^b)
    f = LogStarColouring(1)
    for a, b in ((2, 2), (2, 10), (3, 2), (4, 2), (16, 4), (7, 3)):
        assert f.colour(b) != f.colour(power(a, b))


# ---------------------------------------------------------------------------
# Schur/exponential inconsistency colouring

def test_schurexp_pairs():
    f = SchurExpColouring()
    assert f.pair(8) == (0, 3)
    assert f.pair(1) == (1, 0)
    assert f.pair(36) == (0, 2)
    assert f.k == 16
    assert f.colour(1) == 5  # encodes (1, 0)


def test_schurexp_symbolic():
    f = SchurExpColouring()
    assert f.pair(power(2, 100)) == (0, 0)  # 2^100 mod 4, l = 100 mod 4
    assert f.pair(power(3, 81)) == (3**81 % 4, 1)


# ---------------------------------------------------------------------------
# sequences

def test_parse_seq_registry():
    assert isinstance(parse_seq("n*2^n"), NTimesPow2Sequence)
    assert isinstance(parse_seq("n^n*log2n"), NPowNLog2Sequence)
    g = parse_seq("5^n")
    assert isinstance(g, GeometricSequence) and g.exact(3) == 125
    with pytest.raises(ParseError):
        parse_seq("fibonacci")


def test_sequence_values():
    s = NTimesPow2Sequence()
    assert [s.exact(n) for n in (1, 2, 3, 12)] == [2, 8, 24, 12 * 2**12]
    t = NPowNLog2Sequence()
    assert t.start == 2
    assert t.exact(4) == 4**4 * 2  # log2 4 = 2 exactly
    assert t.exact(3) is None  # irrational, only bounds exist
    import math
    lo, hi = t.bounds(3, 16)
    assert lo <= 3**3 * math.log2(3) * 2**16 <= hi


# ---------------------------------------------------------------------------
# lacunary alpha construction

def test_build_lacunary_alpha_geometric5():
    la = build_lacunary_alpha("5^n", 6)
    for n in range(1, 7):
        frac = (la.alpha * 5**n) % 1
        assert Fraction(1, 4) < frac < Fraction(3, 4), n


def test_build_lacunary_alpha_single_step():
    la = build_lacunary_alpha("5^n", 1)
    assert Fraction(1, 4) < (la.alpha * 5) % 1 < Fraction(3, 4)


def test_build_lacunary_alpha_ratio_too_small():
    with pytest.raises(SequenceNotSufficientlyLacunary):
        build_lacunary_alpha("3^n", 4)  # ratio 3 < 4


def _scanned_step(lo, hi, blo, bhi):
    """The step build_lacunary_alpha once took, kept as an oracle: every j
    from below the first left end inside [lo, hi] to past hi * bhi, and the
    first admissible component less an eighth at each end."""
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    j = max(0, (lo * blo - quarter).__floor__())
    j_stop = (hi * bhi).__ceil__() + 1
    while j <= j_stop:
        clo = (j + quarter) / blo
        chi = (j + three_quarters) / bhi
        if clo >= lo and chi <= hi and chi > clo:
            w = chi - clo
            return clo + w / 8, chi - w / 8
        j += 1
    return None


_fractions = st.fractions(min_value=0, max_value=2, max_denominator=1000)
_bounds = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)


@settings(max_examples=400, deadline=None)
@given(_fractions, _fractions, _bounds, _bounds, st.integers(0, 3))
def test_one_candidate_step_matches_the_j_scan(a, b, c, d, spread):
    """The single check at j0 = max(0, ceil(lo*blo - 1/4)) picks the
    component the scan over every j picked, or none when the scan found
    none; one draw in four puts bhi a hair above blo, as certified bounds
    on one b_n are."""
    lo, hi = min(a, b), max(a, b)
    blo, bhi = min(c, d), max(c, d)
    if spread == 0:
        bhi = blo + (bhi - blo) / 10**6
    assert colourings._alpha_step(lo, hi, blo, bhi) == _scanned_step(lo, hi, blo, bhi)


# SHA-256 of the newline-joined "p/q" alphas of each lacunary colouring, as
# the j scan built them
LACUNARY_ALPHAS = {
    "lacunary:seq=n^n*log2n,nmax=2": "52e90ae24326591c8161e2e05a8f3b9b57287ca13aba3be7e84043691e160ba6",
    "lacunary:seq=n^n*log2n,nmax=3": "c8d8c238e9787e681d19469bea25a235eb4c672d255b44a85101c55047284587",
    "lacunary:seq=n^n*log2n,nmax=4": "820049b7cee3786f31a80869c3b2e17d196fe8a3799efe2b59b5ceeb3068f3b3",
    "lacunary:seq=n^n*log2n,nmax=5": "5205bcbf23bf566f577fa819090cf71e5fbb6c10226c923c6a7a933e335fb61e",
    "lacunary:seq=n^n*log2n,nmax=6": "5dff483f1a7c1ab7aaef26aa407da51fd33b5fcb54d68270de9e54925186f8de",
    "lacunary:seq=n^n*log2n,nmax=7": "2f8ae56ba4e2581ec2ed7a4d7962c30f14c87f752b8509cdbbf24a0ccc8ea9e1",
    "lacunary:seq=n^n*log2n,nmax=8": "e66acd7c0e241901ab0a92823dd6bbf063c2ecd325ebe172b8a7e07c3eb130fc",
    "lacunary:seq=n^n*log2n,nmax=9": "a7b83aa8c90508c2bfc4f102f403a77e1f92e8dd242914636d6093dc4c41cc9f",
    "lacunary:seq=n^n*log2n,nmax=10": "2efb9922025828cda05365090a0d116925e0e4053ecf8c945c746e668781556e",
    "lacunary:seq=n^n*log2n,nmax=11": "c5e6ef23fc33b62200c5423a8d15de9d21757fd5f8cb0cd1a5e7a209e21d57e2",
    "lacunary:seq=n^n*log2n,nmax=12": "036863fa05b871d22f9c5e060c5e1b87e08a2352591af8b98832538d40fac390",
    "lacunary:seq=n*2^n,nmax=12": "33e8bf7df70839bdcc53340ec54e752b320b6afb71a6df6e132e7776d7c10c19",
    "lacunary:seq=5^n,nmax=12": "9d5d5c10c5dfaa296101bfabcab5d27d45675232f717d055b60662578d31e64c",
}


@pytest.mark.parametrize("spec", sorted(LACUNARY_ALPHAS))
def test_lacunary_alphas_are_pinned(spec):
    alphas = parse_colouring(spec).alphas
    text = "\n".join(f"{a.alpha.numerator}/{a.alpha.denominator}" for a in alphas)
    assert hashlib.sha256(text.encode()).hexdigest() == LACUNARY_ALPHAS[spec]


def test_build_lacunary_alpha_reads_each_bound_once(monkeypatch):
    """At most one _rat_bounds call per (index, precision), shared by the
    lacunarity check and the alpha steps."""
    calls = []
    real = colourings._rat_bounds
    monkeypatch.setattr(colourings, "_rat_bounds",
                        lambda seq, n, prec: calls.append((n, prec)) or real(seq, n, prec))
    for seq, indices in (("n^n*log2n", None), ("n*2^n", range(1, 13, 2)), ("5^n", None)):
        del calls[:]
        build_lacunary_alpha(seq, 12, indices)
        assert calls and len(calls) == len(set(calls)), seq


def test_abbb_is_fast_near_huge_powers_of_two():
    """2^k - 3 takes one enclosure per precision, not guard bits as many as
    it has; the colours are those the tightest enclosures gave."""
    start = time.perf_counter()
    f = parse_colouring("abbb:nmax=12")
    assert time.perf_counter() - start < 1
    f = parse_colouring("abbb:nmax=8")
    for k, want in ((8192, 2), (16384, 2), (65536, 3)):
        start = time.perf_counter()
        assert f.colour(literal(2**k - 3)) == want
        assert time.perf_counter() - start < 1, k


def test_lacunary_colouring_single_class_geometric():
    f = LacunaryColouring(GeometricSequence(5), 6)
    assert f.k == 4  # already 4-lacunary, one class
    for n in range(1, 7):
        d = 5**n
        for x in range(1, 400):
            assert f.colour(x) != f.colour(x + d), (x, n)


def test_lacunary_colouring_interleaved_classes():
    f = LacunaryColouring(NTimesPow2Sequence(), 8)
    assert f.k == 4 ** len(f.alphas)
    for n in range(1, 9):
        d = n * 2**n
        for x in range(1, 300):
            assert f.colour(x) != f.colour(x + d), (x, n)


def test_lacunary_colouring_reflexive_and_deterministic():
    f = LacunaryColouring(GeometricSequence(5), 4)
    assert f.colour(17) == f.colour(17)
    assert f.colour(product(17, 1)) == f.colour(17)


def test_lacunary_colouring_huge_terms_via_modulus():
    f = LacunaryColouring(GeometricSequence(5), 4)
    t = power(7, 7777)  # far past the cutoff
    c = f.colour(t)
    assert 1 <= c <= f.k
    assert c == f.colour(pow(7, 7777))  # matches the exact integer


# ---------------------------------------------------------------------------
# double-valuation and double-log compositions

def test_pow2abb_values():
    f = Pow2AbbColouring(10)
    assert f.colour(2 ** (2**5)) == f.inner.colour(5)
    assert f.colour(1) == f.k
    assert f.colour(7) == f.k  # odd: double valuation undefined
    assert f.k == f.inner.k + 1


def test_pow2abb_forbidden_pair():
    # a = 2^(2^s), and a^(b^b) with b = 2^t lands s -> s + n*2^n apart
    f = Pow2AbbColouring(10)
    a = power(2, power(2, 3))
    abb = power(a, power(4, 4))  # 2^(2^11), and 11 = 3 + 2*2^2
    assert f.colour(a) != f.colour(abb)
    assert f.colour(abb) == f.inner.colour(11)


def test_abbb_values():
    f = AbbbColouring(8)
    assert f.colour(power(2, power(2, 7))) == f.inner.colour(7)
    assert f.colour(2) == f.k
    assert f.colour(1) == f.k


def test_abbb_forbidden_pair_certified():
    # log2 log2 (a^(2^(2^2))) - log2 log2 a = 4 = b_2 exactly, for any a >= 3
    f = AbbbColouring(8)
    assert f.colour(3**16) != f.colour(3)
    assert f.colour(power(4, power(2, power(2, 2)))) != f.colour(4)


# every tower of height 3 to 6 over the bases 2 and 3, the terms on which
# abbb refuses; the SHA-256 of the JSON list of each one's colour, or the
# name of the error it raises, as computed before the early refusal
ABBB_TOWERS = ["^".join(bases) for h in range(3, 7)
               for bases in itertools.product("23", repeat=h)]
ABBB_TOWER_OUTCOMES = "c814a7f1769affb67803696ca65cae53eae6017d5532edc0da7353380f9f5180"


def test_abbb_tower_colours_and_refusals_are_unchanged(monkeypatch):
    f = parse_colouring("abbb:nmax=8")
    calls = []
    real = colourings.log2_scaled_bounds
    for module in (colourings, tower):
        monkeypatch.setattr(module, "log2_scaled_bounds",
                            lambda n, prec: calls.append(prec) or real(n, prec))
    outcomes, eager = [], []
    for text in ABBB_TOWERS:
        del calls[:]
        try:
            outcomes.append(f(parse_term(text)))
        except ExpRamseyError as exc:
            outcomes.append(type(exc).__name__)
            if isinstance(exc, UncertifiableComparison) and not calls:
                eager.append(text)
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == ABBB_TOWER_OUTCOMES
    # y = log2 log2 x = 2^6561 * log2 3 for the first: no precision can help
    assert eager == ["2^3^2^3^2^3", "2^3^2^3^3^2", "2^3^3^3^2^3", "2^3^3^3^3^2"]


def _abbb_colour_of_an_int(f, v):
    """The colour AbbbColouring once gave an exact int v >= 3 through a branch
    of its own, beside the term path that now colours every value: its oracle."""
    if v & (v - 1) == 0:
        e = v.bit_length() - 1
        if e & (e - 1) == 0:
            return f.inner.colour(e.bit_length() - 1)
    for prec in PREC_SCHEDULE:
        lo, hi = log2_scaled_bounds(v, prec)
        shift = prec << prec
        l2lo = log2_scaled_bounds(lo, prec)[0] - shift
        l2hi = log2_scaled_bounds(hi, prec)[1] - shift
        got = f.inner.colour_scaled(l2lo, l2hi, prec)
        if got is not None:
            return got
    raise UncertifiableComparison("cannot certify double-log colour")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExpRamseyError as exc:
        return type(exc).__name__


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(2, 70).map(lambda k: 2**k),
    st.integers(1, 6).map(lambda y: 2**2**y),
    st.integers(2, 69).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k + 1])),
    st.integers(3, 2**70),
))
def test_abbb_colours_ints_as_its_int_branch_did(v):
    assert 3 <= v <= 2**70
    f = AbbbColouring(8)
    assert _outcome(f.colour, v) == _outcome(_abbb_colour_of_an_int, f, v)


# ---------------------------------------------------------------------------
# table / const / product plumbing

def test_table_colouring_lookup_and_domain():
    f = TableColouring({1: 1, 2: 2})
    assert f.colour(2) == 2
    assert f.colour(1) == 1
    with pytest.raises(OutOfDomain):
        f.colour(3)
    with pytest.raises(OutOfDomain):
        f.colour(power(2, 65536))


def test_table_colouring_validation():
    with pytest.raises(ValueError):
        TableColouring([])
    with pytest.raises(ValueError):
        TableColouring({1: 1, 3: 2})  # gap at 2
    with pytest.raises(ValueError):
        TableColouring([1, 5], k=3)


def test_product_colouring_counts_and_injectivity():
    a = TableColouring([1, 2, 3, 4], k=4)
    b = TableColouring([4, 3, 2, 1], k=4)
    f = ProductColouring([a, b])
    assert f.k == 16
    seen = {f.colour(x) for x in range(1, 5)}
    assert len(seen) == 4  # distinct component pairs stay distinct


def test_product_of_one_is_itself():
    a = ConstColouring(3)
    assert product_colouring([a]) is a


# ---------------------------------------------------------------------------
# mini-language

def test_parse_colouring_specs():
    assert parse_colouring("const:k=1").k == 1
    assert parse_colouring("logstar:r=2").k == 5
    assert parse_colouring("schurexp").k == 16
    assert parse_colouring("lacunary:seq=n*2^n,nmax=12").k == 16
    assert parse_colouring("pow2abb:nmax=10").k == 17
    assert parse_colouring("abbb:nmax=8").k == 5
    assert parse_colouring("product:logstar:r=1+schurexp").k == 64


def test_parse_colouring_table_file(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"k": 3, "map": [1, 2, 3, 1]}))
    f = parse_colouring(f"table:{p}")
    assert f.k == 3 and f.colour(4) == 1


def test_parse_colouring_rejects_unknown():
    with pytest.raises(ParseError):
        parse_colouring("bogus:x=1")
    with pytest.raises(ParseError):
        parse_colouring("logstar:r=zero")
    # a key the kind does not declare is refused, never dropped
    for spec in ("logstar:rr=3", "const:kk=2", "lacunary:seq=3^n,nmx=5",
                 "pow2abb:nmax=10,foo=1", "abbb:n=3", "schurexp:x=1"):
        with pytest.raises(ParseError):
            parse_colouring(spec)


def test_spec_round_trip():
    for spec in ("const:k=2", "logstar:r=1", "schurexp",
                 "lacunary:seq=5^n,nmax=6", "pow2abb:nmax=10", "abbb:nmax=8"):
        f = parse_colouring(spec)
        assert f.spec == spec
        g = parse_colouring(f.spec)
        assert g.k == f.k


# random parameters for every kind COLOURINGS declares, by parameter key
KIND_PARAMS = {
    "const": {"k": st.integers(1, 6)},
    "logstar": {"r": st.integers(1, 5)},
    "schurexp": {},
    "lacunary": {"seq": st.sampled_from(["n*2^n", "2^n", "5^n"]),
                 "nmax": st.integers(1, 10)},
    "pow2abb": {"nmax": st.integers(1, 10)},
    "abbb": {"nmax": st.integers(2, 8)},
}


def test_kind_params_cover_every_kind():
    assert set(KIND_PARAMS) == set(COLOURINGS)
    for kind, cls in COLOURINGS.items():
        assert set(KIND_PARAMS[kind]) == {p.key for p in cls.params}, kind


KINDS = st.sampled_from(sorted(KIND_PARAMS)).flatmap(
    lambda kind: st.fixed_dictionaries(KIND_PARAMS[kind]).map(
        lambda values: COLOURINGS[kind](**values)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(KINDS, st.lists(KINDS, min_size=2, max_size=2).map(ProductColouring)))
def test_spec_reads_back_to_the_same_colouring(f):
    g = parse_colouring(f.spec)
    assert (g.spec, g.rule, g.k) == (f.spec, f.rule, f.k)
    assert [g(x) for x in range(1, 65)] == [f(x) for x in range(1, 65)]


# where a range rule could slip: a scan block of 4096, the denominators of
# the two alphas of lacunary:seq=n*2^n,nmax=12 (45,056 and 98,304, so a
# range past them wraps each residue), the towers 2, 4, 16 and 65536,
# where log* steps, and the perfect powers 3^10, 7^6, 2^17 and 2^18, where
# the schurexp sieve marks l
RANGE_EDGES = [1, 4096, 45056, 98304, 2 * 98304, 4, 16, 65536,
               59049, 117649, 131072, 262144]


@settings(max_examples=120, deadline=None)
@given(st.one_of(KINDS, st.lists(KINDS, min_size=2, max_size=2).map(ProductColouring),
                 st.just(LacunaryColouring("n*2^n", 12))),
       st.one_of(st.sampled_from(RANGE_EDGES), st.integers(1, 300_000)),
       st.integers(-50, 50),
       st.one_of(st.integers(0, 100), st.integers(4090, 4300), st.integers(0, 100_000)))
def test_colour_range_is_the_colour_of_each_value(f, edge, shift, length):
    lo = max(1, edge + shift)
    # long ranges only where colouring each value is cheap
    if length > 4300 and not isinstance(f, (LacunaryColouring, ConstColouring)):
        length %= 4300
    hi = lo + length
    assert f.colour_range(lo, hi) == [f(v) for v in range(lo, hi + 1)]


def test_colour_range_stops_before_the_first_value_that_raises():
    f = TableColouring([1, 2, 2, 1, 3], k=3)
    assert f.colour_range(2, 4) == [2, 2, 1]
    assert f.colour_range(2, 9) == [2, 2, 1, 3]
    assert f.colour_range(6, 9) == []
    g = ProductColouring([LacunaryColouring("5^n", 6), f])
    assert g.colour_range(1, 4100) == [g(v) for v in range(1, 6)]
    with pytest.raises(OutOfDomain):
        g(6)


def test_block_kernels_never_call_colour(monkeypatch):
    # a kernel routed back through per-value colouring would stop at once
    def refuse(x):
        raise AssertionError("a block kernel called colour")

    for spec in ("schurexp", "logstar:r=1", "lacunary:seq=n*2^n,nmax=12",
                 "product:logstar:r=1+schurexp"):
        f = parse_colouring(spec)
        want = f.colour_range(1, 5000)
        assert want == [f(v) for v in range(1, 5001)], spec
        for g in (f, *getattr(f, "parts", ())):
            monkeypatch.setattr(g, "colour", refuse)
        assert f.colour_range(1, 5000) == want, spec


def test_colour_range_of_an_empty_and_a_one_value_range(tmp_path):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"k": 3, "map": [3, 1, 2]}))
    for spec in ("const:k=2", "logstar:r=1", "logstar:r=4", "schurexp",
                 "lacunary:seq=n*2^n,nmax=12", "pow2abb:nmax=6", "abbb:nmax=6",
                 f"table:{table}", "product:logstar:r=1+schurexp",
                 "product:schurexp+lacunary:seq=5^n,nmax=6"):
        f = parse_colouring(spec)
        assert f.colour_range(1, 1) == [f(1)], spec
        for v in (1, 2, 17, 4096, 65537):
            assert f.colour_range(v, v - 1) == [], spec


def test_a_colour_override_drops_an_inherited_range_rule():
    class Shifted(LacunaryColouring):
        def colour(self, x):
            return super().colour(x + 1)

    f = Shifted("5^n", 6)
    assert f.colour_range(1, 500) == [f(v) for v in range(1, 501)]
    assert f.colour_range(1, 500) != LacunaryColouring("5^n", 6).colour_range(1, 500)


def test_each_kind_colours_an_int_once(tmp_path):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"k": 2, "map": [1, 2] * 20}))
    for spec in ("const:k=2", "logstar:r=1", "schurexp", "lacunary:seq=5^n,nmax=6",
                 "pow2abb:nmax=6", "abbb:nmax=6", f"table:{table}",
                 "product:logstar:r=1+schurexp"):
        f = parse_colouring(spec)
        first = [f(x) for x in range(1, 41)]
        # a second pass and a term of a coloured value give the same colours
        assert [f(x) for x in range(1, 41)] == first, spec
        assert f(power(2, 5)) == first[31], spec


def test_colourings_are_picklable():
    for spec in ("const:k=2", "logstar:r=1", "schurexp",
                 "lacunary:seq=n*2^n,nmax=8", "pow2abb:nmax=8", "abbb:nmax=8"):
        f = parse_colouring(spec)
        g = pickle.loads(pickle.dumps(f))
        for x in (1, 2, 16, 64):
            assert g.colour(x) == f.colour(x), (spec, x)


def test_pickles_leave_the_memo_behind():
    # worker processes get the colouring pickled; colouring values must
    # leave nothing in it to ride along
    for spec in ("logstar:r=1", "abbb:nmax=8", "pow2abb:nmax=8",
                 "product:logstar:r=2+lacunary:seq=n*2^n,nmax=8"):
        fresh = pickle.dumps(parse_colouring(spec))
        f = parse_colouring(spec)
        colours = [f(x) for x in range(1, 3001)]
        assert pickle.dumps(f) == fresh, spec
        g = pickle.loads(pickle.dumps(f))
        assert [g(x) for x in range(1, 3001)] == colours, spec


def test_tower_height_lower_bound_witness_symbolic():
    # with r = k-3 colours, the top of a height-r tower and its self-power
    # never share a colour, so no k-colouring bound below tower(r) is tight
    for r in range(1, 6):
        f = LogStarColouring(r)
        t = literal(2)
        for _ in range(r - 1):
            t = power(2, t)
        assert f.colour(t) != f.colour(power(t, t))
