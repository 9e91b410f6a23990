"""Explicit colouring constructions and the colouring mini-language."""

import json
import pickle
import random
from collections import Counter
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
from expramsey.errors import (
    OutOfDomain,
    ParseError,
    SequenceNotSufficientlyLacunary,
)
from expramsey.tower import literal, power, product


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


def test_each_kind_colours_an_int_once(tmp_path):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"k": 2, "map": [1, 2] * 20}))
    for spec in ("const:k=2", "logstar:r=1", "schurexp", "lacunary:seq=5^n,nmax=6",
                 "pow2abb:nmax=6", "abbb:nmax=6", f"table:{table}",
                 "product:logstar:r=1+schurexp"):
        f = parse_colouring(spec)
        calls = Counter()

        def counted(x, rule=f._colour):
            calls[x] += 1
            return rule(x)

        f._colour = counted
        first = [f(x) for x in range(1, 41)]
        # neither a second pass nor a term of a coloured value recolours an int
        assert [f(x) for x in range(1, 41)] == first
        assert f(power(2, 5)) == first[31]
        assert {x: n for x, n in calls.items() if isinstance(x, int)} == \
            dict.fromkeys(range(1, 41), 1), spec


def test_colourings_are_picklable():
    for spec in ("const:k=2", "logstar:r=1", "schurexp",
                 "lacunary:seq=n*2^n,nmax=8", "pow2abb:nmax=8", "abbb:nmax=8"):
        f = parse_colouring(spec)
        g = pickle.loads(pickle.dumps(f))
        for x in (1, 2, 16, 64):
            assert g.colour(x) == f.colour(x), (spec, x)


def test_pickles_leave_the_memo_behind():
    # worker processes get the colouring pickled; a used memo would ride along
    for spec in ("logstar:r=1", "abbb:nmax=8", "pow2abb:nmax=8",
                 "product:logstar:r=2+lacunary:seq=n*2^n,nmax=8"):
        fresh = len(pickle.dumps(parse_colouring(spec)))
        f = parse_colouring(spec)
        colours = [f(x) for x in range(1, 3001)]
        assert len(f._memo) == 3000
        assert len(pickle.dumps(f)) == fresh, spec
        g = pickle.loads(pickle.dumps(f))
        # nested colourings travel without their memos too
        for part in [g, *getattr(g, "parts", []), getattr(g, "inner", g)]:
            assert part._memo == {}, spec
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
