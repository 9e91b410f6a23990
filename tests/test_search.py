"""Instance families, monochromatic search, certificates, Ramsey numbers."""

import copy
import itertools
import json
import pickle
import random
import time
import tracemalloc
from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expramsey.colourings import (
    Colouring,
    LacunaryColouring,
    LogStarColouring,
    SchurExpColouring,
    TableColouring,
    parse_colouring,
    parse_seq,
)
from expramsey.errors import (
    BudgetExceeded, ExpRamseyError, OutOfDomain, ParseError, WeightUndefined,
)
from expramsey.patterns import ShapeRelation, WeightFn, fep, finite_exponentials, shape_pattern
from expramsey.ramsey import (
    _ap_constraints,
    _backtrack_colouring,
    _colouring_is_free,
    _core,
    _exp_triples_upto,
    _lifted_constraints,
    _methods_agree,
    exp_ramsey_number,
    vdw_number,
)
from expramsey.families import family_from_descriptor, parse_family
from expramsey.search import Certificate, find_monochromatic, verify_certificate
from expramsey import _arith, _spec, families, ramsey, search
from expramsey._arith import iroot, root_exponent
from expramsey.tower import (
    compare_iter_log, dedup_key, eval_exact, eval_mod, log_star, parse_term,
    to_text,
)


# ---------------------------------------------------------------------------
# enumeration orders (frozen)

def test_exptriple_order_bound_16():
    fam = parse_family("exptriple", 16)
    assert [i.generators for i in fam.instances()] == [
        (2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]


def test_schur_order_bound_4():
    fam = parse_family("schur", 4)
    assert [i.generators for i in fam.instances()] == [
        (1, 1), (1, 2), (2, 2), (1, 3)]


def test_expquad_order_is_b_then_a():
    fam = parse_family("expquad", 5)
    gens = [i.generators for i in fam.instances()]
    assert gens == [(a, b) for b in range(2, 6) for a in range(2, b + 1)]
    assert fam.count() == len(gens) == 10


def test_exptriple_strict_flag_drops_diagonal():
    fam = parse_family("exptriple:strict=1", 16)
    gens = [i.generators for i in fam.instances()]
    assert (2, 2) not in gens and (4, 2) in gens
    assert fam.count() == len(gens)


def test_logcond_family_defaults_r():
    assert parse_family("exptriple-logcond", 100).descriptor()["r"] == 1
    assert parse_family("exptriple-logcond:r=3", 100).descriptor()["r"] == 3
    # the caller-side default wins only when the descriptor leaves r out
    assert parse_family("exptriple-logcond", 100, default_r=2).descriptor()["r"] == 2
    fam = parse_family("exptriple-logcond:r=1", 100)
    # membership: a,b >= 2, a^b <= bound, log2 a <= b
    gens = {i.generators for i in fam.instances()}
    assert (2, 2) in gens
    assert (5, 2) not in gens  # log2 5 > 2
    assert (4, 2) in gens      # log2 4 = 2, boundary included
    assert all(p <= 100 for _, p in gens)


SMALL_FAMILIES = [
    ("exptriple", 50), ("exptriple:strict=1", 50), ("exptriple-logcond:r=1", 300),
    ("exptriple-logcond:r=2", 2**12), ("expquad", 9), ("schur", 11),
    ("schurplusexp", 12), ("schurplusexp", 50), ("shape:m=2,edges=1-2", 5),
    ("fep:m=2,w=1", 5), ("diffpair:seq=5^n,nmax=2", 40),
    ("diffpair:seq=n*2^n,nmax=5", 200), ("grid:len=3", 12), ("grid:len=1", 9),
]
# the order test's families, at least one of each kind: empty ones, and ones
# past a few blocks of their order
ORDER_FAMILIES = [
    ("exptriple", 3), ("exptriple", 300), ("exptriple-logcond:r=0", 600),
    ("exptriple-logcond:r=3", 2**10), ("expquad", 1), ("expquad", 16), ("schur", 1),
    ("schur", 30), ("schurplusexp", 3), ("schurplusexp", 80),
    ("shape:m=3,edges=1-2;2-3", 5), ("shape:m=1", 9), ("fep:m=3,w=1", 4),
    ("fep:m=1,w=2", 9), ("diffpair:seq=3^n,nmax=0", 30), ("diffpair:seq=2^n,nmax=8", 300),
    ("grid:len=2", 1), ("grid:len=5", 40),
]


def _int(v):
    return v if isinstance(v, int) else eval_exact(v, cutoff=1 << 4096).exact


def _exp_triples(bound, keep=lambda a, b: True):
    """(p, a, b) for a, b >= 2 with p = a^b <= bound, by (p, max(a, b), a)."""
    return sorted(((a**b, a, b) for a in range(2, bound + 1)
                   for b in range(2, bound.bit_length() + 1)
                   if a**b <= bound and keep(a, b)),
                  key=lambda t: (t[0], max(t[1:]), t[1]))


def _schur_triples(bound):
    """(x, y, x + y) for 1 <= x <= y with x + y <= bound, by (s, y)."""
    return sorted(((x, s - x, s) for s in range(2, bound + 1)
                   for x in range(1, s // 2 + 1)), key=lambda t: (t[2], t[1]))


def _tuple_rows(fam, pattern):
    """Rows of every tuple in [2, bound]^m by (max, tuple), its elements
    those of ``pattern`` on the tuple."""
    order = sorted(itertools.product(range(2, fam.bound + 1), repeat=fam.m),
                   key=lambda t: (max(t), t))
    return [(tuple(pattern(xs).elements), xs) for xs in order]


def _schurplusexp_rows(fam):
    sums, exps = _schur_triples(fam.bound), _exp_triples(fam.bound)
    joint = sorted(((max(s[2], e[0]), s[2] == max(s[2], e[0]), si, ei)
                    for si, s in enumerate(sums) for ei, e in enumerate(exps)))
    return [(sums[si] + (exps[ei][1], exps[ei][2], exps[ei][0]),
             sums[si][:2] + exps[ei][1:]) for _, _, si, ei in joint]


def _diffpair_rows(fam):
    seq = parse_seq(fam.seq)
    pairs = [(x, x + seq.exact(n), n) for n in range(seq.start, fam.nmax + 1)
             for x in range(1, fam.bound - seq.exact(n) + 1)]
    return [((x, m), (n, x)) for x, m, n in sorted(pairs, key=lambda t: (t[1], t[0]))]


def _grid_rows(fam):
    L = fam.len
    grids = [(s, d) for d in range(1, fam.bound) for s in range(1, fam.bound - L * d + 1)]
    grids.sort(key=lambda g: (g[0] + L * g[1], -g[1]))
    return [(tuple(s + i * d for i in range(L + 1)), (s, d)) for s, d in grids]


# each kind's rows (values, generators) listed from its definition and
# sorted by the key its order documents; expquad's powers as ints
DEFINED_ORDERS = {
    "exptriple": lambda fam: [((a, b, p), (a, b)) for p, a, b in
                              _exp_triples(fam.bound, lambda a, b: not fam.strict or a != b)],
    "exptriple-logcond": lambda fam: [((b, p), (a, b)) for p, a, b in _exp_triples(
        fam.bound, lambda a, b: compare_iter_log(a, fam.r, b))],
    "expquad": lambda fam: [((a, b, a**b, b**a), (a, b)) for b in range(2, fam.bound + 1)
                            for a in range(2, b + 1)],
    "schur": lambda fam: [(t, t[:2]) for t in _schur_triples(fam.bound)],
    "schurplusexp": _schurplusexp_rows,
    "shape": lambda fam: _tuple_rows(fam, lambda xs: shape_pattern(fam.relation, xs)),
    "fep": lambda fam: _tuple_rows(
        fam, lambda xs: fep(WeightFn.from_json(fam.weight), xs, cap=fam.cap)),
    "diffpair": _diffpair_rows,
    "grid": _grid_rows,
}


def _nth_rows(fam, indices):
    """The rows of ``nth`` at ``indices``, expquad's powers as ints."""
    return [((tuple(map(_int, inst.values)) if fam.kind == "expquad" else inst.values),
             inst.generators) for inst in map(fam.nth, indices)]


@pytest.mark.parametrize("kind", sorted(families.FAMILIES))
def test_nth_is_the_order_as_first_defined(kind):
    """For every kind: the rows listed from the definition at small bounds,
    sorted by the documented key, are ``nth`` over the whole index range.
    A kind with no entry in DEFINED_ORDERS fails here."""
    specs = [(spec, bound) for spec, bound in ORDER_FAMILIES
             if spec.split(":")[0] == kind]
    assert kind in DEFINED_ORDERS and specs, kind
    for spec, bound in specs:
        fam = parse_family(spec, bound)
        want = DEFINED_ORDERS[fam.kind](fam)
        assert fam.count() == len(want), (spec, bound)
        assert _nth_rows(fam, range(fam.count())) == want, (spec, bound)


def test_counts_match_enumeration_everywhere():
    for spec, bound in SMALL_FAMILIES:
        fam = parse_family(spec, bound)
        want = DEFINED_ORDERS[fam.kind](fam)
        assert fam.count() == len(want), spec
        # nth is random access in enumeration order, at every index
        assert _nth_rows(fam, range(len(want))) == want, (spec, bound)
        assert list(fam.instances()) == list(map(fam.nth, range(len(want))))
        for i in (-1, len(want)):
            with pytest.raises(IndexError):
                fam.nth(i)


def test_schurplusexp_order_is_max_element_then_sum_triple():
    fam = parse_family("schurplusexp", 12)
    gens = [i.generators for i in fam.instances()]
    # max element 4 comes first: the sum triples with sum below 4, each
    # joined with 2^2 = 4, then those with sum 4 joined with every power <= 4
    assert gens[:4] == [(1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2),
                        (1, 3, 2, 2)]
    m = [max(v for v in i.values) for i in fam.instances()]
    assert m == sorted(m)
    for si in range(fam.schur.count()):
        for ei in range(fam.exp.count()):
            idx = fam.index(si, ei)
            assert gens[idx] == fam.schur.nth(si).generators + fam.exp.nth(ei).generators


def test_logcond_cutoff_matches_filtering_every_pair():
    # 2^32 = T_2(5) = T_1(32) puts a tie of the exact rule at the bound
    for r in (0, 1, 2, 3):
        for bound in (16, 1000, 2**16, 2**32):
            fam = parse_family(f"exptriple-logcond:r={r}", bound)
            want = [t for t in _arith._exp_pairs(bound)
                    if compare_iter_log(t[1], r, t[2])]
            assert fam._pairs == want, (r, bound)


def test_exp_pairs_order_is_the_five_field_sort():
    """_exp_pairs sorts by (p, max, a); the documented order is
    (p, max, min, a, b) over every pair a^b <= bound."""
    for bound in (2**12, 10**6, 2**28):
        every = [(a**b, a, b) for b in range(2, bound.bit_length())
                 for a in range(2, iroot(bound, b) + 1)]
        want = sorted(every, key=lambda t: (t[0], max(t[1], t[2]),
                                            min(t[1], t[2]), t[1], t[2]))
        assert _arith._exp_pairs(bound) == want, bound


def _edges(m):
    pairs = st.tuples(st.integers(1, m), st.integers(1, m))
    return st.lists(pairs, max_size=m * m).map(lambda es: [list(e) for e in es])


# one strategy per family kind, over parameters that build quickly
FAMILY_PARAMS = {
    "exptriple": st.fixed_dictionaries(
        {"bound": st.integers(1, 300), "strict": st.booleans()}),
    "exptriple-logcond": st.fixed_dictionaries(
        {"bound": st.integers(1, 3000), "r": st.integers(0, 4)}),
    "expquad": st.fixed_dictionaries({"bound": st.integers(1, 12)}),
    "schur": st.fixed_dictionaries({"bound": st.integers(1, 40)}),
    "schurplusexp": st.fixed_dictionaries({"bound": st.integers(1, 40)}),
    "shape": st.integers(1, 4).flatmap(lambda m: st.fixed_dictionaries(
        {"bound": st.integers(1, 4), "m": st.just(m), "edges": _edges(m)})),
    "fep": st.fixed_dictionaries(
        {"bound": st.integers(1, 4), "m": st.integers(1, 2),
         "weight": st.builds(lambda k: {"const": k}, st.integers(0, 2))}),
    "diffpair": st.fixed_dictionaries(
        {"bound": st.integers(1, 80), "nmax": st.integers(0, 6),
         "seq": st.sampled_from(["n*2^n", "2^n", "3^n", "5^n"])}),
    "grid": st.fixed_dictionaries(
        {"bound": st.integers(1, 30), "len": st.integers(1, 4)}),
}


def test_family_params_cover_every_kind():
    assert set(FAMILY_PARAMS) == set(families.FAMILIES)
    for kind, cls in families.FAMILIES.items():
        assert cls.kind == kind


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FAMILY_PARAMS)).flatmap(
    lambda kind: FAMILY_PARAMS[kind].map(lambda d: {"kind": kind, **d})))
def test_family_descriptor_round_trip(desc):
    fam = family_from_descriptor(desc)
    # the spec text reads back to the same descriptor
    assert parse_family(fam.spec, fam.bound).descriptor() == fam.descriptor()
    clone = family_from_descriptor(json.loads(json.dumps(fam.descriptor())))
    assert clone.descriptor() == fam.descriptor()
    assert [i.generators for i in clone.instances()] == [i.generators for i in fam.instances()]


def test_shape_specs_with_several_edges_round_trip():
    fam = parse_family("shape:m=3,edges=1-2;2-3;3-1", 4)
    assert sorted(fam.descriptor()["edges"]) == [[1, 2], [2, 3], [3, 1]]
    assert parse_family(fam.spec, 4).descriptor() == fam.descriptor()
    # descriptors keep the relation's edge order, whatever the spec's order
    assert parse_family("shape:m=3,edges=1-2;2-3", 3).descriptor()["edges"] == \
        [[2, 3], [1, 2]]
    assert parse_family("shape:m=3,edges=2-3;1-2", 3).descriptor()["edges"] == \
        [[2, 3], [1, 2]]


@pytest.mark.parametrize("spec", [
    "exptriple:stirct=1", "schur:bound=5", "grid:len=2,foo=3", "fep:m=2,w=x",
    "fep:m=2,w=table", "grid", "shape:m=2,edges=1-x", "shape:m=2,edges=1-5",
    "exptriple:strict", "exptriple-logcond:r=x", "fep:m=0,w=1", "fep:m=-1,w=1",
])
def test_parse_family_rejects_bad_specs(spec):
    with pytest.raises(ParseError):
        parse_family(spec, 20)


def test_descriptor_needs_every_parameter():
    cert = find_monochromatic("const:k=1", "exptriple", 16)
    assert cert.family == {"kind": "exptriple", "bound": 16, "strict": False}
    assert verify_certificate(cert)
    del cert.family["strict"]
    with pytest.raises(ParseError):
        family_from_descriptor(cert.family)
    assert verify_certificate(cert) is False


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**4096),
       st.integers(min_value=1, max_value=5000))
def test_iroot_is_exact(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["exptriple", "exptriple:strict=1", "exptriple-logcond:r=1",
                        "exptriple-logcond:r=2", "expquad", "schur", "schurplusexp",
                        "diffpair:seq=3^n,nmax=4", "diffpair:seq=n*2^n,nmax=4",
                        "grid:len=1", "grid:len=2", "grid:len=4"]),
       st.integers(min_value=1, max_value=70))
def test_nth_is_the_enumeration_order(spec, bound):
    fam = parse_family(spec, bound)
    want = DEFINED_ORDERS[fam.kind](fam)
    assert fam.count() == len(want)
    assert _nth_rows(fam, range(len(want))) == want


def test_grid_rows_past_a_machine_word():
    """A grid row is found from its index in closed form, so a bound past
    2^63 indexes as a small one does."""
    fam = parse_family("grid:len=3", 10**30)
    assert fam.nth(0).values == (1, 2, 3, 4)
    assert fam.nth(fam.count() - 1).generators == (10**30 - 3, 1)


def test_grid_builds_no_roles_until_an_instance_is_built():
    """An empty family of long grids costs no memory in its length: the
    roles are built with an instance, and those of small grids are the
    same."""
    tracemalloc.start()
    try:
        fam = parse_family("grid:len=1000000", 10)
        cert = find_monochromatic(LogStarColouring(1), fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verified and cert.instances_checked == fam.count() == 0
    assert peak < 2**20
    assert parse_family("grid:len=2", 9).nth(0).roles == ("s+0d", "s+1d", "s+2d")
    wit = find_monochromatic("const:k=1", "grid:len=1", 9).result["witness"]
    assert [e["role"] for e in wit["elements"]] == ["s+0d", "s+1d"]


DIFF_SEQS = {"n*2^n": lambda n: n << n, "2^n": lambda n: 2**n, "3^n": lambda n: 3**n}
# bounds just below, at and just above each difference up to 5 * 10^4
NEAR_DIFFS = sorted({f(n) + d for f in DIFF_SEQS.values() for n in range(1, 13)
                     for d in (-1, 0, 1) if 1 <= f(n) + d <= 5 * 10**4})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DIFF_SEQS)), st.integers(0, 12),
       st.one_of(st.integers(1, 300), st.integers(1, 5 * 10**4),
                 st.sampled_from(NEAR_DIFFS)),
       st.randoms(use_true_random=False))
@example("2^n", 0, 100, random.Random(0))    # nmax below the first index
@example("3^n", 12, 3, random.Random(0))     # the bound equals the least difference
@example("3^n", 12, 4, random.Random(0))     # one above it: a single pair
@example("n*2^n", 12, 5 * 10**4, random.Random(0))
def test_diffpair_nth_matches_rows(seq, nmax, bound, rnd):
    """nth in closed form against the rows listed from the definition by
    (larger element, x), at the first and last index of every
    larger-element block and at sampled indices."""
    fam = parse_family(f"diffpair:seq={seq},nmax={nmax}", bound)
    diffs = [f for f in map(DIFF_SEQS[seq], range(1, nmax + 1)) if f < bound]
    assert fam.count() == sum(bound - v for v in diffs)
    total = fam.count()
    sampled = set(rnd.sample(range(total), min(total, 200)))
    prev_m, prev_row, seen = None, None, 0
    for i, row in enumerate(DEFINED_ORDERS[fam.kind](fam)):
        m = row[0][1]
        checks = [(i, row)] if i in sampled or m != prev_m else []
        if m != prev_m and prev_row is not None:
            checks.append((i - 1, prev_row))
        for j, want in checks:
            inst = fam.nth(j)
            assert (inst.values, inst.generators) == want, (seq, nmax, bound, j)
        prev_m, prev_row, seen = m, row, i + 1
    assert seen == total
    if prev_row is not None:
        inst = fam.nth(total - 1)
        assert (inst.values, inst.generators) == prev_row
    for i in (-1, total, total + 1):
        with pytest.raises(IndexError):
            fam.nth(i)


def test_diffpair_build_stops_at_the_bound(monkeypatch):
    """The differences stop at the first b_n >= bound: as many sequence
    values for nmax = 10^4 as for nmax = 12, and the same rows."""
    from expramsey import colourings

    calls = []
    exact = colourings.GeometricSequence.exact

    def counted(self, n):
        calls.append(n)
        return exact(self, n)

    monkeypatch.setattr(colourings.GeometricSequence, "exact", counted)
    short = parse_family("diffpair:seq=3^n,nmax=12", 100)
    assert calls == [1, 2, 3, 4, 5]  # 3^5 = 243 is the first one >= 100
    calls.clear()
    long = parse_family("diffpair:seq=3^n,nmax=10000", 100)
    assert calls == [1, 2, 3, 4, 5]
    assert long.count() == short.count() == 280
    assert list(long.instances()) == list(short.instances())


@pytest.mark.parametrize("seq", ["n*2^n", "3^n", "n^n*log2n"])
def test_diffpair_rejects_a_non_integer_sequence_by_nmax_alone(seq):
    """ParseError exactly when some b_n with start <= n <= nmax is not an
    integer, whatever the bound: n^n*log2n is refused from nmax = 3 on, even
    at bounds <= 4 = b_2, where the differences stop at n = 2."""
    from expramsey.colourings import parse_seq

    parsed = parse_seq(seq)
    for nmax in range(0, 8):
        fractional = any(parsed.exact(n) is None for n in range(parsed.start, nmax + 1))
        for bound in (1, 2, 3, 4, 5, 100):
            spec = f"diffpair:seq={seq},nmax={nmax}"
            if fractional:
                with pytest.raises(ParseError):
                    parse_family(spec, bound)
            else:
                fam = parse_family(spec, bound)
                assert fam.count() == sum(bound - parsed.exact(n)
                                          for n in range(parsed.start, nmax + 1)
                                          if parsed.exact(n) < bound)


def _outcome(fn):
    """(True, value) or (False, exception type and message)."""
    try:
        return True, fn()
    except (BudgetExceeded, WeightUndefined) as exc:
        return False, (type(exc), str(exc))


# table weights on small value sets, as descriptors carry them
TABLE_WEIGHTS = st.dictionaries(
    st.frozensets(st.integers(2, 7), max_size=2).map(
        lambda s: ",".join(map(str, sorted(s)))),
    st.integers(0, 2), max_size=3).map(lambda t: {"table": t})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shape_and_fep_rows_are_the_patterns_in_max_then_tuple_order(data):
    bound, m = data.draw(st.integers(0, 7)), data.draw(st.integers(1, 4))
    cap = data.draw(st.integers(0, 300))
    if data.draw(st.booleans()):
        edges = data.draw(st.lists(st.lists(st.integers(1, m), min_size=2, max_size=2),
                                   max_size=5))
        desc = {"kind": "shape", "bound": bound, "m": m, "edges": edges}
    else:
        weight = data.draw(st.one_of(st.integers(0, 2).map(lambda k: {"const": k}),
                                     TABLE_WEIGHTS))
        desc = {"kind": "fep", "bound": bound, "m": m, "weight": weight}
    # the order as first defined: every tuple, sorted by (max, tuple)
    order = sorted(itertools.product(range(2, bound + 1), repeat=m),
                   key=lambda t: (max(t), t))
    if len(order) > cap:
        with pytest.raises(BudgetExceeded):
            family_from_descriptor(desc, cap=cap)
        return
    fam = family_from_descriptor(desc, cap=cap)
    assert fam.count() == len(order)

    def pattern(xs):
        """(elements, roles) of the pattern on xs, built by the pattern."""
        if desc["kind"] == "shape":
            ps = shape_pattern(fam.relation, xs)
            return ps.elements, tuple(
                f"x{p['generator']}" if "generator" in p else "x{}^x{}".format(*p["edge"])
                for p in ps.provenance)
        ps = fep(WeightFn.from_json(desc["weight"]), xs, cap=cap)
        return ps.elements, tuple(to_text(e) for e in ps.elements)

    for i, xs in enumerate(order):
        ok, want = _outcome(lambda: pattern(xs))
        got_ok, got = _outcome(lambda: fam.nth(i))
        assert got_ok == ok, (desc, i)
        if ok:
            assert (got.generators, got.values, got.roles) == (xs, *want)
        else:
            assert got == want


def test_shape_rows_start_without_listing_every_tuple():
    tracemalloc.start()
    try:
        fam = parse_family("shape:m=2,edges=1-2", 1000)
        first = list(itertools.islice(fam.instances(), 241))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.count() == 999**2 and len(first) == 241
    assert first[-1].generators == (17, 2)
    assert peak < 10 * 2**20


def test_cap_refuses_power_pair_lists_before_building_them():
    for spec in ("exptriple", "exptriple-logcond:r=1", "schurplusexp"):
        with pytest.raises(BudgetExceeded):
            parse_family(spec, 10**400)
        with pytest.raises(BudgetExceeded):
            parse_family(spec, 10**8, cap=100)
    assert parse_family("exptriple", 10**8, cap=10**5).count() > 10**4


# ---------------------------------------------------------------------------
# find_monochromatic

def test_const_colouring_first_counterexample():
    cert = find_monochromatic("const:k=1", "exptriple", 16)
    assert cert.result["type"] == "Counterexample"
    wit = cert.result["witness"]
    assert wit["generators"] == [2, 2]
    assert {e["value"] for e in wit["elements"]} == {"2", "4"}
    assert cert.instances_checked == 1


def test_logstar_avoids_logcond_small():
    cert = find_monochromatic("logstar:r=1", "exptriple-logcond", 2**16)
    assert cert.verified
    assert verify_certificate(cert)


def test_first_witness_respects_enumeration_order():
    # plant colours so the third instance (3,2) is the first monochromatic one
    f = TableColouring([1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1], k=2)
    cert = find_monochromatic(f, parse_family("exptriple", 16))
    assert cert.result["witness"]["generators"] == [3, 2]
    assert cert.instances_checked == 3


def _plain_colour(colouring, inst):
    """The common colour of an instance's distinct values, or None: the
    per-instance check that every scan and verify must agree with. Huge
    terms are deduplicated by dedup_key."""
    seen, colours = set(), set()
    for v in inst.values:
        key = v if isinstance(v, int) else dedup_key(v)
        if key not in seen:
            seen.add(key)
            colours.add(colouring(v))
    return colours.pop() if len(colours) == 1 else None


def test_schurplusexp_fast_path_matches_brute_walk():
    rng = random.Random(41)
    bound = 60
    fam = parse_family("schurplusexp", bound)

    def brute(colouring):
        for idx, inst in enumerate(fam.instances()):
            if _plain_colour(colouring, inst) is not None:
                return idx, inst.generators
        return None

    for trial in range(30):
        table = [rng.randint(1, 3) for _ in range(bound)]
        f = TableColouring(table, k=3)
        cert = find_monochromatic(f, parse_family("schurplusexp", bound))
        expect = brute(f)
        if expect is None:
            assert cert.verified, trial
            assert cert.instances_checked == fam.count()
        else:
            wit = cert.result["witness"]
            assert tuple(wit["generators"]) == tuple(expect[1]), trial
            assert cert.instances_checked == expect[0] + 1, trial


def test_quad_fast_path_instances_checked():
    fam = parse_family("expquad", 2**6)
    cert = find_monochromatic(LogStarColouring(1), fam)
    assert cert.verified
    assert cert.instances_checked == fam.count()
    assert verify_certificate(cert)


def test_threads_do_not_change_the_certificate():
    one = find_monochromatic("logstar:r=1", "exptriple", 4096, threads=1)
    two = find_monochromatic("logstar:r=1", "exptriple", 4096, threads=2)
    assert one.to_json() == two.to_json()
    a = find_monochromatic("const:k=2", "schur", 50, threads=1)
    b = find_monochromatic("const:k=2", "schur", 50, threads=2)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("cpus, workers", [(3, []), (None, [])])
def test_threads_run_at_most_the_cpu_count_of_workers(monkeypatch, cpus, workers):
    """A stand-in pool records max_workers and raises. The row walk runs in
    this process, so however many threads are asked for and whatever the
    cpu count, no pool starts and the certificate is the same."""
    import concurrent.futures
    import os

    started = []

    class RefusingPool:
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            raise AssertionError("the row walk started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    one = find_monochromatic("logstar:r=1", "exptriple", 4096)
    many = find_monochromatic("logstar:r=1", "exptriple", 4096, threads=100_000)
    assert started == workers
    assert many.to_json() == one.to_json()


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_are_refused(threads):
    with pytest.raises(ValueError):
        find_monochromatic("logstar:r=1", "exptriple", 100, threads=threads)


def _reference_certificate(colouring, family):
    """The plain walk: _plain_colour over instances(), in order."""
    checked, result = family.count(), {"type": "AvoidanceVerified"}
    for i, inst in enumerate(family.instances()):
        c = _plain_colour(colouring, inst)
        if c is not None:
            checked = i + 1
            result = {"type": "Counterexample", "witness": inst.witness_json(c)}
            break
    return Certificate(family=family.descriptor(), colouring=colouring.spec,
                       bound=family.bound, instances_checked=checked,
                       result=result, seed=0)


def _assert_scans_match_reference(colouring, family):
    want = _reference_certificate(colouring, family).to_json()
    for threads in (1, 2):
        got = find_monochromatic(colouring, family, threads=threads)
        assert got.to_json() == want, (family.spec, colouring.spec, threads)


@pytest.mark.parametrize("spec, bound", [
    ("exptriple", 300), ("exptriple-logcond:r=1", 300), ("schur", 40),
    ("diffpair:seq=3^n,nmax=4", 60), ("grid:len=2", 40),
])
def test_scan_matches_plain_walk_under_random_tables(spec, bound):
    rng = random.Random(spec)
    outcomes = set()
    for k in (2, 3, 4):
        for _ in range(2):
            f = TableColouring([rng.randint(1, k) for _ in range(bound)], k=k)
            fam = parse_family(spec, bound)
            _assert_scans_match_reference(f, fam)
            outcomes.add(find_monochromatic(f, fam).result["type"])
    assert "Counterexample" in outcomes


# the families the shift-and kernel scans
KERNEL_SPECS = ["diffpair:seq=3^n,nmax=4", "diffpair:seq=n*2^n,nmax=5", "schur",
                "grid:len=2", "grid:len=3", "schurplusexp"]


def _walk_outcome(colouring, family):
    """The certificate bytes of the plain row walk, or the type of what it
    raises."""
    try:
        idx = search._walk(colouring, family, search._Budget(None))
    except Exception as exc:
        return type(exc)
    if idx is None:
        checked, result = family.count(), {"type": "AvoidanceVerified"}
    else:
        inst = family.nth(idx)
        witness = inst.witness_json(colouring(inst.values[0]))
        checked, result = idx + 1, {"type": "Counterexample", "witness": witness}
    return Certificate(family=family.descriptor(), colouring=colouring.spec,
                       bound=family.bound, instances_checked=checked,
                       result=result, seed=0).to_json()


def _scan_outcome(colouring, family, threads=1):
    try:
        return find_monochromatic(colouring, family, threads=threads).to_json()
    except Exception as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_SPECS), st.integers(1, 60), st.data())
@example("diffpair:seq=3^n,nmax=4", 60, None)
def test_kernel_matches_the_row_walk(spec, bound, data):
    """Same bytes, instances_checked included, or the same exception type,
    with tables that may stop short of the bound so that colouring raises
    mid-scan, and with many classes, whose ranks the kernel's byte masks
    compare all at once; threads=2 changes nothing."""
    if data is None:  # blocks of three alternate, so no 3^n is a difference
        k, table = 2, [(v - 1) // 3 % 2 + 1 for v in range(1, bound + 1)]
    else:  # few colours, where rows are often monochromatic, or up to 255
        k = data.draw(st.integers(1, 4) | st.integers(5, 255))
        n = data.draw(st.integers(max(1, bound - 30), bound))
        table = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    f = TableColouring(table, k=k)
    fam = parse_family(spec, bound)
    want = _walk_outcome(f, fam)
    assert _scan_outcome(f, fam) == want
    assert _scan_outcome(f, fam, threads=2) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_SPECS), st.sampled_from(["3^n", "n*2^n", "5^n"]),
       st.integers(1, 12), st.integers(1, 5000))
@example("diffpair:seq=n*2^n,nmax=5", "n*2^n", 12, 5000)
def test_kernel_matches_the_row_walk_under_lacunary_colourings(spec, seq, nmax, bound):
    """The lacunary range rule fills the colour array in blocks of 4096,
    where the row walk colours value by value: same bytes, or the same
    exception type."""
    if spec == "schurplusexp":  # its row walk grows as the cube of the bound
        bound = bound % 120 + 1
    f, fam = LacunaryColouring(seq, nmax), parse_family(spec, bound)
    assert _scan_outcome(f, fam) == _walk_outcome(f, fam)


# schurplusexp takes the same hand-over, with raising tables in the test
# above; its walk over the joint rows below a 256th class runs for seconds
@pytest.mark.parametrize("spec, bound", [
    ("diffpair:seq=3^n,nmax=5", 400), ("schur", 400), ("grid:len=2", 320),
])
def test_kernel_hands_the_rows_past_the_255th_class_to_the_walk(spec, bound):
    """A 256th colour class does not fit ``carr``'s one byte per value: the
    rows below it are searched by the kernel and the rest walked, as a walk
    would find them."""
    rng = random.Random(spec)
    outcomes = set()
    # a table short of the bound with colours that rarely repeat raises in
    # the walk; three colours past the distinct ones give a counterexample
    for short, top in ((0, 3), (20, 10**6)):
        for cut in (270, 300):
            table = list(range(1, cut + 1)) + [rng.randint(1, top)
                                                for _ in range(bound - cut - short)]
            f = TableColouring(table, k=10**6)
            fam = parse_family(spec, bound)
            want = _walk_outcome(f, fam)
            assert _scan_outcome(f, fam) == want, (short, cut)
            outcomes.add(want if isinstance(want, type) else json.loads(want)["result"]["type"])
    assert len(outcomes) > 1


@pytest.mark.parametrize("spec", ["schur", "diffpair:seq=3^n,nmax=5",
                                  "diffpair:seq=n*2^n,nmax=6", "grid:len=1",
                                  "grid:len=3"])
@pytest.mark.parametrize("bound", [1, 2, 9, 28, 90])
def test_translates_in_order_are_the_rows(spec, bound):
    """At each largest element m, the translates to m of the kernel's
    patterns, in pattern order, are the rows in enumeration order."""
    fam = parse_family(spec, bound)
    # patterns built at the bound, as the scan of one window builds them,
    # and at a window top below it, as the joint search builds them
    for top in (bound, bound // 2):
        shifts, got = fam._shifts(top), []
        least = [m_min for m_min, _, _ in shifts]
        assert least == sorted(least, reverse=True)
        for m in range(1, top + 1):
            for j, (m_min, offsets, pin) in enumerate(shifts):
                if m >= m_min:
                    i = search._translate_index(fam, shifts, m, j)
                    translate = {m, *(m - o for o in offsets)} | ({pin} - {None})
                    assert set(fam.nth(i).values) == translate
                    got.append(i)
        assert got == list(range(fam._upto(top)))
    assert fam._upto(bound) == fam.count()


def test_schurplusexp_certifies_no_colouring_undefined_below_the_bound():
    """No power triple is monochromatic under this table, which stops at 36:
    the walk colours every x and y below the bound and fails at 37, and so
    does the scan, where the class decomposition once returned avoidance."""
    table = [1, 3, 1, 2, 2, 1, 2, 2, 1, 1, 2, 1, 2, 2, 3, 3, 1, 3, 3, 3, 2, 1,
             2, 2, 2, 2, 3, 2, 1, 2, 2, 3, 1, 1, 2, 1]
    f, fam = TableColouring(table, k=3), parse_family("schurplusexp", 60)
    assert _walk_outcome(f, fam) is OutOfDomain
    with pytest.raises(OutOfDomain):
        find_monochromatic(f, fam)


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_kernel_checks_the_budget(spec):
    with pytest.raises(BudgetExceeded):
        find_monochromatic("const:k=3", spec, 200, budget_secs=1e-9)


class _SpendsTheBudget(LogStarColouring):
    """logstar:r=1, counting the values it colours, that sleeps past a
    0.2 s budget at the value ``at``."""

    def __init__(self, at):
        super().__init__(1)
        self.at, self.calls = at, 0

    def colour(self, x):
        self.calls += 1
        if x == self.at:
            time.sleep(0.25)
        return super().colour(x)


@pytest.mark.parametrize("at", [9, 5000])
def test_level_run_search_checks_the_budget(at):
    """expquad under a log-star colouring is searched window by window, so
    a spent budget raises at the next window or within 4,096 values, not
    once all of [1, bound] is coloured."""
    f = _SpendsTheBudget(at)
    with pytest.raises(BudgetExceeded):
        find_monochromatic(f, "expquad", 10**5, budget_secs=0.2)
    assert f.calls <= at + 4096


class _SlowBlocks(Colouring):
    """Blocks of three alternate, so no power of 3 is a difference; each
    value sleeps about 50 microseconds or more."""
    kind, k = "slowblocks", 2

    def colour(self, x):
        time.sleep(5e-5)
        return (x - 1) // 3 % 2 + 1


def test_kernel_stops_a_slow_colouring_near_the_budget():
    # colouring all of [1, 10^6] takes a minute or more
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        find_monochromatic(_SlowBlocks(), "diffpair:seq=3^n,nmax=12", 10**6,
                           budget_secs=0.25)
    assert time.perf_counter() - t0 < 2


def test_kernel_search_checks_the_budget_every_256_patterns():
    class Counting:
        calls = 0

        def check(self):
            self.calls += 1

    fam, budget = parse_family("grid:len=2", 2000), Counting()
    shifts = fam._shifts(2000)  # 999 patterns, each searched once for both classes
    carr = bytearray([0] + [1, 2] * 1000)
    search._first_translates(carr, [1, 2], shifts, 1, 2000, budget)
    assert len(shifts) == 999 and budget.calls == 4


def _first_translates_by_hand(carr, classes, shifts, lo, hi):
    """``_first_translates`` by testing every translate's elements: a
    translate to m lies in a class c only if c is m's class."""
    first, classes = {}, set(classes)
    for j, (m_min, offsets, pin) in enumerate(shifts):
        for m in range(max(lo, m_min), hi + 1):
            members = [m, *(m - o for o in offsets)] + ([] if pin is None else [pin])
            c = carr[m]
            if c in classes and all(v >= 1 and carr[v] == c for v in members):
                first[c] = min(first.get(c, (m, j)), (m, j))
    return first


@st.composite
def _kernel_inputs(draw):
    n = draw(st.integers(1, 400))
    ranks = draw(st.integers(1, 4) | st.integers(5, 255))
    carr = bytearray([0] + draw(st.lists(st.integers(1, ranks), min_size=n, max_size=n)))
    patterns = draw(st.lists(st.tuples(
        st.integers(1, n + 5),
        st.lists(st.integers(1, 12) | st.integers(1, n), min_size=1, max_size=3,
                 unique=True).map(tuple),
        st.none() | st.integers(1, n)), max_size=12))
    shifts = sorted(patterns, key=lambda s: -s[0])  # _shifts order: m_min non-increasing
    lo = draw(st.integers(1, n))
    complete = range(1, ranks + 1)
    classes = draw(st.just(complete) | st.lists(st.sampled_from(complete), unique=True))
    return carr, classes, shifts, lo, n


@settings(max_examples=300, deadline=None)
@given(_kernel_inputs())
# a class with no more members than a translate has elements
@example((bytearray([0, 1, 1]), range(1, 2), [(2, (1,), None)], 1, 2))
def test_kernel_finds_each_class_first_translate_as_brute_force_does(inputs):
    """For every class asked for, all classes or a subset as the joint
    search passes them, the least (m, j) over pinned and free patterns."""
    carr, classes, shifts, lo, hi = inputs
    got = search._first_translates(carr, classes, shifts, lo, hi, search._Budget(None))
    assert got == _first_translates_by_hand(carr, classes, shifts, lo, hi)


class _Mod255(Colouring):
    """x mod 255 + 1: no power of 3 is a multiple of 255, so no {x, x + 3^n}
    is monochromatic, and every one of 255 classes is searched."""
    kind, k = "mod255", 255

    def colour(self, x):
        return x % 255 + 1


def test_kernel_memory_with_255_classes_stays_under_a_megabyte():
    """The masks span one window's values, a byte per value, and each is
    dropped after its pattern, with at most one class mask at a time: about
    0.44 MB at peak on CPython 3.11, against 1.2 MB with masks over all of
    ``carr`` and 0.35 MB with one-bit lanes per class."""
    f, fam = _Mod255(), parse_family("diffpair:seq=3^n,nmax=14", 10**5)
    tracemalloc.start()
    try:
        cert = find_monochromatic(f, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verified and peak < 2**20


def test_kernel_starts_no_process_pool(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel family started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for spec in KERNEL_SPECS:
        one = find_monochromatic("lacunary:seq=3^n,nmax=6", spec, 300)
        assert find_monochromatic("lacunary:seq=3^n,nmax=6", spec, 300,
                                  threads=2).to_json() == one.to_json()


def test_kernel_colours_about_twice_what_the_walk_colours():
    """Windows of the largest element double from 8, so an early
    counterexample colours at most twice the values below its largest
    element, and never fewer than the walk."""
    walked, scanned = _RecordingSchurExp(), _RecordingSchurExp()
    fam = parse_family("schur", 2000)
    idx = search._walk(walked, fam, search._Budget(None))
    inst = fam.nth(idx)
    witness = inst.witness_json(SchurExpColouring()(inst.values[0]))
    cert = find_monochromatic(scanned, fam)
    assert cert.instances_checked == idx + 1 and cert.result["witness"] == witness
    s = max(int(e["value"]) for e in witness["elements"])
    assert len(walked.seen) <= len(scanned.seen) <= max(8, 2 * s)


class _RecordingSchurExp(SchurExpColouring):
    """The schurexp colouring, counting how often each value is coloured."""

    def __init__(self):
        self.seen = Counter()

    def colour(self, x):
        self.seen[x] += 1
        return super().colour(x)


@pytest.mark.parametrize("spec, bound", [
    ("exptriple", 4096), ("expquad", 40), ("shape:m=2,edges=1-2", 30),
    ("exptriple-logcond:r=1", 1 << 16),
])
def test_walk_colours_each_row_value_once(spec, bound):
    """The row walk's per-call table is the only colour cache: each distinct
    value of the rows it reads is handed to the colouring once."""
    colouring = _RecordingSchurExp()
    fam = parse_family(spec, bound)
    idx = search._walk(colouring, fam, search._Budget(None))
    assert colouring.seen and set(colouring.seen.values()) == {1}, spec
    read = map(fam._scan_row, range(fam.count() if idx is None else idx + 1))
    assert set(colouring.seen) <= {v for values, _ in read for v in values}


class _LevelTableColouring(LogStarColouring):
    """A log-star colouring whose colour is an arbitrary function of the
    level L(x), coarser than L mod (r+2), so that the box search meets
    counterexamples inside boxes of one level pair."""

    def __init__(self, colours):
        super().__init__(1)
        self.colours = colours
        self.k = max(colours)

    def _of_count(self, L):
        return self.colours[min(L, len(self.colours) - 1)]


class _BitLengthColouring(LogStarColouring):
    """Colours by another monotone level than L, the bit length plus
    ``shift`` divided by ``width``, through a periodic map. One row of
    expquad then spans many levels, and the colour is not monotone along
    it."""

    def __init__(self, colours, width, shift=0):
        super().__init__(1)
        self.colours = colours
        self.width, self.shift = width, shift
        self.k = max(colours)

    def _of_count(self, L):
        return self.colours[L % len(self.colours)]

    def _level(self, v):
        return (v.bit_length() + self.shift) // self.width

    def colour(self, x):
        v = x if isinstance(x, int) else eval_exact(x, cutoff=1 << 4096).exact
        return self._of_count(self._level(v))

    def level_power(self, a, b):
        return self._level(a**b)


def test_expquad_run_scan_matches_plain_walk():
    fam = parse_family("expquad", 40)
    for r in (1, 2, 3):
        _assert_scans_match_reference(LogStarColouring(r), fam)
    firsts = set()
    # every two-colour map of the levels 0..6; the levels here reach 5
    for colours in itertools.product((1, 2), repeat=7):
        f = _LevelTableColouring(list(colours))
        _assert_scans_match_reference(f, fam)
        cert = find_monochromatic(f, fam)
        if not cert.verified:
            a, b = cert.result["witness"]["generators"]
            firsts.add((a == 2, a == b))
    # witnesses at the start of a row, at its end and strictly inside
    assert {(True, False), (False, True), (False, False)} <= firsts
    # comparing corner colours in place of corner levels clears a box of
    # one colour at its corners and another colour between them; at width
    # 3 the first two maps are cases where that changes the result
    rng = random.Random(11)
    maps = [[2, 1, 1], [1, 2, 2, 1, 2]] + [
        [rng.randint(1, 2) for _ in range(rng.randint(2, 5))] for _ in range(6)]
    for width in (1, 2, 3, 4):
        for colours in maps:
            _assert_scans_match_reference(_BitLengthColouring(colours, width), fam)


class _ScatteredColouring(_BitLengthColouring):
    """A shifted bit-length level colouring on the perfect powers, where
    expquad's power elements lie, and on every other int x a colour of its
    own below ``start`` and ``table[x % len(table)]`` from there on, so the
    first monochromatic row can lie past the first window."""

    def __init__(self, colours, width, shift, start, table):
        super().__init__(colours, width, shift)
        self.start, self.table = start, table
        self.k = max(self.k, 5 + start)

    def colour(self, x):
        if isinstance(x, int) and x > 1 and _arith.root_exponent(x) == 1:
            return 5 + x if x < self.start else self.table[x % len(self.table)]
        return super().colour(x)


_LEVEL_MAPS = (st.lists(st.integers(1, 5), min_size=1, max_size=6),
               st.integers(1, 12), st.integers(0, 11))
_BOX_COLOURINGS = st.one_of(
    st.builds(LogStarColouring, st.integers(1, 3)),
    st.builds(_BitLengthColouring, *_LEVEL_MAPS),
    st.builds(_ScatteredColouring, *_LEVEL_MAPS, st.integers(2, 60),
              st.lists(st.integers(1, 5), min_size=1, max_size=7)),
)


def test_box_search_matches_the_walk():
    """expquad's box search gives the plain walk's index and witness bytes
    under log-star colourings and periodic maps of a shifted bit-length
    level, on every int or on the perfect powers only, at bounds whose rows
    cross the window edges 8, 16 and 32; the examples meet both
    outcomes."""
    outcomes = Counter()

    @settings(max_examples=300, deadline=None)
    @given(_BOX_COLOURINGS, st.integers(1, 60))
    @example(LogStarColouring(1), 60)
    @example(_BitLengthColouring([1, 2], 3, 1), 60)
    @example(_ScatteredColouring([5, 3, 2, 2], 12, 8, 44, [2, 5]), 60)  # (46, 48)
    def check(colouring, bound):
        fam = parse_family("expquad", bound)
        got = _scan_outcome(colouring, fam)
        assert got == _walk_outcome(colouring, fam)
        outcomes[json.loads(got)["result"]["type"]] += 1

    check()
    assert outcomes["Counterexample"] and outcomes["AvoidanceVerified"]


def test_level_runs_end_by_bisection(monkeypatch):
    """expquad's box search clears whole boxes of generators from their
    corner levels: fewer than 1,000 levels for acceptance criterion 2's
    8,386,560 quadruples, and fewer than 150,000 at 10^5, where the level
    boundaries b*log2(a) = 65536 and a*log2(b) = 65536 cross the (a, b)
    plane and the boxes along them are split into small ones."""
    calls = Counter()
    level = LogStarColouring.level_power

    def counted(self, a, b):
        calls[None] += 1
        return level(self, a, b)

    monkeypatch.setattr(LogStarColouring, "level_power", counted)
    cert = find_monochromatic("logstar:r=1", "expquad", 2**12)
    assert cert.verified and cert.instances_checked == 8386560
    assert calls[None] < 1_000
    calls.clear()
    cert = find_monochromatic("logstar:r=1", "expquad", 10**5)
    assert cert.verified and cert.instances_checked == 4999950000
    assert calls[None] < 150_000


# ---------------------------------------------------------------------------
# lazy rows: shape, fep and expquad hand the row kernel their generators
# first and build the rest only while the colours agree

class _LevelMapColouring(Colouring):
    """Colours each value by a table of its log-star level and by its
    residue mod q, so it is total on huge terms and is not a
    LogStarColouring, whose expquad scan is the box search. The residue tells
    a^b from b^a where their levels agree. The spec names both, for
    verify_certificate to find the colouring."""
    kind = "levelmap"

    def __init__(self, colours, q):
        self.colours, self.q = colours, q
        self.k = max(colours) * q

    def colour(self, x):
        c = self.colours[min(log_star(x), len(self.colours) - 1)]
        return (c - 1) * self.q + eval_mod(x, self.q) + 1

    @property
    def spec(self):
        return f"levelmap:q={self.q}:" + "-".join(map(str, self.colours))


LAZY_SPECS = [("shape:m=2,edges=1-2", 10), ("shape:m=2,edges=1-2;2-1;2-2", 8),
              ("shape:m=3,edges=1-2;2-3", 5), ("shape:m=3,edges=3-1;1-1", 5),
              ("fep:m=2,w=1", 8), ("fep:m=2,w=2", 6), ("fep:m=3,w=1", 4),
              ("fep:m=3,w=2", 4), ("expquad", 16)]


@pytest.mark.parametrize("spec, bound", LAZY_SPECS)
def test_lazy_rows_match_the_instance_walk(spec, bound, monkeypatch):
    """Same bytes as the walk over instances(), and every certificate
    verifies, under products of log-star and lacunary colourings and random
    level tables; threads=2 changes nothing."""
    rng = random.Random(spec)
    colourings = [parse_colouring("product:logstar:r=1+lacunary:seq=n*2^n,nmax=12"),
                  parse_colouring("product:logstar:r=2+lacunary:seq=3^n,nmax=6")]
    colourings += [_LevelMapColouring([rng.randint(1, 2 + n % 2) for _ in range(6)],
                                      1 + 2 * (n >= 8)) for n in range(16)]
    # expquad's row (2, 5) agrees on 2, 5 and 2^5 but not on 5^2
    colourings.append(_LevelMapColouring([1, 1, 2, 1, 1, 1], 3))
    by_spec = {c.spec: c for c in colourings}
    monkeypatch.setattr(search, "parse_colouring",
                        lambda spec: by_spec.get(spec) or parse_colouring(spec))
    fam, outcomes = parse_family(spec, bound), set()
    for n, colouring in enumerate(colourings):
        want = _reference_certificate(colouring, fam).to_json()
        for threads in (1, 2) if n < 4 else (1,):
            cert = find_monochromatic(colouring, fam, threads=threads)
            assert cert.to_json() == want, (colouring.spec, threads)
        assert verify_certificate(cert), colouring.spec
        outcomes.add(cert.result["type"])
    assert outcomes == {"AvoidanceVerified", "Counterexample"}


def test_expquad_builds_no_power_past_a_generator_mismatch(monkeypatch):
    """The walk and the sampled verify colour a, b and a^b before b^a is
    built, and build neither power when colour(a) != colour(b)."""
    colouring = parse_colouring("product:logstar:r=1+const:k=2")
    built = []

    def counted(base, exp):
        built.append((base, exp))
        return materialize(base, exp)

    materialize = families._materialize
    monkeypatch.setattr(families, "_materialize", counted)
    fam = parse_family("expquad", 40)
    cert = find_monochromatic(colouring, fam)
    assert cert.verified and verify_certificate(cert)
    rows = {(min(p), max(p)) for p in built}
    assert rows and any(colouring(a) != colouring(b)
                        for a, b in map(fam._tuple, range(fam.count())))
    for a, b in rows:
        assert colouring(a) == colouring(b), (a, b)
    for base, exp in built:
        if base > exp:  # b^a, built only once a^b took colour(a)
            assert colouring(materialize(exp, base)) == colouring(exp)


class _GeneratorsOnly(Colouring):
    """Colours 2 and 3 apart and each x^x by 1; raises on anything else, as
    a table colouring does past its end."""
    kind, k = "generatorsonly", 4

    def colour(self, x):
        v = x if isinstance(x, int) else eval_exact(x).exact
        if v in (2, 3):
            return v
        if v in (4, 27):
            return 1
        raise OutOfDomain(f"{v} is neither a generator nor x^x")


def test_fep_rows_colour_generators_before_built_elements():
    """fep's instance order puts x1^x2 before x2, so the walk over
    instances() colours 8 on the row (2, 3) and raises; the scan colours
    2 and 3 first, ends the row there and certifies avoidance."""
    fam, colouring = parse_family("fep:m=2,w=1", 3), _GeneratorsOnly()
    assert [inst.values[:2] for inst in fam.instances()][1] == (
        parse_term("2"), parse_term("2^3"))
    with pytest.raises(OutOfDomain):
        _reference_certificate(colouring, fam)
    for threads in (1, 2):
        cert = find_monochromatic(colouring, fam, threads=threads)
        assert cert.verified and cert.instances_checked == 4


def test_fep_rows_over_the_element_cap_are_built_before_colouring():
    """A row with more candidates than the cap may have more distinct
    elements, so it is built whole and raises where the instance walk
    raises, although its generators' colours differ; with the cap at its
    candidate count no row is built whole."""
    # fep:m=2,w=2 on (x1, x2): x1, x1^x2, x1^(x2^2), x2, x1*x2
    table = [1, 1, 2, 2] + [3] * 26  # 2 and 4 differ, so (2, 2) is not monochromatic
    colouring = TableColouring(table, k=3)
    over = parse_family("fep:m=2,w=2", 3, cap=4)
    with pytest.raises(BudgetExceeded, match="element cap 4"):
        _reference_certificate(colouring, over)
    for threads in (1, 2):
        with pytest.raises(BudgetExceeded, match="element cap 4"):
            find_monochromatic(colouring, over, threads=threads)
    # at cap 5 the rows are lazy: (2, 3) ends at 3 before 2^9 is built
    cert = find_monochromatic(colouring, parse_family("fep:m=2,w=2", 3, cap=5))
    assert cert.verified and cert.instances_checked == 4


# ---------------------------------------------------------------------------
# the class search: shape, fep and expquad rows over one-class generators

# (spec, largest bound), the bounds keeping each walk to a few thousand rows
CLASS_SPECS = [("shape:m=1,edges=1-1", 40), ("shape:m=2", 20),
               ("shape:m=2,edges=1-2", 16), ("shape:m=3,edges=1-2;2-3", 9),
               ("shape:m=4,edges=1-2;2-3;3-4;4-1", 6), ("fep:m=1,w=2", 40),
               ("fep:m=2,w=1", 12), ("fep:m=3,w=1", 6), ("expquad", 40)]


class _TableWithoutOne(TableColouring):
    """A table colouring that raises at 1, where the window engine's first
    block starts, so it colours no int and walks every row."""

    def colour(self, x):
        if isinstance(x, int) and x == 1:
            raise OutOfDomain("1 has no colour")
        return super().colour(x)


def test_fep_takes_the_class_search_with_a_constant_weight_within_the_cap():
    """The walk looks a weight table up, and builds a row over the cap
    whole, on every row it reaches: those fep families keep the walk."""
    colouring = TableColouring([1] * 10)
    table = family_from_descriptor({"kind": "fep", "bound": 10, "m": 2,
                                    "weight": {"table": {"": 1}}})
    assert search._search(table, colouring) is None
    # fep:m=2,w=2 has five candidates per row
    for cap, walked in ((4, True), (5, False)):
        fam = parse_family("fep:m=2,w=2", 3, cap=cap)
        assert (search._search(fam, colouring) is None) == walked


class _TableThenResidues(TableColouring):
    """A table on [1, N] that raises on (N, end], as a short table does, and
    colours each value above ``end`` by its residue mod 3, so that powers
    past the table take the colours 1 to 3."""

    def __init__(self, table, k, end):
        super().__init__(table, k=k)
        self.end = end

    def colour(self, x):
        try:
            return super().colour(x)
        except OutOfDomain:
            bv = eval_exact(x)
            if bv.is_exact and bv.exact <= self.end:
                raise
            return eval_mod(x, 3) + 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CLASS_SPECS), st.data())
def test_class_search_matches_the_row_walk(spec_top, data):
    """Same bytes, instances_checked included, or the same exception type,
    under random tables of 1 to 4 colours after a prefix of colours of their
    own, so that the first one-class row can lie past a window's edge. A
    table may stop short of the bound, so that colouring raises mid-scan,
    reach past it to colour powers, raise at 1, or colour the values past
    its end by residue."""
    spec, top = spec_top
    bound = data.draw(st.integers(1, top))
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(max(1, bound - 10), 4 * bound + 8))
    # the window edges are 8, 16 and 32
    own = min(n, data.draw(st.one_of(st.sampled_from([8, 16]), st.integers(0, 20))))
    table = list(range(k + 1, k + own + 1)) + data.draw(
        st.lists(st.integers(1, k), min_size=n - own, max_size=n - own))
    f = data.draw(st.sampled_from([
        lambda: TableColouring(table, k=k + own),
        lambda: _TableWithoutOne(table, k=k + own),
        lambda: _TableThenResidues(table, k + own,
                                   data.draw(st.integers(n, max(n, bound)))),
    ]))()
    fam = parse_family(spec, bound)
    assert search._search(fam, f) is not None
    assert _scan_outcome(f, fam) == _walk_outcome(f, fam)


@pytest.mark.parametrize("spec", ["shape:m=2,edges=1-2", "shape:m=1,edges=1-1",
                                  "fep:m=2,w=1", "expquad"])
def test_class_search_hands_the_rows_past_the_255th_class_to_the_walk(spec):
    """A 256th colour class ends the windows at 255: the rows whose largest
    generator is below it are searched by class and the rest walked, as a
    walk would find them, here up to a counterexample past 255."""
    bound, rng = 300, random.Random(spec)
    past = set()
    # the ints past the cut take the first three colours; a table short of
    # the bound raises on the ints past its end
    for short in (0, 20):
        for cut in (270, 290):
            table = list(range(1, cut + 1)) + [rng.randint(1, 3)
                                                for _ in range(bound - cut - short)]
            f = _TableThenResidues(table, 10**6, bound)
            fam = parse_family(spec, bound, cap=10**5)
            want = _walk_outcome(f, fam)
            assert _scan_outcome(f, fam) == want, (short, cut)
            if not isinstance(want, type):
                past.add(max(json.loads(want)["result"]["witness"]["generators"]) > 255)
    assert True in past


def test_class_search_builds_only_one_class_rows(monkeypatch):
    """Of the 4-cycle's 810,000 generator tuples at 31, the 86,288 whose
    generators share a log-star class are built, and no other."""
    built = []
    lazy = families.ShapeFamily._lazy

    def counted(self, xs):
        built.append(xs)
        return lazy(self, xs)

    monkeypatch.setattr(families.ShapeFamily, "_lazy", counted)
    colouring = LogStarColouring(1)
    cert = find_monochromatic(colouring, "shape:m=4,edges=1-2;2-3;3-4;4-1", 31)
    assert cert.verified and cert.instances_checked == 810_000
    assert len(built) == len(set(built)) == 86_288
    assert all(len(set(map(colouring, xs))) == 1 for xs in built)


@given(st.integers(1, 4), st.data())
def test_tuple_rank_inverts_nth_tuple(m, data):
    g = tuple(data.draw(st.lists(st.integers(2, 60), min_size=m, max_size=m)))
    i = families._tuple_rank(g)
    assert families._nth_tuple(i, m) == g
    assert families._tuple_rank(families._nth_tuple(i + 1, m)) == i + 1


def test_class_rows_in_order_are_the_rows():
    """``_with_max`` over [2, M], M ascending, walks the rows in order, and
    ``_rank`` and ``_upto`` index them."""
    for spec in ("shape:m=1", "shape:m=3", "expquad"):
        fam = parse_family(spec, 9)
        tuples = [g for M in range(2, 10) for g in fam._with_max(range(2, M + 1))]
        assert tuples == [fam._tuple(i) for i in range(fam.count())]
        assert [fam._rank(g) for g in tuples] == list(range(fam.count()))
        assert [fam._upto(M) for M in range(10)] == [
            sum(max(g) <= M for g in tuples) for M in range(10)]


def test_class_search_checks_the_budget_every_4096_rows():
    class Counting:
        calls = 0

        def check(self):
            self.calls += 1

    class IntsOnly(Colouring):
        """Generators take one colour, built powers another."""
        kind, k = "intsonly", 2

        def colour(self, x):
            return 1 if isinstance(x, int) else 2

    fam, budget = parse_family("shape:m=3,edges=1-2", 40), Counting()
    carr = bytearray([0] + [1] * 40)
    assert search._search(fam, IntsOnly())(carr, {1: 1}, 1, 40, budget) is None
    assert fam.count() == 39**3 and budget.calls == -(-39**3 // 4096)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        find_monochromatic("logstar:r=1", "exptriple", 10**5,
                           budget_secs=1e-9)


def test_nan_budget_raises_value_error():
    # NaN never compares above the clock: it would mean no budget at all
    with pytest.raises(ValueError, match="nan"):
        find_monochromatic("logstar:r=1", "schur", 100, budget_secs=float("nan"))


# ---------------------------------------------------------------------------
# certificates

def test_certificate_json_round_trip():
    cert = find_monochromatic("logstar:r=1", "exptriple-logcond", 2**12)
    obj = json.loads(cert.to_json())
    clone = Certificate.from_json_obj(obj)
    assert clone.to_json() == cert.to_json()
    assert cert.wall_time >= 0
    assert "wall_time" not in obj


def test_records_compare_without_wall_time():
    for rec in (find_monochromatic("logstar:r=1", "schur", 4), vdw_number(2, 3)):
        other = copy.deepcopy(rec)
        assert other.wall_time == rec.wall_time and repr(other) == repr(rec)
        assert pickle.loads(pickle.dumps(rec)).wall_time == rec.wall_time
        other.wall_time += 1.0
        # repr shows wall_time; == and the bytes leave it out
        assert other == rec and other.to_json() == rec.to_json()
        assert repr(other) != repr(rec) and f"wall_time={other.wall_time!r})" in repr(other)
        other.seed += 1
        assert other != rec
        with pytest.raises(TypeError):
            hash(rec)


def test_value_classes_are_frozen_and_rebuilt_by_pickle_and_copy():
    alpha = parse_colouring("lacunary:seq=n*2^n,nmax=8").alphas[0]
    values = [
        (eval_exact(parse_term("2^70")), ("exact", "cutoff")),
        (WeightFn.constant(2), ("const", "table", "monotone")),
        (WeightFn(table={frozenset({2}): 1}), ("const", "table", "monotone")),
        (finite_exponentials([2, 3]), ("family", "generators", "elements", "provenance")),
        (ShapeRelation(2, [(2, 1), (1, 2)]), ("m", "edges")),
        (alpha, ("alpha", "seq_name", "indices", "interval")),
        (parse_family("exptriple", 16).nth(2), ("roles", "values", "generators")),
        (parse_term("2^3*5"), ("factors",)),
    ]
    for value, fields in values:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1
        assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
        assert repr(copy.deepcopy(value)) == repr(value)
    assert repr(ShapeRelation(2, [(2, 1), (1, 2)])) == (
        "ShapeRelation(m=2, edges=frozenset({(1, 2), (2, 1)}))")
    assert repr(WeightFn.constant(2)) == "WeightFn(const=2, table=None, monotone=False)"
    assert repr(eval_exact(parse_term("2^3"), 10)) == "BoundedValue(exact=8, cutoff=10)"
    assert hash(alpha) == hash((alpha.alpha, alpha.seq_name, alpha.indices, alpha.interval))


def test_verify_rejects_tampered_avoidance_count():
    cert = find_monochromatic("logstar:r=1", "exptriple-logcond", 2**12)
    assert verify_certificate(cert)
    cert.instances_checked += 1
    assert not verify_certificate(cert)


@pytest.mark.parametrize("key, forged", [("seed", "x"), ("schema", True),
                                         ("seed", [1])])
def test_verify_rejects_a_seed_or_schema_of_the_wrong_type(key, forged):
    # the schema requires an integer seed and schema 1; True == 1 in Python
    cert = find_monochromatic("logstar:r=1", "schur", 4)
    assert verify_certificate(cert)
    obj = json.loads(cert.to_json())
    obj[key] = forged
    assert verify_certificate(Certificate.from_json_obj(obj)) is False


@pytest.mark.parametrize("key", ["seed", "schema"])
def test_certificate_needs_its_seed_and_schema(key):
    obj = json.loads(find_monochromatic("logstar:r=1", "schur", 4).to_json())
    del obj[key]
    with pytest.raises(KeyError):
        Certificate.from_json_obj(obj)


@pytest.mark.parametrize("spec, bound", [("schur", 4), ("exptriple", 8)])
def test_verify_rejects_a_forged_top_level_bound(spec, bound):
    """The family's own bound is what was scanned; a larger top-level bound
    would read as avoidance far past it."""
    cert = find_monochromatic("logstar:r=1", spec, bound)
    assert cert.verified and verify_certificate(cert)
    obj = json.loads(cert.to_json())
    obj["bound"] = 10**9
    assert not verify_certificate(Certificate.from_json_obj(obj))


def test_verify_rejects_another_schema():
    cert = find_monochromatic("logstar:r=1", "schur", 4)
    obj = json.loads(cert.to_json())
    obj["schema"] = _spec.SCHEMA_VERSION + 1
    assert not verify_certificate(Certificate.from_json_obj(obj))


def test_verify_rejects_tampered_witness():
    cert = find_monochromatic("const:k=1", "exptriple", 16)
    assert verify_certificate(cert)
    cert.result["witness"]["colour"] = 2
    assert not verify_certificate(cert)


def test_verify_rejects_mismatched_family():
    cert = find_monochromatic("logstar:r=1", "exptriple-logcond", 2**12)
    cert.family = dict(cert.family, bound=2**13)
    assert not verify_certificate(cert)


def test_verify_recolours_witness_elements():
    # forge a counterexample containing elements of different colours
    cert = find_monochromatic("const:k=1", "exptriple", 16)
    cert.colouring = "logstar:r=1"
    assert not verify_certificate(cert)


def test_verify_rejects_forged_counterexample():
    cert = find_monochromatic("logstar:r=1", "exptriple", 10**5)
    assert not cert.verified and verify_certificate(cert)
    forged = Certificate.from_json_obj(json.loads(cert.to_json()))
    forged.result["witness"] = {
        "generators": [9, 9],
        "elements": [{"role": "a", "value": "17"}, {"role": "b", "value": "17"}],
        "colour": 1,
    }
    forged.instances_checked = 1
    assert not verify_certificate(forged)
    # the true elements under other generators or roles
    for key, val in (("generators", [2, 17]), ("elements", [
            {"role": "b", "value": "17"}, {"role": "a", "value": "2"},
            {"role": "a^b", "value": "289"}])):
        forged = Certificate.from_json_obj(json.loads(cert.to_json()))
        forged.result["witness"][key] = val
        assert not verify_certificate(forged), key
    # the true witness at a wrong index, and an index out of range
    for checked in (cert.instances_checked - 1, cert.instances_checked + 1, 0,
                    parse_family("exptriple", 10**5).count() + 1):
        moved = Certificate.from_json_obj(json.loads(cert.to_json()))
        moved.instances_checked = checked
        assert not verify_certificate(moved), checked
    # the witness of a row before the first monochromatic one, in any colour
    # or none
    i = cert.instances_checked - 2
    before = parse_family("exptriple", 10**5).nth(i)
    for colour in (None, 1, 2):
        forged = Certificate.from_json_obj(json.loads(cert.to_json()))
        forged.instances_checked = i + 1
        forged.result["witness"] = before.witness_json(colour)
        assert not verify_certificate(forged), colour
    # the true claim in a form find_monochromatic does not write: a
    # colouring spec that is not canonical, value text that parses to the
    # same value, an extra witness key and an extra descriptor key
    assert cert.result["witness"]["elements"][0]["value"] == "17"
    for path, val in ((("colouring",), "logstar"),
                      (("result", "witness", "elements", 0, "value"), "(17)"),
                      (("result", "witness", "note"), "x"),
                      (("family", "note"), "x")):
        forged = Certificate.from_json_obj(_set(json.loads(cert.to_json()), path, val))
        assert not verify_certificate(forged), path
    # a result or witness that is not a dict
    for path in (("result",), ("result", "witness")):
        forged = Certificate.from_json_obj(_set(json.loads(cert.to_json()), path, []))
        assert verify_certificate(forged) is False, path


def _set(obj, path, val):
    """obj with the value at ``path`` (keys and indices) set to val."""
    *parents, last = path
    inner = obj
    for key in parents:
        inner = inner[key]
    inner[last] = val
    return obj


def _certificates():
    """Certificates over every family kind and colouring: both results."""
    specs = [("exptriple", 300), ("exptriple:strict=1", 300),
             ("exptriple-logcond:r=1", 300), ("expquad", 12), ("schur", 4),
             ("schur", 40), ("schurplusexp", 30),
             ("diffpair:seq=3^n,nmax=4", 60), ("grid:len=2", 40),
             ("shape:m=2,edges=1-2", 6), ("fep:m=2,w=1", 5)]
    colourings = ["const:k=1", "logstar:r=1", "logstar:r=2", "schurexp",
                  "lacunary:seq=n*2^n,nmax=8", "pow2abb:nmax=6", "abbb:nmax=6",
                  "product:logstar:r=1+const:k=2"]
    for spec, bound in specs:
        for col in colourings:
            try:
                yield find_monochromatic(col, spec, bound)
            except ExpRamseyError:
                continue


def _round_trip(cert):
    return Certificate.from_json_obj(json.loads(cert.to_json()))


def test_every_counterexample_verifies():
    certs = [c for c in _certificates() if not c.verified]
    kinds = {c.family["kind"] for c in certs}
    assert len(kinds) == 9, kinds
    assert any(c.instances_checked > 1 for c in certs)
    for cert in certs:
        clone = _round_trip(cert)
        assert clone == cert and verify_certificate(clone), cert.to_json()
        # value text that parses to the same value, and extra keys
        first = ("result", "witness", "elements", 0, "value")
        for path, val in ((first, f"({cert.result['witness']['elements'][0]['value']})"),
                          (("result", "witness", "note"), "x"),
                          (("family", "note"), "x")):
            forged = Certificate.from_json_obj(_set(json.loads(cert.to_json()), path, val))
            assert not verify_certificate(forged), (path, cert.to_json())
        if cert.instances_checked > 1:
            clone.instances_checked -= 1
            assert not verify_certificate(clone), cert.to_json()
    # _Record.from_json_obj reads back every record kind
    for comp in (vdw_number(2, 3), exp_ramsey_number(1)):
        obj = json.loads(comp.to_json())
        assert ramsey.RamseyComputation.from_json_obj(obj) == comp


def test_every_avoidance_verifies():
    """Avoidance is replayed: the count must be the family's, and the
    colouring text the canonical spec the replay writes."""
    certs = [c for c in _certificates() if c.verified]
    assert {c.family["kind"] for c in certs} == set(families.FAMILIES)
    assert parse_colouring("logstar").spec == "logstar:r=1"
    for cert in certs:
        assert verify_certificate(_round_trip(cert)), cert.to_json()
        for delta in (-1, 1):
            moved = _round_trip(cert)
            moved.instances_checked += delta
            assert not verify_certificate(moved), (delta, cert.to_json())
        if cert.colouring == "logstar:r=1":
            loose = _round_trip(cert)
            loose.colouring = "logstar"
            assert not verify_certificate(loose), cert.to_json()


@pytest.mark.parametrize("colouring", ["logstar:r=1", "schurexp"])
def test_forged_avoidance_is_rejected_for_every_seed(colouring):
    """A false avoidance claim for exptriple at 10^6 is rejected whatever
    its seed, though logstar:r=1 colours only 240 of its 1,177 rows in one
    colour and schurexp only 2."""
    family = parse_family("exptriple", 10**6)
    assert not find_monochromatic(colouring, family).verified
    for seed in range(200):
        forged = Certificate(family=family.descriptor(), colouring=colouring,
                             bound=family.bound, instances_checked=family.count(),
                             result={"type": "AvoidanceVerified"}, seed=seed)
        assert not verify_certificate(forged), seed


# one family of each kind, small enough that a table colours every element;
# diffpair's elements pass 255, so a table with a colour per value ends the
# window scan's classes there and the rest of its rows are walked
VERIFY_FAMILIES = [
    ("exptriple", 2**12), ("exptriple-logcond:r=1", 2**12), ("expquad", 5),
    ("schur", 40), ("schurplusexp", 30), ("shape:m=3,edges=1-2;2-3", 4),
    ("fep:m=2,w=1", 4), ("diffpair:seq=3^n,nmax=4", 300), ("grid:len=2", 60),
]


def test_verify_matches_the_instance_check(tmp_path):
    """A claimed avoidance is accepted exactly when no instance has all its
    distinct values in one colour."""
    assert {parse_family(spec, 4).kind for spec, _ in VERIFY_FAMILIES} == set(families.FAMILIES)
    rng = random.Random(2024)
    verdicts: Dict[str, List[bool]] = {}
    for spec, bound in VERIFY_FAMILIES:
        fam = parse_family(spec, bound)
        top = max(v if isinstance(v, int) else eval_exact(v).exact
                  for inst in fam.instances() for v in inst.values)
        # a colour per value, which no instance of two values meets in one
        # colour, then random tables, which some instance nearly always does
        tables = [(top, list(range(1, top + 1)))]
        tables += [(k, [rng.randint(1, k) for _ in range(top)])
                   for k in (2, 3, 4, 2, 3, 4, 2, 3)]
        for t, (k, table) in enumerate(tables):
            path = tmp_path / f"{fam.kind}-{t}.json"
            path.write_text(json.dumps({"k": k, "map": table}))
            colouring = TableColouring(table, k=k)
            want = all(_plain_colour(colouring, inst) is None
                       for inst in fam.instances())
            for seed in [rng.randrange(2**31) for _ in range(3)]:
                # claimed avoidance whether or not it holds
                cert = Certificate(
                    family=fam.descriptor(), colouring=f"table:{path}",
                    bound=bound, instances_checked=fam.count(),
                    result={"type": "AvoidanceVerified"}, seed=seed)
                got = verify_certificate(cert)
                assert got == want, (spec, t, seed)
                verdicts.setdefault(fam.kind, []).append(got)
    assert sum(map(len, verdicts.values())) >= 200
    # every kind is both accepted and rejected somewhere
    assert all(set(v) == {True, False} for v in verdicts.values()), verdicts


# well-formed descriptors whose families exceed the default element cap
OVER_CAP_DESCRIPTORS = [
    {"kind": "exptriple", "bound": 10**400, "strict": False},
    {"kind": "exptriple-logcond", "bound": 10**400, "r": 1},
    {"kind": "schurplusexp", "bound": 10**400},
    {"kind": "shape", "bound": 100, "m": 5, "edges": []},
    {"kind": "fep", "bound": 100, "m": 5, "weight": {"const": 1}},
]


@pytest.mark.parametrize("desc", [
    {"kind": "shape", "bound": 5},
    {"kind": "exptriple"},
    {"kind": "grid", "bound": 10},
    {"kind": "diffpair", "bound": 10, "seq": "n*2^n"},
    {"kind": "fep", "bound": 5, "m": 2, "weight": "x"},
    {"kind": "expquad", "bound": "7"},
    *OVER_CAP_DESCRIPTORS,
])
def test_verify_rejects_malformed_descriptors(desc):
    cert = find_monochromatic("const:k=1", "exptriple", 16)
    cert.family = desc
    with pytest.raises(BudgetExceeded if desc in OVER_CAP_DESCRIPTORS else ParseError):
        family_from_descriptor(desc)
    assert verify_certificate(cert) is False


# ---------------------------------------------------------------------------
# Ramsey numbers

def test_vdw_small_values():
    assert vdw_number(2, 3).value == 9
    assert vdw_number(1, 3).value == 3
    assert vdw_number(2, 2).value == 3


def test_vdw_witness_avoids():
    comp = vdw_number(2, 3)
    assert comp.methods_agree
    colours = comp.witness["colours"]
    assert comp.witness["n"] == 8 and len(colours) == 8
    for a in range(1, 9):
        for d in range(1, 4):
            if a + 2 * d <= 8:
                assert len({colours[a - 1], colours[a + d - 1],
                            colours[a + 2 * d - 1]}) > 1


def _avoids_progressions(colours, length):
    n = len(colours)
    return all(len({colours[s - 1 + i * d] for i in range(length)}) > 1
               for d in range(1, n)
               for s in range(1, n - (length - 1) * d + 1))


@pytest.mark.parametrize("k, length, known", [(2, 4, 35), (3, 3, 27)])
def test_vdw_known_values(k, length, known):
    # W(2,4) = 35 and W(3,3) = 27 (Chvatal 1970)
    comp = vdw_number(k, length)
    assert comp.value == known and comp.methods_agree is True
    colours = comp.witness["colours"]
    assert comp.witness["n"] == known - 1 and len(colours) == known - 1
    assert set(colours) <= set(range(1, k + 1))
    assert _avoids_progressions(colours, length)


def _reference_vdw(k: int, length: int, n_max: int = 64):
    """A climb that solves every n from ``length`` up: the reference for
    vdw_number's records."""
    def problem(n):
        return list(range(1, n + 1)), _ap_constraints(n, length)

    value, assign = None, None
    for n in range(length, n_max + 1):
        found = _backtrack_colouring(*problem(n), k)
        if found is None:
            value = n
            break
        assign = found
    return ramsey._threshold("vdw", k, {"len": length}, n_max, 0,
                             time.perf_counter(), value, assign, problem)


# W_k(length) for k in 1..3 and length in 2..4
KNOWN_VDW = {(1, 2): 2, (1, 3): 3, (1, 4): 4, (2, 2): 3, (2, 3): 9, (2, 4): 35,
             (3, 2): 4, (3, 3): 27, (3, 4): 76}


@pytest.mark.parametrize("k, length", sorted(KNOWN_VDW))
@pytest.mark.parametrize("below", [False, True])
def test_vdw_climb_matches_a_solve_at_every_n(k, length, below):
    # the default ceiling 64, and one ceiling below W (64 is below W(3,4) = 76)
    n_max = min(KNOWN_VDW[k, length], 64) - 1 if below else 64
    comp = vdw_number(k, length, n_max)
    assert comp.to_json_obj() == _reference_vdw(k, length, n_max).to_json_obj()
    assert comp.value == (None if below or (k, length) == (3, 4) else KNOWN_VDW[k, length])


def test_vdw_solves_only_where_the_last_colouring_does_not_extend(monkeypatch):
    calls, solve = [], ramsey._backtrack_colouring
    monkeypatch.setattr(ramsey, "_backtrack_colouring",
                        lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
    assert vdw_number(3, 3).value == 27
    # solving every n took 26 calls
    assert len(calls) <= 8
    calls.clear()
    # and 33 for W(2,4); the climb opens a fresh colour by extension
    assert vdw_number(2, 4).value == 35
    assert len(calls) <= 5


def test_backtrack_orders_agree_and_colourings_are_free():
    for n in range(3, 12):
        values, cons = list(range(1, n + 1)), _ap_constraints(n, 3)
        first = _backtrack_colouring(values, cons, 2)
        second = _backtrack_colouring(values, cons, 2, alternate=True)
        assert (first is None) == (second is None) == (n >= 9)
        for assign in (first, second):
            assert assign is None or _colouring_is_free(
                [assign[v] for v in values], cons)


def _reference_backtrack(values: List[int],
                         constraints: List[Tuple[int, ...]],
                         k: int, node_cap: int = 20_000_000,
                         *, alternate: bool = False
                         ) -> Optional[Dict[int, int]]:
    """_backtrack_colouring as it was before forced colours were propagated,
    kept verbatim as the reference for the solutions it returns.

    Colouring with no constraint set monochromatic, or None if impossible.

    Backtracking with not-all-equal propagation: once a constraint has all
    but one member assigned a single colour, that colour is forbidden for
    the remaining member, and an empty domain fails the branch immediately.
    Values are branched in degree order (the smallest value first) so that
    contradictions surface among the constraint-dense values near the root
    instead of being rediscovered under every assignment of the sparse ones.
    Colour classes are introduced in first-use order, which fixes the first
    value's colour to 1 and prunes colour permutations.

    ``alternate`` selects a second, independent branching order for
    cross-checking a refutation: descending degree with ties broken by the
    largest value first, and no value pinned to the root. The search runs on
    an explicit stack, so its depth is not bounded by the recursion limit.
    """
    m = len(values)
    if m == 0:
        return {}
    index = {v: i for i, v in enumerate(values)}
    cons: List[Tuple[int, ...]] = []
    for c in constraints:
        pos = tuple(sorted({index[v] for v in c}))
        if len(pos) == 1:
            return None
        cons.append(pos)
    cons = sorted(set(cons))
    degree = [0] * m
    for pos in cons:
        for p in pos:
            degree[p] += 1
    if alternate:
        order = sorted(range(m), key=lambda p: (-degree[p], -p))
    else:
        order = sorted(range(m), key=lambda p: (p != 0, -degree[p], p))
    by_pos: List[List[int]] = [[] for _ in range(m)]
    for ci, pos in enumerate(cons):
        for p in pos:
            by_pos[p].append(ci)

    cnt = [0] * len(cons)
    common = [0] * len(cons)  # 0 unset, -1 mixed, else the single colour
    forbid = [0] * m  # bitmask, bit c-1 set = colour c impossible
    assign = [0] * m
    full = (1 << k) - 1

    def place(p: int, c: int):
        """Apply bookkeeping for assigning colour c at p; returns the undo
        trail, or None after rolling back on a detected dead end."""
        trail = []
        for ci in by_pos[p]:
            trail.append((0, ci, cnt[ci], common[ci]))
            cnt[ci] += 1
            if common[ci] == 0:
                common[ci] = c
            elif common[ci] != -1 and common[ci] != c:
                common[ci] = -1
            if common[ci] == -1:
                continue
            pos = cons[ci]
            if cnt[ci] == len(pos):
                undo(trail)
                return None
            if cnt[ci] == len(pos) - 1:
                q = next(q for q in pos if assign[q] == 0)
                trail.append((1, q, forbid[q], 0))
                forbid[q] |= 1 << (c - 1)
                if forbid[q] == full:
                    undo(trail)
                    return None
        return trail

    def undo(trail) -> None:
        for kind, i, a, b in reversed(trail):
            if kind == 0:
                cnt[i], common[i] = a, b
            else:
                forbid[i] = a

    # Depth-first search over the positions in `order`. Depth r holds the
    # colour last tried at order[r] (0 on entering the depth, which counts
    # one node), the undo trail of the colour in place, and the number of
    # colour classes used at the depths above it.
    tried = [0] * m
    trails: List[list] = [[]] * m
    used = [0] * (m + 1)
    nodes, r = 0, 0
    while True:
        p = order[r]
        if tried[r] == 0:
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceeded("colouring search exceeded the node budget")
        c = tried[r] + 1
        top = min(k, used[r] + 1)
        trail = None
        while c <= top:
            if not forbid[p] >> (c - 1) & 1:
                assign[p] = c
                trail = place(p, c)
                if trail is not None:
                    break
                assign[p] = 0
            c += 1
        if trail is not None:
            tried[r], trails[r] = c, trail
            used[r + 1] = max(used[r], c)
            r += 1
            if r == m:
                return {v: assign[index[v]] for v in values}
            tried[r] = 0
            continue
        if r == 0:
            return None
        r -= 1
        undo(trails[r])
        assign[order[r]] = 0


@st.composite
def colouring_problems(draw):
    """Up to 14 values and constraints of 1 to 6 members, repeats allowed:
    past three distinct members the solver walks a tail per constraint."""
    values = draw(st.lists(st.integers(1, 40), unique=True, max_size=14))
    member = st.sampled_from(values) if values else st.nothing()
    cons = draw(st.lists(st.lists(member, min_size=1, max_size=6).map(tuple),
                         max_size=30 if values else 0))
    return values, cons


@settings(max_examples=400, deadline=None)
@given(colouring_problems(), st.integers(1, 4), st.booleans())
@example((list(range(1, 9)), _ap_constraints(8, 3)), 2, False)
@example((list(range(1, 10)), _ap_constraints(9, 3)), 2, True)
@example((list(range(1, 15)), _ap_constraints(14, 3)), 3, False)
@example(([2, 4, 8], [(2, 4), (4, 8), (2, 8)]), 2, False)  # two members
@example(([2, 4, 8], [(2, 2, 4), (4, 8, 8)]), 2, True)  # a repeated member
@example((list(range(1, 8)), [(1, 2, 3, 4, 5), (3, 4, 5, 6, 7), (1, 7)]), 2, False)  # tails
def test_backtrack_returns_what_plain_branching_returns(problem, k, alternate):
    values, cons = problem
    assert (_backtrack_colouring(values, cons, k, alternate=alternate)
            == _reference_backtrack(values, cons, k, alternate=alternate))


@pytest.mark.parametrize("k, length, ns", [(2, 3, range(3, 11)), (3, 3, (20, 26)),
                                           (2, 4, (30, 34, 35)), (4, 3, (30,))])
def test_backtrack_matches_plain_branching_on_progressions(k, length, ns):
    for n in ns:
        values, cons = list(range(1, n + 1)), _ap_constraints(n, length)
        for alternate in (False, True):
            assert (_backtrack_colouring(values, cons, k, alternate=alternate)
                    == _reference_backtrack(values, cons, k, alternate=alternate))


@pytest.mark.parametrize("n, length, k", [(27, 3, 3), (35, 4, 2)])
def test_backtrack_refutes_w33_and_w24_in_few_nodes(n, length, k):
    # forced colours are propagated, so [W] is refuted in under 1,000 nodes
    # in both orders; plain branching needs 11,591 and more for [27], and
    # 2,790 and more for [35]
    values, cons = list(range(1, n + 1)), _ap_constraints(n, length)
    for alternate in (False, True):
        assert _backtrack_colouring(values, cons, k, 1000, alternate=alternate) is None
        with pytest.raises(BudgetExceeded):
            _reference_backtrack(values, cons, k, 1000, alternate=alternate)


@pytest.mark.parametrize("k, length, n, nodes, alternate_nodes", [
    (2, 4, 34, 67, 88), (2, 4, 35, 236, 172),
    (3, 3, 26, 129, 48), (3, 3, 27, 641, 471)])
def test_backtrack_node_counts_are_pinned(k, length, n, nodes, alternate_nodes):
    # the exact node count of each solve: a change to propagation that kept
    # the answers but searched more (or fewer) nodes would show here
    values, cons = list(range(1, n + 1)), _ap_constraints(n, length)
    for alternate, count in ((False, nodes), (True, alternate_nodes)):
        expected = _backtrack_colouring(values, cons, k, alternate=alternate)
        assert (expected is None) == (n in (27, 35))  # W(3,3), W(2,4)
        assert _backtrack_colouring(values, cons, k, count,
                                    alternate=alternate) == expected
        with pytest.raises(BudgetExceeded):
            _backtrack_colouring(values, cons, k, count - 1, alternate=alternate)


@settings(max_examples=200, deadline=None)
@given(colouring_problems(), st.booleans())
def test_backtrack_with_more_colours_than_values(problem, alternate):
    # the solver opens at most one class per value, so it caps k there
    values, cons = problem
    k = len(values) + 5
    assert (_backtrack_colouring(values, cons, k, alternate=alternate)
            == _reference_backtrack(values, cons, k, alternate=alternate))


def test_backtrack_memory_does_not_grow_with_k():
    # 992 progressions at n = 64 once needed about 16 GB of slots at k = 10^6;
    # the climb colours every n by extension, so the solver is called directly
    values, cons = list(range(1, 65)), _ap_constraints(64, 3)
    tracemalloc.start()
    try:
        assigns = [_backtrack_colouring(values, cons, 10**6, alternate=alternate)
                   for alternate in (False, True)]
        comp = vdw_number(10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(a is not None for a in assigns)
    assert comp.value is None and peak < 8 * 2**20


def test_backtrack_memory_is_linear_in_membership():
    # the solver keeps, per position, each constraint's other members and
    # nothing per constraint, so memory grows with the total membership:
    # 19,998 triples peak at about 19 MB on CPython 3.11
    values = list(range(1, 20001))
    cons = [(1, i, i + 1) for i in range(2, 20000)]
    tracemalloc.start()
    try:
        _backtrack_colouring(values, cons, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_backtrack_depth_not_bounded_by_recursion_limit():
    assign = _backtrack_colouring(list(range(1, 3001)), [], 2)
    assert assign is not None and len(assign) == 3000


def test_methods_agree_needs_both_checks():
    cons8, cons9 = _ap_constraints(8, 3), _ap_constraints(9, 3)
    good = vdw_number(2, 3).witness["colours"]
    assert _methods_agree(good, cons8, list(range(1, 10)), cons9, 2)
    assert not _methods_agree([1] * 8, cons8, list(range(1, 10)), cons9, 2)
    # [8] is 2-colourable, so the second solve cannot refute it
    assert not _methods_agree(good, cons8, list(range(1, 9)), cons8, 2)


def test_methods_agree_false_when_second_solve_exhausts_budget(monkeypatch):
    solve = ramsey._backtrack_colouring

    def starved(values, constraints, k, node_cap=20_000_000, *, alternate=False):
        return solve(values, constraints, k, 1 if alternate else node_cap,
                     alternate=alternate)

    monkeypatch.setattr(ramsey, "_backtrack_colouring", starved)
    comp = vdw_number(2, 3)
    assert comp.value == 9 and comp.methods_agree is False


def test_exp_ramsey_one_colour():
    comp = exp_ramsey_number(1)
    assert comp.value == 4
    assert comp.methods_agree
    # below the threshold there are no triples at all
    assert _exp_triples_upto(3) == []


def test_exp_ramsey_lists_triples_only_below_the_answer_squared(monkeypatch):
    # {2, 4} decides k = 1 at any ceiling: 159 s and 1.1 GB at 10^12 when
    # every triple up to the ceiling was listed first
    listed, real = [], ramsey._exp_triples_upto
    monkeypatch.setattr(ramsey, "_exp_triples_upto",
                        lambda n, cap=None: listed.append(n) or real(n, cap))
    t0 = time.perf_counter()
    comp = exp_ramsey_number(1, n_max=10**12)
    assert time.perf_counter() - t0 < 1
    assert comp.value == 4 and comp.methods_agree is True and max(listed) < 16
    assert comp.to_json_obj() == {**exp_ramsey_number(1).to_json_obj(), "n_max": 10**12}
    listed.clear()
    comp = exp_ramsey_number(2, n_max=3 * 10**12)
    assert comp.value == 65536 and comp.methods_agree is True and max(listed) < 2**32
    assert comp.to_json_obj() == {**exp_ramsey_number(2).to_json_obj(), "n_max": 3 * 10**12}
    assert exp_ramsey_number(1, n_max=3).value is None


def test_exp_ramsey_two_colours():
    comp = exp_ramsey_number(2)
    assert comp.value == 65536 and comp.methods_agree is True
    colours = comp.witness["colours"]
    assert comp.witness["n"] == 65535 and len(colours) == 65535
    assert all(len({colours[a - 1], colours[b - 1], colours[p - 1]}) > 1
               for a, b, p in _exp_triples_upto(65535))


def test_exp_ramsey_respects_ceiling():
    comp = exp_ramsey_number(2, n_max=100)
    assert comp.value is None


def test_exp_ramsey_three_colours_exceed_a_high_ceiling():
    # the lifted system at M = 23 is solved first, and its 3-colouring puts
    # exp(3) past 10^7 with no triple listed
    comp = exp_ramsey_number(3, n_max=10**7)
    assert comp.value is None and comp.witness is None


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20), st.sampled_from([2, 3]), st.booleans(),
       st.randoms(use_true_random=False))
def test_lifted_colourings_leave_no_triple_monochromatic(m, k, alternate, rng):
    # the values in another order pin another value to the root, so the
    # solver returns another g
    values = rng.sample(range(1, m + 1), m)
    g = _backtrack_colouring(values, _lifted_constraints(m), k, alternate=alternate)
    if g is None:  # 2 colours lift only through M = 11
        assert k == 2 and m >= 12
        return
    triples = _exp_triples_upto(2 ** (m + 1) - 1)
    lift = {v: g[root_exponent(v)] for t in triples for v in t}
    assert all(len({lift[a], lift[b], lift[p]}) > 1 for a, b, p in triples)


def test_lifted_constraints():
    # l = 1 gives the pairs {1, b} for b no perfect power, and {1, 2, 4} for b = 4
    assert _lifted_constraints(4) == [(1, 1, 2), (2, 1, 4), (1, 1, 3), (1, 2, 4)]
    assert _lifted_constraints(1) == []


@pytest.mark.parametrize("m", [2, 3, 16, 17, 1000, 4095, 4096])
def test_lifted_constraints_read_l_from_one_sieve(m):
    assert _lifted_constraints(m) == [(l, root_exponent(b), l * b) for b in range(2, m + 1)
                                      for l in range(1, m // b + 1)]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n_max", [100, 4095, 4096, 10**5, 10**7])
def test_exp_ramsey_records_are_those_without_the_lift(monkeypatch, k, n_max):
    comp = exp_ramsey_number(k, n_max)
    # a one-member constraint is monochromatic under every colouring, so
    # the lifted system is never coloured and the ladder always runs
    monkeypatch.setattr(ramsey, "_lifted_constraints", lambda m: [(1,)])
    assert comp.to_json_obj() == exp_ramsey_number(k, n_max).to_json_obj()


def test_exp_ramsey_three_colours_exceed_10_to_the_12_by_the_lift(monkeypatch):
    # the lift answers without listing a triple
    listed = []
    monkeypatch.setattr(ramsey, "_exp_triples_upto", lambda n, cap=None: listed.append(n))
    comp = exp_ramsey_number(3, n_max=10**12)
    assert listed == []
    assert comp.to_json() == (
        '{"k":3,"kind":"exptriple","methods_agree":null,"n_max":1000000000000,'
        '"params":{},"schema":1,"seed":0,"value":null,"witness":null}\n')


def _members(cons: List[Tuple[int, ...]]) -> List[int]:
    return sorted({v for c in cons for v in c})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(1, 12), min_size=2, max_size=4)
                .filter(lambda c: len(set(c)) > 1).map(tuple), max_size=24),
       st.sampled_from([2, 3]), st.randoms(use_true_random=False))
def test_core_is_an_equisatisfiable_two_core(cons, k, rng):
    core = _core(cons)
    rest = iter(cons)
    assert all(c in rest for c in core)  # an order-preserving sub-list
    held = Counter(v for c in core for v in set(c))
    assert all(held[v] >= 2 for c in core for v in c)
    assert ((_reference_backtrack(_members(core), core, k) is None)
            == (_reference_backtrack(_members(cons), cons, k) is None))
    shuffled = rng.sample(cons, len(cons))
    assert Counter(_core(shuffled)) == Counter(core)  # whatever the peel order


def test_core_keeps_a_constraint_with_one_distinct_member():
    assert _core([(5, 5), (1, 2), (2, 3, 3)]) == [(5, 5)]
    assert _core([]) == []


def test_exp_ramsey_probes_solve_only_the_core(monkeypatch):
    sizes, solve = [], ramsey._backtrack_colouring

    def counted(values, constraints, k, *args, **kwargs):
        sizes.append(len(constraints))
        return solve(values, constraints, k, *args, **kwargs)

    monkeypatch.setattr(ramsey, "_backtrack_colouring", counted)
    assert exp_ramsey_number(2).value == 65536
    # the witness solve alone sees every triple of [65535]
    assert len(_exp_triples_upto(65535)) == 334
    assert sizes.count(334) == 1 and sorted(sizes)[-2] <= 100
    sizes.clear()
    # 3 colours never reach a probe: the lifted system at M = 29 is
    # 3-colourable, and it is the only solve
    assert exp_ramsey_number(3, n_max=10**9).value is None
    assert sizes == [len(_lifted_constraints(29))]
    sizes.clear()
    # 2 colours refute the ceiling 10^9 and probe below it: the ceiling
    # holds 32,967 triples, and its core 712
    assert exp_ramsey_number(2, n_max=10**9).value == 65536
    assert len(_exp_triples_upto(10**9)) == 32967
    assert 712 in sizes and max(sizes) <= 800


@pytest.mark.parametrize("n_max", [0, -5])
def test_ramsey_numbers_refuse_a_ceiling_below_one(n_max):
    with pytest.raises(ValueError):
        exp_ramsey_number(1, n_max)
    with pytest.raises(ValueError):
        vdw_number(2, 3, n_max)


def test_exp_triples_upto():
    assert _exp_triples_upto(16) == [
        (2, 2, 4), (2, 3, 8), (3, 2, 9), (2, 4, 16), (4, 2, 16)]


def test_exp_ramsey_refuses_a_ceiling_over_the_cap_before_listing():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            exp_ramsey_number(3, n_max=10**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the cap admits exactly its own count; 10^12, counted from roots, is under it
    triples = _exp_triples_upto(10**4)
    assert _exp_triples_upto(10**4, len(triples)) == triples
    with pytest.raises(BudgetExceeded):
        _exp_triples_upto(10**4, len(triples) - 1)
    assert sum(iroot(10**12, b) - 1 for b in range(2, 40)) == 1_011_538 <= ramsey._TRIPLE_CAP
