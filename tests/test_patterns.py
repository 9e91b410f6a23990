"""Pattern family generation and the directed-cycle decision procedure."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expramsey import patterns
from expramsey.errors import (
    ArityMismatch,
    BudgetExceeded,
    ExactnessRequired,
    SymbolicUnsupported,
    WeightUndefined,
)
from expramsey.patterns import (
    ShapeRelation,
    WeightFn,
    fep,
    finite_exponentials,
    finite_products,
    finite_sums,
    has_directed_cycle,
    shape_pattern,
    weighted_products,
)
from expramsey.tower import as_term, dedup_key, eval_exact, parse_term, power, product


# ---------------------------------------------------------------------------
# FS / FP

def test_finite_sums_examples():
    assert finite_sums((1, 2)).exact_values() == {1, 2, 3}
    assert finite_sums((5,)).exact_values() == {5}
    # 5 = 2+3 collides with the generator 5
    assert finite_sums((2, 3, 5)).exact_values() == {2, 3, 5, 7, 8, 10}


def test_finite_sums_rejects_symbolic():
    with pytest.raises(SymbolicUnsupported):
        finite_sums((2, power(2, 100)))


def test_finite_products_examples():
    assert finite_products((2, 3)).exact_values() == {2, 3, 6}
    assert finite_products((2, 2)).exact_values() == {2, 4}
    assert finite_products((2, 3, 5)).exact_values() == {2, 3, 5, 6, 10, 15, 30}


def test_finite_products_full_size_on_independent_primes():
    primes = (2, 3, 5, 7, 11)
    for m in range(1, 6):
        ps = finite_products(primes[:m])
        assert len(ps) == 2**m - 1


# ---------------------------------------------------------------------------
# FE

def test_finite_exponentials_base_cases():
    assert finite_exponentials((7,)).exact_values() == {7}
    assert finite_exponentials((2, 3)).exact_values() == {2, 3, 8}


def test_finite_exponentials_listed_contents():
    # with (a,b,c) = (2,3,2): a^(b^c), a^(b^c * c), a^(c^2) must appear
    vals = finite_exponentials((2, 3, 2)).exact_values()
    assert 2 ** (3**2) in vals
    assert 2 ** (3**2 * 2) in vals
    assert 2 ** (2**2) in vals
    # b^(c^2) is an exponential-product element, not an FE element: the only
    # base-b block exponents come from FE(c) union {1} = {c, 1}
    assert 3 ** (2**2) not in vals
    assert 3 ** (2**2) in fep(WeightFn.constant(4), (2, 3, 2)).exact_values()


def test_fe_subset_of_fep_at_large_weight():
    fe_vals = finite_exponentials((2, 3, 2)).exact_values()
    fep_vals = fep(WeightFn.constant(4), (2, 3, 2)).exact_values()
    assert fe_vals <= fep_vals


def test_fe_requires_generators_above_one():
    with pytest.raises(ValueError):
        finite_exponentials((1, 2))


# ---------------------------------------------------------------------------
# weighted products

def _suffix_sum_weight():
    return WeightFn(table={
        frozenset({3, 5, 7}): 15,
        frozenset({5, 7}): 12,
        frozenset({7}): 7,
        frozenset(): 10,
    })


def test_weighted_products_inner_indices():
    # S = {2,3} over (2,3,5,7): 3^a * 5^b with a in [0,12], b in [0,7]
    ps = weighted_products({2, 3}, _suffix_sum_weight(), (2, 3, 5, 7))
    assert len(ps) == 13 * 8
    vals = ps.exact_values()
    assert 1 in vals
    assert 3**12 * 5**7 in vals
    assert 3**13 not in vals


def test_weighted_products_all_indices():
    ps = weighted_products({1, 2, 3, 4}, _suffix_sum_weight(), (2, 3, 5, 7))
    # distinct prime powers never collide
    assert len(ps) == 16 * 13 * 8 * 11
    assert 2**15 * 3**12 in ps.exact_values()


def test_weighted_products_empty_index_set():
    ps = weighted_products(set(), _suffix_sum_weight(), (2, 3, 5, 7))
    assert ps.exact_values() == {1}


def test_weighted_products_missing_suffix_weight():
    w = WeightFn(table={frozenset({7}): 3})  # no entry for the empty set
    with pytest.raises(WeightUndefined):
        weighted_products({4}, w, (2, 3, 5, 7))


def test_weight_normalization_is_monotone_closure():
    w = WeightFn(table={frozenset({5}): 3, frozenset({5, 7}): 1}).normalized()
    # superset query answered by the best applicable subset entry
    assert w.lookup(frozenset({5, 7})) == 3
    assert w.lookup(frozenset({5})) == 3
    with pytest.raises(WeightUndefined):
        w.lookup(frozenset({11}))


def test_weightfn_json_round_trip():
    w = _suffix_sum_weight()
    assert WeightFn.from_json(w.to_json()).table == w.table
    c = WeightFn.constant(4)
    assert WeightFn.from_json(c.to_json()).const == 4


# ---------------------------------------------------------------------------
# FEP

def test_fep_contains_generators_for_any_weight():
    vals = fep(WeightFn.constant(0), (2, 3, 5)).exact_values()
    assert {2, 3, 5} <= vals


def test_fep_exponential_progression():
    # constant weight k gives a, b, a^b, a^(b^2), ..., a^(b^k)
    k = 3
    vals = fep(WeightFn.constant(k), (2, 3)).exact_values()
    for j in range(k + 1):
        assert 2 ** (3**j) in vals
    assert 3 in vals
    assert 2 ** (3 ** (k + 1)) not in vals


def test_fep_listed_product_elements():
    vals = fep(WeightFn.constant(2), (2, 3, 2)).exact_values()
    assert 2**3 * 2 in vals        # a^b * c
    assert 2 ** (3**2) * 2 in vals  # a^(b^c) * c
    assert 6**2 in vals             # (ab)^c
    assert finite_products((2, 3, 2)).exact_values() <= vals


def test_fep_never_contains_a_pow_b_times_b():
    # a^b * b has no generation: b in the base set forbids b in the exponent
    for w in range(6):
        vals = fep(WeightFn.constant(w), (2, 3)).exact_values()
        assert 2**3 * 3 not in vals


def test_fep_multiplicative_recombination():
    # elements on disjoint bases with compatible exponents multiply back in:
    # 2^(3^2) (B={1}) times 5 (B={3}) appears as the B={1,3} element 2^(3^2)*5
    ps = fep(WeightFn.constant(2), (2, 3, 5))
    provs = list(ps.provenance)
    assert any(p["B"] == [1] and p["exponents"]["1"].get("2") == 2 for p in provs)
    assert any(p["B"] == [3] and p["exponents"]["3"] == {} for p in provs)
    joint = [p for p in provs if p["B"] == [1, 3]]
    assert joint, "no joint-base elements generated"
    assert 2 ** (3**2) * 5 in ps.exact_values()


def test_fep_element_cap():
    from expramsey.errors import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        fep(WeightFn.constant(9), (2, 3, 5, 7), cap=50)


def _reference_fep(W, xs, cap):
    """fep as first written: each candidate built by power/product and
    deduplicated by dedup_key, the cap checked before each new element."""
    m = len(xs)
    Wn = W.normalized()
    caps = {j: Wn.lookup(frozenset(eval_exact(x).exact for x in xs[j:]))
            for j in range(1, m + 1)}
    seen, elements, provenance = set(), [], []
    for size in range(1, m + 1):
        for B in itertools.combinations(range(1, m + 1), size):
            per_base = []
            for i in B:
                support = [j for j in range(i + 1, m + 1) if j not in B]
                per_base.append([
                    (product(*(power(xs[j - 1], p) for j, p in zip(support, ps) if p)),
                     {str(j): p for j, p in zip(support, ps)})
                    for ps in itertools.product(*(range(caps[j] + 1) for j in support))])
            for combo in itertools.product(*per_base):
                t = product(*(power(xs[i - 1], e) for i, (e, _) in zip(B, combo)))
                if dedup_key(t) not in seen:
                    if len(elements) >= cap:
                        raise BudgetExceeded(f"fep generation exceeded the element cap {cap}")
                    seen.add(dedup_key(t))
                    elements.append(t)
                    provenance.append({"B": list(B), "exponents": {
                        str(i): exps for i, (_, exps) in zip(B, combo)}})
    return tuple(elements), tuple(provenance)


# ints, and terms around and far above the exactness cutoff 2^64
GENERATORS = st.one_of(st.integers(2, 9), st.sampled_from(
    ["2^32", "2^64", "2^32*3", "18446744073709551617", "2^2^70", "3^100", "2^(2*3)"]
).map(parse_term))


@settings(max_examples=150, deadline=None)
@given(st.lists(GENERATORS, min_size=1, max_size=3),
       st.one_of(st.integers(0, 2).map(WeightFn.constant),
                 st.just(WeightFn(table={frozenset(): 1, frozenset({3}): 2}))),
       st.integers(0, 40))
# 2^32^2 and the generator 2^64 both equal the cutoff, so they must merge
@example([parse_term("2^32"), 2, parse_term("2^64")], WeightFn.constant(1), 40)
def test_fep_matches_its_first_definition(xs, W, cap):
    xs = tuple(map(as_term, xs))
    if any(not eval_exact(x).is_exact for x in xs[1:]):
        # weights are looked up on the exact values of x_2..x_m
        with pytest.raises(ExactnessRequired):
            fep(W, xs, cap=cap)
        return
    try:
        want = _reference_fep(W, xs, cap)
    except BudgetExceeded as exc:
        with pytest.raises(BudgetExceeded, match=str(exc)):
            fep(W, xs, cap=cap)
        return
    ps = fep(W, xs, cap=cap)
    assert (ps.elements, ps.provenance) == want


def _listed_fep_candidates(caps, xs):
    """fep's candidates as once enumerated: every base set's exponent
    choices listed as a recipe table first, then each base's factors, then
    their products."""
    m, recipes = len(xs), []
    for size in range(1, m + 1):
        for B in itertools.combinations(range(1, m + 1), size):
            choices = []
            for i in B:
                support = [j for j in range(i + 1, m + 1) if j not in B]
                choices.append(tuple(
                    tuple(zip(support, ps)) for ps in
                    itertools.product(*(range(caps[j - 1] + 1) for j in support))))
            recipes.append((B, tuple(choices)))
    out = []
    for B, choices in recipes:
        pools = [[power(xs[i - 1], product(*(power(xs[j - 1], p) for j, p in exps if p)))
                  for exps in pool] for i, pool in zip(B, choices)]
        for terms, choice in zip(itertools.product(*pools), itertools.product(*choices)):
            out.append((product(*terms), (B, choice)))
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=4).flatmap(
    lambda caps: st.tuples(st.just(tuple(caps)), st.lists(
        st.integers(2, 9), min_size=len(caps), max_size=len(caps)))))
def test_fep_candidates_are_the_listed_enumeration(caps_xs):
    """The lazy candidates and the closed-form count against the recipe
    table as first listed: the same candidates and recipes in the same
    order, and as many."""
    caps, xs = caps_xs
    xs = tuple(map(as_term, xs))
    want = _listed_fep_candidates(caps, xs)
    got = list(patterns._fep_candidates(caps, xs))
    assert [r for _, r in got] == [r for _, r in want]
    assert [dedup_key(t) for t, _ in got] == [dedup_key(t) for t, _ in want]
    assert patterns.fep_candidate_count(caps) == len(want)


def _traced_peak(fn):
    """The tracemalloc peak, in bytes, of calling fn with the pattern
    module's caches emptied first, so that an earlier call's tables count."""
    for f in vars(patterns).values():
        getattr(f, "cache_clear", lambda: None)()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fep_cap_stops_generation_before_the_recipes_grow():
    """Eleven generators of constant weight 1 give 2^11 - 1 base sets and
    8,933,488,743 candidates, counted without listing them: with k bases
    below a free index, its two exponents double the choices k times. The
    cap of 10 stops the generation at the eleventh distinct element."""
    def capped():
        with pytest.raises(BudgetExceeded, match="element cap 10"):
            fep(WeightFn.constant(1), range(2, 13), cap=10)

    assert _traced_peak(capped) < 2 * 2**20
    assert _traced_peak(lambda: patterns.fep_candidate_count((1,) * 11)) < 2**16
    assert patterns.fep_candidate_count((1,) * 11) == sum(
        2 ** sum(sum(i < j for i in B) for j in range(11) if j not in B)
        for k in range(1, 12) for B in itertools.combinations(range(11), k))


def test_empty_fep_family_costs_nothing_in_its_generators():
    """A family with no rows decides its scan by the candidate count of
    one row of eleven generators, which lists no recipe."""
    from expramsey.search import find_monochromatic
    certs = []
    peak = _traced_peak(lambda: certs.append(
        find_monochromatic("logstar:r=1", "fep:m=11,w=1", 1)))
    assert peak < 2 * 2**20
    assert certs[0].verified and certs[0].instances_checked == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=3),
       st.integers(0, 2).map(WeightFn.constant))
def test_fep_cap_refuses_only_past_the_last_element(xs, W):
    ps = fep(W, xs)
    at_cap = fep(W, xs, cap=len(ps))
    assert (at_cap.elements, at_cap.provenance) == (ps.elements, ps.provenance)
    with pytest.raises(BudgetExceeded):
        fep(W, xs, cap=len(ps) - 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(GENERATORS, min_size=1, max_size=4).flatmap(lambda xs: st.tuples(
    st.just(xs), st.frozensets(st.tuples(st.integers(1, len(xs)),
                                         st.integers(1, len(xs)))))))
def test_shape_pattern_matches_its_first_definition(args):
    xs, edges = tuple(map(as_term, args[0])), args[1]
    candidates = [(x, {"generator": i}) for i, x in enumerate(xs, 1)]
    candidates += [(power(xs[i - 1], xs[j - 1]), {"edge": [i, j]}) for i, j in sorted(edges)]
    first = {}
    for t, prov in candidates:
        first.setdefault(dedup_key(t), (t, prov))
    ps = shape_pattern(ShapeRelation(len(xs), edges), xs)
    assert (ps.elements, ps.provenance) == tuple(zip(*first.values()))


# ---------------------------------------------------------------------------
# shape patterns

def test_shape_pattern_example_relation():
    r = ShapeRelation(4, {(1, 2), (2, 3), (2, 4)})
    ps = shape_pattern(r, (2, 3, 4, 5))
    assert ps.exact_values() == {2, 3, 4, 5, 2**3, 3**4, 3**5}


def test_shape_pattern_empty_relation():
    ps = shape_pattern(ShapeRelation(3), (2, 3, 5))
    assert ps.exact_values() == {2, 3, 5}


def test_shape_pattern_single_edge():
    assert shape_pattern(ShapeRelation(2, {(1, 2)}), (2, 3)).exact_values() == {2, 3, 8}


def test_shape_pattern_arity_mismatch():
    with pytest.raises(ArityMismatch):
        shape_pattern(ShapeRelation(3, {(1, 2)}), (2, 3))


def test_shape_relation_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        ShapeRelation(2, {(1, 3)})


def test_shape_topological_order_keeps_edges_forward():
    rng = random.Random(23)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(50):
        m = rng.randint(2, 6)
        # random DAG: edges only from lower to higher in a hidden order
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        edges = set()
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.4:
                    edges.add((perm[i], perm[j]))
        r = ShapeRelation(m, edges)
        assert not has_directed_cycle(r)
        # relabel by the topological order: every edge must point forward
        pos = {v: i for i, v in enumerate(perm)}
        relabelled = ShapeRelation(m, {(pos[i] + 1, pos[j] + 1) for i, j in edges})
        ps = shape_pattern(relabelled, primes[:m])
        for p in ps.provenance:
            if "edge" in p:
                i, j = p["edge"]
                assert i < j


# ---------------------------------------------------------------------------
# directed-cycle decision

def test_cycle_self_loop():
    got = has_directed_cycle(ShapeRelation(1, {(1, 1)}))
    assert got.cyclic and got.witness == ((1, 1),)


def test_cycle_example_relation_is_acyclic():
    assert not has_directed_cycle(ShapeRelation(4, {(1, 2), (2, 3), (2, 4)}))


def test_cycle_three_cycle_witness():
    got = has_directed_cycle(ShapeRelation(3, {(1, 2), (2, 3), (3, 1)}))
    assert got.cyclic
    edges = got.witness
    assert set(edges) <= {(1, 2), (2, 3), (3, 1)}
    # consecutive edges chain and the walk closes
    for (a, b), (c, d) in zip(edges, edges[1:]):
        assert b == c
    assert edges[-1][1] == edges[0][0]


def _cyclic_by_closure(m, edges):
    reach = [[False] * (m + 1) for _ in range(m + 1)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(1, m + 1):
        for i in range(1, m + 1):
            if reach[i][k]:
                for j in range(1, m + 1):
                    if reach[k][j]:
                        reach[i][j] = True
    return any(reach[i][i] for i in range(1, m + 1))


def test_cycle_matches_closure_oracle_small():
    # exhaustive m <= 3; the full m = 4 sweep runs in the acceptance suite
    for m in range(1, 4):
        all_edges = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        for bits in range(1 << len(all_edges)):
            edges = {e for i, e in enumerate(all_edges) if bits >> i & 1}
            r = ShapeRelation(m, edges)
            assert bool(has_directed_cycle(r)) == _cyclic_by_closure(m, edges)
