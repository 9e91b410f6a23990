"""End-to-end acceptance checks, one criterion per test.

Each test prints a single `criterion N: PASS/FAIL ...` line (shown with -s, or
in the captured output on failure); with -v the test id itself doubles as the
pass/fail line. Runtime ceilings are asserted with wide real margins.

Criterion 8 checks the three-level tower a^(b^(c^2)) by the weight at which
it first appears; see the unique-factorisation note inside.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from expramsey._arith import gcd_of_exponents
from expramsey._intlog import iter_log_le, log_star_int
from expramsey.colourings import (
    LacunaryColouring,
    NTimesPow2Sequence,
    SchurExpColouring,
)
from expramsey.patterns import (
    ShapeRelation,
    WeightFn,
    fep,
    finite_products,
    has_directed_cycle,
)
from expramsey.ramsey import _exp_triples_upto, exp_ramsey_number, vdw_number
from expramsey.families import parse_family
from expramsey.search import find_monochromatic, verify_certificate
from expramsey.tower import (
    compare_iter_log,
    eval_exact,
    eval_mod,
    literal,
    log_star,
    max_root_exponent,
    power,
    product,
)


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def _tower_term(h):
    t = literal(2)
    for _ in range(h - 1):
        t = power(2, t)
    return t


def test_criterion_01_logstar_logcond_avoidance():
    t0 = time.perf_counter()
    fam = parse_family("exptriple-logcond:r=1", 2**24)
    cert = find_monochromatic("logstar:r=1", fam)
    dt = time.perf_counter() - t0
    ok = (cert.verified and cert.instances_checked == fam.count()
          and verify_certificate(cert) and dt < 30)
    _line(1, ok, f"{cert.instances_checked} pairs, {dt:.2f}s")
    assert cert.verified
    assert cert.instances_checked == fam.count()
    assert verify_certificate(cert)
    assert dt < 30


def test_criterion_02_quadruple_nonregularity():
    t0 = time.perf_counter()
    fam = parse_family("expquad", 2**12)
    cert = find_monochromatic("logstar:r=1", fam)
    dt = time.perf_counter() - t0
    ok = cert.verified and cert.instances_checked == 8386560 and dt < 60
    _line(2, ok, f"{cert.instances_checked} quadruples, {dt:.2f}s")
    assert cert.verified
    assert cert.instances_checked == 8386560 == fam.count()
    assert dt < 60


def test_criterion_03_schur_exp_inconsistency():
    t0 = time.perf_counter()
    fam = parse_family("schurplusexp", 10**4)
    cert = find_monochromatic(SchurExpColouring(), fam)
    dt = time.perf_counter() - t0
    ok = cert.verified and cert.instances_checked == fam.count() and dt < 60
    _line(3, ok, f"{cert.instances_checked} joint instances, {dt:.2f}s")
    assert cert.verified
    assert cert.instances_checked == fam.count()
    assert dt < 60


def test_criterion_04_log_star_laws():
    rng = random.Random(104)
    violations = 0
    for _ in range(10**5):
        a = rng.randint(1, 1 << rng.randint(1, 64))
        b = rng.randint(1, 1 << rng.randint(1, 64))
        if a > b:
            a, b = b, a
        if log_star_int(a) > log_star_int(b):
            violations += 1  # monotonicity
        if log_star_int(a + b) > log_star_int(b) + 1:
            violations += 1  # sum law
    shift_ok = all(
        log_star(power(2, _tower_term(h))) == log_star(_tower_term(h)) + 1
        for h in range(1, 7))
    ok = violations == 0 and shift_ok
    _line(4, ok, f"{violations} violations on 10^5 pairs, shift law to height 6")
    assert violations == 0
    assert shift_ok


def test_criterion_05_proof_inequality():
    rng = random.Random(105)
    checked = violations = 0
    while checked < 10**4:
        if checked % 50 == 7:
            a = literal(rng.choice((2, 3, 4, 16, 1000)))
            b = _tower_term(rng.randint(4, 6))
            r = rng.randint(1, 3)
            lb = log_star(b)
        else:
            av = rng.randint(2, 10**6)
            bv = rng.randint(2, 10**6)
            r = rng.randint(1, 4)
            if not iter_log_le(av, r, bv):
                continue
            a, b, lb = literal(av), literal(bv), log_star_int(bv)
        if not compare_iter_log(a, r, b):
            continue
        lab = log_star(power(a, b))
        if not (lb + 1 <= lab <= lb + r + 1):
            violations += 1
        checked += 1
    _line(5, violations == 0, f"{violations} violations on 10^4 admissible triples")
    assert violations == 0


def test_criterion_06_root_exponent_multiplicativity():
    rng = random.Random(106)
    violations = cross_checked = 0
    for _ in range(10**4):
        x = rng.randint(1, 10**6)
        y = rng.randint(1, 50)
        t = power(x, y) if x > 1 else literal(1)
        lx = gcd_of_exponents(x) if x > 1 else 0
        if max_root_exponent(t) != lx * y:
            violations += 1
        bv = eval_exact(t)
        if bv.is_exact and bv.exact > 1:
            cross_checked += 1
            if gcd_of_exponents(bv.exact) != lx * y:
                violations += 1
    ok = violations == 0 and cross_checked > 0
    _line(6, ok, f"{violations} violations, {cross_checked} factorized cross-checks")
    assert violations == 0
    assert cross_checked > 0


def test_criterion_07_modular_tower_oracle():
    rng = random.Random(107)

    def tree(depth):
        if depth == 0 or rng.random() < 0.35:
            return literal(rng.randint(1, 60))
        if rng.random() < 0.6:
            return power(rng.randint(2, 8), tree(depth - 1))
        return product(tree(depth - 1), tree(depth - 1))

    agree = total = 0
    while total < 10**4:
        t = tree(3)
        bv = eval_exact(t)
        if not bv.is_exact:
            continue
        m = rng.randint(2, 2**32)
        total += 1
        if eval_mod(t, m) == bv.exact % m:
            agree += 1
    _line(7, agree == total, f"{agree}/{total} trees agree")
    assert agree == total


def test_criterion_08_fep_memberships():
    a, b, c = 2, 3, 2
    vals = fep(WeightFn.constant(2), (a, b, c)).exact_values()
    # The first two labels read the exponent c as the power of b. They match
    # their values only because c = 2 equals the weight; under the flat
    # definition in the fep docstring they are a^(b^2) and a^(b^2*c).
    listed = {
        "a^(b^c)": a ** (b**c),
        "a^(b^c*c)": a ** (b**c * c),
        "b^(c^2)": b ** (c**2),
        "a^b*c": a**b * c,
        "a^(b^c)*c": a ** (b**c) * c,
        "(ab)^c": (a * b) ** c,
    }
    missing = {name for name, v in listed.items() if v not in vals}
    products_ok = finite_products((a, b, c)).exact_values() <= vals
    absent_ok = all(
        a**b * b not in fep(WeightFn.constant(w), (a, b)).exact_values()
        for w in range(6))
    def values_upto(w, cutoff=2**200):
        out = set()
        for e in fep(WeightFn.constant(w), (a, b, c)):
            bv = eval_exact(e, cutoff=cutoff)
            if bv.is_exact:
                out.add(bv.exact)
        return out

    # Under the flat definition each exponent of a is a weighted product
    # over the free indices above it, so each power is at most the weight w:
    # base {a} gives 2^(3^i*2^j) with i, j <= w, base {a, c} gives
    # 2^(3^i+1) (never 2^81, as 80 is no power of 3), and every other base
    # carries a factor 3. By unique factorisation 3^i*2^j = 81 needs i = 4,
    # so a^(b^(c^2)) first appears at constant weight c^2 = 4 and is absent
    # at weights 2 and 3.
    deep = a ** (b ** (c**2))  # 2^81, above the default exactness cutoff
    deep_at = {w: deep in values_upto(w) for w in (2, 3, c**2)}
    deep_ok = deep_at == {2: False, 3: False, c**2: True}
    ok = not missing and products_ok and absent_ok and deep_ok
    _line(8, ok, f"listed missing={sorted(missing)}, products={products_ok}, "
                 f"a^b*b absent thru W=5: {absent_ok}, "
                 f"a^(b^(c^2)) first at W=c^2=4: {deep_ok} "
                 f"(at W=2: {deep_at[2]}, W=3: {deep_at[3]}, W=4: {deep_at[4]})")
    assert not missing
    assert products_ok
    assert absent_ok
    assert deep_ok, f"a^(b^(c^2)) membership by weight: {deep_at}"


def test_criterion_09_cycle_decision_oracle():
    def cyclic_by_closure(m, edges):
        reach = [[False] * (m + 1) for _ in range(m + 1)]
        for i, j in edges:
            reach[i][j] = True
        for k in range(1, m + 1):
            for i in range(1, m + 1):
                if reach[i][k]:
                    row = reach[k]
                    for j in range(1, m + 1):
                        if row[j]:
                            reach[i][j] = True
        return any(reach[i][i] for i in range(1, m + 1))

    mismatches = total = 0
    for m in range(1, 5):
        all_edges = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        for bits in range(1 << len(all_edges)):
            edges = {e for i, e in enumerate(all_edges) if bits >> i & 1}
            total += 1
            if bool(has_directed_cycle(ShapeRelation(m, edges))) != \
                    cyclic_by_closure(m, edges):
                mismatches += 1
    _line(9, mismatches == 0, f"{mismatches} mismatches on {total} relations")
    assert mismatches == 0
    assert total == 2 + 2**4 + 2**9 + 2**16


def test_criterion_10_lacunary_avoidance():
    t0 = time.perf_counter()
    f = LacunaryColouring(NTimesPow2Sequence(), 12)
    diffs = [n * 2**n for n in range(1, 13)]
    top = 10**5 + max(diffs)
    colours = [0] * (top + 1)
    for x in range(1, top + 1):
        colours[x] = f.colour(x)
    violations = sum(
        1 for d in diffs for x in range(1, 10**5 + 1)
        if colours[x] == colours[x + d])
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 120
    _line(10, ok, f"{violations} monochromatic pairs, 12 differences, {dt:.2f}s")
    assert violations == 0
    assert dt < 120


def test_criterion_11_ramsey_numbers():
    comp = vdw_number(2, 3)
    ap3 = [(a, a + d, a + 2 * d)
           for a in range(1, 10) for d in range(1, 5) if a + 2 * d <= 9]
    oracle_ok = all(
        any(len({cols[i - 1] for i in t}) == 1 for t in ap3)
        for cols in itertools.product((1, 2), repeat=9))
    e1 = exp_ramsey_number(1)
    e2 = exp_ramsey_number(2)
    wit = e2.witness
    wit_ok = (wit["n"] == e2.value - 1
              and all(1 <= colour <= 2 for colour in wit["colours"])
              and not any(
                  wit["colours"][a - 1] == wit["colours"][b - 1]
                  == wit["colours"][p - 1]
                  for a, b, p in _exp_triples_upto(wit["n"])))
    ok = (comp.value == 9 and oracle_ok and comp.methods_agree
          and e1.value == 4 and e2.value == 65536 and e2.methods_agree
          and wit_ok)
    _line(11, ok, f"vdw(2,3)={comp.value}, exp(1)={e1.value}, "
                  f"exp(2)={e2.value}, witness re-verified={wit_ok}")
    assert comp.value == 9 and comp.methods_agree
    assert oracle_ok, "brute-force oracle disagrees with vdw_number(2,3)"
    assert e1.value == 4
    assert e2.value == 65536 and e2.methods_agree
    assert wit_ok


def test_criterion_12_certificate_reproducibility():
    cmd = [sys.executable, "-m", "expramsey.cli", "verify", "logstar:r=1",
           "exptriple-logcond", "--bound", "1048576", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = (a.returncode == b.returncode == 0 and a.stdout == b.stdout
          and json.loads(a.stdout)["seed"] == 7)
    _line(12, ok, f"{len(a.stdout)} byte outputs identical: {a.stdout == b.stdout}")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seed"] == 7
