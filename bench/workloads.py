"""The four benchmark workloads: scan, symbolic, ramsey and cli.

Each workload is a closed loop: one caller in this process issues the next
operation only after the previous one returned (``cli`` starts its
processes one at a time). A workload object is built from the seed -- that
construction is the set-up the benchmark times -- and then runs passes; a
pass is one fixed list of operations. Outputs are kept and checked against
:mod:`oracles` after the timed region, so checking costs no measured time.

Why these four (each stresses different layers, and each planned
optimization has one workload that exercises it and one that bypasses it):

- ``scan``: avoidance scans over bounded-int families. The scan engine,
  family builds and colour memos do the work; the symbolic tower paths are
  nearly idle.
- ``symbolic``: single tower and colouring calls on huge symbolic terms, plus
  two element scans over symbolic families. The work is in ``tower``, the
  interval path of ``_intlog`` and ``_arith``; the int scan is idle.
- ``ramsey``: exact van der Waerden and exponential Ramsey numbers:
  backtracking and hill climbing, no colouring or tower calls.
- ``cli``: real ``python -m expramsey.cli`` processes, the only workload that
  pays cold import, the lazy sieve and cold caches on every call.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import sys
from time import perf_counter

import expramsey as E
from expramsey.errors import ExpRamseyError

import oracles

OK, REFUSED, WRONG, ERROR = "ok", "refused", "wrong", "error"


class Result:
    """One operation: what it was, how long it took (raw seconds, and the
    factor to reference seconds, see speed.py), what it returned."""

    __slots__ = ("kind", "key", "seconds", "scale", "output", "exc", "extra")

    def __init__(self, kind, key, seconds, output=None, exc=None, extra=None, scale=1.0):
        self.kind, self.key, self.seconds, self.scale = kind, key, seconds, scale
        self.output, self.exc, self.extra = output, exc, extra or {}

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def timed(kind, key, fn, *args, gauge, tracer=None, **kwargs) -> Result:
    """Run one operation, recording its latency and output or exception."""
    span = tracer.open("op." + kind.split(":")[0]) if tracer is not None else None
    mark = gauge.mark()
    try:
        out, exc = fn(*args, **kwargs), None
    except Exception as e:  # an operation's failure is data, not a crash
        out, exc = None, e.with_traceback(None)
    seconds, scale = gauge.measure(mark)
    if span is not None:
        tracer.close(span)
    return Result(kind, key, seconds, out, exc, scale=scale)


def verdict_of_exception(exc) -> str:
    return REFUSED if isinstance(exc, ExpRamseyError) else ERROR


def clear_caches() -> None:
    """Empty every lru cache in the package, so each pass starts as cold as
    a fresh process would; colouring memos are fresh with each pass's
    colouring objects."""
    for name, mod in list(sys.modules.items()):
        if name != "expramsey" and not name.startswith("expramsey."):
            continue
        for obj in list(vars(mod).values()):
            for cand in (obj, getattr(obj, "__wrapped__", None)):
                clear = getattr(cand, "cache_clear", None)
                if callable(clear):
                    clear()


def per_op_median(results, value=None) -> dict:
    """{(kind, key): median over the passes} of each operation's latency in
    reference seconds, or of ``value(result)`` over the passes where it
    completed. Every pass repeats the same operations on the same inputs;
    the spread across inputs is what the percentiles describe."""
    groups: dict = {}
    for r in results:
        if value is None or r.exc is None:
            v = r.ref_seconds if value is None else value(r)
            groups.setdefault((r.kind, r.key), []).append(v)
    return {k: statistics.median(vs) for k, vs in groups.items()}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    xs = sorted(values)
    rank = max(1, -(-len(xs) * pct // 100))
    return xs[int(rank) - 1]


def tail_level(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


class Workload:
    name = ""
    tail_pct = 90  # percentile reported as op_tail_ms, fixed per workload
    min_passes = 3
    gauge = None  # a speed.Gauge, set before the passes run

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """Untimed reset before each pass."""
        clear_caches()

    def run_pass(self, tracer=None) -> list:
        raise NotImplementedError

    def check(self, results) -> list:
        raise NotImplementedError

    def latency_ops(self, results) -> list:
        """Median-of-passes latency (reference s) of each operation
        op_p50/op_tail describe."""
        return list(per_op_median(results).values())

    def summary(self, results) -> dict:
        """Workload-specific end-to-end metrics: {name: (value, unit)}."""
        return {}


# ---------------------------------------------------------------------------
# scan

# (colouring, family spec, family parameters for the oracles, bound, expected
# result). The first four are scaled down from the sizes the jobs were chosen
# at (expquad @2^11, diffpair @10^5, schurplusexp @10^4, exptriple-logcond
# @2^32) so that a run holds several passes; each keeps the code path it was
# chosen for: the expquad fast path, the generic walk, the schurplusexp class
# decomposition and a scan dominated by its family build. The last two exit
# early on a counterexample.
SCAN_JOBS = (
    ("logstar:r=1", "expquad", {}, 724, "AvoidanceVerified"),
    ("lacunary:seq=n*2^n,nmax=12", "diffpair:seq=n*2^n,nmax=12",
     {"seq": "n*2^n", "nmax": 12}, 20000, "AvoidanceVerified"),
    ("schurexp", "schurplusexp", {}, 1000, "AvoidanceVerified"),
    ("logstar:r=2", "exptriple-logcond:r=2", {"r": 2}, 2**28, "AvoidanceVerified"),
    ("logstar:r=1", "exptriple", {}, 10**6, "Counterexample"),
    ("schurexp", "schur", {}, 2000, "Counterexample"),
)
PARALLEL_JOB = 1  # the diffpair job, timed at threads=1 and threads=2


def instances_per_s(results) -> float:
    """Sum of instances checked over the sum of median-of-passes scan time."""
    inst = per_op_median(results, lambda r: r.output[0].instances_checked)
    scan_s = per_op_median(results, lambda r: r.extra["scan_s"] * r.scale)
    total = sum(scan_s.values())
    return sum(inst.values()) / total if total else 0.0


def _scan_job(colouring, family_spec, bound, seed):
    default_r = colouring.rule.get("r") if colouring.rule["type"] == "logstar" else None
    family = E.parse_family(family_spec, bound, default_r=default_r)
    t0 = perf_counter()
    cert = E.find_monochromatic(colouring, family, seed=seed)
    scan_s = perf_counter() - t0
    return cert, E.verify_certificate(cert), {"scan_s": scan_s}


class Scan(Workload):
    name = "scan"
    tail_pct = 90

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        # the seed fixes the job order and each certificate's seed, which
        # decides the instances verify_certificate samples
        self.order = list(range(len(SCAN_JOBS)))
        rng.shuffle(self.order)
        self.cert_seeds = [rng.randrange(2**31) for _ in SCAN_JOBS]
        self.specs = sorted({job[0] for job in SCAN_JOBS})
        self.colourings = {s: E.parse_colouring(s) for s in self.specs}
        E.max_root_exponent(2)  # builds the lazy tables schurexp's timed calls use
        self._refs: dict = {}

    def prepare(self) -> None:
        super().prepare()
        self.colourings = {s: E.parse_colouring(s) for s in self.specs}

    def run_pass(self, tracer=None) -> list:
        out = []
        for j in self.order:
            spec, fam, _, bound, _ = SCAN_JOBS[j]
            r = timed("job", j, _scan_job, self.colourings[spec], fam, bound,
                      self.cert_seeds[j], gauge=self.gauge, tracer=tracer)
            if r.exc is None:
                r.output, r.extra = r.output[:2], r.output[2]
            out.append(r)
        return out

    def parallel_speedup(self) -> tuple:
        """Wall time of the same find_monochromatic at threads=1 over
        threads=2, and whether both certificates are byte-identical."""
        spec, fam, _, bound, _ = SCAN_JOBS[PARALLEL_JOB]
        times, certs = [], []
        for threads in (1, 2):
            self.prepare()
            family = E.parse_family(fam, bound)
            t0 = perf_counter()
            cert = E.find_monochromatic(self.colourings[spec], family,
                                        seed=self.cert_seeds[PARALLEL_JOB],
                                        threads=threads)
            times.append(perf_counter() - t0)
            certs.append(cert.to_json())
        return times[0] / times[1], certs[0] == certs[1]

    def reference(self, j):
        if j not in self._refs:
            spec, fam, params, bound, _ = SCAN_JOBS[j]
            kind = fam.split(":")[0]
            col = self.colourings[spec]
            count = oracles.family_count(kind, bound, **params)
            if kind == "schurplusexp":
                first = None if oracles.schurplusexp_avoids(col, bound) else "mono"
            else:
                first = oracles.first_mono(col, kind, bound, **params)
            self._refs[j] = (count, first)
        return self._refs[j]

    def check(self, results) -> list:
        verdicts = []
        for r in results:
            if r.exc is not None:
                verdicts.append(verdict_of_exception(r.exc))
                continue
            verdicts.append(OK if self.check_job(r.key, *r.output) else WRONG)
        return verdicts

    def check_job(self, j, cert, verified) -> bool:
        """verify_certificate accepted the certificate, its result is the
        one the job was chosen for, and it agrees with an exact replay."""
        expected = SCAN_JOBS[j][4]
        return (verified and cert.result.get("type") == expected
                and self.matches_replay(j, cert))

    def matches_replay(self, j, cert) -> bool:
        """Counts from the definition; the first monochromatic instance (or
        none) from a full replay with reference colours; every witness
        element recoloured directly."""
        spec, fam, _, bound, _ = SCAN_JOBS[j]
        count, first = self.reference(j)
        kind = cert.result.get("type")
        if cert.bound != bound:
            return False
        if kind == "AvoidanceVerified":
            return first is None and cert.instances_checked == count
        if first is None or first == "mono":
            return False
        idx, gens, colour = first
        wit = cert.result["witness"]
        col = self.colourings[spec]
        return (cert.instances_checked == idx + 1
                and tuple(wit["generators"]) == gens
                and wit["colour"] == colour
                and all(oracles.ref_colour(col, int(el["value"])) == colour
                        for el in wit["elements"]))

    def summary(self, results) -> dict:
        return {"instances_per_s": (instances_per_s(results), "1/s")}


# ---------------------------------------------------------------------------
# symbolic

SYMBOLIC_COLOURINGS = ("logstar:r=1", "logstar:r=3", "schurexp", "pow2abb:nmax=10",
                       "abbb:nmax=8", "lacunary:seq=n*2^n,nmax=12")
SYMBOLIC_SCANS = (("logstar:r=1", "shape:m=3,edges=1-2;2-3", {"m": 3}, 24),
                  ("logstar:r=1", "fep:m=3,w=1", {"m": 3}, 12))
TERMS_PER_SHAPE = 400
MODULUS = 10**9 + 7
ORACLE_L_BITS = 256  # l(v) by integer roots is checked up to this size


def _huge_literal(rng):
    bits = rng.randint(65, 3000)
    return str(rng.getrandbits(bits) | (1 << (bits - 1)) | 1 << 64)


def _power(rng):
    return f"{rng.randint(2, 1000)}^{rng.randint(2, 3000)}"


def _product(rng):
    return "*".join(f"{rng.randint(2, 60)}^{rng.randint(2, 200)}"
                    for _ in range(rng.randint(2, 3)))


def _nested(rng):
    return f"({rng.randint(2, 30)}^{rng.randint(2, 40)})^{rng.randint(2, 40)}"


SEEDED_SHAPES = (_huge_literal, _power, _product, _nested)
# Every tower of height 3 to 6 over the bases 2 and 3. A handful of tall
# towers cost 0.1 s or more each in some calls, so a seeded sample of towers
# would make a pass's work depend on how many of those it drew.
TOWERS = tuple("^".join(bases) for h in range(3, 7)
               for bases in itertools.product("23", repeat=h))


def corpus(seed: int, per_shape: int) -> list:
    """Term texts: the towers, and the same number of each seeded shape."""
    rng = random.Random(seed)
    return list(TOWERS) + [shape(rng) for _ in range(per_shape)
                           for shape in SEEDED_SHAPES]


class Symbolic(Workload):
    name = "symbolic"
    tail_pct = 99

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed + 1)
        self.texts = corpus(seed, TERMS_PER_SHAPE)
        self.terms = [E.parse_term(t) for t in self.texts]
        self.compare = [(rng.randint(1, 3), rng.randint(1, 2**16)) for _ in self.terms]
        self.colourings = {s: E.parse_colouring(s) for s in SYMBOLIC_COLOURINGS}
        self.scan_seeds = [rng.randrange(2**31) for _ in SYMBOLIC_SCANS]
        E.max_root_exponent(2)  # builds the lazy tables the timed calls use
        self._values: dict = {}
        self._scan_refs: dict = {}

    def prepare(self) -> None:
        super().prepare()
        self.colourings = {s: E.parse_colouring(s) for s in SYMBOLIC_COLOURINGS}

    def run_pass(self, tracer=None) -> list:
        out = []
        for i, t in enumerate(self.terms):
            for spec in SYMBOLIC_COLOURINGS:
                out.append(timed("colour:" + spec, i, self.colourings[spec], t,
                                 gauge=self.gauge, tracer=tracer))
            r, b = self.compare[i]
            g = self.gauge
            out.append(timed("log_star", i, E.log_star, t, gauge=g, tracer=tracer))
            out.append(timed("eval_mod", i, E.eval_mod, t, MODULUS, gauge=g, tracer=tracer))
            out.append(timed("max_root_exponent", i, E.max_root_exponent, t,
                             gauge=g, tracer=tracer))
            out.append(timed("compare_iter_log", i, E.compare_iter_log, t, r, b,
                             gauge=g, tracer=tracer))
        for j, (spec, fam, _, bound) in enumerate(SYMBOLIC_SCANS):
            res = timed("scan", j, _scan_job, self.colourings[spec], fam, bound,
                        self.scan_seeds[j], gauge=self.gauge, tracer=tracer)
            if res.exc is None:
                res.output, res.extra = res.output[:2], res.output[2]
            out.append(res)
        return out

    def value(self, i):
        if i not in self._values:
            self._values[i] = oracles.materialize(self.terms[i])
        return self._values[i]

    def expected(self, kind, i):
        """Reference output of a single call, or None without an oracle."""
        v = self.value(i)
        if v is None:
            return None
        if kind == "log_star":
            return oracles.log_star(v)
        if kind == "eval_mod":
            return v % MODULUS
        if kind == "compare_iter_log":
            r, b = self.compare[i]
            return oracles.iter_log_le(v, r, b)
        if kind == "max_root_exponent":
            return oracles.max_root_exponent(v) if v.bit_length() <= ORACLE_L_BITS else None
        spec = kind.split(":", 1)[1]
        if spec == "schurexp" and v.bit_length() > ORACLE_L_BITS:
            return None
        return oracles.ref_colour(self.colourings[spec], v)

    def check(self, results) -> list:
        verdicts = []
        for r in results:
            if r.exc is not None:
                verdicts.append(verdict_of_exception(r.exc))
            elif r.kind == "scan":
                verdicts.append(OK if self.check_scan(r.key, *r.output) else WRONG)
            else:
                want = self.expected(r.kind, r.key)
                verdicts.append(OK if want is None or want == r.output else WRONG)
        return verdicts

    def check_scan(self, j, cert, verified) -> bool:
        """Count from the definition, then an exact replay of every instance
        with reference colours of the materialized elements."""
        spec, fam, params, bound = SYMBOLIC_SCANS[j]
        if j not in self._scan_refs:
            family = E.parse_family(fam, bound)
            r = self.colourings[spec].rule["r"]
            first = None
            for idx, inst in enumerate(family.instances()):
                vals = [oracles.materialize(E.as_term(v)) for v in inst.values]
                if None in vals:
                    raise ValueError(f"{fam} @{bound} has elements the oracle cannot expand")
                cs = {oracles.logstar_colour(r, v) for v in vals}
                if len(cs) == 1:
                    first = idx
                    break
            count = oracles.family_count(fam.split(":")[0], bound, **params)
            self._scan_refs[j] = (count, first)
        count, first = self._scan_refs[j]
        if not verified:
            return False
        if cert.result["type"] == "AvoidanceVerified":
            return first is None and cert.instances_checked == count
        return first is not None and cert.instances_checked == first + 1

    def latency_ops(self, results) -> list:
        return [s for (kind, _), s in per_op_median(results).items() if kind != "scan"]

    def summary(self, results) -> dict:
        colour = [s for (kind, _), s in per_op_median(results).items()
                  if kind.startswith("colour:")]
        return {
            "colour_evals_per_s": (len(colour) / sum(colour) if colour else 0.0, "1/s"),
            "instances_per_s":
                (instances_per_s([r for r in results if r.kind == "scan"]), "1/s"),
        }


# ---------------------------------------------------------------------------
# ramsey

# The computations' own seed stays at the library default 0: the hill climb
# behind methods_agree takes between 5 and 9 s for vdw(2,4) depending on it,
# which would swamp every change the workload is meant to show.
RAMSEY_JOBS = (("exp", 1), ("exp", 2), ("exp", 3), ("vdw", 2, 4), ("vdw", 3, 3))
EXP_REPEATS = 5  # the exponential numbers take milliseconds; repeat them per pass


class Ramsey(Workload):
    name = "ramsey"
    tail_pct = 90
    min_passes = 2  # a pass takes 15 s or more

    def __init__(self, seed: int):
        super().__init__(seed)
        self.order = list(range(len(RAMSEY_JOBS)))
        random.Random(seed).shuffle(self.order)

    def run_pass(self, tracer=None) -> list:
        out = []
        for j in self.order:
            job = RAMSEY_JOBS[j]
            if job[0] == "exp":
                out.extend(timed("exp", j, E.exp_ramsey_number, job[1],
                                 gauge=self.gauge, tracer=tracer)
                           for _ in range(EXP_REPEATS))
            else:
                out.append(timed("vdw", j, E.vdw_number, job[1], job[2],
                                 gauge=self.gauge, tracer=tracer))
        return out

    def check(self, results) -> list:
        verdicts = []
        for r in results:
            if r.exc is not None:
                verdicts.append(verdict_of_exception(r.exc))
                continue
            verdicts.append(OK if check_ramsey(RAMSEY_JOBS[r.key], r.output) else WRONG)
        return verdicts


def check_ramsey(job, comp) -> bool:
    """Known value, and the witness colouring of [value - 1] re-checked."""
    if job[0] == "exp":
        k = job[1]
        if k not in oracles.KNOWN_EXP:
            # exp(3) is far beyond the default search ceiling
            return comp.value is None and comp.n_max == 10**5
        want = oracles.KNOWN_EXP[k]
        wit = comp.witness or {}
        return (comp.value == want and wit.get("n") == want - 1
                and oracles.exp_witness_ok(wit.get("colours", []), k)
                and len(wit["colours"]) == want - 1)
    _, k, length = job
    want = oracles.KNOWN_VDW[(k, length)]
    wit = comp.witness or {}
    return (comp.value == want and wit.get("n") == want - 1
            and len(wit.get("colours", [])) == want - 1
            and oracles.vdw_witness_ok(wit["colours"], k, length))


# ---------------------------------------------------------------------------
# cli

CLI_LOGCOND_BOUND = 1048576
CLI_SEARCH_BOUND = 100000


def _rand_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi) | 1
        if oracles.is_prime(n):
            return n


def canonical_power(base: int, exp: int) -> tuple:
    """(r, e) with base^exp = r^e and r not a perfect power: one key per
    value, without computing values with millions of bits."""
    k = oracles.max_root_exponent(base)
    return oracles.iroot(base, k), k * exp


def fe_values(gens) -> set:
    """Values of the finite exponentials of small generators, as
    canonical_power keys, from the definition: block i is x_i raised to a
    product e_{i+1}...e_m, each e_j omitted or taken from the whole family
    over x_j..x_m."""
    m = len(gens)
    suffix = [set() for _ in range(m + 1)]  # (generator, exponent) pairs
    blocks = set()
    for i in range(m - 1, -1, -1):
        exps = {1}
        for j in range(i + 1, m):
            exps = {e * f for e in exps for f in {g**x for g, x in suffix[j]} | {1}}
        block = {(gens[i], e) for e in exps}
        blocks |= block
        suffix[i] = block | suffix[i + 1]
    return {canonical_power(g, e) for g, e in blocks}


def fe_element_key(text: str) -> tuple:
    """canonical_power key of a printed element x or x^E."""
    t = E.parse_term(text)
    if isinstance(t, E.Literal):
        return canonical_power(t.value, 1)
    return canonical_power(t.base.value, oracles.materialize(t.exponent))


class Cli(Workload):
    name = "cli"
    tail_pct = 90

    def __init__(self, seed: int, runner=None):
        super().__init__(seed)
        rng = random.Random(seed)
        self.heights = [rng.randint(1, 7) for _ in range(4)]
        towers = ["^".join(["2"] * h) for h in self.heights]
        towers.append(f"{rng.randint(3, 9)}^{rng.randint(2, 9)}^{rng.randint(2, 3)}")
        ints = [_rand_prime(rng, 10**6, 10**7)]
        ints += [rng.randint(2, 10**6) for _ in range(3)]
        ints.append(rng.randint(2, 300) ** rng.randint(2, 4))
        self.fe_gens = rng.sample(range(2, 8), 3)
        self.commands = [
            ("colour", ["colour", "logstar:r=1", *towers], 0),
            ("colour", ["colour", "schurexp", *map(str, ints)], 0),
            ("verify", ["verify", "logstar:r=1", "exptriple-logcond",
                        "--bound", str(CLI_LOGCOND_BOUND)], 0),
            ("verify", ["verify", "logstar:r=1", "exptriple-logcond",
                        "--bound", str(CLI_LOGCOND_BOUND)], 0),
            ("search", ["search", "logstar", "exptriple",
                        "--bound", str(CLI_SEARCH_BOUND)], 1),
            ("gen", ["gen", "fe", *map(str, self.fe_gens)], 0),
            ("ramsey", ["ramsey", "vdw", "--k", "2", "--len", "3"], 0),
        ]
        self.runner = runner
        self._refs: dict = {}

    def prepare(self) -> None:
        pass  # every process starts cold by itself

    def run_pass(self, tracer=None) -> list:
        out = []
        for i, (sub, argv, _) in enumerate(self.commands):
            span = tracer.open("op.cli") if tracer is not None else None
            mark = self.gauge.mark()
            code, stdout, stderr, _, rss_kb = self.runner(argv, tracer is not None)
            seconds, scale = self.gauge.measure(mark)
            if span is not None:
                tracer.close(span)
            out.append(Result(sub, i, seconds, (code, stdout, stderr),
                              extra={"rss_kb": rss_kb}, scale=scale))
        return out

    def check(self, results) -> list:
        verdicts = []
        verify_out = [r.output[1] for r in results if r.kind == "verify"]
        for r in results:
            code, stdout, stderr = r.output
            ok = code == self.commands[r.key][2]
            if ok:
                try:
                    ok = self.check_output(r.key, stdout, stderr)
                except (ValueError, KeyError, TypeError):
                    ok = False
            if r.kind == "verify" and len(set(verify_out)) != 1:
                ok = False  # the replays must be byte-identical
            verdicts.append(OK if ok else WRONG)
        return verdicts

    def reference_colouring(self, spec):
        if spec not in self._refs:
            self._refs[spec] = E.parse_colouring(spec)
        return self._refs[spec]

    def check_output(self, i, stdout: bytes, stderr: bytes) -> bool:
        sub, argv, _ = self.commands[i]
        obj = json.loads(stdout)
        if sub == "colour":
            col = self.reference_colouring(argv[1])
            for a in obj["assignments"]:
                v = oracles.materialize(E.parse_term(a["value"]))
                if v is None and set(a["value"].split("^")) == {"2"}:
                    # a tower of h twos is the tower number t_h, so L = h
                    want = (a["value"].count("^") + 1 - 1) % (col.rule["r"] + 2) + 1
                else:
                    want = oracles.ref_colour(col, v)
                if a["colour"] != want:
                    return False
            return len(obj["assignments"]) == len(argv) - 2
        if sub == "verify":
            col = self.reference_colouring("logstar:r=1")
            count = oracles.family_count("exptriple-logcond", CLI_LOGCOND_BOUND, r=1)
            return (obj["result"]["type"] == "AvoidanceVerified"
                    and obj["instances_checked"] == count
                    and oracles.first_mono(col, "exptriple-logcond",
                                           CLI_LOGCOND_BOUND, r=1) is None)
        if sub == "search":
            col = self.reference_colouring("logstar:r=1")
            idx, gens, colour = oracles.first_mono(col, "exptriple", CLI_SEARCH_BOUND)
            wit = obj["result"]["witness"]
            return (stderr.startswith(b"counterexample:")
                    and obj["instances_checked"] == idx + 1
                    and tuple(wit["generators"]) == gens and wit["colour"] == colour
                    and all(oracles.logstar_colour(1, int(el["value"])) == colour
                            for el in wit["elements"]))
        if sub == "gen":
            got = {fe_element_key(el) for el in obj["elements"]}
            return got == fe_values(self.fe_gens)
        if sub == "ramsey":
            wit = obj["witness"]
            return (obj["value"] == oracles.KNOWN_VDW[(2, 3)]
                    and len(wit["colours"]) == wit["n"] == 8
                    and oracles.vdw_witness_ok(wit["colours"], 2, 3))
        return False

    def summary(self, results) -> dict:
        lat = self.latency_ops(results)
        return {
            "cli_p50_s": (percentile(lat, 50), "s"),
            "cli_tail_s": (percentile(lat, self.tail_pct), "s"),
        }


WORKLOADS = {w.name: w for w in (Scan, Symbolic, Ramsey, Cli)}
