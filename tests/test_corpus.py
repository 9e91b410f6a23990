"""A committed outcome corpus: rebuilt here and compared with
``corpus.json`` item by item.

Two sections. ``certificates``: every family kind, and three variants,
under five colourings at two bounds, each the SHA-256 of the certificate's
canonical JSON, or the class name of what the search raised. ``patterns``:
the pattern-set JSON of each generator on three generator lists, one with
a repeated generator. ``table:`` colourings are left out, as their spec
embeds a file path. The kinds are read from the registry of the module
that defines ``parse_family``, wherever that module is.

A change that means to move an outcome regenerates the file with
``python tests/test_corpus.py`` and names the moved items.
"""

import hashlib
import json
import sys
from pathlib import Path

import expramsey
from expramsey.colourings import parse_colouring
from expramsey.patterns import (
    ShapeRelation, WeightFn, fep, finite_exponentials, finite_products,
    finite_sums, shape_pattern, weighted_products,
)
from expramsey.search import find_monochromatic

CORPUS = Path(__file__).with_name("corpus.json")
FAMILIES = sys.modules[expramsey.parse_family.__module__].FAMILIES

COLOURINGS = ["logstar:r=1", "schurexp", "const:k=2", "lacunary:seq=n*2^n,nmax=8",
              "product:logstar:r=1+const:k=2"]
BOUNDS = [12, 200]
# one spec of each kind; a kind with parameters takes small ones
SPECS = {"shape": "shape:m=2,edges=1-2", "fep": "fep:m=2,w=1",
         "diffpair": "diffpair:seq=n*2^n,nmax=8", "grid": "grid:len=2"}
# an over-cap build (BudgetExceeded at 200) and two other parameters
VARIANTS = ["shape:m=3,edges=1-2;2-3;3-1", "exptriple:strict=1", "exptriple-logcond:r=2"]
GENERATORS = [[2, 3], [3, 3, 2], [2, 4, 5]]


def _cycle(m):
    return ShapeRelation(m, [(i, i % m + 1) for i in range(1, m + 1)])


PATTERNS = {
    "fs": finite_sums,
    "fp": finite_products,
    "fe": finite_exponentials,
    "fpw": lambda xs: weighted_products(range(1, len(xs) + 1), WeightFn.constant(2), xs),
    "fep": lambda xs: fep(WeightFn.constant(1), xs),
    "shape": lambda xs: shape_pattern(_cycle(len(xs)), xs),
}


def _outcome(make):
    try:
        return make()
    except Exception as exc:
        return type(exc).__name__


def _certificate_sha(colouring, spec, bound):
    cert = find_monochromatic(parse_colouring(colouring), spec, bound)
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


def build() -> dict:
    specs = [SPECS.get(kind, kind) for kind in FAMILIES] + VARIANTS
    certificates = {f"{c} | {spec} | {n}": _outcome(lambda: _certificate_sha(c, spec, n))
                    for spec in specs for c in COLOURINGS for n in BOUNDS}
    patterns = {
        f"{name} {xs}": _outcome(lambda: json.dumps(
            gen(xs).to_json(), sort_keys=True, separators=(",", ":")))
        for name, gen in PATTERNS.items() for xs in GENERATORS}
    return {"certificates": certificates, "patterns": patterns}


def test_the_corpus_is_unchanged():
    want = json.loads(CORPUS.read_text())
    got = build()
    for section in want:
        differ = [(key, want[section].get(key), got[section].get(key))
                  for key in sorted({*want[section], *got[section]})
                  if want[section].get(key) != got[section].get(key)]
        assert not differ, f"{section}: {len(differ)} differ, first {differ[:3]}"
    assert set(got) == set(want)


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
