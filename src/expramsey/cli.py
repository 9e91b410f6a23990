"""Command-line front end.

Subcommands: gen, colour, verify, search, ramsey. Exit codes partition the
outcomes: 0 verified/ok, 1 counterexample found, 2 parse error, 3 budget
exhausted, 4 evaluation error. An unexpected internal error also exits 4, so
1 only ever means a counterexample. JSON output is canonical (sorted keys,
no whitespace) so identical runs are byte-identical; CSV is derived from it
with witness sets flattened to semicolon-joined tower-syntax strings.

A subcommand imports the modules it calls when it runs, so a process
compiles only those: ``colour`` loads ``colourings`` and ``tower``, ``gen``
loads ``patterns`` and ``tower``, the ``ramsey`` subcommand loads the
``ramsey`` module (not ``tower`` or the scan; ``_arith`` only for
``exptriple``), and ``verify`` and ``search`` load ``search`` and
``families``, which import ``colourings`` and ``tower``, and ``patterns``
only for a shape or fep family.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from importlib import import_module
from typing import List, Optional

from .errors import (
    BudgetError,
    EvaluationError,
    ExpRamseyError,
    ParseError,
    SequenceNotSufficientlyLacunary,
)


class _Lazy:
    """A package function whose module is imported on its first call, so a
    process compiles only the modules its subcommand calls. The subcommands
    call the names bound below as globals of this module: a caller that
    patches one here (bench/spans.py traces them) replaces what runs."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def __call__(self, *args, **kwargs):
        module = import_module(f".{self.module}", __package__)
        return getattr(module, self.name)(*args, **kwargs)


parse_colouring = _Lazy("colourings", "parse_colouring")
fep = _Lazy("patterns", "fep")
finite_exponentials = _Lazy("patterns", "finite_exponentials")
shape_pattern = _Lazy("patterns", "shape_pattern")
find_monochromatic = _Lazy("search", "find_monochromatic")
# not called here: bench/spans.py traces parse_family through this binding
parse_family = _Lazy("families", "parse_family")
exp_ramsey_number = _Lazy("ramsey", "exp_ramsey_number")
vdw_number = _Lazy("ramsey", "vdw_number")

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_EVALUATION = 4


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_rows(rows: List[List[str]]) -> str:
    import csv  # only --format csv pays for it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _weight_from_args(args):
    from .patterns import WeightFn

    if getattr(args, "weights", None):
        try:
            with open(args.weights, "r", encoding="utf-8") as fh:
                return WeightFn.from_json(json.load(fh))
        except OSError as exc:
            raise ParseError(f"cannot read weight file {args.weights!r}: {exc}") from None
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ParseError(f"bad weight file {args.weights!r}: {exc}") from None
    return WeightFn.constant(args.w)


def cmd_gen(args) -> int:
    from ._spec import canonical_json
    from .patterns import (
        ShapeRelation, finite_products, finite_sums, parse_edges, weighted_products,
    )
    from .tower import parse_term

    gens = [parse_term(g) for g in args.generators]
    kind = args.pattern
    if kind == "fs":
        ps = finite_sums(gens, cap=args.cap)
    elif kind == "fp":
        ps = finite_products(gens, cap=args.cap)
    elif kind == "fe":
        ps = finite_exponentials(gens, cap=args.cap)
    elif kind == "fpw":
        weight = _weight_from_args(args)
        if args.s:
            try:
                s = [int(x) for x in args.s.split(",") if x.strip()]
            except ValueError:
                raise ParseError(f"bad index set {args.s!r}") from None
        else:
            s = list(range(1, len(gens) + 1))
        ps = weighted_products(s, weight, gens, cap=args.cap)
    elif kind == "fep":
        ps = fep(_weight_from_args(args), gens, cap=args.cap)
    elif kind == "shape":
        # an edge outside [m]x[m] raises ValueError: a parse error in main
        rel = ShapeRelation(len(gens), tuple(parse_edges(args.edges, ",")))
        ps = shape_pattern(rel, gens, cap=args.cap)
    else:
        raise ParseError(f"unknown pattern kind {args.pattern!r}")
    obj = ps.to_json()
    obj["seed"] = args.seed
    if args.format == "csv":
        rows = [["element", "provenance"]]
        for el, prov in zip(obj["elements"], obj["provenance"]):
            rows.append([el, json.dumps(prov, sort_keys=True)])
        _emit(args, _csv_rows(rows))
    else:
        _emit(args, canonical_json(obj))
    return EXIT_OK


def cmd_colour(args) -> int:
    from ._spec import canonical_json
    from .tower import parse_term

    colouring = parse_colouring(args.colouring)
    assignments = []
    for raw in args.values:
        t = parse_term(raw)
        assignments.append({"value": raw, "colour": colouring(t)})
    if args.format == "csv":
        rows = [["value", "colour"]] + [
            [a["value"], str(a["colour"])] for a in assignments
        ]
        _emit(args, _csv_rows(rows))
    else:
        obj = {
            "colouring": colouring.spec,
            "k": colouring.k,
            "assignments": assignments,
            "seed": args.seed,
        }
        _emit(args, canonical_json(obj))
    return EXIT_OK


def _cert_csv(cert) -> str:
    witness, colour = "", ""
    result = cert.result.get("type", "")
    if result == "Counterexample":
        w = cert.result["witness"]
        witness = ";".join(e["value"] for e in w["elements"])
        colour = str(w["colour"])
    rows = [
        ["schema", "family", "colouring", "bound", "instances_checked",
         "result", "witness", "colour", "seed"],
        [str(cert.schema), json.dumps(cert.family, sort_keys=True),
         cert.colouring, str(cert.bound), str(cert.instances_checked),
         result, witness, colour, str(cert.seed)],
    ]
    return _csv_rows(rows)


def _run_search(args, eager: bool) -> int:
    if args.bound < 1:
        raise ParseError(f"--bound must be at least 1, got {args.bound}")
    colouring = parse_colouring(args.colouring)
    cert = find_monochromatic(
        colouring, args.family, args.bound,
        seed=args.seed, threads=args.threads,
        budget_secs=args.budget_secs, cap=args.cap,
    )
    if eager and not cert.verified:
        w = cert.result["witness"]
        sys.stderr.write(
            "counterexample: {" +
            ", ".join(e["value"] for e in w["elements"]) +
            "} colour " + str(w["colour"]) + "\n"
        )
    if args.format == "csv":
        _emit(args, _cert_csv(cert))
    else:
        _emit(args, cert.to_json())
    return EXIT_OK if cert.verified else EXIT_COUNTEREXAMPLE


def cmd_verify(args) -> int:
    return _run_search(args, eager=False)


def cmd_search(args) -> int:
    return _run_search(args, eager=True)


def cmd_ramsey(args) -> int:
    # without --nmax each computation keeps its own default ceiling
    ceiling = {} if args.nmax is None else {"n_max": args.nmax}
    if args.kind == "exptriple":
        if args.len is not None:
            raise ParseError("exptriple takes no --len")
        comp = exp_ramsey_number(args.k, seed=args.seed, **ceiling)
    elif args.kind == "vdw":
        if args.len is None:
            raise ParseError("vdw needs --len")
        comp = vdw_number(args.k, args.len, seed=args.seed, **ceiling)
    else:
        raise ParseError(f"unknown ramsey kind {args.kind!r}")
    if args.format == "csv":
        wit = comp.witness or {}
        rows = [
            ["kind", "k", "params", "value", "n_max", "methods_agree",
             "witness_n", "witness_colours", "seed"],
            [comp.kind, str(comp.k), json.dumps(comp.params, sort_keys=True),
             "" if comp.value is None else str(comp.value), str(comp.n_max),
             str(comp.methods_agree),
             str(wit.get("n", "")),
             ";".join(map(str, wit.get("colours", []))),
             str(comp.seed)],
        ]
        _emit(args, _csv_rows(rows))
    else:
        _emit(args, comp.to_json())
    return EXIT_OK if comp.value is not None else EXIT_BUDGET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expramsey",
        description="Exponential pattern generation, colouring evaluation, "
                    "and monochromatic search.",
    )
    # each subcommand takes only the flags it reads: any other flag exits 2
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the output; no result depends on it")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=10**6,
                        help="element / enumeration cap")
    scan = argparse.ArgumentParser(add_help=False, parents=[common, capped])
    scan.add_argument("--budget-secs", type=float, default=None,
                      dest="budget_secs", help="wall-clock budget")
    scan.add_argument("--threads", type=int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common, capped],
                       help="generate a pattern set from generators")
    p.add_argument("pattern", choices=("fs", "fp", "fe", "fpw", "fep", "shape"))
    p.add_argument("generators", nargs="+", help="generators in tower syntax")
    p.add_argument("--edges", default="", help="shape edges i-j, comma separated")
    p.add_argument("--w", type=int, default=1, help="constant weight cap")
    p.add_argument("--weights", default=None, help="weight function JSON file")
    p.add_argument("--s", default=None, help="index subset for fpw, comma separated")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("colour", parents=[common],
                       help="evaluate a colouring on values")
    p.add_argument("colouring", help="colouring spec, e.g. logstar:r=1")
    p.add_argument("values", nargs="+", help="values in tower syntax")
    p.set_defaults(func=cmd_colour)

    for name, fn, blurb in (
        ("verify", cmd_verify, "check a family against a colouring"),
        ("search", cmd_search, "like verify, reporting the first "
                               "counterexample eagerly"),
    ):
        p = sub.add_parser(name, parents=[scan], help=blurb)
        p.add_argument("colouring", help="colouring spec")
        p.add_argument("family", help="instance family spec, e.g. exptriple")
        p.add_argument("--bound", type=int, required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("ramsey", parents=[common],
                       help="compute a Ramsey-type number")
    p.add_argument("kind", choices=("exptriple", "vdw"))
    p.add_argument("--k", type=int, required=True, help="number of colours")
    p.add_argument("--len", type=int, default=None, help="progression length (vdw only)")
    p.add_argument("--nmax", type=int, default=None, help="search ceiling")
    p.set_defaults(func=cmd_ramsey)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cap", 0) < 0:
            parser.error(f"argument --cap: must be at least 0, got {args.cap}")
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream pipe closed early; not an error on our side
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except BudgetError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (EvaluationError, SequenceNotSufficientlyLacunary) as exc:
        sys.stderr.write(f"evaluation error: {exc}\n")
        return EXIT_EVALUATION
    except ValueError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ExpRamseyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_EVALUATION
    except Exception as exc:
        # exit 1 is reserved for "counterexample found"; a bug must not look
        # like one, so report it with its traceback as an evaluation error
        import traceback

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
