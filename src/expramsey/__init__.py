"""Symbolic tower arithmetic, exponential pattern families, explicit
colourings, certificate-producing monochromatic-instance searches and exact
Ramsey-type numbers.

The public surface is re-exported here lazily (PEP 562): ``import
expramsey`` loads no submodule, and a name's submodule is imported on its
first access, so a caller compiles only the layers it reads. Submodules
stay importable for the long tail (parsers, sequence classes).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "ArityMismatch", "BudgetExceeded", "BudgetError", "EvaluationError",
        "ExactnessRequired", "ExpRamseyError", "FactorizationBudgetExceeded",
        "OutOfDomain", "ParseError", "SequenceNotSufficientlyLacunary",
        "SymbolicUnsupported", "UncertifiableComparison",
        "UncertifiableLogStar", "UnsupportedShape", "WeightUndefined",
    ), "errors"),
    **dict.fromkeys((
        "DEFAULT_CUTOFF", "BoundedValue", "ExpTerm", "Literal", "Power",
        "Product", "as_term", "compare_iter_log", "dedup_key",
        "eval_exact", "eval_mod", "literal", "log_star", "max_root_exponent",
        "max_root_exponent_mod", "nu_p", "parse_term", "power", "product",
        "to_text",
    ), "tower"),
    **dict.fromkeys((
        "PatternSet", "ShapeRelation", "WeightFn", "fep",
        "finite_exponentials", "finite_products", "finite_sums",
        "has_directed_cycle", "shape_pattern", "weighted_products",
    ), "patterns"),
    **dict.fromkeys((
        "AbbbColouring", "Colouring", "ConstColouring", "GeometricSequence",
        "LacunaryColouring", "LogStarColouring", "NPowNLog2Sequence",
        "NTimesPow2Sequence", "Pow2AbbColouring", "ProductColouring",
        "SchurExpColouring", "TableColouring", "build_lacunary_alpha",
        "parse_colouring", "parse_seq", "product_colouring",
    ), "colourings"),
    **dict.fromkeys((
        "Instance", "InstanceFamily", "family_from_descriptor", "parse_family",
    ), "families"),
    **dict.fromkeys((
        "Certificate", "find_monochromatic", "verify_certificate",
    ), "search"),
    **dict.fromkeys((
        "RamseyComputation", "exp_ramsey_number", "vdw_number",
    ), "ramsey"),
}

__all__ = [*_HOMES, "__version__"]


def _lazy_attributes(namespace: dict, homes: dict):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: it imports the submodule ``homes[name]`` of this package
    on the first read of ``name`` and keeps the value in ``namespace``."""
    def __getattr__(name: str):
        module = homes.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f".{module}", __name__), name)
        return value
    return __getattr__


__getattr__ = _lazy_attributes(globals(), _HOMES)


def __dir__():
    return sorted({*globals(), *__all__})
