"""Span tracing of expramsey's layers, installed from outside the package.

Every entry point is wrapped at the name its caller binds (``colourings``
imports ``log_star`` from ``tower``, so ``colourings.log_star`` is wrapped,
not only ``tower.log_star``). A wrapped call appends one span -- name,
start, end, parent -- to flat arrays; nothing is aggregated while the
workload runs. :func:`layer_totals` turns the spans into per-name call
counts, inclusive time and self time (the span minus its direct children).

Hot leaf functions are called millions of times in a scan, so spans live in
``array`` columns (24 bytes a span) rather than objects, and hooks that look
at arguments or results are only attached where a per-layer metric needs
them.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

HEADER_FIELDS = ("name", "parent", "start_ns", "end_ns")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.counts: dict = {}
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, func, name: str, on_call=None, on_return=None, failure=None):
        """A wrapper of ``func`` that records one span per call.

        ``on_call(tracer, args)`` and ``on_return(tracer, result)`` feed
        counters; an exception that is an instance of ``failure`` is counted
        under ``<name>.raised`` and re-raised unchanged.
        """
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        raised_key = name + ".raised"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            if on_call is not None:
                on_call(self, args)
            starts.append(perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if failure is not None and isinstance(exc, failure):
                    self.count(raised_key)
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- persistence ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four columns."""
        header = {"fields": HEADER_FIELDS, "names": self.names,
                  "n": len(self.start), "counts": self.counts,
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)

    def absorb(self, path: str) -> None:
        """Append the spans another process dumped, re-rooted under the
        currently open span. perf_counter_ns is CLOCK_MONOTONIC on Linux,
        so times from a child process share this process's time axis."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["n"]
            cols = []
            for typecode in ("i", "i", "q", "q"):
                col = array(typecode)
                col.fromfile(fh, n)
                cols.append(col)
        remap = [self.name_id(nm) for nm in header["names"]]
        offset = len(self.start)
        root = self.stack[-1] if self.stack else -1
        self.name.extend(remap[i] for i in cols[0])
        self.parent.extend(root if p < 0 else p + offset for p in cols[1])
        self.start.extend(cols[2])
        self.end.extend(cols[3])
        for key, val in header["counts"].items():
            self.count(key, val)


def layer_totals(tracer: Tracer) -> dict:
    """{name: (calls, inclusive_s, self_s)} over every recorded span."""
    n = len(tracer.start)
    child = array("q", bytes(8 * n))
    parent, start, end = tracer.parent, tracer.start, tracer.end
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    k = len(tracer.names)
    calls, incl, self_ns = [0] * k, [0] * k, [0] * k
    name = tracer.name
    for i in range(n):
        nid = name[i]
        d = end[i] - start[i]
        calls[nid] += 1
        incl[nid] += d
        self_ns[nid] += d - child[i]
    return {tracer.names[j]: (calls[j], incl[j] / 1e9, self_ns[j] / 1e9)
            for j in range(k)}


# ---------------------------------------------------------------------------
# the wrap points

def _count_colour_entry(tracer: Tracer, args) -> None:
    # args = (colouring, x); nested colour calls (a term path recursing on its
    # exact value, an inner lacunary colouring) are not entries into the layer
    stack = tracer.stack
    if len(stack) >= 2 and tracer.name[stack[-2]] == tracer.name[stack[-1]]:
        return
    col, x = args[0], args[1]
    if isinstance(x, int):
        tracer.count("colour.int_calls")
        memo = getattr(col, "_memo", None)
        if isinstance(memo, dict):
            tracer.count("colour.memo_lookups")
            if x in memo:
                tracer.count("colour.memo_hits")
    else:
        tracer.count("colour.term_calls")


def _count_precision(tracer: Tracer, args) -> None:
    if args[1] > 16:
        tracer.count("log2_scaled_bounds.escalated")


def _count_len(key):
    def hook(tracer: Tracer, result) -> None:
        tracer.count(key, len(result))
    return hook


def _count_instances(tracer: Tracer, cert) -> None:
    tracer.count("search.instances", cert.instances_checked)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of an imported expramsey."""
    import expramsey
    from expramsey import _arith, _intlog, cli, colourings, patterns, search, tower
    from expramsey.errors import ExpRamseyError

    fail = {"failure": ExpRamseyError}
    points = [
        # _intlog, at its callers' bindings and its own internal one
        (tower, "log_star_int", "_intlog.log_star_int", {}),
        (colourings, "log_star_int", "_intlog.log_star_int", {}),
        (_intlog, "log_star_int", "_intlog.log_star_int", {}),
        (tower, "log2_scaled_bounds", "_intlog.log2_scaled_bounds",
         {"on_call": _count_precision}),
        (colourings, "log2_scaled_bounds", "_intlog.log2_scaled_bounds",
         {"on_call": _count_precision}),
        (_intlog, "log2_scaled_bounds", "_intlog.log2_scaled_bounds",
         {"on_call": _count_precision}),
        (tower, "iter_log_le", "_intlog.iter_log_le", {}),
        # _arith: tower's binding plus the one gcd_of_exponents/totient use
        (tower, "factorint", "_arith.factorint", {}),
        (_arith, "factorint", "_arith.factorint", {}),
        # tower, where colourings, search and the benchmark call it
        (colourings, "eval_exact", "tower.eval_exact", fail),
        (search, "eval_exact", "tower.eval_exact", fail),
        (expramsey, "eval_exact", "tower.eval_exact", fail),
        (colourings, "log_star", "tower.log_star", fail),
        (expramsey, "log_star", "tower.log_star", fail),
        (colourings, "eval_mod", "tower.eval_mod", fail),
        (expramsey, "eval_mod", "tower.eval_mod", fail),
        (colourings, "max_root_exponent_mod", "tower.max_root_exponent_mod", fail),
        (expramsey, "max_root_exponent", "tower.max_root_exponent", fail),
        (colourings, "nu_p", "tower.nu_p", fail),
        (search, "compare_iter_log", "tower.compare_iter_log", fail),
        (expramsey, "compare_iter_log", "tower.compare_iter_log", fail),
        # colourings
        (colourings.LogStarColouring, "colour_power", "colourings.colour_power", {}),
        (expramsey, "parse_colouring", "colourings.parse_colouring", {}),
        (search, "parse_colouring", "colourings.parse_colouring", {}),
        (cli, "parse_colouring", "colourings.parse_colouring", {}),
        # patterns
        (search, "fep", "patterns.fep", {"on_return": _count_len("patterns.elements")}),
        (search, "shape_pattern", "patterns.shape_pattern",
         {"on_return": _count_len("patterns.elements")}),
        (cli, "fep", "patterns.fep", {"on_return": _count_len("patterns.elements")}),
        (cli, "shape_pattern", "patterns.shape_pattern",
         {"on_return": _count_len("patterns.elements")}),
        (cli, "finite_exponentials", "patterns.finite_exponentials",
         {"on_return": _count_len("patterns.elements")}),
        # search
        (expramsey, "parse_family", "search.parse_family", {}),
        (search, "parse_family", "search.parse_family", {}),
        (cli, "parse_family", "search.parse_family", {}),
        (expramsey, "find_monochromatic", "search.find_monochromatic",
         {"on_return": _count_instances}),
        (cli, "find_monochromatic", "search.find_monochromatic",
         {"on_return": _count_instances}),
        (expramsey, "verify_certificate", "search.verify_certificate", {}),
        (expramsey, "vdw_number", "search.vdw_number", {}),
        (cli, "vdw_number", "search.vdw_number", {}),
        (expramsey, "exp_ramsey_number", "search.exp_ramsey_number", {}),
        (cli, "exp_ramsey_number", "search.exp_ramsey_number", {}),
        (search, "_ap_constraints", "search.constraints",
         {"on_return": _count_len("search.ramsey.constraints")}),
        (search, "_exp_triples_upto", "search.constraints",
         {"on_return": _count_len("search.ramsey.constraints")}),
        # cli
        (cli, "main", "cli.main", {}),
    ]
    for owner, attr, name, hooks in points:
        tracer.patch(owner, attr, name, **hooks)
    for cls in _colouring_classes(colourings.Colouring):
        if "colour" in cls.__dict__:
            tracer.patch(cls, "colour", "colourings.colour",
                         on_call=_count_colour_entry, failure=ExpRamseyError)


def record_caches(tracer: Tracer) -> None:
    """Add the log2 bound cache's hit and miss counts since its last clear."""
    from expramsey import _intlog

    fn = _intlog.log2_scaled_bounds
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__  # patched by install()
    info = fn.cache_info()
    tracer.count("log2_scaled_bounds.cache_hits", info.hits)
    tracer.count("log2_scaled_bounds.cache_misses", info.misses)


def _colouring_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
