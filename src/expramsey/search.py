"""Certificate-producing monochromatic search over the families of
``families``: the row walk, the window scan with its four searches, and
certificate verification.

Certificates serialize to canonical JSON (sorted keys, no whitespace); the
wall-time measurement lives on the object but stays out of the bytes so
replays are byte-identical. Ramsey-number computation is in ``ramsey``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import _lazy_attributes
from ._spec import _Record
from .colourings import Colouring, LogStarColouring, parse_colouring
from .errors import BudgetExceeded
from .families import (
    ExpQuadrupleFamily, FepFamily, InstanceFamily, Row, SchurPlusExpFamily, Shift,
    Value, _BuiltFamily, _TranslateFamily, family_from_descriptor, parse_family,
)
# not called here: bench/spans.py traces compare_iter_log and eval_exact
# through these bindings (exptriple-logcond decides compare_iter_log's
# condition by its int rule, and terms carry their exact value)
from .tower import compare_iter_log, eval_exact  # noqa: F401

# nor these, which load their module when first read, so a scan that builds
# no shape or fep family compiles neither patterns nor ramsey: bench/spans.py
# traces fep and shape_pattern (the families build their rows from the same
# pieces) and patches the two Ramsey constraint builders, though the Ramsey
# drivers call ramsey's own bindings
__getattr__ = _lazy_attributes(globals(), {
    "fep": "patterns", "shape_pattern": "patterns",
    "_ap_constraints": "ramsey", "_exp_triples_upto": "ramsey"})


# ---------------------------------------------------------------------------
# certificates

class Certificate(_Record):
    __slots__ = _fields = ("family", "colouring", "bound", "instances_checked",
                           "result", "seed", "schema")

    @property
    def verified(self) -> bool:
        return self.result.get("type") == "AvoidanceVerified"


def _certificate(family: InstanceFamily, colouring: Colouring,
                 index: Optional[int], seed: int) -> Certificate:
    """The one writer of certificates: avoidance of the whole family when
    ``index`` is None, else the counterexample at ``index``, whose witness
    is ``nth(index)`` in the one colour ``_mono_rows`` reads off it; a row
    that is not monochromatic raises ValueError."""
    if index is None:
        checked, result = family.count(), {"type": "AvoidanceVerified"}
    else:
        inst = family.nth(index)
        (_, _, colour), = _mono_rows(colouring, [(inst.values, ())], _Budget(None))
        checked = index + 1
        result = {"type": "Counterexample", "witness": inst.witness_json(colour)}
    return Certificate(family=family.descriptor(), colouring=colouring.spec,
                       bound=family.bound, instances_checked=checked,
                       result=result, seed=seed)


class _Budget:
    def __init__(self, secs: Optional[float]):
        self.deadline = None if secs is None else time.monotonic() + secs

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted during search")


def _mono_rows(colouring: Colouring, rows: Iterator[Row], budget: _Budget
               ) -> Iterator[Tuple[int, Tuple[int, ...], int]]:
    """(position, generators, colour) of each row among ``rows`` whose
    values all take one colour. Each distinct value is coloured once per call, through a
    table of ints and terms that lives as long as the call; colourings
    cache nothing, so this table is the walk's only colour cache. A row
    stops at its first colour mismatch."""
    cache: Dict[Value, int] = {}
    get = cache.get
    for j, (values, generators) in enumerate(rows):
        if j % 4096 == 0:
            budget.check()
        c = None
        for v in values:
            cv = get(v)
            if cv is None:
                cv = cache[v] = colouring(v)
            if c is None:
                c = cv
            elif cv != c:
                break
        else:
            yield j, generators, c


def _walk(colouring: Colouring, family: InstanceFamily, budget: _Budget,
          start: int = 0) -> Optional[int]:
    """Index of the first monochromatic row from index ``start`` on, or
    None: the row walk, which reads each row by its index."""
    rows = map(family._scan_row, range(start, family.count()),
               itertools.repeat(budget.check))
    for j, _, _ in _mono_rows(colouring, rows, budget):
        return start + j
    return None


def _first_translates(carr: bytearray, classes: Sequence[int],
                      shifts: List[Shift], lo: int, hi: int, budget: _Budget
                      ) -> Dict[int, Tuple[int, int]]:
    """For each class rank c in ``classes`` with a monochromatic translate
    of some pattern in ``shifts`` whose largest element m lies in [lo, hi],
    the (m, j) of the first: the least m, then the least position j.
    ``carr[v]`` is the class rank of v for v in [1, hi] and 0 at v = 0.

    Bit-parallel shift-and matching (Baeza-Yates and Gonnet, CACM 35(10),
    1992) over one-bit lanes: bit v of the lane int of c is set iff carr[v]
    is c, so the lane shifted left by o has bit m set iff m - o is in c. The
    AND of the lane with its shifts by a pattern's offsets marks each m
    whose translate lies in c, m - o <= 0 included as no bit is set there;
    the lowest marked bit from the pattern's least m on is its first. The
    budget is checked every 256 patterns."""
    todo: Dict[Optional[int], List[Tuple[int, int, Tuple[int, ...]]]] = {}
    for j, (m_min, offsets, pin) in enumerate(shifts):
        start = max(lo, m_min)
        if start <= hi:
            key = None if pin is None else carr[pin]
            todo.setdefault(key, []).append((start, j, offsets))
    free = todo.pop(None, [])
    # a translate has at least its offsets' count plus one distinct
    # elements, so a class with fewer members holds none
    fewest = 1 + min((len(offsets) for _, offsets, _ in shifts), default=0)
    first: Dict[int, Tuple[int, int]] = {}
    for c in classes:
        # the digits of v = len(carr) - 1 down to 0, 1 where carr[v] is c
        lane = int(carr.translate(b"0" * c + b"1" + b"0" * (255 - c))[::-1], 2)
        if lane.bit_count() < fewest:
            continue
        for n, (start, j, offsets) in enumerate(free + todo.get(c, [])):
            if n % 256 == 0:
                budget.check()
            mask = lane
            for o in offsets:
                if not mask:
                    break
                mask &= lane << o
            mask >>= start
            if mask:
                m = start + (mask & -mask).bit_length() - 1
                if c not in first or (m, j) < first[c]:
                    first[c] = m, j
    return first


def _translate_index(family: InstanceFamily, shifts: List[Shift],
                     m: int, j: int) -> int:
    """Enumeration index of the translate to m of pattern j of ``shifts``:
    the rows of largest element below m come first, then those of m, one
    per pattern of least largest element <= m. The patterns past that bound
    head the list, by the order stated at ``Shift``."""
    return family._upto(m - 1) + j - bisect.bisect_left(
        shifts, -m, key=lambda s: -s[0])


# (carr, the rank of each colour, lo, hi, budget) -> the index of the first
# monochromatic row with m (see _window_scan) in [lo, hi], or None
WindowSearch = Callable[[bytearray, Dict[int, int], int, int, _Budget],
                        Optional[int]]


def _translate_search(family: InstanceFamily) -> WindowSearch:
    """Search of a family whose rows at each largest element m are the
    translates to m of its ``_shifts`` patterns, in the patterns' order."""
    def search(carr, ranks, lo, hi, budget):
        shifts = family._shifts(hi)
        classes = range(1, len(ranks) + 1)
        first = _first_translates(carr, classes, shifts, lo, hi, budget)
        if not first:
            return None
        return _translate_index(family, shifts, *min(first.values()))
    return search


def _joint_search(family: SchurPlusExpFamily) -> WindowSearch:
    """Class decomposition: a joint instance is monochromatic exactly when
    one colour class holds both its sum triple and its power triple. The
    joint order is monotone in each part's index, so the first joint
    instance pairs some class's first sum triple with its first power
    triple. Power triples are read off ``carr`` in order of their power;
    a class's sum triples are searched by the shift-and kernel, restricted
    to that class, once it has a power triple, from 1 on at first and then
    window by window, so a colouring with no monochromatic power triple
    never searches them."""
    pairs, schur = family.exp._pairs, family.schur
    exp_first: Dict[int, int] = {}  # class rank -> first power triple
    sum_first: Dict[int, int] = {}  # class rank -> first sum triple
    next_pair = 0

    def search(carr, ranks, lo, hi, budget):
        nonlocal next_pair
        fresh = []
        while next_pair < len(pairs) and pairs[next_pair][0] <= hi:
            p, a, b = pairs[next_pair]
            if carr[a] == carr[b] == carr[p] and carr[p] not in exp_first:
                exp_first[carr[p]] = next_pair
                fresh.append(carr[p])
            next_pair += 1
        waiting = [c for c in exp_first if c not in sum_first and c not in fresh]
        shifts = schur._shifts(hi) if fresh or waiting else []
        for cs, start in ((fresh, 1), (waiting, lo)):
            for c, (m, j) in _first_translates(carr, cs, shifts, start, hi, budget).items():
                sum_first[c] = _translate_index(schur, shifts, m, j)
        return min((family.index(sum_first[c], ei)
                    for c, ei in exp_first.items() if c in sum_first), default=None)
    return search


def _level_box_search(colouring: LogStarColouring,
                      family: ExpQuadrupleFamily) -> WindowSearch:
    """Box search of {a, b, a^b, b^a} under a log-star colouring, whose rows
    come in order of (b, a).

    The levels L(a^b) and L(b^a) are non-decreasing in a and in b, so on a
    box a1 <= a <= min(a2, b), b1 <= b <= b2 both lie between their values
    at the low corner (a1, max(b1, a1)) and the high corner (a2, b2). Where
    the corners agree the two power colours are constant (the colours
    repeat with period r + 2, so only the level is monotone): the box is
    cleared unless both rank as one class c, and then its first row is the
    first a of class c, paired with the first b >= a of class c. Any other
    box is halved: along a where the levels change on its low-b edge,
    along b where that edge is flat. The lower half of b is searched first;
    the right half of a only for rows before the left half's first, so the
    first row found is the walk's. Corner levels are memoized for one
    window. The budget is checked at each box."""
    level, of_count = colouring.level_power, colouring._of_count

    def search(carr, ranks, lo, hi, budget):
        memo: Dict[Tuple[int, int], Tuple[int, int]] = {}

        def levels(a, b):
            got = memo.get((a, b))
            if got is None:
                got = memo[a, b] = level(a, b), level(b, a)
            return got

        def first(a1, a2, b1, b2):
            # (b, a) of the box's first monochromatic row, or None
            b1, a2 = max(b1, a1), min(a2, b2)
            if b1 > b2:
                return None
            budget.check()
            low = levels(a1, b1)
            if low == levels(a2, b2):
                c = ranks.get(of_count(low[0]))
                if c is None or c != ranks.get(of_count(low[1])):
                    return None
                x = carr.find(c, a1, a2 + 1)
                b = -1 if x < 0 else carr.find(c, max(b1, x), b2 + 1)
                return None if b < 0 else (b, x)
            if low == levels(min(a2, b1), b1):
                m = (b1 + b2) // 2
                return first(a1, a2, b1, m) or first(a1, a2, m + 1, b2)
            m = (a1 + a2) // 2
            left = first(a1, m, b1, b2)
            return first(m + 1, a2, b1, b2 if left is None else left[0] - 1) or left

        got = first(2, hi, lo, hi)
        return None if got is None else family._rank(got[::-1])
    return search


def _class_search(colouring: Colouring, family: _BuiltFamily) -> WindowSearch:
    """Search over the largest generator m of rows that start with their
    generators and build nothing before them. The walk ends a row at its
    first generator mismatch, so only ``_with_max`` over m's class up to m
    is listed, built by ``_lazy`` and checked by ``_mono_rows`` (budget
    checks every 4,096 rows); ``_rank`` gives the first one's index."""
    def search(carr, ranks, lo, hi, budget):
        members: Dict[int, List[int]] = {}  # class rank -> its ints in [2, M]

        def one_class_rows():
            for M in range(2, hi + 1):
                digits = members.setdefault(carr[M], [])
                digits.append(M)
                if M >= lo:
                    for g in family._with_max(digits):
                        yield family._lazy(g), g

        for _, g, _ in _mono_rows(colouring, one_class_rows(), budget):
            return family._rank(g)
        return None
    return search


def _search(family: InstanceFamily, colouring: Colouring) -> Optional[WindowSearch]:
    """``_window_scan``'s search of ``family`` under ``colouring``, or None
    for the row walk: the one place a search is chosen."""
    if isinstance(family, _TranslateFamily):
        return _translate_search(family)
    if isinstance(family, SchurPlusExpFamily):
        return _joint_search(family)
    if isinstance(family, ExpQuadrupleFamily) and isinstance(colouring, LogStarColouring):
        return _level_box_search(colouring, family)
    if isinstance(family, _BuiltFamily) and not (
            isinstance(family, FepFamily) and family._walk_only()):
        return _class_search(colouring, family)
    return None


def _window_scan(colouring: Colouring, family: InstanceFamily, budget: _Budget,
                 search: WindowSearch) -> Optional[int]:
    """Index of the first monochromatic row of a family whose rows come in
    order of an integer m, its generators in [1, m], or None; m is the
    largest element for the translate and joint searches, the largest
    generator for the box and class searches.

    The values are coloured in ascending order by ``colour_range``, in
    blocks of at most 4096 that fill windows of m that double, into
    ``carr`` as class ranks, the colours numbered 1, 2, ... by first
    appearance; an early counterexample colours at most about twice the
    values a row walk colours. The budget is checked before each block, and
    by the search: every 256 patterns by the shift-and kernel, at each box
    by the level box search, every 4,096 rows by the class search.

    A value whose colouring raises (its block ends short), or whose colour
    would be a 256th class, ends the windows: the rows whose m is below it
    are searched, and the rows from there on are walked by ``_walk``, so
    what raises or returns is what the row walk raises or returns."""
    if family.count() == 0:
        return None
    carr, ranks = bytearray(1), {}
    lo, hi = 1, 8
    while lo <= family.bound:
        top = min(hi, family.bound)
        for a in range(lo, top + 1, 4096):
            budget.check()
            b = min(a + 4095, top)
            cs = colouring.colour_range(a, b)
            for c in dict.fromkeys(cs):
                if c not in ranks:
                    if len(ranks) == 255:
                        cs = cs[:cs.index(c)]
                        break
                    ranks[c] = len(ranks) + 1
            carr += bytes(map(ranks.__getitem__, cs))
            if len(cs) <= b - a:
                break
        end = len(carr) - 1
        got = search(carr, ranks, lo, end, budget) if end >= lo else None
        if got is not None:
            return got
        if end < top:
            return _walk(colouring, family, budget, family._upto(end))
        lo, hi = top + 1, 2 * hi
    return None


def find_monochromatic(colouring: Union[Colouring, str],
                       family: Union[InstanceFamily, str],
                       bound: Optional[int] = None, *,
                       seed: int = 0,
                       threads: int = 1,
                       budget_secs: Optional[float] = None,
                       cap: int = 10**6) -> Certificate:
    """First monochromatic instance in enumeration order, or avoidance.

    The result is a certificate; its wall_time attribute is measured but not
    serialized. ``_search`` picks ``_window_scan``'s search, or the row
    walk. Either gives the first monochromatic row's index, from which ``_certificate`` writes the certificate, the witness
    read from ``nth``; ``verify_certificate`` rebuilds it the same way.
    ``threads`` is checked but changes neither the certificate nor the
    speed: every search runs in this process. ``threads`` < 1 or a NaN
    ``budget_secs`` raises ValueError.
    """
    t0 = time.perf_counter()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if budget_secs is not None and math.isnan(budget_secs):
        raise ValueError("budget_secs must be a number of seconds, got nan")
    if isinstance(colouring, str):
        colouring = parse_colouring(colouring)
    if isinstance(family, str):
        if bound is None:
            raise ValueError("a string family spec needs an explicit bound")
        default_r = colouring.r if isinstance(colouring, LogStarColouring) else None
        family = parse_family(family, bound, cap=cap, default_r=default_r)
    budget = _Budget(budget_secs)

    search = _search(family, colouring)
    index = (_walk(colouring, family, budget) if search is None
             else _window_scan(colouring, family, budget, search))
    cert = _certificate(family, colouring, index, seed)
    cert.wall_time = time.perf_counter() - t0
    return cert


def verify_certificate(cert: Certificate) -> bool:
    """Accept a certificate only if it is the one ``find_monochromatic``
    writes for its family, colouring and seed: the certificate is rebuilt
    by ``_certificate`` and its canonical bytes must be the rebuilt ones,
    so every field, the witness text and the canonical colouring spec are
    checked at once. An avoidance claim is rebuilt by replaying the search;
    a counterexample from the one instance at ``instances_checked - 1``,
    through ``nth``, in its colour if it is monochromatic. ``seed`` and
    ``instances_checked`` must also be ints (not bools): a string seed
    would rebuild to the same bytes. Anything that raises, a malformed
    ``result`` or ``witness`` included, rejects the certificate.

    The family is rebuilt under the default element cap of 10^6, so a
    descriptor over it, such as that of a certificate made with ``--cap``
    above 10^6, is rejected."""
    try:
        if type(cert.seed) is not int or type(cert.instances_checked) is not int:
            return False
        colouring = parse_colouring(cert.colouring)
        family = family_from_descriptor(cert.family)
        if cert.result["type"] == "AvoidanceVerified":
            rebuilt = find_monochromatic(colouring, family, seed=cert.seed)
        else:
            rebuilt = _certificate(family, colouring, cert.instances_checked - 1,
                                   cert.seed)
        return rebuilt.to_json() == cert.to_json()
    except Exception:
        return False
