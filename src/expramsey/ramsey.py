"""Exact Ramsey-type numbers: exponential triples {a, b, a^b} and van der
Waerden numbers.

Each threshold is the least n whose constraint sets (the triples with
a^b <= n, or the length-L progressions in [n]) admit no k-colouring with
no set monochromatic. ``_backtrack_colouring`` decides each n; for exp
triples it solves only the 2-core (``_core``), unless a k-colouring of the
lifted exponent system (``_lifted_constraints``) puts the answer past the
ceiling; vdW solves n only where the last colouring does not extend. A record
carries the witness colouring of [value - 1] and ``methods_agree``: the
witness re-checked, and a second branching order refuting the threshold.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Callable, Dict, List, Optional, Tuple

from ._spec import _Record
from .errors import BudgetExceeded


class RamseyComputation(_Record):
    __slots__ = _fields = ("kind", "k", "params", "value", "n_max", "witness",
                           "methods_agree", "seed", "schema")


_TRIPLE_CAP = 2 * 10**6


def _exp_triples_upto(n: int, cap: Optional[int] = None) -> List[Tuple[int, int, int]]:
    """All (a, b, a^b) with a, b >= 2 and a^b <= n, capped as in _exp_pairs."""
    from ._arith import _exp_pairs
    return [(a, b, p) for p, a, b in _exp_pairs(n, cap=cap)]


def _lifted_constraints(m: int) -> List[Tuple[int, int, int]]:
    """{l, l(b), l*b} for l >= 1, b >= 2 and l*b <= m: the lifted system."""
    from ._arith import root_exponent
    return [(l, root_exponent(b), l * b) for b in range(2, m + 1)
            for l in range(1, m // b + 1)]


def _backtrack_colouring(values: List[int],
                         constraints: List[Tuple[int, ...]],
                         k: int, node_cap: int = 20_000_000,
                         *, alternate: bool = False
                         ) -> Optional[Dict[int, int]]:
    """Colouring with no constraint set monochromatic, or None if impossible.

    Backtracking with not-all-equal propagation to a fixpoint: a constraint
    with all but one member placed in one colour forbids that colour to the
    last member, a member left with one colour takes it at once (which may
    force others), and an empty domain or a monochromatic constraint fails
    the branch. Values are branched in degree order (the smallest value
    first), so contradictions surface among the dense values near the root.
    Colour classes open in first-use order, so the first value takes colour
    1; a forced colour beyond that order fails the branch. Propagation drops
    only colours no solution extending the partial assignment can take, so
    solutions come in the order of plain branching: the first is the same,
    whatever order the fixpoint is reached in.

    The state is ``assign`` (colour per position, 0 if none), ``forbid`` (bit
    c-1 set when c is ruled out) and two trails: the positions placed, in
    order, which from a placement's mark on are its propagation queue, and
    (position, forbid mask before) pairs, which undo writes back. Each
    position p keeps, per constraint it lies in, ``(o1, o2, more)``: the next
    two members going round the constraint, then the rest of them, up to p
    (a two-member constraint comes round to p as o2, which holds the colour
    being placed). Placing c at p reads ``assign`` at o1 and o2 and walks
    ``more`` only when both hold c or one is open and the other holds c. No
    state is kept per constraint, so undoing pops the trails and visits no
    constraint, and memory grows with the total membership.

    ``alternate`` is a second, independent order for cross-checking a
    refutation: descending degree, ties to the largest value, no value
    pinned to the root. The search runs on an explicit stack.
    """
    m = len(values)
    if m == 0:
        return {}
    k = min(k, m)  # first-use order never opens more than m classes
    position = dict(zip(values, range(m))).__getitem__
    rounds: List[List[Tuple[int, int, Tuple[int, ...]]]] = [[] for _ in range(m)]
    for c in {frozenset(map(position, c)) for c in constraints}:
        n = len(c)
        if n == 1:
            return None
        pos = (*c,) * 2
        for i in range(n):
            rounds[pos[i]].append((pos[i + 1], pos[i + 2], pos[i + 3:i + n]))
    # sorted() is stable, also in reverse: ties keep the order of the range
    degree = list(map(len, rounds)).__getitem__
    if alternate:
        order = sorted(range(m - 1, -1, -1), key=degree, reverse=True)
    else:
        order = [0, *sorted(range(1, m), key=degree, reverse=True)]
    k1, full = k + 1, (1 << k) - 1
    forbid, assign = [0] * m, [0] * m
    placed: List[int] = []
    masks: List[Tuple[int, int]] = []

    def place(p: int, c: int) -> bool:
        """Assign c at p and propagate; on a dead end undo all, return False."""
        mark = i = len(placed)
        mask_mark = len(masks)
        assign[p] = c
        placed.append(p)
        while i < len(placed):
            p, i = placed[i], i + 1
            c = assign[p]
            bit = 1 << (c - 1)
            for o1, o2, more in rounds[p]:
                a, b = assign[o1], assign[o2]
                if a != c:
                    if a or b != c:
                        continue
                    q = o1
                elif b != c:
                    if b:
                        continue
                    q = o2
                else:
                    q = -1
                for o in more:
                    a = assign[o]
                    if a != c:
                        if a or q >= 0:
                            break
                        q = o
                else:  # every member but q (if any) has colour c
                    if q < 0:
                        undo(mark, mask_mark)
                        return False
                    f = forbid[q]
                    if f & bit:
                        continue
                    masks.append((q, f))
                    f = forbid[q] = f | bit
                    left = full ^ f
                    if not left:
                        undo(mark, mask_mark)
                        return False
                    if not left & (left - 1):
                        assign[q] = left.bit_length()
                        placed.append(q)
        return True

    def undo(mark: int, mask_mark: int) -> None:
        for p in placed[mark:]:
            assign[p] = 0
        del placed[mark:]
        for q, f in reversed(masks[mask_mark:]):
            forbid[q] = f
        del masks[mask_mark:]

    # Depth-first search over `order`. Depth r holds the colour last tried at
    # order[r] (0 on entering, which counts one node; k+1 once forced), the
    # lengths of both trails on entering and the colour classes used above it.
    tried, marks, used = [0] * m, [(0, 0)] * m, [0] * (m + 1)
    nodes, r = 0, 0
    while True:
        p, u, c = order[r], used[r], tried[r]
        if c == 0:
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceeded("colouring search exceeded the node budget")
            marks[r] = len(placed), len(masks)
        if c == 0 and assign[p]:  # forced: one colour, if first-use allows it
            c, top, tried[r] = assign[p], u + 1, k1
        else:
            top, f = min(k, u + 1), forbid[p]
            c += 1
            while c <= top and (f >> (c - 1) & 1 or not place(p, c)):
                c += 1
            tried[r] = c
        if c <= top:
            used[r + 1] = c if c > u else u
            r += 1
            if r == m:
                return dict(zip(values, assign))
            tried[r] = 0
        elif r == 0:
            return None
        else:
            r -= 1
            undo(*marks[r])


def _core(constraints: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """The 2-core, in input order: while one is left, drop a constraint with
    two or more distinct members, one in no other kept constraint. For
    k >= 2 any colouring of the rest extends to it (that member takes a
    colour unlike another's), so the core, the constraints and every family
    between them are k-colourable together. The core is unique."""
    # held[v] xors the indices of v's kept constraints: at degree 1, that index
    members = [tuple(set(c)) for c in constraints]
    degree: Dict[int, int] = {}
    held: Dict[int, int] = {}
    for i, c in enumerate(members):
        for v in c:
            degree[v] = degree.get(v, 0) + 1
            held[v] = held.get(v, 0) ^ i
    kept = [True] * len(constraints)
    lone = [v for v, d in degree.items() if d == 1]
    while lone:
        v = lone.pop()
        i = held[v]
        if degree[v] != 1 or len(members[i]) < 2:
            continue
        kept[i] = False
        for v in members[i]:
            degree[v] -= 1
            held[v] ^= i
            if degree[v] == 1:
                lone.append(v)
    return [c for c, keep in zip(constraints, kept) if keep]


def _colouring_is_free(colours: List[int],
                       constraints: List[Tuple[int, ...]]) -> bool:
    """No constraint is monochromatic under ``colours`` (v's at v - 1)."""
    return all(len({colours[v - 1] for v in cons}) > 1 for cons in constraints)


def _methods_agree(colours: List[int], cons_below: List[Tuple[int, ...]],
                   values_at: List[int], cons_at: List[Tuple[int, ...]],
                   k: int) -> bool:
    """Two exact checks of a threshold: the witness colouring of [value-1]
    leaves no constraint of ``cons_below`` monochromatic, and the alternate
    order refutes ``cons_at``, which may be peeled by ``_core``'s rule: for
    k >= 2 a colouring of the rest extends to a constraint with a member in
    no other. A second solve out of nodes has not agreed."""
    if not _colouring_is_free(colours, cons_below):
        return False
    try:
        return _backtrack_colouring(values_at, cons_at, k, alternate=True) is None
    except BudgetExceeded:
        return False


def _threshold(kind: str, k: int, params: dict, n_max: int, seed: int,
               t0: float, value: Optional[int],
               assign: Optional[Dict[int, int]], problem: Callable,
               refuted: Optional[Callable] = None) -> RamseyComputation:
    """The record of a threshold search begun at ``t0``: ``value`` is the
    least n whose ``problem(n)`` (values, constraints) has no k-colouring,
    or None past ``n_max``. The witness colours [value - 1] by ``assign``,
    values it leaves out in colour 1; ``_methods_agree`` re-checks it and
    refutes ``refuted(value)``, by default ``problem(value)``."""
    witness, agree = None, None
    if value is not None:
        colours = [1] * (value - 1)
        for v, c in (assign or {}).items():
            colours[v - 1] = c
        agree = _methods_agree(colours, problem(value - 1)[1], *(refuted or problem)(value), k)
        witness = {"n": value - 1, "colours": colours}
    comp = RamseyComputation(
        kind=kind, k=k, params=params, value=value, n_max=n_max,
        witness=witness, methods_agree=agree, seed=seed,
    )
    comp.wall_time = time.perf_counter() - t0
    return comp


def exp_ramsey_number(k: int, n_max: int = 10**5, *, seed: int = 0) -> RamseyComputation:
    """Least N such that every k-colouring of [N] has a monochromatic
    {a, b, a^b}. Ceilings that climb to ``n_max``, each the integer square
    root of the one above it and the least below 16, are solved in turn; a
    colouring at ``n_max`` means value None, and otherwise a binary search
    over the candidate power values between the last solvable ceiling and
    the first unsolvable one finds the least unsolvable one. Only the
    triples up to that ceiling are listed, and each probe's triples are a
    prefix of them. For k >= 2, ``_core`` peels each ceiling's triples
    once: a triple with a member in no other kept triple goes, as any
    colouring of the rest gives that member a colour unlike another's. A
    probe at n, and the second order's refutation behind ``methods_agree``,
    solve the core's triples with power <= n, which lie between the 2-core
    of the triples up to n and those triples: all three are k-colourable
    together, so only core powers can be the answer. The witness colouring
    of [N-1] is solved and re-checked on every triple. ``seed`` is recorded only.

    For k >= 2 the lifted system at M = ``n_max.bit_length() - 1`` comes
    first. Write n = r^l(n), r no perfect power (``root_exponent``). If g
    colours [1, M] with no {l, l(b), l*b} (l >= 1, b >= 2, l*b <= M)
    monochromatic, c(n) = g(l(n)) leaves no triple up to ``n_max``
    monochromatic: a^b = r^(l(a)*b), so l(a^b) = l(a)*b <= log2(a^b) <= M,
    and c maps {a, b, a^b} to a lifted constraint's colours. Such a g gives
    value None with no triple listed; without one the ladder runs.

    The ceiling below the first unsolvable one is below the answer, so the
    triples listed lie below the answer's square: below 16 for k = 1 and
    below 2^32 for k = 2. More than ``_TRIPLE_CAP`` triples up to ``n_max``,
    at an ``n_max`` above about 3.9 * 10^12, raise BudgetExceeded before
    any is listed."""
    if k < 1 or n_max < 1:
        raise ValueError(f"need k >= 1 and n_max >= 1, got k={k}, n_max={n_max}")
    from ._arith import _exp_tops
    t0 = time.perf_counter()
    _exp_tops(n_max, _TRIPLE_CAP)
    triples: List[Tuple[int, int, int]] = []
    core = triples

    def problem(n: int, peeled: bool = False) -> Tuple[List[int], List[Tuple[int, ...]]]:
        cons = core if peeled else triples
        cut = cons[:bisect.bisect_right(cons, n, key=lambda t: t[2])]
        return sorted({v for t in cut for v in t}), cut

    def unsolvable(n: int) -> bool:
        return _backtrack_colouring(*problem(n, True), k) is None

    m = n_max.bit_length() - 1
    if k >= 2 and _backtrack_colouring(
            list(range(1, m + 1)), _lifted_constraints(m), k) is not None:
        return _threshold("exptriple", k, {}, n_max, seed, t0, None, None, problem)

    # unsolvability is monotone in N: a valid colouring of [N] restricts to
    # any smaller range. A ceiling costs about the square root of the next
    # one up, so the climb costs little more than its last solve.
    ceilings = [n_max]
    while ceilings[-1] >= 16:
        ceilings.append(math.isqrt(ceilings[-1]))
    value, solved = None, 0
    for ceiling in reversed(ceilings):
        triples = _exp_triples_upto(ceiling)
        core = triples if k == 1 else _core(triples)
        if unsolvable(ceiling):
            candidates = sorted({p for _, _, p in core if p > solved})
            value = candidates[bisect.bisect_left(
                candidates, True, hi=len(candidates) - 1, key=unsolvable)]
            break
        solved = ceiling
    assign = None if value is None else _backtrack_colouring(*problem(value - 1), k)
    return _threshold("exptriple", k, {}, n_max, seed, t0, value, assign, problem,
                      lambda n: problem(n, True))


def _ap_constraints(n: int, length: int) -> List[Tuple[int, ...]]:
    out = []
    for d in range(1, (n - 1) // max(1, length - 1) + 1):
        for s in range(1, n - (length - 1) * d + 1):
            out.append(tuple(s + i * d for i in range(length)))
    return out


def vdw_number(k: int, length: int, n_max: int = 64, *, seed: int = 0) -> RamseyComputation:
    """Exact van der Waerden number W_k(length), climbing n from ``length``.
    The colouring of [n-1] extends to n where a colour fits: the first in
    use that is not closed (no progression ending at n has all its other
    members in it), or a fresh one while fewer than k are in use. Only
    where none fits is [n] solved, so the first n the solver refutes is W,
    as in a solve at every n. The witness, the solver's first colouring of
    [W-1] (solved again if extension reached W-1), is re-checked and a second
    order must refute [W] for ``methods_agree``. ``seed`` is recorded only."""
    if k < 1 or length < 2 or n_max < 1:
        raise ValueError("need k >= 1, progression length >= 2 and n_max >= 1")
    t0 = time.perf_counter()

    def problem(n: int) -> Tuple[List[int], List[Tuple[int, ...]]]:
        return list(range(1, n + 1)), _ap_constraints(n, length)

    # a colouring of [n - 1], and whether it is the solver's first one (with
    # no progression in [length - 1], that is all 1s)
    colours, solved, value = [1] * (length - 1), True, None
    for n in range(length, n_max + 1):
        closed = {colours[n - 1 - d] for d in range(1, (n - 1) // (length - 1) + 1)
                  if len({colours[n - 1 - i * d] for i in range(1, length)}) == 1}
        fit = next((c for c in range(1, min(k, max(colours) + 1) + 1)
                    if c not in closed), 0)
        if fit:
            colours.append(fit)
            solved = False
            continue
        found = _backtrack_colouring(*problem(n), k)
        if found is None:
            value = n
            break
        colours, solved = [found[v] for v in range(1, n + 1)], True
    assign = dict(enumerate(colours, 1))
    if value is not None and not solved:
        assign = _backtrack_colouring(*problem(value - 1), k)
    return _threshold("vdw", k, {"len": length}, n_max, seed, t0, value,
                      assign, problem)
