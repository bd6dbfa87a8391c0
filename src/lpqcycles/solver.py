"""Exact search for L(p,q)-labelings.

The engine is a forward-checking backtracker over bitmask color domains.
Vertices are assigned in id order and colors are tried in ascending order,
so the first witness found is the lexicographically least one and full
enumeration emits labelings in lexicographic order.  Work is metered in
search nodes (one node per attempted color assignment); exhausting the
budget raises BudgetExhausted, a third outcome distinct from "no labeling".
A budget limits a whole public call: every span exact_lambda tries and
every worker of a parallel count draw on the same nodes and deadline.

A witness search on a graph whose constrained pairs translations preserve
(tori, cyclic words, oriented cycles) lets vertex 0 try color 0 alone:
shifting a labeling down to least color 0 keeps every gap, and translating
a vertex of color 0 onto vertex 0 keeps it valid.  Elsewhere vertex 0
tries colors up to floor(k/2).  Counting and enumeration break no symmetry.
The pair -> gap map and the translation check are compiled once per public
call; only the forbid tables are rebuilt for each span.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graphs import Digraph, ProductShape
from .labelings import ConstraintParams, DEFAULT_PARAMS, Labeling, constraint_pairs


@dataclass(frozen=True)
class SolveBudget:
    """Limits on one engine run: search nodes and, optionally, wall time."""

    max_nodes: int = 10**9
    time_cap: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.time_cap is not None and self.time_cap <= 0:
            raise ValueError("time_cap must be positive")


DEFAULT_BUDGET = SolveBudget()


class BudgetExhausted(RuntimeError):
    """Search ran out of nodes or time before reaching an answer."""

    def __init__(self, message: str, nodes: int) -> None:
        super().__init__(message)
        self.nodes = nodes

    def __reduce__(self):
        # a worker's exhaustion is pickled back to the parent process
        return type(self), (str(self), self.nodes)


@dataclass(frozen=True)
class LambdaWitness:
    value: int
    witness: Labeling


def _forbid_table(gap: int, k: int) -> tuple[int, ...]:
    # forbid_table[c] masks every color within distance < gap of c
    out = []
    for c in range(k + 1):
        lo = max(0, c - gap + 1)
        hi = min(k, c + gap - 1)
        out.append(((1 << (hi - lo + 1)) - 1) << lo)
    return tuple(out)


@dataclass(frozen=True)
class _Constraints:
    """One graph's constraints, compiled once per public call.

    pairs lists every constrained (u, v, gap) with u < v and gap > 0, in
    sorted order; transitive says that translations keep every pair and
    its gap and move every vertex onto vertex 0 (see _transitive).
    """

    n_vertices: int
    shape: ProductShape | None
    pairs: tuple[tuple[int, int, int], ...]
    transitive: bool


def compile_constraints(
    g: Digraph,
    params: ConstraintParams,
    extra_pairs: Iterable[tuple[int, int, int]] = (),
) -> _Constraints:
    """The pair -> gap map of g and whether translations preserve it.

    extra_pairs adds (u, v, gap) constraints on top of the graph's own,
    merged by taking the larger gap.  The per-span forbid tables are built
    from the result by _forward.
    """

    gaps: dict[tuple[int, int], int] = {
        pair: gap for pair, (gap, _kind) in constraint_pairs(g, params).items()
    }
    for u, v, gap in extra_pairs:
        if u == v or not (0 <= u < g.n_vertices and 0 <= v < g.n_vertices):
            raise ValueError(f"bad extra pair ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        gaps[key] = max(gap, gaps.get(key, 0))
    gaps = {pair: gap for pair, gap in gaps.items() if gap > 0}
    pairs = tuple((u, v, gap) for (u, v), gap in sorted(gaps.items()))
    return _Constraints(g.n_vertices, g.shape, pairs, _transitive(gaps, g.n_vertices, g.shape))


def _transitive(
    gaps: dict[tuple[int, int], int], n: int, shape: ProductShape | None
) -> bool:
    """Whether the row and the column shift keep every pair and its gap.

    The ids are read row-major as a torus: the shape's, when it claims one
    of n cells, else a single row of n, whose column shift is the rotation
    v -> v + 1 mod n.  The two shifts move every vertex onto vertex 0, and
    a shift that sends each pair to a pair of the same gap permutes the
    pairs, so one lookup per pair and shift decides invariance whatever
    the shape claims.
    """

    cols = n
    if shape is not None and shape.cyclic and shape.rows * shape.cols == n:
        cols = shape.cols

    def row_shift(v: int) -> int:
        return (v + cols) % n

    def col_shift(v: int) -> int:
        return v - v % cols + (v + 1) % cols

    for (u, v), gap in gaps.items():
        for shift in (row_shift, col_shift):
            a, b = shift(u), shift(v)
            if gaps.get((a, b) if a < b else (b, a)) != gap:
                return False
    return True


def _forward(cons: _Constraints, k: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Forward adjacency at span k: fwd[u] lists (v, forbid_table) for the
    constrained v > u."""

    tables: dict[int, tuple[int, ...]] = {}
    fwd: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(cons.n_vertices)]
    for u, v, gap in cons.pairs:
        if gap not in tables:
            tables[gap] = _forbid_table(gap, k)
        fwd[u].append((v, tables[gap]))
    return fwd


@dataclass
class _Limits:
    """What one public call may still spend: the node cap, the nodes spent
    so far, and an absolute deadline on the monotonic clock."""

    max_nodes: int
    deadline: float | None
    spent: int = 0


def _limits(budget: SolveBudget) -> _Limits:
    deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap
    return _Limits(budget.max_nodes, deadline)


def _run(
    n_v: int,
    fwd: list[list[tuple[int, tuple[int, ...]]]],
    k: int,
    cand0: int,
    first: bool,
    max_nodes: int,
    deadline: float | None,
    nodes: int,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
) -> tuple[tuple[int, ...] | None, int, int]:
    """Backtracking core.  Returns (first witness or None, count, nodes).

    The node counter starts at `nodes`, the call's spend so far, so that
    max_nodes caps the whole call.
    """

    full = (1 << (k + 1)) - 1
    dom = [full] * n_v
    colors = [0] * n_v
    cand = [0] * n_v
    # mark[pos] is the trail length when pos was entered; every color try
    # starts by undoing whatever was propagated since, which covers the try
    # before it and any positions above it that were backtracked out of
    mark = [0] * n_v
    trail_v: list[int] = []
    trail_m: list[int] = []
    least = None
    count = 0
    pos = 0
    cand[0] = cand0
    while True:
        m = cand[pos]
        if m == 0:
            pos -= 1
            if pos < 0:
                return least, count, nodes
            continue
        t = mark[pos]
        while len(trail_v) > t:
            dom[trail_v.pop()] = trail_m.pop()
        c = (m & -m).bit_length() - 1
        cand[pos] = m & (m - 1)
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExhausted(f"node budget of {max_nodes} exhausted", nodes)
        if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetExhausted("time cap exceeded", nodes)
        colors[pos] = c
        ok = True
        for v, forbid in fwd[pos]:
            old = dom[v]
            new = old & ~forbid[c]
            if new != old:
                trail_v.append(v)
                trail_m.append(old)
                dom[v] = new
                if new == 0:
                    ok = False
                    break
        if not ok:
            continue
        if pos + 1 == n_v:
            if first:
                return tuple(colors), count, nodes
            if least is None:
                least = tuple(colors)
            count += 1
            if visitor is not None:
                visitor(tuple(colors))
            continue
        pos += 1
        mark[pos] = len(trail_v)
        cand[pos] = dom[pos]


def _search(
    cons: _Constraints,
    k: int,
    limits: _Limits,
    first: bool = False,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
    workers: int = 1,
) -> tuple[Labeling | None, int]:
    """The one search behind every public entry point.

    With first the search stops at the least witness, and the first vertex
    tries only the colors the least witness can start with.  When
    cons.transitive holds (tori, cyclic words, oriented cycles) that is 0
    alone: shifting a labeling down to least color 0 keeps every gap, and
    a translation carries a vertex of color 0 onto vertex 0.  Otherwise it
    is colors up to floor(k/2): the map c -> k - c carries a witness
    starting above that to a smaller one.  Without first the search counts
    every labeling, showing each to visitor, and keeps the first it meets,
    which is the least.  With workers > 1 the first vertex's colors are
    dealt round-robin over a process pool, and the parts merge into the
    least witness, the summed count and the summed nodes.  Nodes are
    summed before the budget check, so exhaustion does not depend on
    workers.  Returns (least witness or None, count) in both modes and
    charges the nodes spent to limits.
    """

    if k < 0:
        raise ValueError("k must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be positive")
    fwd = _forward(cons, k)
    top = (0 if cons.transitive else k // 2) if first else k
    masks = [0] * workers
    for c in range(top + 1):
        masks[c % workers] |= 1 << c
    masks = [mask for mask in masks if mask]
    spent = limits.spent
    run_limits = (limits.max_nodes, limits.deadline, spent)
    if len(masks) == 1:
        parts = [_run(cons.n_vertices, fwd, k, masks[0], first, *run_limits, visitor)]
    else:
        with ProcessPoolExecutor(max_workers=len(masks)) as pool:
            futures = [
                pool.submit(_run, cons.n_vertices, fwd, k, mask, first, *run_limits)
                for mask in masks
            ]
            parts = [future.result() for future in futures]

    # each part's node counter started from spent
    limits.spent = spent + sum(nodes - spent for _w, _count, nodes in parts)
    if limits.spent > limits.max_nodes:
        raise BudgetExhausted(f"node budget of {limits.max_nodes} exhausted", limits.spent)
    witness = min((w for w, _count, _nodes in parts if w is not None), default=None)
    count = sum(count for _w, count, _nodes in parts)
    if witness is None:
        return None, count
    return Labeling(np.array(witness, dtype=np.int64), k, cons.shape), count


def exists_labeling(
    g: Digraph,
    k: int,
    params: ConstraintParams = DEFAULT_PARAMS,
    budget: SolveBudget = DEFAULT_BUDGET,
    extra_pairs: Iterable[tuple[int, int, int]] = (),
) -> Labeling | None:
    """Lexicographically least k-L(p,q)-labeling of g, or None.

    The first vertex only tries colors the least witness can start with.
    Where translations keep every constrained pair (tori, cyclic words,
    oriented cycles) that is 0 alone: shift a labeling down to least color
    0, then translate a vertex of color 0 onto vertex 0.  Elsewhere it is
    colors up to floor(k/2), since c -> k - c keeps every separation,
    extra pairs included.  extra_pairs works as in count_labelings; the
    cyclic word search (patterns.exists_cycle_pattern) is such a call on
    an edgeless graph.
    """

    limits = _limits(budget)
    cons = compile_constraints(g, params, extra_pairs)
    witness, _count = _search(cons, k, limits, first=True)
    return witness


def exact_lambda(
    g: Digraph,
    params: ConstraintParams = DEFAULT_PARAMS,
    budget: SolveBudget = DEFAULT_BUDGET,
    k_max: int | None = None,
) -> LambdaWitness:
    """Smallest k admitting a k-L(p,q)-labeling of g, with its least witness.

    Tries k = 0, 1, 2, ... as exists_labeling does, all under one budget:
    the nodes and time spent on every span count against it.  The
    constraints are compiled once for the whole scan.  Every graph is
    satisfiable at (n - 1) * max(p, q), which bounds the scan; a k_max
    below the true value raises RuntimeError rather than returning a wrong
    answer.
    """

    ceiling = (g.n_vertices - 1) * max(params.p, params.q)
    if k_max is None:
        k_max = ceiling
    limits = _limits(budget)
    cons = compile_constraints(g, params)
    for k in range(min(k_max, ceiling) + 1):
        f, _count = _search(cons, k, limits, first=True)
        if f is not None:
            return LambdaWitness(k, f)
    raise RuntimeError(f"no labeling with span <= {k_max}; k_max is too small")


def enumerate_labelings(
    g: Digraph,
    k: int,
    params: ConstraintParams = DEFAULT_PARAMS,
    budget: SolveBudget = DEFAULT_BUDGET,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
) -> int:
    """Count all k-L(p,q)-labelings of g, in lexicographic order.

    No symmetry reduction is applied: the count is over all labelings, and
    the optional visitor sees every color tuple exactly once, in order.
    """

    limits = _limits(budget)
    _witness, count = _search(compile_constraints(g, params), k, limits, visitor=visitor)
    return count


def count_labelings(
    g: Digraph,
    k: int,
    params: ConstraintParams = DEFAULT_PARAMS,
    extra_pairs: Iterable[tuple[int, int, int]] = (),
    budget: SolveBudget = DEFAULT_BUDGET,
    workers: int = 1,
) -> int:
    """Number of k-L(p,q)-labelings satisfying the extra constraints too.

    The workhorse behind the identity verifiers: adding an extra pair
    (u, v, 1) counts exactly the labelings with f(u) != f(v).  With
    workers > 1 the first vertex's colors are partitioned round-robin
    across processes.  The workers share one budget: their nodes are
    summed before the budget check and the counts are summed, so both the
    result and whether the budget runs out are independent of worker count.
    """

    limits = _limits(budget)
    cons = compile_constraints(g, params, extra_pairs)
    _witness, count = _search(cons, k, limits, workers=workers)
    return count
