"""Exact search for L(p,q)-labelings.

The engine is a forward-checking backtracker over bitmask color domains.
Witness searches and enumeration with a visitor assign vertices in id
order and try colors in ascending order, so the first witness found is the
lexicographically least one and full enumeration emits labelings in
lexicographic order.  Counts do not: they assign vertices greedily by the
number of constrained pairs to those already placed (_count_order), which
prunes dead ends sooner, and return no labeling.  On each span it tries,
exact_lambda races a witness search in that order against the id-order
one: the count order proves most infeasible spans far sooner, and the
witness is always the id-order search's.
Work is metered in search nodes (one node per attempted color
assignment); exhausting the budget raises BudgetExhausted, a third
outcome distinct from "no labeling".  The backtracker (_run) is a
generator that pauses every 4096 nodes, and one driver (_drive) resumes
it, polls the budget at each pause and takes the two searches of a race
in turn.  A budget limits a whole public call: every span exact_lambda
tries, both searches of a race and every worker of a parallel count draw
on the same nodes and deadline.

A witness search on a graph whose constrained pairs translations preserve
(tori, cyclic words, oriented cycles) lets vertex 0 try color 0 alone:
shifting a labeling down to least color 0 keeps every gap, and translating
a vertex of color 0 onto vertex 0 keeps it valid.  Elsewhere vertex 0
tries colors up to floor(k/2).  Counting and enumeration break no symmetry.
The pair -> gap map and the translation check are compiled once per public
call; only the allow tables are rebuilt for each span, one set that both
searches of a race share.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Generator, Iterable

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


def _allow_table(gap: int, k: int) -> tuple[int, ...]:
    # allow_table[c] masks every color of 0..k at distance >= gap from c
    full = (1 << (k + 1)) - 1
    out = []
    for c in range(k + 1):
        lo = max(0, c - gap + 1)
        hi = min(k, c + gap - 1)
        out.append(full & ~(((1 << (hi - lo + 1)) - 1) << lo))
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
    merged by taking the larger gap.  The per-span allow tables are built
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


def _count_order(cons: _Constraints) -> list[int]:
    """The vertex order a count assigns in.

    Vertex 0 comes first, then at each step the unplaced vertex with the
    most constrained pairs to the placed ones, ties to the smallest id: a
    vertex is reached once its domain is already cut down, so dead ends
    show up early.  Stale heap entries are skipped, as scores only grow.
    """

    n = cons.n_vertices
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v, _gap in cons.pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    score = [0] * n
    placed = [False] * n
    heap = [(0, v) for v in range(n)]
    order = []
    while heap:
        _s, u = heapq.heappop(heap)
        if placed[u]:
            continue
        placed[u] = True
        order.append(u)
        for v in nbrs[u]:
            if not placed[v]:
                score[v] += 1
                heapq.heappush(heap, (-score[v], v))
    return order


def _allow_tables(cons: _Constraints, k: int) -> dict[int, tuple[int, ...]]:
    """The allow table of each gap at span k, shared by the forward
    adjacency of every order searched at that span."""

    return {gap: _allow_table(gap, k) for gap in {gap for _u, _v, gap in cons.pairs}}


def _forward(
    cons: _Constraints,
    tables: dict[int, tuple[int, ...]],
    order: list[int] | None = None,
) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Forward adjacency over positions in order (id order when None):
    fwd[a] lists (b, allow_table) for each constrained position b > a."""

    pos = list(range(cons.n_vertices))
    for i, v in enumerate(order or ()):
        pos[v] = i
    fwd: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(cons.n_vertices)]
    for u, v, gap in cons.pairs:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        fwd[a].append((b, tables[gap]))
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


# nodes a search spends between two budget polls, and the turn each search
# of a race takes
_SLICE = 4096

_Run = Generator[int, int, tuple[tuple[int, ...] | None, int, int]]


def _run(
    n_v: int,
    fwd: list[list[tuple[int, tuple[int, ...]]]],
    k: int,
    cand0: int,
    first: bool,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
) -> _Run:
    """Backtracking core over positions 0..n_v-1, as a generator that
    _drive resumes one slice at a time.

    After a first next(), each value sent is the number of nodes the
    search may spend before it pauses.  It yields the nodes spent since
    the last pause when it pauses, and at the end returns (witness, count,
    nodes spent since the last pause): with first the witness is the first
    labeling met or None, else None.  Each node makes one comparison
    against the pause point.
    """

    dom = [(1 << (k + 1)) - 1] * n_v
    colors = [0] * n_v
    cand = [0] * n_v
    # mark[pos] is the trail length when pos was entered; every color try
    # starts by undoing whatever was propagated since, which covers the try
    # before it and any positions above it that were backtracked out of.
    # The trail holds position, old domain, position, old domain, ...
    mark = [0] * n_v
    trail: list[int] = []
    last = n_v - 1
    nodes = 0
    stop = yield nodes
    count = 0
    pos = 0
    cand[0] = cand0
    while True:
        m = cand[pos]
        if not m:
            pos -= 1
            if pos < 0:
                return None, count, nodes
            continue
        t = mark[pos]
        while len(trail) > t:
            old = trail.pop()
            dom[trail.pop()] = old
        low = m & -m
        cand[pos] = m ^ low
        c = low.bit_length() - 1
        nodes += 1
        if nodes >= stop:
            stop = yield nodes
            nodes = 0
        colors[pos] = c
        for v, allow in fwd[pos]:
            old = dom[v]
            new = old & allow[c]
            if new != old:
                if not new:
                    break
                trail.append(v)
                trail.append(old)
                dom[v] = new
        else:
            if pos < last:
                pos += 1
                mark[pos] = len(trail)
                cand[pos] = dom[pos]
                continue
            if first:
                return tuple(colors), count, nodes
            count += 1
            if visitor is not None:
                visitor(tuple(colors))


def _advance(run: _Run, limits: _Limits) -> tuple[tuple[int, ...] | None, int] | None:
    """Resume run for one slice and charge its nodes to limits.  Returns
    its (witness, count) when the search ends, else None.

    The slice ends at the node past max_nodes if that comes first, so
    exhaustion raises there, with exactly max_nodes + 1 nodes spent; the
    deadline is polled at every pause.
    """

    try:
        limits.spent += run.send(min(_SLICE, limits.max_nodes + 1 - limits.spent))
    except StopIteration as end:
        witness, count, spent = end.value
        limits.spent += spent
        return witness, count
    if limits.spent > limits.max_nodes:
        raise BudgetExhausted(f"node budget of {limits.max_nodes} exhausted", limits.spent)
    if limits.deadline is not None and time.monotonic() > limits.deadline:
        raise BudgetExhausted("time cap exceeded", limits.spent)
    return None


def _drive(
    run: _Run, limits: _Limits, rival: _Run | None = None
) -> tuple[tuple[int, ...] | None, int]:
    """Advance run to its end under limits and return its (witness, count).

    A rival is a witness search over the same span in another vertex
    order.  It takes a slice before each of run's, both spend the one
    budget, and the span goes to whichever settles it first: a rival that
    ends with no witness proves that the span has none; one that ends with
    a witness shows that run will find one too, so run goes on alone to
    its own, the least.
    """

    next(run)
    if rival is not None:
        next(rival)
    while True:
        if rival is not None:
            end = _advance(rival, limits)
            if end is not None:
                if end[0] is None:
                    return end
                rival = None
        end = _advance(run, limits)
        if end is not None:
            return end


def _count_part(
    n_v: int,
    fwd: list[list[tuple[int, tuple[int, ...]]]],
    k: int,
    cand0: int,
    limits: _Limits,
) -> tuple[int, int]:
    """One pool worker's share of a count, driven in the worker under its
    copy of the call's limits.  Returns the count and the nodes spent."""

    spent = limits.spent
    _witness, count = _drive(_run(n_v, fwd, k, cand0, False), limits)
    return count, limits.spent - spent


def _search(
    cons: _Constraints,
    k: int,
    limits: _Limits,
    first: bool = False,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
    workers: int = 1,
    rival_order: list[int] | None = None,
) -> tuple[Labeling | None, int]:
    """The one search behind every public entry point.

    With first the search stops at the least witness, and the first vertex
    tries only the colors the least witness can start with.  When
    cons.transitive holds (tori, cyclic words, oriented cycles) that is 0
    alone: shifting a labeling down to least color 0 keeps every gap, and
    a translation carries a vertex of color 0 onto vertex 0.  Otherwise it
    is colors up to floor(k/2): the map c -> k - c carries a witness
    starting above that to a smaller one.  Witness searches and visitor
    enumeration assign vertices in id order, so the first labeling met is
    the least and a visitor sees every labeling in lexicographic order.
    A witness search given rival_order races a second witness search in
    that order (see _drive), under the same first-vertex rule: either
    search finds a witness exactly when the span has one.

    Without first or visitor the search counts, in _count_order's order,
    and returns no witness.  Vertex 0 still comes first, so its colors are
    what the pool deals: with workers > 1 a count deals them round-robin
    into min(workers, k + 1) parts, runs the parts on a process pool of at
    most os.cpu_count() processes and sums their counts and nodes; witness
    searches and visitor enumeration run in one process.  Nodes are summed
    before the budget check, so exhaustion does not depend on workers.
    Returns (witness, count), where the witness is the least labeling, or
    None when there is none or the search did not look for one, and
    charges the nodes spent to limits.
    """

    if k < 0:
        raise ValueError("k must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be positive")
    counting = not first and visitor is None
    tables = _allow_tables(cons, k)
    fwd = _forward(cons, tables, _count_order(cons) if counting else None)
    top = (0 if cons.transitive else k // 2) if first else k
    masks = [0] * (workers if counting else 1)
    for c in range(top + 1):
        masks[c % len(masks)] |= 1 << c
    masks = [mask for mask in masks if mask]
    n_v = cons.n_vertices
    if len(masks) > 1:
        with ProcessPoolExecutor(max_workers=min(len(masks), os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_count_part, n_v, fwd, k, mask, limits) for mask in masks]
            parts = [future.result() for future in futures]
        limits.spent += sum(spent for _count, spent in parts)
        if limits.spent > limits.max_nodes:
            raise BudgetExhausted(f"node budget of {limits.max_nodes} exhausted", limits.spent)
        return None, sum(count for count, _spent in parts)
    rival = None
    if rival_order is not None:
        rival = _run(n_v, _forward(cons, tables, rival_order), k, masks[0], True)
    witness, count = _drive(_run(n_v, fwd, k, masks[0], first, visitor), limits, rival)
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

    Tries k = 0, 1, 2, ..., all under one budget: the nodes and time spent
    on every span count against it.  The constraints and the count order
    (see count_labelings) are built once for the whole scan.  Each span
    runs exists_labeling's id-order search and a witness search in the
    count order in turn, 4096 nodes at a time, the count order first.  A
    count-order search that ends with no witness moves the scan on to the
    next span; one that ends with a witness leaves the id-order search to
    run on alone to the least witness; an id-order search that ends first
    settles the span.  The count order proves most infeasible spans far
    sooner, and a span costs at most twice the id-order nodes plus one
    slice of 4096.  Where the count order is id order (Cartesian tori)
    there is one search.  Every graph is satisfiable at
    (n - 1) * max(p, q), which bounds the scan; a k_max below the true
    value raises RuntimeError rather than returning a wrong answer.
    """

    ceiling = (g.n_vertices - 1) * max(params.p, params.q)
    if k_max is None:
        k_max = ceiling
    limits = _limits(budget)
    cons = compile_constraints(g, params)
    order = _count_order(cons)
    rival_order = None if order == list(range(cons.n_vertices)) else order
    for k in range(min(k_max, ceiling) + 1):
        f, _count = _search(cons, k, limits, first=True, rival_order=rival_order)
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
    """Count all k-L(p,q)-labelings of g, showing each to visitor in
    lexicographic order.

    No symmetry reduction is applied: the count is over all labelings, and
    the optional visitor sees every color tuple exactly once, in order:
    with a visitor the search assigns vertices in id order.  Without one
    it is a count, run in count_labelings' order.
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
    (u, v, 1) counts exactly the labelings with f(u) != f(v).  A count
    does not assign vertices in id order: vertex 0 comes first, then
    greedily the vertex with the most constrained pairs to those already
    placed, which spends a quarter to a third of the nodes on the strong
    window grid.  With workers > 1 the first vertex's colors are
    partitioned round-robin into parts, run on at most os.cpu_count()
    processes.  The workers share one budget: their nodes are summed
    before the budget check and the counts are summed, so both the result
    and whether the budget runs out are independent of worker count.
    """

    limits = _limits(budget)
    cons = compile_constraints(g, params, extra_pairs)
    _witness, count = _search(cons, k, limits, workers=workers)
    return count
