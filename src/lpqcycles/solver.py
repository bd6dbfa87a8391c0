"""Exact search for L(p,q)-labelings.

The engine is a forward-checking backtracker over packed color domains.
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
assignment) and in nothing else: the solver reads no clock, so whether a
budget runs out depends only on the input.  Exhausting the budget raises
BudgetExhausted, a third outcome distinct from "no labeling".  The
backtracker (_run) is a generator that pauses every 4096 nodes, and one
driver (_drive) resumes it, polls the budget at each pause and takes the
two searches of a race in turn; every search runs in the calling process.
A budget limits a whole public call: every span exact_lambda tries and
both searches of a race draw on the same nodes.

A witness search on a graph whose constrained pairs translations preserve
(tori, cyclic words, oriented cycles) lets vertex 0 try color 0 alone:
shifting a labeling down to least color 0 keeps every gap, and translating
a vertex of color 0 onto vertex 0 keeps it valid.  Elsewhere vertex 0
tries colors up to floor(k/2).  Counting and enumeration break no symmetry.
The pair -> gap map, the translation check and the forward lists of both
vertex orders are built once per public call; a search builds each color
mask when it first tries it, so nothing is built ahead of the first node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Generator, Iterable

import numpy as np

from .graphs import Digraph, ProductShape
from .labelings import ConstraintParams, DEFAULT_PARAMS, Labeling, constraint_pairs


@dataclass(frozen=True)
class SolveBudget:
    """Limit on one engine run, counted in search nodes only."""

    max_nodes: int = 10**9

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")


DEFAULT_BUDGET = SolveBudget()


class BudgetExhausted(RuntimeError):
    """Search ran out of nodes before reaching an answer."""

    def __init__(self, message: str, nodes: int) -> None:
        super().__init__(message)
        self.nodes = nodes


@dataclass(frozen=True)
class LambdaWitness:
    value: int
    witness: Labeling


_Forward = list[tuple[tuple[int, int], ...]]


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

    @cached_property
    def id_forward(self) -> _Forward:
        return _forward(self)

    @cached_property
    def count_forward(self) -> _Forward:
        """_forward in _count_order's order; id_forward where they agree."""
        order = _count_order(self)
        return self.id_forward if order == list(range(self.n_vertices)) else _forward(self, order)


def compile_constraints(
    g: Digraph,
    params: ConstraintParams,
    extra_pairs: Iterable[tuple[int, int, int]] = (),
) -> _Constraints:
    """The pair -> gap map of g and whether translations preserve it.

    extra_pairs adds (u, v, gap) constraints on top of the graph's own,
    merged by taking the larger gap.
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


def _forward(cons: _Constraints, order: list[int] | None = None) -> _Forward:
    """Forward adjacency over positions in order (id order when None):
    fwd[a] holds (b - a, gap) for each constrained position b > a, sorted,
    so positions with the same neighbourhood up to a shift share a key."""

    pos = list(range(cons.n_vertices))
    for i, v in enumerate(order or ()):
        pos[v] = i
    fwd: list[list[tuple[int, int]]] = [[] for _ in range(cons.n_vertices)]
    for u, v, gap in cons.pairs:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        fwd[a].append((b - a, gap))
    return [tuple(sorted(targets)) for targets in fwd]


@dataclass
class _Limits:
    """What one public call may still spend: the node cap and the nodes
    spent so far."""

    max_nodes: int
    spent: int = 0


def _limits(budget: SolveBudget) -> _Limits:
    return _Limits(budget.max_nodes)


# nodes a search spends between two budget polls, and the turn each search
# of a race takes
_SLICE = 4096

_Run = Generator[int, int, tuple[tuple[int, ...] | None, int, int]]


def _run(
    n_v: int,
    fwd: _Forward,
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

    Every domain lives in one int: position p owns bits p * (k + 2) on,
    k + 1 color bits under a guard bit that stays 0.  Adding data (every
    color bit set) carries into the guard of each nonzero field and never
    past it, so one AND assigns a color and one sum tests every domain for
    a wipeout.  doms[pos] is the int on entry to pos: backtracking returns
    to it and undoes nothing.  masks[pos][c] clears what c at pos forbids
    at its forward targets.  It is built when a node first tries c at pos,
    so memory grows with the nodes spent, from bits relative to pos that
    positions with one forward list share (most positions of a word).
    """

    width = k + 2
    full = (1 << (k + 1)) - 1
    ones = sum(1 << (p * width) for p in range(n_v))
    guard = ones << (k + 1)
    data = guard - ones
    masks: list[dict[int, int]] = [{} for _ in range(n_v)]
    forbids: dict[tuple[tuple[tuple[int, int], ...], int], int] = {}
    doms = [data] * n_v
    colors = [0] * n_v
    cand = [0] * n_v
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
        low = m & -m
        cand[pos] = m ^ low
        c = low.bit_length() - 1
        nodes += 1
        if nodes >= stop:
            stop = yield nodes
            nodes = 0
        mask = masks[pos].get(c)
        if mask is None:
            targets = fwd[pos]
            forbid = forbids.get((targets, c))
            if forbid is None:
                forbid = 0
                for offset, gap in targets:
                    lo, hi = max(0, c - gap + 1), min(k, c + gap - 1)
                    forbid |= ((1 << (hi - lo + 1)) - 1) << (offset * width + lo)
                forbids[targets, c] = forbid
            mask = masks[pos][c] = data ^ (forbid << (pos * width))
        new = doms[pos] & mask
        if (new + data) & guard != guard:
            continue
        colors[pos] = c
        if pos < last:
            pos += 1
            doms[pos] = new
            cand[pos] = new >> (pos * width) & full
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
    exhaustion raises there, with exactly max_nodes + 1 nodes spent.
    """

    try:
        limits.spent += run.send(min(_SLICE, limits.max_nodes + 1 - limits.spent))
    except StopIteration as end:
        witness, count, spent = end.value
        limits.spent += spent
        return witness, count
    if limits.spent > limits.max_nodes:
        raise BudgetExhausted(f"node budget of {limits.max_nodes} exhausted", limits.spent)
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


def _search(
    cons: _Constraints,
    k: int,
    limits: _Limits,
    first: bool = False,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
    race: bool = False,
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
    A witness search with race races one in the count order where that
    is not id order (see _drive), under the same first-vertex rule: either
    search finds a witness exactly when the span has one.

    Without first or visitor the search counts, in _count_order's order,
    and returns no witness.  Every search runs in the calling process.
    Returns (witness, count), where the witness is the least labeling, or
    None when there is none or the search did not look for one, and
    charges the nodes spent to limits.
    """

    if k < 0:
        raise ValueError("k must be nonnegative")
    counting = not first and visitor is None
    fwd = cons.count_forward if counting else cons.id_forward
    top = (0 if cons.transitive else k // 2) if first else k
    cand0 = (1 << (top + 1)) - 1
    n_v = cons.n_vertices
    rival = None
    if race and cons.count_forward is not cons.id_forward:
        rival = _run(n_v, cons.count_forward, k, cand0, True)
    witness, count = _drive(_run(n_v, fwd, k, cand0, first, visitor), limits, rival)
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
) -> LambdaWitness:
    """Smallest k admitting a k-L(p,q)-labeling of g, with its least witness.

    Tries k = 0, 1, 2, ..., all under one budget: the nodes spent on every
    span count against it.  The constraints and the count order
    (see count_labelings) are built once for the whole scan.  Each span
    runs exists_labeling's id-order search and a witness search in the
    count order in turn, 4096 nodes at a time, the count order first.  A
    count-order search that ends with no witness moves the scan on to the
    next span; one that ends with a witness leaves the id-order search to
    run on alone to the least witness; an id-order search that ends first
    settles the span.  The count order proves most infeasible spans far
    sooner, and a span costs at most twice the id-order nodes plus one
    slice of 4096.  Where the count order is id order (Cartesian tori)
    there is one search.  Every graph has a labeling at span
    (n - 1) * max(p, q) (color vertex i with i * max(p, q)), so the scan
    ends by that span; exists_labeling(g, k) answers whether the span is
    at most k.
    """

    limits = _limits(budget)
    cons = compile_constraints(g, params)
    k = 0
    while True:
        f, _count = _search(cons, k, limits, first=True, race=True)
        if f is not None:
            return LambdaWitness(k, f)
        k += 1


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

    Adding an extra pair (u, v, 1) counts exactly the labelings with
    f(u) != f(v).  A count does not assign vertices in id order: vertex 0
    comes first, then greedily the vertex with the most constrained pairs
    to those already placed, which spends a quarter to a third of the
    nodes on the strong window grid.  Every count runs in the calling
    process.  workers is a no-op: it must be at least 1 and changes
    nothing.  It stays only because bench/ still passes it, and goes with
    the bench edits of ROADMAP item 1.
    """

    if workers < 1:
        raise ValueError("workers must be positive")
    limits = _limits(budget)
    cons = compile_constraints(g, params, extra_pairs)
    _witness, count = _search(cons, k, limits)
    return count
