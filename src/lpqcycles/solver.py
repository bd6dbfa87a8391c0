"""Exact search for L(p,q)-labelings.

The engine is a forward-checking backtracker over packed color domains
that gives every vertex left with one color that color before it
branches again (unit propagation).  Witness searches and enumeration
with a visitor branch on vertices in id order and try colors in
ascending order; a forced vertex never branches, so the first witness
found is the lexicographically least one and full enumeration emits
labelings in lexicographic order.  Counts do not: they branch on
vertices greedily by the number of constrained pairs to those already
placed (_count_order), which prunes dead ends sooner, and return no
labeling.  On each span it tries, exact_lambda races a witness search in
that order against the id-order one: the count order proves most
infeasible spans far sooner, and the witness is always the id-order
search's.

Work is metered in search nodes (one node per attempted color
assignment, forced ones included) and in nothing else: the solver reads
no clock, so whether a budget runs out depends only on the input.  A
budget limits a whole public call: every span exact_lambda tries and
both searches of a race draw on the same _Limits.  The backtracker
(_run) charges its own nodes to them every 4096 nodes and when it ends,
and raises BudgetExhausted at the node past the cap, a third outcome
distinct from "no labeling".  It pauses after each charge, and _drive
resumes it, giving the two searches of a race turns; every search runs
in the calling process.

Searches skip labelings that a symmetry of the constraints carries onto
another one they keep, by rules that keep the least witness, so a
witness search still meets the least witness first.  A witness search on
a graph whose constrained pairs translations preserve (tori, cyclic
words, oriented cycles) lets vertex 0 try color 0 alone: shifting a
labeling down to least color 0 keeps every gap, and translating a vertex
of color 0 onto vertex 0 keeps it valid.  There the point reflection
N: v -> -v fixes vertex 0 and keeps every pair too, so vertex 1 must
also take at most the color of N(1): the least witness w does, since w
after N is a witness that agrees with w at vertex 0 and has w(N(1)) at
vertex 1, and is no smaller.  Elsewhere vertex 0 tries colors up to
floor(k/2), since c -> k - c carries a witness starting above that to a
smaller one.  A count halves its work by the same color reversal, which
keeps every gap: vertex 0 runs over the colors up to k/2 in one search,
and each labeling with vertex 0 below k/2 stands for two.  Enumeration
with a visitor breaks no symmetry.  The pair -> gap map, the translation
check and the neighbour lists of both vertex orders are built once per
public call; a search builds each color mask when it first tries it, so
nothing is built ahead of the first node.  The search works on Python
ints and tuples and imports no numpy: a witness comes out of _search as
its color tuple, and exists_labeling and exact_lambda wrap it in a
Labeling, whose colors are a numpy array.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Generator, Iterable

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
    """One graph's or cyclic word's constraints, compiled once per call.

    pairs lists every constrained (u, v, gap) with u < v and gap > 0, in
    sorted order; transitive says that translations keep every pair and
    its gap and move every vertex onto vertex 0 (see _transitive).
    """

    n_vertices: int
    shape: ProductShape | None
    pairs: tuple[tuple[int, int, int], ...]
    transitive: bool

    @cached_property
    def mirror(self) -> int | None:
        """N(1), where N is the point reflection v -> -v of the torus the
        ids are read as (see _cols), when transitive holds and N(1) is not
        vertex 1 itself; else None.  N fixes vertex 0 and keeps every pair
        that translations keep: {-u, -v} is {u, v} shifted by -(u + v)."""

        n, cols = self.n_vertices, _cols(self.n_vertices, self.shape)
        image = cols - 1 if cols > 1 else n - 1
        return image if self.transitive and image > 1 else None

    @cached_property
    def count_order(self) -> list[int]:
        return _count_order(self)

    @cached_property
    def id_forward(self) -> _Forward:
        return _forward(self)

    @cached_property
    def count_forward(self) -> _Forward:
        """_forward in count_order; id_forward where they agree."""
        order = self.count_order
        return self.id_forward if order == list(range(self.n_vertices)) else _forward(self, order)


def _compile_pairs(
    n: int, shape: ProductShape | None, triples: Iterable[tuple[int, int, int]]
) -> _Constraints:
    """The constraints of (u, v, gap) triples on vertices 0..n-1.

    A pair given more than once keeps its larger gap, a gap of 0 or less
    constrains nothing, and the pairs come out sorted with u < v.
    """

    gaps: dict[tuple[int, int], int] = {}
    for u, v, gap in triples:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad pair ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if gap > gaps.get(key, 0):
            gaps[key] = gap
    pairs = tuple((u, v, gap) for (u, v), gap in sorted(gaps.items()))
    return _Constraints(n, shape, pairs, _transitive(gaps, n, _cols(n, shape)))


def compile_constraints(g: Digraph, params: ConstraintParams) -> _Constraints:
    """The pair -> gap map of g and whether translations preserve it."""

    triples = ((u, v, gap) for (u, v), (gap, _kind) in constraint_pairs(g, params).items())
    return _compile_pairs(g.n_vertices, g.shape, triples)


def _cols(n: int, shape: ProductShape | None) -> int:
    """The columns of the torus the ids 0..n-1 are read as, row-major: the
    shape's, when it claims a torus of n cells, else n (a single row)."""

    if shape is not None and shape.cyclic and shape.rows * shape.cols == n:
        return shape.cols
    return n


def _transitive(gaps: dict[tuple[int, int], int], n: int, cols: int) -> bool:
    """Whether the row and the column shift of the torus with cols columns
    (see _cols) keep every pair and its gap.

    A single row's column shift is the rotation v -> v + 1 mod n.  The two
    shifts move every vertex onto vertex 0, and a shift that sends each
    pair to a pair of the same gap permutes the pairs, so one lookup per
    pair and shift decides invariance whatever the shape claims.
    """

    for (u, v), gap in gaps.items():
        if cols < n:  # the row shift v -> v + cols mod n; one row is its own shift
            a, b = (u + cols) % n, (v + cols) % n
            if gaps.get((a, b) if a < b else (b, a)) != gap:
                return False
        # the column shift, within the row
        a, b = u - u % cols + (u + 1) % cols, v - v % cols + (v + 1) % cols
        if gaps.get((a, b) if a < b else (b, a)) != gap:
            return False
    return True


def _count_order(cons: _Constraints) -> list[int]:
    """The vertex order a count searches in.

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
    """Adjacency over positions in order (id order when None): fwd[a]
    holds (b - a, gap) for each position b constrained with a, before or
    after it, sorted, so positions with the same neighbourhood up to a
    shift share a key."""

    pos = list(range(cons.n_vertices))
    for i, v in enumerate(order or ()):
        pos[v] = i
    fwd: list[list[tuple[int, int]]] = [[] for _ in range(cons.n_vertices)]
    for u, v, gap in cons.pairs:
        a, b = pos[u], pos[v]
        fwd[a].append((b - a, gap))
        fwd[b].append((a - b, gap))
    return [tuple(sorted(targets)) for targets in fwd]


@dataclass
class _Limits:
    """What one public call may still spend: the node cap and the nodes
    spent so far."""

    max_nodes: int
    spent: int = 0


# nodes a search spends between two charges to its limits, and the turn
# each search of a race takes
_SLICE = 4096

_Run = Generator[None, None, tuple[tuple[int, ...] | None, list[int]]]


def _run(
    n_v: int,
    fwd: _Forward,
    k: int,
    cand0: int,
    first: bool,
    limits: _Limits,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
    rule: tuple[int, int] | None = None,
) -> _Run:
    """Backtracking core over positions 0..n_v-1, as a generator that
    charges its own nodes to limits.

    It pauses with a bare yield once it has spent 4096 nodes (_SLICE)
    since it started or last resumed, or sooner at the node past
    limits.max_nodes.  At each pause it adds those nodes to limits.spent
    and raises BudgetExhausted if they pass the cap, so exhaustion comes
    with exactly max_nodes + 1 nodes spent.  The pause point is worked
    out from limits when it starts and again each time it resumes, since
    the other search of a race charges the same limits in between.  When
    the search ends it charges the rest and returns (witness, split):
    with first the witness is the first labeling met or None, else None.
    Position 0 tries the colors in cand0, and split[c] counts the
    labelings met with it at color c, for c up to the highest of them
    (none with first, which stops at its witness).  Each node makes one
    comparison against the pause point.

    Every domain lives in one int.  Position p owns the k + 2 bits from
    (n_v - 1 - p) * (k + 2) on, so the lowest position holds the highest
    field, one bit_length away: k + 1 color bits under a guard bit that
    stays 0.  masks[pos][c] cuts the field of pos to c and clears what c
    forbids at every position constrained with pos, before or after it,
    so one AND assigns c.  It also sets the guard bits of those positions,
    which no domain holds: ANDed with the guard bits of the unassigned
    positions (left), it names the fields the assignment touched.  An
    assigned field holds its one color, which every later mask leaves in
    place, so only a touched unassigned field can empty or drop to one
    color.  Subtracting ones lowers every field by one: an empty field
    borrows into its guard bit (a wipeout, and a dead end), and ANDed back
    with the domains the difference leaves a field zero exactly where it
    held one color, which the carry of adding data shows.  A mask is built
    when a node first tries c at pos, from the window c forbids at each
    gap spread over the offsets of pos's neighbours (positions with one
    neighbour list, most positions of a word, share it), so memory grows
    with the nodes spent.

    A rule (a, b) admits only labelings with color(a) <= color(b), and
    lives in the masks of a and b: a at c also clears the colors below c
    from b's field, b at c those above c from a's, and either sets the
    other's guard bit, so forcing and wipeouts see the cut as they see a
    gap's.

    One step assigns a color: it counts a node, fetches or builds the
    mask, ANDs it in and tests the touched fields for a wipeout and for
    positions left with one color.  A branch seeds it, and it runs again
    for the forced positions: while one is left, the lowest takes its
    color, until none is left or a domain empties.  Then the lowest
    unassigned position branches over its colors, ascending.
    Branching positions rise along a path, so each keeps its own entry:
    the domains and the unassigned positions on entry, the colors still to
    try and the branching position before it.  Backtracking undoes
    nothing.  A forced position never branches, so the labelings still
    come in lexicographic order of the positions.
    """

    width = k + 2
    full = (1 << (k + 1)) - 1
    ones = ((1 << (n_v * width)) - 1) // ((1 << width) - 1)
    guard = ones << (k + 1)
    data = guard - ones
    masks: list[dict[int, int]] = [{} for _ in range(n_v)]
    # per neighbour list: for each gap, a 1 in the lowest bit of each
    # neighbour's field, relative to the lowest neighbour; times the window
    # a color forbids at that gap it repeats the window in every field
    spreads: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}

    def build(pos: int, c: int) -> int:
        targets = fwd[pos]
        top = max(targets[-1][0], 0) if targets else 0
        spread = spreads.get(targets)
        if spread is None:
            by_gap: dict[int, int] = {}
            for offset, gap in targets:
                by_gap[gap] = by_gap.get(gap, 0) | 1 << ((top - offset) * width)
            spread = spreads[targets] = tuple(by_gap.items())
        forbid = (full ^ (1 << c)) << (top * width)
        for gap, fields in spread:
            lo, hi = max(0, c - gap + 1), min(k, c + gap - 1)
            forbid |= fields * (((1 << (hi - lo + 1)) - 1) << lo | 1 << (k + 1))
        forbid <<= (n_v - 1 - pos - top) * width
        if rule is not None and pos in rule:
            if pos == rule[0]:
                other, cut = rule[1], (1 << c) - 1  # the colors below c
            else:
                other, cut = rule[0], full >> (c + 1) << (c + 1)  # those above c
            forbid |= (cut | 1 << (k + 1)) << ((n_v - 1 - other) * width)
        mask = masks[pos][c] = data ^ forbid
        return mask

    colors = [0] * n_v
    # per branching position on the current path: the one before it, the
    # domains on entry, the guard bits of the other unassigned positions,
    # and the colors it has still to try
    back = [-1] * n_v
    doms = [data] * n_v
    free = [guard >> width] * n_v
    cand = [0] * n_v
    split = [0] * cand0.bit_length()
    nodes = 0
    stop = min(_SLICE, limits.max_nodes + 1 - limits.spent)
    witness = None
    b = 0
    cand[0] = cand0
    while True:
        m = cand[b]
        if not m:
            b = back[b]
            if b < 0:
                break
            continue
        low = m & -m
        cand[b] = m ^ low
        pos, c = b, low.bit_length() - 1
        new, left, forced = doms[b], free[b], 0
        while True:  # assign c to pos, then each forced color in turn
            colors[pos] = c
            nodes += 1
            if nodes >= stop:
                limits.spent += nodes
                nodes = 0
                if limits.spent > limits.max_nodes:
                    raise BudgetExhausted(
                        f"node budget of {limits.max_nodes} exhausted", limits.spent)
                yield
                stop = min(_SLICE, limits.max_nodes + 1 - limits.spent)
            try:
                mask = masks[pos][c]
            except KeyError:
                mask = build(pos, c)
            new &= mask
            touched = mask & left
            if touched:
                less = new - ones
                if less & guard:
                    new = 0
                    break
                forced |= (new & less) + data & touched ^ touched
            if not forced:
                break
            bits = forced.bit_length()
            low = 1 << (bits - 1)
            forced ^= low
            left ^= low
            pos = n_v - bits // width
            c = (new >> (bits - width) & full).bit_length() - 1
        if not new:
            continue
        if left:
            bits = left.bit_length()
            nxt = n_v - bits // width
            back[nxt] = b
            b = nxt
            doms[b] = new
            free[b] = left ^ 1 << (bits - 1)
            cand[b] = new >> (bits - width) & full
            continue
        if first:
            witness = tuple(colors)
            break
        split[colors[0]] += 1
        if visitor is not None:
            visitor(tuple(colors))
    limits.spent += nodes
    return witness, split


def _drive(run: _Run, rival: _Run | None = None) -> tuple[tuple[int, ...] | None, list[int]]:
    """Resume run, and a rival before each of its turns, until run ends;
    return its (witness, split).

    A rival is a witness search over the same span in another vertex
    order, charging the same limits.  The span goes to whichever search
    settles it first: a rival that ends with no witness proves that the
    span has none; one that ends with a witness shows that run will find
    one too, so run goes on alone to its own, the least.
    """

    while True:
        if rival is not None:
            try:
                next(rival)
            except StopIteration as end:
                if end.value[0] is None:
                    return end.value
                rival = None
        try:
            next(run)
        except StopIteration as end:
            return end.value


def _search(
    cons: _Constraints,
    k: int,
    limits: _Limits,
    first: bool = False,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
    race: bool = False,
) -> tuple[tuple[int, ...] | None, int]:
    """The one search behind every public entry point.

    With first the search stops at the least witness, under the symmetry
    rules of the module docstring: vertex 0 tries color 0 alone when
    cons.transitive holds, and then vertex 1 takes at most the color of
    cons.mirror; otherwise vertex 0 tries colors up to floor(k/2).
    Witness searches and visitor enumeration branch on vertices in id
    order, so the first labeling met is the least and a visitor sees every
    labeling in lexicographic order; enumeration breaks no symmetry.  A
    witness search with race races one in the count order where that is
    not id order (see _drive), under the same rules: either search finds a
    witness exactly when the span has one.

    Without first or visitor the search counts, in count_order, and returns
    no witness: vertex 0 runs over the colors up to k/2, and the count
    doubles all labelings of _run's split but those at k/2 when k is even.
    Every call drives one _run, plus a race's rival, in the calling
    process, and both charge limits.  Returns (witness, count), where the
    witness is the least labeling's color tuple, or None when there is none
    or the search did not look for one.  The public callers wrap a witness
    in a Labeling; the word search reads the tuple as it is.
    """

    if k < 0:
        raise ValueError("k must be nonnegative")
    n_v = cons.n_vertices
    counting = not first and visitor is None
    top = 0 if first and cons.transitive else k // 2 if first or counting else k
    cand0 = (1 << (top + 1)) - 1
    rule = (1, cons.mirror) if first and cons.mirror is not None else None
    rival = None
    if race and cons.count_forward is not cons.id_forward:
        order = cons.count_order
        rival = _run(n_v, cons.count_forward, k, cand0, True, limits,
                     rule=rule and (order.index(rule[0]), order.index(rule[1])))
    fwd = cons.count_forward if counting else cons.id_forward
    witness, split = _drive(_run(n_v, fwd, k, cand0, first, limits, visitor, rule), rival)
    if not counting:
        return witness, sum(split)
    return None, 2 * sum(split) - (0 if k % 2 else split[k // 2])


def exists_labeling(
    g: Digraph,
    k: int,
    params: ConstraintParams = DEFAULT_PARAMS,
    budget: SolveBudget = DEFAULT_BUDGET,
) -> Labeling | None:
    """Lexicographically least k-L(p,q)-labeling of g, or None.

    The search skips only labelings that a symmetry of g's constraints
    carries onto a smaller one (see the module docstring), so it meets the
    least witness first.
    """

    limits = _Limits(budget.max_nodes)
    cons = compile_constraints(g, params)
    witness, _count = _search(cons, k, limits, first=True)
    return None if witness is None else Labeling(witness, k, cons.shape)


def exact_lambda(
    g: Digraph,
    params: ConstraintParams = DEFAULT_PARAMS,
    budget: SolveBudget = DEFAULT_BUDGET,
) -> LambdaWitness:
    """Smallest k admitting a k-L(p,q)-labeling of g, with its least witness.

    Tries k = 0, 1, 2, ..., all under one budget: the nodes spent on every
    span count against it.  The constraints and the count order
    (see count_labelings) are built once for the whole scan.  Each span
    races exists_labeling's id-order search against a witness search in
    the count order, under the same symmetry rules (see _drive): the count
    order proves most infeasible spans far sooner, the witness is always
    the id-order search's, and a span costs at most twice the id-order
    nodes plus one slice of 4096.  Where the count order is id order
    (Cartesian tori) there is one search.  Every graph has a labeling at
    span (n - 1) * max(p, q) (color vertex i with i * max(p, q)), so the
    scan ends by that span; exists_labeling(g, k) answers whether the span
    is at most k.
    """

    limits = _Limits(budget.max_nodes)
    cons = compile_constraints(g, params)
    k = 0
    while True:
        witness, _count = _search(cons, k, limits, first=True, race=True)
        if witness is not None:
            return LambdaWitness(k, Labeling(witness, k, cons.shape))
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

    The count is over all labelings, and the optional visitor sees every
    color tuple exactly once, in order: with a visitor the search breaks
    no symmetry and branches on vertices in id order.  Without one it is a
    count, run as count_labelings runs it.
    """

    limits = _Limits(budget.max_nodes)
    _witness, count = _search(compile_constraints(g, params), k, limits, visitor=visitor)
    return count


def count_labelings(
    g: Digraph,
    k: int,
    params: ConstraintParams = DEFAULT_PARAMS,
    budget: SolveBudget = DEFAULT_BUDGET,
    workers: int = 1,
) -> int:
    """Number of k-L(p,q)-labelings of g.

    A count does not branch on vertices in id order: vertex 0 comes first,
    then greedily the vertex with the most constrained pairs to those
    already placed, which spends about half the nodes on the strong window
    grid at spans 6 and 7.  It runs vertex 0 over the colors up to k/2 and
    counts the rest by the color reversal (see the module docstring), which
    halves the nodes again.  Every count runs in the calling process.
    workers is a no-op: it must be at least 1 and changes nothing.  It
    stays only because bench/ still passes it, and goes with the bench
    edits of ROADMAP item 1.
    """

    if workers < 1:
        raise ValueError("workers must be positive")
    limits = _Limits(budget.max_nodes)
    _witness, count = _search(compile_constraints(g, params), k, limits)
    return count
