"""Independent reference computations the tests freeze values from.

Everything here re-derives constraints from a graph's raw out-edge lists
with numpy and shares no logic with the package's own constraint builder
or search engine: a brute-force assignment filter, a row-transfer DP for
the 4 x 4 strong grid, a window-transfer feasibility check for cyclic
patterns, a recursive backtracker for least cyclic words, a set-based
forward checker with unit propagation that meters nodes as the solver
does, the torus stencil folded at the torus's own sides, literal
semigroup membership, and the paper's hand-built block words.

It also keeps the paper's own reduction, which no certificate of the
package uses: the descent on torus sides (descent_terminal), the row
restriction of a diagonal labeling (reduce_rows), and the color
complement.  These check what the package builds, so they call its
validator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product as iproduct

import numpy as np

from lpqcycles import (
    ConstraintParams,
    Labeling,
    Pattern,
    ProductKind,
    ProductShape,
    ViolationKind,
    is_diagonal,
    semigroup_decompose,
    torus_violations,
    validate_pattern,
)
from lpqcycles.labelings import DEFAULT_PARAMS


def pair_gaps(g, p: int = 2, q: int = 1) -> dict[tuple[int, int], int]:
    """Constrained unordered pairs via adjacency-matrix composition."""
    n = g.n_vertices
    A = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for w in g.out_edges[u]:
            A[u, w] = True
    two = (A.astype(np.int32) @ A.astype(np.int32)) > 0
    gaps = {}
    for u in range(n):
        for w in range(u + 1, n):
            edge = A[u, w] or A[w, u]
            ts = (two[u, w] or two[w, u]) and not edge
            if edge and (two[u, w] or two[w, u]):
                gaps[(u, w)] = max(p, q)
            elif edge:
                gaps[(u, w)] = p
            elif ts:
                gaps[(u, w)] = q
    return gaps


def brute_rows(g, k: int, p: int = 2, q: int = 1) -> np.ndarray:
    """All valid color rows of g at budget k, in lexicographic order."""
    n = g.n_vertices
    base = k + 1
    total = base**n
    assert total <= 80_000_000, "search space too large for the brute oracle"
    gaps = pair_gaps(g, p, q)
    keep = []
    chunk = 2_000_000
    for start in range(0, total, chunk):
        v = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = np.stack(
            [(v // base ** (n - 1 - i)) % base for i in range(n)], axis=1
        ).astype(np.int16)
        mask = np.ones(len(v), dtype=bool)
        for (a, b), need in gaps.items():
            mask &= np.abs(cols[:, a] - cols[:, b]) >= need
        keep.append(cols[mask])
    return np.concatenate(keep) if keep else np.empty((0, n), dtype=np.int16)


def brute_count(g, k: int, p: int = 2, q: int = 1) -> int:
    return len(brute_rows(g, k, p, q))


def dp_count_strong_grid4(k: int) -> int:
    """Row-transfer count of valid labelings of the 4 x 4 strong grid.

    Exact in float64: every intermediate count stays far below 2**53.
    """

    base = k + 1
    rows = [
        (r0, r1, r2, r3)
        for r0 in range(base)
        for r1 in range(base)
        if abs(r1 - r0) >= 2
        for r2 in range(base)
        if abs(r2 - r1) >= 2 and abs(r2 - r0) >= 1
        for r3 in range(base)
        if abs(r3 - r2) >= 2 and abs(r3 - r1) >= 1
    ]
    R = np.array(rows, dtype=np.int16)
    D0 = np.abs(R[:, None, :] - R[None, :, :])
    d11 = np.abs(R[:, None, :3] - R[None, :, 1:])
    d12 = np.abs(R[:, None, :2] - R[None, :, 2:])
    # adjacent rows carry offsets (1,0) and (1,1) at gap 2 and (1,2) at gap 1
    M1 = (D0 >= 2).all(axis=2) & (d11 >= 2).all(axis=2) & (d12 >= 1).all(axis=2)
    # rows two apart carry offsets (2,0), (2,1), (2,2), all at gap 1
    M2 = (D0 >= 1).all(axis=2) & (d11 >= 1).all(axis=2) & (d12 >= 1).all(axis=2)
    M1f, M2f = M1.astype(np.float64), M2.astype(np.float64)
    state = M1f.copy()  # state[p, q]: ways to fill rows so far ending (p, q)
    for _ in range(2):
        state = (state.T @ M2f) * M1f
    return int(round(state.sum()))


class NodeCap(Exception):
    """forward_check spent one node past its cap."""

    def __init__(self, nodes: int) -> None:
        super().__init__(nodes)
        self.nodes = nodes


def forward_check(
    n: int,
    pairs,
    order: list[int],
    k: int,
    top: int,
    first: bool = False,
    visitor=None,
    max_nodes: int | None = None,
    propagate: bool = True,
    below=None,
    halve: bool = False,
):
    """Forward checking over the vertices in order, one set of colors per
    domain, recursion per branching position.

    pairs holds (u, v, gap) constraints.  Position 0 branches first, over
    colors 0..top; every later branching position is the first unassigned
    one in order and tries the colors left in its domain, ascending.  Each
    color assigned is one node; it removes the colors within gap of it from
    the domain of every constrained unassigned position, and is a dead end
    when one of those domains empties.  below = (u, w) admits only
    labelings with color(u) <= color(w): u at c removes the colors below c
    from w's domain, w at c those above c from u's, as a gap would.  With
    propagate, every assignment is followed by the forced ones: while some
    unassigned position has one color left, the first such position in
    order takes it, as one more node, until none is left or a domain
    empties.  Without it this is plain forward checking.  With halve (a
    count only) position 0 ignores top: it runs over the colors below k/2,
    whose labelings count twice, then over k/2 alone when k is even, and
    the nodes of both runs add up.  Returns (witness, count, nodes) with
    colors listed by position: with first the search stops at its first
    labeling, the witness, else it counts every labeling and shows each to
    visitor.  Raises NodeCap on node max_nodes + 1.
    """

    assert not (halve and (first or visitor))
    pos = {v: i for i, v in enumerate(order)}
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, gap in pairs:
        a, b = pos[u], pos[v]
        nbrs[a].append((b, gap))
        nbrs[b].append((a, gap))
    lo, hi = (pos[below[0]], pos[below[1]]) if below else (None, None)
    colors = [0] * n
    tally = {"nodes": 0, "count": 0}

    def assign(a: int, c: int, doms: list[set[int]], free: set[int]) -> bool:
        tally["nodes"] += 1
        if max_nodes is not None and tally["nodes"] > max_nodes:
            raise NodeCap(tally["nodes"])
        colors[a] = c
        free.discard(a)
        for b, gap in nbrs[a]:
            if b in free:
                doms[b] = {d for d in doms[b] if abs(d - c) >= gap}
                if not doms[b]:
                    return False
        for at, other, keep in ((lo, hi, lambda d: d >= c), (hi, lo, lambda d: d <= c)):
            if a == at and other in free:
                doms[other] = {d for d in doms[other] if keep(d)}
                if not doms[other]:
                    return False
        return True

    def go(a: int, doms: list[set[int]], free: set[int], colors0):
        for c in sorted(doms[a]) if a else colors0:
            new, left = list(doms), set(free)
            alive = assign(a, c, new, left)
            while alive and propagate:
                forced = [b for b in sorted(left) if len(new[b]) == 1]
                if not forced:
                    break
                alive = assign(forced[0], min(new[forced[0]]), new, left)
            if not alive:
                continue
            if left:
                found = go(min(left), new, left, colors0)
                if found is not None:
                    return found
            elif first:
                return tuple(colors)
            else:
                tally["count"] += 1
                if visitor is not None:
                    visitor(tuple(colors))
        return None

    def run(colors0):
        return go(0, [set(range(k + 1)) for _ in range(n)], set(range(n)), colors0)

    if not halve:
        witness = run(range(top + 1))
        return witness, tally["count"], tally["nodes"]
    run(range((k + 1) // 2))
    tally["count"] *= 2
    if k % 2 == 0:
        run([k // 2])
    return None, tally["count"], tally["nodes"]


def torus_stencil(kind: ProductKind, m: int, n: int, params: ConstraintParams):
    """The constrained offsets of C_m x C_n with their gap and kind, as
    ((di, dj), (gap, kind)) items: edge vectors and their pairwise sums
    folded mod (m, n) and up to sign at the torus's own sides, merged by
    the larger gap and counted as edges if either offset is one."""

    edges = [(1, 0), (0, 1)] + ([(1, 1)] if kind is ProductKind.STRONG else [])

    def fold(di: int, dj: int) -> tuple[int, int]:
        return min((di % m, dj % n), (-di % m, -dj % n))

    out = {fold(*e): (params.p, ViolationKind.EDGE_GAP) for e in edges}
    for a in edges:
        for b in edges:
            key = fold(a[0] + b[0], a[1] + b[1])
            if key != (0, 0):
                gap, vkind = out.get(key, (params.q, ViolationKind.TWO_STEP_GAP))
                out[key] = (max(gap, params.q), vkind)
    return tuple(out.items())


def cyclic_word_feasible(length: int, span: int, conditions: tuple[int, ...]) -> bool:
    """Does any cyclic word of this length satisfy the offset conditions?

    Brute force below length 9; otherwise a window-transfer reachability
    argument over 4-color windows (requires len(conditions) == 4).
    """

    if length < 9:
        base = span + 1
        total = base**length
        v = np.arange(total, dtype=np.int64)
        cols = np.stack(
            [(v // base ** (length - 1 - i)) % base for i in range(length)], axis=1
        ).astype(np.int16)
        mask = np.ones(total, dtype=bool)
        for t, need in enumerate(conditions, start=1):
            for s in range(length):
                mask &= np.abs(cols[:, s] - cols[:, (s + t) % length]) >= need
            if not mask.any():
                return False
        return bool(mask.any())

    assert len(conditions) == 4
    c1, c2, c3, c4 = conditions
    windows = [
        w
        for w in iproduct(range(span + 1), repeat=4)
        if abs(w[0] - w[1]) >= c1 and abs(w[1] - w[2]) >= c1 and abs(w[2] - w[3]) >= c1
        and abs(w[0] - w[2]) >= c2 and abs(w[1] - w[3]) >= c2
        and abs(w[0] - w[3]) >= c3
    ]
    index = {w: i for i, w in enumerate(windows)}
    nw = len(windows)
    T = np.zeros((nw, nw), dtype=bool)
    for w in windows:
        for x in range(span + 1):
            if (
                abs(w[3] - x) >= c1
                and abs(w[2] - x) >= c2
                and abs(w[1] - x) >= c3
                and abs(w[0] - x) >= c4
            ):
                nxt = (w[1], w[2], w[3], x)
                if nxt in index:
                    T[index[w], index[nxt]] = True

    # reach[s][t]: a path of (length - 4) transitions from window s to t
    steps = length - 4
    reach = np.eye(nw, dtype=bool)
    base = T.copy()
    e = steps
    while e:
        if e & 1:
            reach = (reach.astype(np.float64) @ base.astype(np.float64)) > 0
        base = (base.astype(np.float64) @ base.astype(np.float64)) > 0
        e >>= 1

    def closes(t: tuple[int, ...], s: tuple[int, ...]) -> bool:
        # t holds word[length-4:], s holds word[:4]; check the wrap pairs
        tail = {length - 4 + i: t[i] for i in range(4)}
        head = {i: s[i] for i in range(4)}
        for off, need in enumerate(conditions, start=1):
            for i, ci in tail.items():
                j = (i + off) % length
                if j in head and abs(ci - head[j]) < need:
                    return False
        return True

    for si, s in enumerate(windows):
        for ti in np.nonzero(reach[si])[0]:
            if closes(windows[int(ti)], s):
                return True
    return False


def least_cyclic_word(
    length: int, span: int, conditions: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Lexicographically least cyclic word of a given length and span, or None.

    Searches color words over 0..span by backtracking, colors ascending,
    one recursion level per letter.  Offsets that wrap onto their own
    position rule the length out up front.
    """

    if length <= 0 or span < 0:
        raise ValueError("length must be positive and span nonnegative")
    for t, need in enumerate(conditions, start=1):
        if need >= 1 and t % length == 0:
            return None

    r = len(conditions)
    word = [0] * length

    def fits(s: int, c: int) -> bool:
        # a pair is checked once the later of its endpoints gets a color;
        # both cyclic partners of s at each offset cover that exactly
        for t in range(1, r + 1):
            need = conditions[t - 1]
            if need == 0:
                continue
            for e in ((s - t) % length, (s + t) % length):
                if e < s and abs(word[e] - c) < need:
                    return False
        return True

    def search(s: int) -> bool:
        if s == length:
            return True
        for c in range(span + 1):
            if fits(s, c):
                word[s] = c
                if search(s + 1):
                    return True
        return False

    if not search(0):
        return None
    return tuple(word)


def semigroup_members(m: int, n: int, limit: int) -> set[int]:
    """{a*m + b*n : a, b >= 0, not both zero} intersected with [1, limit]."""
    out = set()
    for a in range(limit // m + 1):
        for b in range((limit - a * m) // n + 1):
            t = a * m + b * n
            if 0 < t <= limit:
                out.add(t)
    return out


def semigroup_least_b(target: int, m: int, n: int) -> tuple[int, int] | None:
    """(a, b) with target = a*m + b*n, a, b >= 0 and b least, by trying
    b = 0, 1, ... in turn; None when there is none or target <= 0."""
    if target <= 0:
        return None
    for b in range(target // n + 1):
        if (target - b * n) % m == 0:
            return (target - b * n) // m, b
    return None


def l21_cycle_pattern(d: int) -> Pattern:
    """Span-4 pattern of length d for conditions (2, 1), built from blocks.

    Lengths split by residue mod 3: 024 repeated, with a trailing 0314 or
    13 fixing the other residues.  Every d >= 3 is covered; d = 1, 2 admit
    no span-4 pattern at all (offset 2 wraps onto offset 0 or 1).
    """

    if d < 3:
        raise ValueError(f"no (2, 1) pattern of length {d} exists")
    if d % 3 == 0:
        word = (0, 2, 4) * (d // 3)
    elif d % 3 == 1:
        word = (0, 2, 4) * ((d - 4) // 3) + (0, 3, 1, 4)
    else:
        word = (0, 2, 4) * ((d - 2) // 3) + (1, 3)
    pat = Pattern(word, (2, 1))
    if validate_pattern(pat):
        raise RuntimeError(f"block construction for length {d} produced an invalid pattern")
    return pat


_STRONG_BLOCK_7 = (0, 2, 4, 6, 1, 3, 5)
_STRONG_BLOCK_8 = (0, 2, 4, 6, 1, 3, 5, 7)


def concatenated_strong_pattern(length: int) -> Pattern:
    """Pattern of the given length for conditions (2, 2, 1, 1), if one exists.

    Concatenates copies of the span-6 block 0246135 and the span-7 block
    02461357, so the length must decompose as 7a + 8b; the span is 6 when
    b = 0 and 7 otherwise.  The result is re-validated before returning.
    """

    dec = semigroup_decompose(length, 7, 8)
    if dec is None:
        raise ValueError(f"length {length} is not a sum of 7s and 8s")
    word = _STRONG_BLOCK_7 * dec.a + _STRONG_BLOCK_8 * dec.b
    pat = Pattern(word, (2, 2, 1, 1))
    if validate_pattern(pat):
        raise RuntimeError(f"block concatenation for length {length} produced an invalid pattern")
    return pat


class TerminalKind(Enum):
    GCD = "gcd"
    K_PLUS_1 = "k-plus-1"
    K_PLUS_2 = "k-plus-2"


@dataclass(frozen=True)
class DescentTerminal:
    """End state of the row-reduction descent, with the tori passed through."""

    rows: int
    cols: int
    kind: TerminalKind
    trace: tuple[tuple[int, int], ...]


def descent_terminal(m: int, n: int) -> DescentTerminal:
    """Reduce (m, n) by repeated row restriction until no step applies.

    While the larger side exceeds the smaller by at least 3, replace it by
    the difference (reordering so rows >= cols).  The terminal difference
    classifies the end state: 0 lands on the gcd torus, 1 and 2 land on
    C_{k+1} x C_k and C_{k+2} x C_k.  All intermediate sides stay >= 3.
    """

    if m < 3 or n < 3:
        raise ValueError("descent needs cycle sizes m, n >= 3")
    big, small = (m, n) if m >= n else (n, m)
    trace = [(big, small)]
    while big - small >= 3:
        big -= small
        if big < small:
            big, small = small, big
        trace.append((big, small))
    diff = big - small
    kind = (TerminalKind.GCD, TerminalKind.K_PLUS_1, TerminalKind.K_PLUS_2)[diff]
    return DescentTerminal(big, small, kind, tuple(trace))


def complement(f: Labeling, k: int) -> Labeling:
    """Replace every color c by k - c; an involution that preserves validity."""
    if int(f.colors.max()) > k:
        raise ValueError(f"colors exceed {k}; cannot complement")
    return Labeling(k - f.colors, k, f.shape)


def reduce_rows(f: Labeling, params: ConstraintParams = DEFAULT_PARAMS) -> Labeling:
    """Restrict a valid diagonal labeling of an m x n torus to its first m - n rows.

    Requires m >= n + 3.  The result is a labeling of the (m-n) x n torus of
    the same product kind; its validity and diagonality are re-checked rather
    than assumed, and a failure raises RuntimeError since it would contradict
    the periodicity argument the restriction rests on.
    """

    shape = f.shape
    if shape is None or not shape.cyclic:
        raise ValueError("labeling is not defined on a product of two cycles")
    m, n = shape.rows, shape.cols
    if m < n + 3:
        raise ValueError(f"row reduction needs m >= n + 3, got m={m}, n={n}")
    if not is_diagonal(f):
        raise ValueError("labeling is not diagonal")
    if torus_violations(shape.kind, f.color_grid(), params):
        raise ValueError("labeling is not valid; refusing to reduce")

    reduced = Labeling(
        f.color_grid()[: m - n].reshape(-1),
        f.k_budget,
        ProductShape(shape.kind, m - n, n, cyclic=True),
    )
    if torus_violations(shape.kind, reduced.color_grid(), params) or not is_diagonal(reduced):
        raise RuntimeError(
            f"restriction of a valid diagonal labeling to C_{m - n} x C_{n} failed its own check"
        )
    return reduced
