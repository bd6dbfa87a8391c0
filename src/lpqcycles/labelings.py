"""Labelings of oriented graphs and the L(p,q) validity check.

An L(p,q)-labeling assigns each vertex a color from {0..k} so that colors
across a directed edge differ by at least p and colors of vertices joined by
a directed path of length two differ by at least q.  The budget k is part of
the labeling (a witness need not use the color k).

Colors are held in numpy arrays, and numpy is imported inside the
functions that build or read one, so importing this module (and the
package) does not load it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain
from typing import IO, TYPE_CHECKING, Iterable

from .graphs import Digraph, ProductKind, ProductShape, oriented_cycle, product, two_step_pairs

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ConstraintParams:
    """Minimum separations: p across directed edges, q across two-step pairs."""

    p: int = 2
    q: int = 1

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"separations must be nonnegative, got ({self.p}, {self.q})")


DEFAULT_PARAMS = ConstraintParams(2, 1)


@dataclass(frozen=True)
class Labeling:
    """A total color assignment with a declared budget.

    ``colors`` is indexed by vertex id; any integer sequence is taken and
    held as a read-only int64 numpy array.  ``shape`` carries grid
    metadata when the labeling lives on a product graph.
    """

    colors: np.ndarray
    k_budget: int
    shape: ProductShape | None = None

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.asarray(self.colors, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "colors", arr)
        if self.k_budget < 0:
            raise ValueError("budget must be nonnegative")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("colors must be a nonempty 1-d array")
        if arr.min() < 0 or arr.max() > self.k_budget:
            raise ValueError(f"colors must lie in 0..{self.k_budget}")
        if self.shape is not None and arr.size != self.shape.rows * self.shape.cols:
            raise ValueError("colors length does not match grid shape")

    @property
    def n_vertices(self) -> int:
        return int(self.colors.size)

    def color_at(self, i: int, j: int) -> int:
        if self.shape is None:
            raise ValueError("labeling carries no grid shape")
        return int(self.colors[self.shape.vertex_id(i, j)])

    def color_grid(self) -> np.ndarray:
        if self.shape is None:
            raise ValueError("labeling carries no grid shape")
        return self.colors.reshape(self.shape.rows, self.shape.cols)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.colors)


class ViolationKind(Enum):
    EDGE_GAP = "edge-gap"
    TWO_STEP_GAP = "two-step-gap"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    pair: tuple[int, int]
    labels: tuple[int, int]
    required: int


def constraint_pairs(
    g: Digraph, params: ConstraintParams
) -> dict[tuple[int, int], tuple[int, ViolationKind]]:
    """Map each constrained unordered pair (u, v), u < v, to (gap, kind).

    A pair that is both an edge and a two-step pair is constrained by
    max(p, q) and classified as an edge pair.
    """

    pairs: dict[tuple[int, int], tuple[int, ViolationKind]] = {}
    for u, w in g.edges():
        key = (u, w) if u < w else (w, u)
        pairs[key] = (params.p, ViolationKind.EDGE_GAP)
    for key in two_step_pairs(g):
        if key in pairs:
            gap = max(params.p, params.q)
            pairs[key] = (gap, ViolationKind.EDGE_GAP)
        else:
            pairs[key] = (params.q, ViolationKind.TWO_STEP_GAP)
    return pairs


_Stencil = tuple[tuple[tuple[int, int], tuple[int, ViolationKind]], ...]


def _stencil(kind: ProductKind, m: int, n: int, params: ConstraintParams) -> _Stencil:
    """The constrained offsets of C_m x C_n, each with its gap and kind.

    Every edge of the torus is a translate of an edge vector ((1, 0),
    (0, 1), and (1, 1) for the strong product) and every two-step pair a
    translate of a sum of two of them.  Offsets are folded mod (m, n) and up
    to sign; offsets that fold together on small tori keep the larger gap
    and count as edges if either one is, and (0, 0) is dropped, exactly as
    constraint_pairs merges the pairs they generate.  The fold is cached
    per (kind, min(m, 5), min(n, 5), params) by _signed_stencil; this
    only reduces its offsets mod (m, n).
    """

    return tuple(
        ((di % m, dj % n), gap_kind)
        for (di, dj), gap_kind in _signed_stencil(kind, min(m, 5), min(n, 5), params)
    )


@cache
def _signed_stencil(kind: ProductKind, m: int, n: int, params: ConstraintParams) -> _Stencil:
    """The fold of _stencil on sides of at most 5, where a side of 5
    stands for every side of at least 5.

    Edge vectors and their sums have components 0..2.  On a side of at
    least 5 no two of them meet mod the side or up to sign unless equal,
    and the sign of a fold is settled by the other component or by 2 < 3,
    so the fold is the same on every such side up to the representative
    of a component: one of 3 or 4 on a side of 5 stands for side - 2 or
    side - 1, and is kept as -2 or -1.
    """

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

    def signed(x: int, side: int) -> int:
        return x - side if side == 5 and x > 2 else x

    return tuple(((signed(di, m), signed(dj, n)), gk) for (di, dj), gk in out.items())


def torus_violations(
    kind: ProductKind, grid: np.ndarray, params: ConstraintParams = DEFAULT_PARAMS
) -> list[Violation]:
    """validate on C_m x C_n for a labeling given as its m x n color grid.

    No graph or pair map is built.  The grid is copied once into a buffer
    that wraps it past its bottom and right edges by the largest folded
    row and column offset of the stencil (2 when both sides are at least
    5, up to a side - 1 on smaller tori), and compared with one view of
    that buffer per offset.  A grid with no violated offset returns []
    before any pair is listed; the result equals validate's on the torus.
    """

    import numpy as np

    grid = np.asarray(grid)
    m, n = grid.shape
    if m < 3 or n < 3:
        raise ValueError(f"a torus needs both sides >= 3, got {m}x{n}")
    dtype = grid.dtype
    if -(2**14) < grid.min() and grid.max() < 2**14:
        # every difference fits int16, which moves a quarter of int64's bytes
        dtype = np.int16
    stencil = _stencil(kind, m, n, params)
    pad_i = max(di for (di, _), _ in stencil)
    pad_j = max(dj for (_, dj), _ in stencil)
    ext = np.empty((m + pad_i, n + pad_j), dtype)
    ext[:m, :n] = grid
    ext[:m, n:] = ext[:m, :pad_j]
    ext[m:] = ext[:pad_i]
    grid = ext[:m, :n]
    diff, mask = np.empty_like(grid), np.empty(grid.shape, dtype=bool)
    found = []
    for idx, ((di, dj), (gap, _)) in enumerate(stencil):
        np.subtract(grid, ext[di:di + m, dj:dj + n], out=diff)
        np.less(np.abs(diff, out=diff), gap, out=mask)
        if mask.any():
            found.append((idx, np.flatnonzero(mask)))
    if not found:
        return []
    parts = []
    for idx, u in found:
        di, dj = stencil[idx][0]
        i, j = np.divmod(u, n)
        w = (i + di) % m * n + (j + dj) % n
        if (2 * di % m, 2 * dj % n) == (0, 0):
            # the offset is its own negative: every pair is found from both ends
            keep = u < w
            u, w = u[keep], w[keep]
        parts.append(np.stack([np.minimum(u, w), np.maximum(u, w), np.full(u.size, idx)]))
    lo, hi, which = np.concatenate(parts, axis=1)
    order = np.lexsort((hi, lo))
    flat = grid.reshape(-1)
    out = []
    for u, w, idx in zip(lo[order].tolist(), hi[order].tolist(), which[order].tolist()):
        gap, vkind = stencil[idx][1]
        out.append(Violation(vkind, (u, w), (int(flat[u]), int(flat[w])), gap))
    return out


def _is_torus(g: Digraph) -> bool:
    """True when g carries a cyclic ProductShape and every vertex has
    exactly the out-neighbours torus(kind, rows, cols) gives it."""
    shape = g.shape
    if shape is None or not shape.cyclic or g.n_vertices != shape.rows * shape.cols:
        return False
    import numpy as np

    m, n = shape.rows, shape.cols
    i, j = np.divmod(np.arange(m * n), n)
    want = [(i + 1) % m * n + j, i * n + (j + 1) % n]
    if shape.kind is ProductKind.STRONG:
        want.append((i + 1) % m * n + (j + 1) % n)
    if set(map(len, g.out_edges)) != {len(want)}:
        return False
    have = np.fromiter(chain.from_iterable(g.out_edges), dtype=np.int64).reshape(m * n, -1)
    # no parallel edges, so equal sorted rows are equal neighbour sets
    return bool((np.sort(have, axis=1) == np.sort(np.stack(want, axis=1), axis=1)).all())


def validate(g: Digraph, f: Labeling, params: ConstraintParams = DEFAULT_PARAMS) -> list[Violation]:
    """All violated constraints of f on g, in lexicographic pair order.

    Empty result means f is a valid k-L(p,q)-labeling at its declared budget.
    Each violated pair is reported exactly once.  A graph whose
    out-neighbours are exactly those of the torus its cyclic ProductShape
    names (as torus and product attach) is checked through the offset
    stencil of torus_violations, with f's colors read in g's grid order.
    Any other graph goes through its constraint_pairs, including one that
    carries a cyclic shape without being that torus.
    """

    if f.n_vertices != g.n_vertices:
        raise ValueError(
            f"labeling covers {f.n_vertices} vertices but graph has {g.n_vertices}"
        )
    if _is_torus(g):
        grid = f.colors.reshape(g.shape.rows, g.shape.cols)
        return torus_violations(g.shape.kind, grid, params)
    pairs = constraint_pairs(g, params)
    if not pairs:
        return []
    import numpy as np

    keys = sorted(pairs)
    us = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
    vs = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
    gaps = np.fromiter((pairs[k][0] for k in keys), dtype=np.int64, count=len(keys))
    bad = np.nonzero(np.abs(f.colors[us] - f.colors[vs]) < gaps)[0]
    out = []
    for idx in bad:
        key = keys[int(idx)]
        gap, kind = pairs[key]
        out.append(
            Violation(kind, key, (int(f.colors[key[0]]), int(f.colors[key[1]])), gap)
        )
    return out


def is_diagonal(f: Labeling) -> bool:
    """True when f(i, j) = f(i+1 mod m, j-1 mod n) holds at every cell."""
    if f.shape is None or not f.shape.cyclic:
        raise ValueError("labeling is not defined on a product of two cycles")
    import numpy as np

    grid = f.color_grid()
    shifted = np.roll(np.roll(grid, -1, axis=0), 1, axis=1)
    return bool((grid == shifted).all())


# --- JSON labeling documents -------------------------------------------------
#
# Schema (writers emit keys in exactly this order; readers accept any order):
#   {"product": "cartesian"|"strong"|"none", "m": int, "n": int,
#    "p": int, "q": int, "k": int, "labels": [[int, ...], ...]}
# plus an optional trailing "pattern": [int, ...] carrying the base cycle
# pattern a lifted labeling was built from.  "none" marks a labeling of a
# single oriented cycle, stored as one row with m = 1.


def labeling_document(
    f: Labeling,
    params: ConstraintParams = DEFAULT_PARAMS,
    pattern: Iterable[int] | None = None,
) -> dict:
    """Serialize a labeling (of a torus product or a single cycle) to a dict."""
    if f.shape is not None:
        if not f.shape.cyclic:
            raise ValueError("only torus products and single cycles serialize")
        prod = f.shape.kind.value
        m, n = f.shape.rows, f.shape.cols
        labels = [[int(c) for c in row] for row in f.color_grid()]
    else:
        prod = "none"
        m, n = 1, f.n_vertices
        labels = [[int(c) for c in f.colors]]
    doc = {
        "product": prod,
        "m": m,
        "n": n,
        "p": params.p,
        "q": params.q,
        "k": f.k_budget,
        "labels": labels,
    }
    if pattern is not None:
        doc["pattern"] = [int(c) for c in pattern]
    return doc


def _parse_labeling(doc: dict) -> tuple[Labeling, ConstraintParams]:
    """(labeling, params) of a checked document; a torus labeling carries
    its shape, all that validate reads of the torus, so no graph is built."""
    try:
        prod = doc["product"]
        m, n, p, q, k = (doc[key] for key in ("m", "n", "p", "q", "k"))
        labels = doc["labels"]
    except KeyError as exc:
        raise ValueError(f"labeling document missing key {exc}") from None
    # exact JSON integers only: bool is an int subclass, and int() would
    # silently truncate floats and parse strings
    fields = (m, n, p, q, k)
    if any(type(x) is not int for x in fields):
        raise ValueError("m, n, p, q and k must be integers")
    if any(not -(2**63) <= x < 2**63 for x in fields):
        raise ValueError("m, n, p, q and k must fit in a signed 64-bit integer")
    params = ConstraintParams(p, q)
    if not isinstance(labels, list) or len(labels) != m:
        raise ValueError(f"labels must be a list of {m} rows")
    if any(not isinstance(row, list) or len(row) != n for row in labels):
        raise ValueError(f"every label row must have {n} entries")
    colors = [c for row in labels for c in row]
    if any(type(c) is not int for c in colors):
        raise ValueError("every label must be an integer")
    import numpy as np

    try:
        flat = np.array(colors, dtype=np.int64)
    except OverflowError:
        raise ValueError("every label must fit in a signed 64-bit integer") from None

    if prod == "none":
        if m != 1:
            raise ValueError('product "none" stores a single cycle as one row (m = 1)')
        return Labeling(flat, k), params
    if prod not in (ProductKind.CARTESIAN.value, ProductKind.STRONG.value):
        raise ValueError(f"unknown product kind {prod!r}")
    return Labeling(flat, k, ProductShape(ProductKind(prod), m, n, cyclic=True)), params


def _load_document(fp: IO[str]) -> dict:
    try:
        doc = json.load(fp)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not a JSON labeling document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("labeling document must be a JSON object")
    return doc


def labeling_from_document(doc: dict) -> tuple[Digraph, Labeling, ConstraintParams]:
    """Rebuild (graph, labeling, params) from a labeling document."""
    f, params = _parse_labeling(doc)
    if f.shape is None:
        return oriented_cycle(f.n_vertices), f, params
    m, n = f.shape.rows, f.shape.cols
    return product(f.shape.kind, oriented_cycle(m), oriented_cycle(n)), f, params


def write_labeling(fp: IO[str], f: Labeling, params: ConstraintParams = DEFAULT_PARAMS,
                   pattern: Iterable[int] | None = None) -> None:
    json.dump(labeling_document(f, params, pattern), fp, indent=1)
    fp.write("\n")


def read_labeling(fp: IO[str]) -> tuple[Digraph, Labeling, ConstraintParams]:
    return labeling_from_document(_load_document(fp))
