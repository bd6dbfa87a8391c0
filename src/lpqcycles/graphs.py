"""Oriented cycles, oriented paths, and their Cartesian/strong products.

Graphs here are oriented: directed graphs whose underlying undirected graph
is simple, so self-loops, parallel edges, and digons (u->v together with
v->u) are all rejected at construction time.

Vertices are 0-based integers.  Product graphs use row-major vertex ids:
the vertex (i, j) of a product with n columns has id i*n + j.  The first
factor indexes rows, the second indexes columns.  _EDGE_VECTORS states
each product's edges once; product and labelings._offsets read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class ProductKind(Enum):
    CARTESIAN = "cartesian"
    STRONG = "strong"


# (di, dj): di = 1 steps the first factor along an edge, dj = 1 the second
_EDGE_VECTORS = {ProductKind.CARTESIAN: ((1, 0), (0, 1)),
                 ProductKind.STRONG: ((1, 0), (0, 1), (1, 1))}


@dataclass(frozen=True)
class ProductShape:
    """Grid metadata attached to a product of two cycles or two paths.

    ``cyclic`` is True for a torus (cycle x cycle) and False for a path grid.
    Mixed products carry no shape.
    """

    kind: ProductKind
    rows: int
    cols: int
    cyclic: bool

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ProductKind):
            raise TypeError(f"kind must be a ProductKind, not {self.kind!r}")

    def vertex_id(self, i: int, j: int) -> int:
        if self.cyclic:
            i %= self.rows
            j %= self.cols
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError(f"coordinate ({i}, {j}) outside {self.rows}x{self.cols} grid")
        return i * self.cols + j

    def coords(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.rows * self.cols:
            raise ValueError(f"vertex {v} outside {self.rows}x{self.cols} grid")
        return divmod(v, self.cols)


@dataclass(frozen=True)
class Digraph:
    """An oriented graph: vertex count plus per-vertex out-neighbor lists."""

    n_vertices: int
    out_edges: tuple[tuple[int, ...], ...]
    shape: ProductShape | None = None

    def __post_init__(self) -> None:
        if self.n_vertices <= 0:
            raise ValueError("graph must have at least one vertex")
        if len(self.out_edges) != self.n_vertices:
            raise ValueError("out_edges length must equal vertex count")
        seen: set[tuple[int, int]] = set()
        for u, outs in enumerate(self.out_edges):
            for w in outs:
                if not 0 <= w < self.n_vertices:
                    raise ValueError(f"out-neighbor {w} of vertex {u} out of range")
                if w == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if (u, w) in seen:
                    raise ValueError(f"parallel edge {u}->{w}")
                seen.add((u, w))
        for (u, w) in seen:
            if (w, u) in seen:
                raise ValueError(f"digon between {u} and {w}: underlying graph not simple")

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, outs in enumerate(self.out_edges):
            for w in outs:
                yield (u, w)

    @property
    def n_edges(self) -> int:
        return sum(len(outs) for outs in self.out_edges)

    def in_neighbors(self) -> list[list[int]]:
        ins: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, w in self.edges():
            ins[w].append(u)
        return ins


def oriented_cycle(n: int) -> Digraph:
    """The oriented cycle on n >= 3 vertices, edges i -> (i+1) mod n."""
    if n < 3:
        raise ValueError(f"oriented cycle needs at least 3 vertices, got {n}")
    return Digraph(n, tuple(((i + 1) % n,) for i in range(n)))


def oriented_path(n: int) -> Digraph:
    """The oriented path on n >= 1 vertices, edges i -> i+1."""
    if n < 1:
        raise ValueError(f"oriented path needs at least 1 vertex, got {n}")
    return Digraph(n, tuple((i + 1,) if i + 1 < n else () for i in range(n)))


def _classify_factor(g: Digraph) -> str | None:
    """'cycle' / 'path' when g structurally matches one of the two families."""
    n = g.n_vertices
    if n >= 3 and all(g.out_edges[i] == ((i + 1) % n,) for i in range(n)):
        return "cycle"
    if all(g.out_edges[i] == ((i + 1,) if i + 1 < n else ()) for i in range(n)):
        return "path"
    return None


def product(kind: ProductKind, g: Digraph, h: Digraph) -> Digraph:
    """Cartesian or strong product of two oriented graphs.

    Each edge vector (di, dj) of kind in _EDGE_VECTORS, in order, joins
    (a, x) to every (b, y) with b = a (di = 0) or ab an edge of g (di = 1),
    and likewise y for x in h.  Vertex (a, x) gets id a * |V(h)| + x; grid
    metadata is attached when both factors are cycles or both are paths.
    """

    m, n = g.n_vertices, h.n_vertices
    vectors = _EDGE_VECTORS[kind]
    out: list[tuple[int, ...]] = []
    for a in range(m):
        rows = ((a,), g.out_edges[a])
        for x in range(n):
            cols = ((x,), h.out_edges[x])
            out.append(tuple([b * n + y for di, dj in vectors for b in rows[di] for y in cols[dj]]))

    fg, fh = _classify_factor(g), _classify_factor(h)
    shape = None
    if fg == fh == "cycle":
        shape = ProductShape(kind, m, n, cyclic=True)
    elif fg == fh == "path":
        shape = ProductShape(kind, m, n, cyclic=False)
    return Digraph(m * n, tuple(out), shape)


def torus(kind: ProductKind, m: int, n: int) -> Digraph:
    """Product of the oriented cycles C_m and C_n."""
    return product(kind, oriented_cycle(m), oriented_cycle(n))


def grid(kind: ProductKind, m: int, n: int) -> Digraph:
    """Product of the oriented paths P_m and P_n."""
    return product(kind, oriented_path(m), oriented_path(n))


def two_step_pairs(g: Digraph) -> set[tuple[int, int]]:
    """Unordered pairs {u, w}, u != w, joined by a directed path of length two.

    A pair qualifies when some x has edges u -> x and x -> w in either
    orientation of the pair; each pair appears once, as (min, max).
    """

    ins = g.in_neighbors()
    pairs: set[tuple[int, int]] = set()
    for x in range(g.n_vertices):
        outs = g.out_edges[x]
        for u in ins[x]:
            for w in outs:
                if u != w:
                    pairs.add((u, w) if u < w else (w, u))
    return pairs
