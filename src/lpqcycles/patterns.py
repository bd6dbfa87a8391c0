"""Cyclic color patterns and their diagonal lifts to torus products.

A pattern is a color word g(0..L-1) read cyclically, constrained by a
condition vector (c_1, ..., c_r): every pair of positions at cyclic offset
t must differ by at least c_t.  Offsets are taken literally, so an offset
that wraps to the position itself (L divides t) compares the color with
itself and fails whenever c_t >= 1; short cycles really do forbid such
patterns.  Lifting a pattern along anti-diagonals, f(i, j) = g((i + j) mod
L), turns pattern validity into labeling validity on the m x n torus
whenever L divides both m and n:

  * Cartesian product, L(2,1): edge offsets project to 1 and two-step
    offsets to 2, so the condition vector is (2, 1).
  * Strong product, L(2,2,1,1)-style: offsets 1..4 appear with required
    gaps (2, 2, 1, 1).

The word search has no engine of its own: exists_cycle_pattern compiles
the offset conditions into (position, position, gap) pairs and hands them
to the solver, so it runs on the same iterative, budgeted backtracker as
every other search.  Patterns are tuples of Python ints and are searched
and checked without numpy; only lift_diagonal builds an array, the lifted
Labeling's colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import ProductKind, ProductShape
from .labelings import Labeling
from .solver import DEFAULT_BUDGET, SolveBudget, _compile_pairs, _limits, _search


@dataclass(frozen=True)
class Pattern:
    """A cyclic color word with the condition vector it is meant to satisfy."""

    colors: tuple[int, ...]
    conditions: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.colors:
            raise ValueError("pattern must be nonempty")
        if any(c < 0 for c in self.colors):
            raise ValueError("pattern colors must be nonnegative")
        if not self.conditions or any(c < 0 for c in self.conditions):
            raise ValueError("condition vector must be nonempty and nonnegative")

    @property
    def length(self) -> int:
        return len(self.colors)

    @property
    def span(self) -> int:
        return max(self.colors)


@dataclass(frozen=True)
class PatternViolation:
    offset: int
    positions: tuple[int, int]
    labels: tuple[int, int]
    required: int


def conditions_for(kind: ProductKind) -> tuple[int, ...]:
    """Condition vector whose patterns lift to valid L(2,1)-labelings."""
    if kind is ProductKind.CARTESIAN:
        return (2, 1)
    return (2, 2, 1, 1)


def validate_pattern(pattern: Pattern) -> list[PatternViolation]:
    """All violated offset constraints, ordered by (offset, position).

    For each offset t = 1..r and each position s the pair
    (s, (s + t) mod L) must differ by at least c_t.  Wrapped offsets are
    not exempt: if L divides t, the pair degenerates to (s, s) and the
    constraint fails for c_t >= 1.
    """

    g = pattern.colors
    L = len(g)
    out = []
    for t, need in enumerate(pattern.conditions, start=1):
        if need == 0:
            continue
        for s in range(L):
            s2 = (s + t) % L
            if abs(g[s] - g[s2]) < need:
                out.append(PatternViolation(t, (s, s2), (g[s], g[s2]), need))
    return out


@dataclass(frozen=True)
class SemigroupDecomposition:
    """target = a * m + b * n with a, b >= 0 and minimal b."""

    target: int
    m: int
    n: int
    a: int
    b: int


def semigroup_decompose(target: int, m: int, n: int) -> SemigroupDecomposition | None:
    """Write target as a*m + b*n, a, b >= 0 not both zero, minimizing b.

    Returns None when target is not in the numerical semigroup generated
    by m and n.  With g = gcd(m, n), m divides target - b*n exactly when
    b*(n/g) = target/g mod m/g, so the least such b is a modular inverse
    away; target is representable when that b leaves target - b*n >= 0.
    """

    if m <= 0 or n <= 0:
        raise ValueError("generators must be positive")
    g = gcd(m, n)
    if target <= 0 or target % g:
        return None
    b = target // g * pow(n // g, -1, m // g) % (m // g)
    if b * n > target:
        return None
    return SemigroupDecomposition(target, m, n, (target - b * n) // m, b)


def lift_diagonal(pattern: Pattern, kind: ProductKind, m: int, n: int) -> Labeling:
    """Lift a pattern to the m x n torus along anti-diagonals.

    f(i, j) = g((i + j) mod L); defined whenever L divides both m and n.
    The L x L block of one period is read off the word once and tiled to
    m x n, so no m x n index array is built.  The budget of the lifted
    labeling is the pattern's span.
    """

    L = pattern.length
    if m % L or n % L:
        raise ValueError(f"pattern length {L} must divide both {m} and {n}")
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    # the word twice over, read with stride one per row and per column,
    # is the L x L block word[(i + j) mod L] without an index array
    twice = np.array(pattern.colors * 2, dtype=np.int64)
    block = as_strided(twice, (L, L), twice.strides * 2)
    grid = np.tile(block, (m // L, n // L))
    return Labeling(grid.reshape(-1), pattern.span, ProductShape(kind, m, n, cyclic=True))


def exists_cycle_pattern(
    length: int,
    span: int,
    conditions: tuple[int, ...],
    budget: SolveBudget = DEFAULT_BUDGET,
) -> Pattern | None:
    """Lexicographically least pattern of a given length and span, or None.

    A word is a labeling of `length` positions, so the search is one
    witness search of the solver: offset t at gap c_t becomes the pairs
    (s, s + t mod length) for every position s, a pair reached by several
    offsets keeps the largest gap, and the solver returns the color tuple
    of its least witness under budget, which becomes the pattern as it is.
    An empty or negative condition vector raises ValueError, and offsets
    that wrap onto their own position rule the length out, before any
    search.
    """

    if length <= 0 or span < 0:
        raise ValueError("length must be positive and span nonnegative")
    if not conditions or min(conditions) < 0:
        raise ValueError("condition vector must be nonempty and nonnegative")
    for t, need in enumerate(conditions, start=1):
        if need >= 1 and t % length == 0:
            return None

    pairs = (
        (s, (s + t) % length, need)
        for t, need in enumerate(conditions, start=1)
        if need
        for s in range(length)
    )
    cons = _compile_pairs(length, None, pairs)
    word, _count = _search(cons, span, _limits(budget), first=True)
    if word is None:
        return None
    pat = Pattern(word, conditions)
    if validate_pattern(pat):
        raise RuntimeError("pattern search returned an invalid word")
    return pat
