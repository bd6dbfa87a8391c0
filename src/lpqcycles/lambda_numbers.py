"""Exact spans for products of oriented cycles, with checkable certificates.

The dichotomies implemented here:

  * Cartesian product, m, n >= 40: the span is 4 when gcd(m, n) >= 3 and 5
    otherwise.  The 4 comes with a constructed lift that is validated on
    the spot; the 5 pairs an upper bound taken from the literature with a
    machine-verified lower bound.
  * Strong product, m, n >= 48: the span is 6 when 7 divides both m and n,
    7 when it does not but gcd(m, n) >= 42, and lies in {7, 8} otherwise.

Every lower bound asserted here is reduced to finite checks this module
runs itself: exhaustive enumeration of small path-grid labelings (whose
universal identities force torus labelings to be diagonal) and exhaustive
search for cyclic patterns of length gcd(m, n).  The paper's row-reduction
descent is kept as descent_terminal; it preserves gcd(m, n), so it adds
nothing to the word search and no certificate uses it.  Smaller instances
fall outside the dichotomies; an explicit solve flag hands them to the
exact solver instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .graphs import Digraph, ProductKind, grid, torus
from .labelings import Labeling, torus_violations
from .patterns import (
    Pattern,
    concatenated_strong_pattern,
    conditions_for,
    exists_cycle_pattern,
    l21_cycle_pattern,
    lift_diagonal,
)
from .solver import (
    DEFAULT_BUDGET,
    LambdaWitness,
    SolveBudget,
    count_labelings,
    exact_lambda,
    exists_labeling,
)

class CertificateKind(Enum):
    CONSTRUCTED = "constructed"
    CITED_UPPER_VERIFIED_LOWER = "cited-upper-verified-lower"
    INTERVAL_CITED = "interval-cited"


@dataclass(frozen=True)
class LambdaResult:
    """Span bounds lo <= span <= hi with the evidence behind them."""

    lo: int
    hi: int
    certificate: CertificateKind
    witness: Labeling | None
    note: str

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"span only bounded to [{self.lo}, {self.hi}]")
        return self.lo


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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: what ran, whether it holds, and a
    counterexample when it does not.  count is the number of labelings
    enumerated."""

    check: str
    holds: bool
    count: int
    witness: Labeling | None

    def to_document(self) -> dict:
        if self.witness is None:
            grid_rows = None
        elif self.witness.shape is not None:
            grid_rows = [[int(c) for c in row] for row in self.witness.color_grid()]
        else:
            grid_rows = [[int(c) for c in self.witness.colors]]
        return {
            "check": self.check,
            "holds": self.holds,
            "count": self.count,
            "witness": grid_rows,
        }


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


# cached per process: these enumerations back every dichotomy dispatch.
# The budget is part of the key, so a cached answer never stands in for a
# call whose own budget would run out.
_lemma_cache: dict[tuple[ProductKind, int, SolveBudget], CheckReport] = {}
_subgraph_cache: dict[tuple[ProductKind, SolveBudget], LambdaWitness] = {}

# per product kind: the side floor of the dichotomy, the window span at
# which the local identity holds (also the span of the window grid), and
# the upper bound cited when no lift exists
_DICHOTOMY = {
    ProductKind.CARTESIAN: (40, 4, 5),
    ProductKind.STRONG: (48, 6, 8),
}


def _local_identity(kind: ProductKind) -> tuple[Digraph, int, int]:
    """The path grid and identity vertex pair for a product kind.

    The identity is the one equation whose universal validity on the small
    grid forces every torus labeling at that span to be diagonal: each cell
    of a torus sits in such a window, and the window equation rewritten at
    all positions is exactly f(i, j) = f(i+1 mod m, j-1 mod n).
    """

    if kind is ProductKind.CARTESIAN:
        g = grid(kind, 3, 3)
        return g, g.shape.vertex_id(1, 1), g.shape.vertex_id(0, 2)
    g = grid(kind, 4, 4)
    return g, g.shape.vertex_id(1, 2), g.shape.vertex_id(2, 1)


def _verify_local(
    kind: ProductKind, span: int | None, workers: int, budget: SolveBudget
) -> CheckReport:
    k = _DICHOTOMY[kind][1] if span is None else span
    key = (kind, k, budget)
    if workers == 1 and key in _lemma_cache:
        return _lemma_cache[key]
    g, u, v = _local_identity(kind)
    total = count_labelings(g, k, budget=budget, workers=workers)
    bad = count_labelings(g, k, extra_pairs=[(u, v, 1)], budget=budget, workers=workers)
    witness = None
    if bad:
        witness = exists_labeling(g, k, budget=budget, extra_pairs=[(u, v, 1)])
        if witness is None:
            raise RuntimeError("counterexample count is positive but none was found")
    name = f"{kind.value}-local-diagonality-span-{k}"
    report = CheckReport(name, bad == 0, total, witness)
    if workers == 1:
        _lemma_cache[key] = report
    return report


def verify_lemma_cartesian_local(
    span: int | None = None, workers: int = 1, budget: SolveBudget = DEFAULT_BUDGET
) -> CheckReport:
    """Check that every span-4 labeling of the 3 x 3 Cartesian path grid
    satisfies f(1, 1) = f(0, 2), by enumerating all of them.

    No symmetry reduction is used; count is the full number of labelings.
    A different span probes the same identity where it is not expected to
    hold (at 5 a counterexample exists and is returned).
    """

    return _verify_local(ProductKind.CARTESIAN, span, workers, budget)


def verify_lemma_strong_local(
    span: int | None = None, workers: int = 1, budget: SolveBudget = DEFAULT_BUDGET
) -> CheckReport:
    """Check that every span-6 labeling of the 4 x 4 strong path grid
    satisfies f(1, 2) = f(2, 1), replacing a by-hand case split with
    exhaustive search.  See verify_lemma_cartesian_local."""

    return _verify_local(ProductKind.STRONG, span, workers, budget)


def verify_l2211_periodicity(d_max: int) -> dict[int, Pattern]:
    """Lengths d in [3, d_max] admitting a span-6 pattern for (2, 2, 1, 1).

    Returns the least witness per feasible length.  The feasible lengths
    are exactly the multiples of 7: seven colors with consecutive gaps of
    two force a rigid block of length 7.
    """

    if d_max < 3:
        raise ValueError("d_max must be at least 3")
    out: dict[int, Pattern] = {}
    for d in range(3, d_max + 1):
        pat = exists_cycle_pattern(d, 6, (2, 2, 1, 1))
        if pat is not None:
            out[d] = pat
    return out


def _subgraph_floor(kind: ProductKind, budget: SolveBudget) -> LambdaWitness:
    """Exact span of the small path grid; a floor for every large torus.

    A torus labeling restricted to a window is a valid grid labeling (the
    window only loses constraints), so the grid's span bounds the torus
    span from below.
    """

    key = (kind, budget)
    if key not in _subgraph_cache:
        _subgraph_cache[key] = exact_lambda(_local_identity(kind)[0], budget=budget)
    return _subgraph_cache[key]


def construction(kind: ProductKind, m: int, n: int) -> Pattern | None:
    """The base word whose diagonal lift certifies the span of C_m x C_n,
    or None when the dichotomy lifts none.

    Cartesian: the (2, 1) word of length gcd(m, n) when gcd(m, n) >= 3.
    Strong: the block 0246135 when 7 divides m and n, else the 7/8 block
    concatenation of length gcd(m, n) when gcd(m, n) >= 42.
    """

    d = gcd(m, n)
    if kind is ProductKind.CARTESIAN:
        return l21_cycle_pattern(d) if d >= 3 else None
    if m % 7 == 0 and n % 7 == 0:
        return concatenated_strong_pattern(7)
    return concatenated_strong_pattern(d) if d >= 42 else None


def _checked_lift(pat: Pattern, kind: ProductKind, m: int, n: int, budget_k: int) -> Labeling:
    f = lift_diagonal(pat, kind, m, n)
    if f.k_budget > budget_k:
        raise RuntimeError(f"construction uses span {f.k_budget}, expected <= {budget_k}")
    bad = torus_violations(kind, f.color_grid())
    if bad:
        raise RuntimeError(f"constructed lift fails validation: {bad[0]}")
    return f


def _no_diagonal_span(kind: ProductKind, span: int, m: int, n: int) -> None:
    """Assert no span-`span` diagonal labeling of the m x n torus exists.

    A diagonal labeling is constant on anti-diagonal orbits, which the
    value (i + j) mod gcd(m, n) indexes exactly, so it is the lift of a
    pattern of length gcd(m, n); the exhaustive pattern search must come
    up empty.
    """

    d = gcd(m, n)
    if exists_cycle_pattern(d, span, conditions_for(kind)) is not None:
        raise RuntimeError(
            f"a span-{span} pattern of length {d} exists; the claimed lower bound is wrong"
        )


def _dichotomy(
    kind: ProductKind, m: int, n: int, solve: bool, budget: SolveBudget
) -> LambdaResult:
    side, span, cited = _DICHOTOMY[kind]
    if m < 3 or n < 3:
        raise ValueError("cycle sizes must be at least 3")
    if m < side or n < side:
        if not solve:
            raise ValueError(
                f"the dichotomy is stated for m, n >= {side}; "
                f"pass solve=True to run the exact solver on C_{m} x C_{n}"
            )
        res = exact_lambda(torus(kind, m, n), budget=budget)
        return LambdaResult(
            res.value,
            res.value,
            CertificateKind.CONSTRUCTED,
            res.witness,
            f"exact solver: exhausted span {res.value - 1}, witness at {res.value}",
        )

    floor = _subgraph_floor(kind, budget)
    if floor.value != span:
        raise RuntimeError(f"grid floor is {floor.value}, expected {span}")
    pat = construction(kind, m, n)
    if pat is not None and pat.span <= span:
        window = floor.witness.shape
        lo, lower = span, f"lower bound {span} from the {window.rows} x {window.cols} grid"
    else:
        lemma_fn = (
            verify_lemma_cartesian_local
            if kind is ProductKind.CARTESIAN
            else verify_lemma_strong_local
        )
        lemma = lemma_fn(budget=budget)
        if not lemma.holds:
            raise RuntimeError("local diagonality identity failed; dichotomy unsound")
        _no_diagonal_span(kind, span, m, n)
        lo, lower = span + 1, (
            f"lower bound {span + 1} verified: every span-{span} labeling is diagonal "
            f"({lemma.count} grid labelings checked) and no length-{gcd(m, n)} "
            "pattern exists"
        )
    if pat is None:
        certificate = (
            CertificateKind.CITED_UPPER_VERIFIED_LOWER
            if lo == cited
            else CertificateKind.INTERVAL_CITED
        )
        return LambdaResult(lo, cited, certificate, None, f"upper bound {cited} cited; {lower}")
    return LambdaResult(
        lo,
        lo,
        CertificateKind.CONSTRUCTED,
        _checked_lift(pat, kind, m, n, lo),
        f"lift of the length-{pat.length} pattern; lift validated on the full torus; {lower}",
    )


def lambda_cartesian(
    m: int, n: int, solve: bool = False, budget: SolveBudget = DEFAULT_BUDGET
) -> LambdaResult:
    """Exact span of C_m x C_n under the Cartesian product, for m, n >= 40.

    gcd(m, n) >= 3 gives 4 with a validated lifted witness; otherwise the
    span is 5: the upper bound is cited, and the lower bound is verified
    here by the local diagonality identity and the absence of a short
    pattern.  Below the stated range the dichotomy is not asserted;
    solve=True computes the value exactly.
    """

    return _dichotomy(ProductKind.CARTESIAN, m, n, solve, budget)


def lambda_strong(
    m: int, n: int, solve: bool = False, budget: SolveBudget = DEFAULT_BUDGET
) -> LambdaResult:
    """Span of C_m x C_n under the strong product, for m, n >= 48.

    7 | m and 7 | n gives exactly 6 via the lifted block 0246135; otherwise
    the span is at least 7 (verified: span-6 labelings are forced diagonal
    and only lengths divisible by 7 carry span-6 patterns).  gcd(m, n) >= 42
    gives exactly 7 via a lifted block concatenation; the remaining cases
    are pinned to {7, 8} with the upper bound cited.  solve=True computes
    small instances exactly.
    """

    return _dichotomy(ProductKind.STRONG, m, n, solve, budget)
