"""Exact spans for products of oriented cycles, with checkable certificates.

The dichotomies implemented here:

  * Cartesian product, m, n >= 40: the span is 4 when gcd(m, n) >= 3 and 5
    otherwise.  The 4 comes with a constructed lift that is validated on
    the spot; the 5 pairs an upper bound taken from the literature with a
    machine-verified lower bound.
  * Strong product, m, n >= 48: the span is 6 when 7 divides both m and n,
    7 when it does not but gcd(m, n) >= 42, and lies in {7, 8} otherwise.

Both halves rest on one search for words of length gcd(m, n) and on one
exhaustive check of a small path grid, the window (3 x 3 Cartesian, 4 x 4
strong).  A witness lifts the least word at the window span (4 Cartesian,
6 strong), or above a per-kind gcd floor at the window span + 1, validated
on the full torus.  The window has no labeling at span - 1, which floors
every torus at the window span; a lower bound above it pairs the word
search's failure with the window identity, which forces every window-span
torus labeling to lift such a word.  An explicit solve flag hands smaller
instances to the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import gcd

from . import solver
from .graphs import ProductKind, grid, torus
from .labelings import DEFAULT_PARAMS, Labeling, torus_violations
from .patterns import Pattern, _feasible_words, conditions_for, exists_cycle_pattern, lift_diagonal
from .solver import DEFAULT_BUDGET, SolveBudget, _Limits, _compile_pairs, _search, exact_lambda


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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: what ran, whether it holds, what it counted
    (window labelings, words found, or feasible lengths), and its witness:
    a grid labeling, written as its rows, a flat list of ints, or None."""

    check: str
    holds: bool
    count: int
    witness: Labeling | list[int] | None

    def to_document(self) -> dict:
        witness = self.witness
        if isinstance(witness, Labeling):
            witness = [[int(c) for c in row] for row in witness.color_grid()]
        return {
            "check": self.check,
            "holds": self.holds,
            "count": self.count,
            "witness": witness,
        }


# per product kind: the side floor of the dichotomy, the window span at
# which the local identity holds (also the span of the window grid), the
# upper bound cited when no lift exists, and the least gcd(m, n) from which
# a word at the window span + 1 is lifted (never binding for Cartesian: no
# word of length <= 2 exists at any span)
_DICHOTOMY = {
    ProductKind.CARTESIAN: (40, 4, 5, 1),
    ProductKind.STRONG: (48, 6, 8, 42),
}

# per product kind: the side of the square path grid the window lemma
# checks, and the two cells (i, j) of its identity f(a) = f(b).  The
# identity holding on every labeling of the grid at the window span forces
# every torus labeling at that span to be diagonal: each cell of a torus
# sits in such a window, and the window equation rewritten at all
# positions is exactly f(i, j) = f(i+1 mod m, j-1 mod n).
_WINDOW = {
    ProductKind.CARTESIAN: (3, (1, 1), (0, 2)),
    ProductKind.STRONG: (4, (1, 2), (2, 1)),
}


# cached per process: these enumerations back every dichotomy dispatch.
# The key is (kind, span, budget).  The budget is part of it, so a cached
# answer never stands in for a call whose own budget would run out.  The
# public wrappers resolve a missing span first, so they and CLI lemmas
# share the dispatch's entries.
@cache
def _verify_local(kind: ProductKind, span: int, budget: SolveBudget) -> CheckReport:
    side, a, b = _WINDOW[kind]
    g = grid(kind, side, side)
    u, v = g.shape.vertex_id(*a), g.shape.vertex_id(*b)
    # the count and the raced search for the least labeling that breaks
    # the identity (the counterexample) spend one budget
    limits = _Limits(budget.max_nodes)
    # compiled through the module, where bench/spans.py times the call
    plain = solver.compile_constraints(g, DEFAULT_PARAMS)
    differ = _compile_pairs(g.n_vertices, g.shape, plain.pairs + ((u, v, 1),))
    _w, total = _search(plain, span, limits)
    breaker, _count = _search(differ, span, limits, first=True, race=True)
    witness = None if breaker is None else Labeling(breaker, span, g.shape)
    name = f"{kind.value}-local-diagonality-span-{span}"
    return CheckReport(name, witness is None, total, witness)


def verify_lemma_cartesian_local(
    span: int | None = None, budget: SolveBudget = DEFAULT_BUDGET
) -> CheckReport:
    """Check that every span-4 labeling of the 3 x 3 Cartesian path grid
    satisfies f(1, 1) = f(0, 2), by searching for one that breaks it.

    count is the full number of labelings, counted in this process (the
    count pairs labelings under c -> span - c, see count_labelings).  A
    different span probes the same identity where it is not expected to
    hold: at 5 the least breaker is returned as the counterexample.
    Reports are cached with the dispatch's, per span and budget.
    """

    span = _DICHOTOMY[ProductKind.CARTESIAN][1] if span is None else span
    return _verify_local(ProductKind.CARTESIAN, span, budget)


def verify_lemma_strong_local(
    span: int | None = None, budget: SolveBudget = DEFAULT_BUDGET
) -> CheckReport:
    """Check that every span-6 labeling of the 4 x 4 strong path grid
    satisfies f(1, 2) = f(2, 1), replacing a by-hand case split with an
    exhaustive search for a breaker.  See verify_lemma_cartesian_local."""

    span = _DICHOTOMY[ProductKind.STRONG][1] if span is None else span
    return _verify_local(ProductKind.STRONG, span, budget)


def verify_l2211_periodicity(d_max: int) -> dict[int, Pattern]:
    """Lengths d in [3, d_max] admitting a span-6 pattern for (2, 2, 1, 1).

    Returns the least witness per feasible length.  The feasible lengths
    are exactly the multiples of 7: seven colors with consecutive gaps of
    two force a rigid block of length 7.  The scan is the one the CLI's
    pattern --feasible-up-to runs, and d_max below 3 raises ValueError.
    """

    return _feasible_words(d_max, 6, (2, 2, 1, 1))


# keyed by the budget, as _verify_local is
@cache
def _least_word(
    kind: ProductKind, length: int, span: int, budget: SolveBudget
) -> Pattern | None:
    return exists_cycle_pattern(length, span, conditions_for(kind), budget)


def construction(
    kind: ProductKind, m: int, n: int, budget: SolveBudget = DEFAULT_BUDGET
) -> tuple[Pattern, Labeling] | None:
    """The base word and its diagonal lift that certify the span of
    C_m x C_n, or None when the dichotomy lifts none.

    The word has length d = gcd(m, n).  It is the least word at the window
    span (4 Cartesian, 6 strong); failing that, and only when d reaches the
    kind's lift floor (42 strong), the least word at the window span + 1.
    The lift is validated on the full torus; a failure raises RuntimeError.
    The dispatch and CLI construct both hand out this lift.  Each word
    search runs under budget on its own; the searches do not share it.
    """

    if m < 3 or n < 3:
        raise ValueError("cycle sizes must be at least 3")
    _side, span, _cited, lift_floor = _DICHOTOMY[kind]
    d = gcd(m, n)
    word = _least_word(kind, d, span, budget)
    if word is None and d >= lift_floor:
        word = _least_word(kind, d, span + 1, budget)
    if word is None:
        return None
    f = lift_diagonal(word, kind, m, n)
    bad = torus_violations(kind, f.color_grid())
    if bad:
        raise RuntimeError(f"constructed lift fails validation: {bad[0]}")
    return word, f


def _dichotomy(
    kind: ProductKind, m: int, n: int, solve: bool, budget: SolveBudget
) -> LambdaResult:
    side, span, cited, _lift_floor = _DICHOTOMY[kind]
    if m < 3 or n < 3:
        raise ValueError("cycle sizes must be at least 3")
    if m < side or n < side:
        if not solve:
            raise ValueError(
                f"the dichotomy is stated for m, n >= {side}; "
                f"pass solve=True to run the exact solver on C_{m} x C_{n}"
            )
        res = exact_lambda(torus(kind, m, n), budget=budget)
        bad = torus_violations(kind, res.witness.color_grid())
        if bad:
            raise RuntimeError(f"solver witness fails validation: {bad[0]}")
        return LambdaResult(
            res.value,
            res.value,
            CertificateKind.CONSTRUCTED,
            res.witness,
            f"exact solver: exhausted span {res.value - 1}, witness at {res.value}",
        )

    # a torus labeling restricts to a labeling of every window, so a window
    # with no labeling at span - 1 puts the torus span at span or above
    if _verify_local(kind, span - 1, budget).count:
        raise RuntimeError(f"grid floor below {span}: the window has span-{span - 1} labelings")
    _word, f = construction(kind, m, n, budget) or (None, None)
    if f is not None and f.k_budget <= span:
        side = _WINDOW[kind][0]
        lo, lower = span, f"lower bound {span} from the {side} x {side} grid"
    else:
        lemma = _verify_local(kind, span, budget)
        if not lemma.holds:
            raise RuntimeError("local diagonality identity failed; dichotomy unsound")
        # every span-`span` labeling is diagonal, so it lifts a word of
        # length gcd(m, n); construction's failed search at that span is
        # the "no such word" half of this bound
        lo, lower = span + 1, (
            f"lower bound {span + 1} verified: every span-{span} labeling is diagonal "
            f"({lemma.count} grid labelings checked) and no length-{gcd(m, n)} "
            "pattern exists"
        )
    if f is None:
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
        f,
        f"lift of the length-{gcd(m, n)} pattern; lift validated on the full torus; {lower}",
    )


def lambda_cartesian(
    m: int, n: int, solve: bool = False, budget: SolveBudget = DEFAULT_BUDGET
) -> LambdaResult:
    """Exact span of C_m x C_n under the Cartesian product, for m, n >= 40.

    gcd(m, n) >= 3 gives 4: the least span-4 word of length gcd(m, n) lifts
    to a validated witness.  Otherwise the span is 5: the upper bound is
    cited, and the lower bound is verified here by the local diagonality
    identity and the failed span-4 word search.  Below the stated range the
    dichotomy is not asserted; solve=True computes the value exactly.
    """

    return _dichotomy(ProductKind.CARTESIAN, m, n, solve, budget)


def lambda_strong(
    m: int, n: int, solve: bool = False, budget: SolveBudget = DEFAULT_BUDGET
) -> LambdaResult:
    """Span of C_m x C_n under the strong product, for m, n >= 48.

    7 | m and 7 | n gives exactly 6 via the lift of the least span-6 word of
    length gcd(m, n); otherwise the span is at least 7 (verified: span-6
    labelings are forced diagonal and the span-6 word search fails).
    gcd(m, n) >= 42 gives exactly 7 via the lift of the least span-7 word;
    the remaining cases are pinned to {7, 8} with the upper bound cited.
    solve=True computes small instances exactly.
    """

    return _dichotomy(ProductKind.STRONG, m, n, solve, budget)
