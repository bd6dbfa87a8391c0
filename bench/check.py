"""Independent checks of the answers the benchmark receives.

Nothing here calls into lpqcycles.  Torus constraints are derived from the
definition of the product: the edges of C_m x C_n are the translates of the
edge vectors (1, 0), (0, 1) and, for the strong product, (1, 1); the
two-step pairs are the translates of sums of two edge vectors.  Expected
spans come from the divisibility table in the README.
"""

from __future__ import annotations

from math import gcd

import numpy as np

P, Q = 2, 1  # the package's default separations

CONSTRUCTED = "constructed"
CITED = "cited-upper-verified-lower"
INTERVAL = "interval-cited"

# the phrase the dispatch writes when a lift above its size cutoff was
# certified through its pattern alone
UNCHECKED_LIFT = "too large for a full re-check"


def expected_answer(kind: str, m: int, n: int) -> tuple[int, int, str]:
    """(lo, hi, certificate kind) from the divisibility table, above the floors."""
    d = gcd(m, n)
    if kind == "cartesian":
        return (4, 4, CONSTRUCTED) if d >= 3 else (5, 5, CITED)
    if m % 7 == 0 and n % 7 == 0:
        return 6, 6, CONSTRUCTED
    if d >= 42:
        return 7, 7, CONSTRUCTED
    return 7, 8, INTERVAL


def _offsets(kind: str, m: int, n: int) -> dict[tuple[int, int], tuple[int, bool]]:
    """Constrained offsets of the torus, folded mod (m, n) and up to sign,
    each with its required gap and whether it is an edge offset."""

    edges = [(1, 0), (0, 1)] + ([(1, 1)] if kind == "strong" else [])
    twos = [(a[0] + b[0], a[1] + b[1]) for a in edges for b in edges]

    def fold(o: tuple[int, int]) -> tuple[int, int]:
        pos = (o[0] % m, o[1] % n)
        return min(pos, ((-o[0]) % m, (-o[1]) % n))

    out: dict[tuple[int, int], tuple[int, bool]] = {}
    for o in edges:
        out[fold(o)] = (P, True)
    for o in twos:
        f = fold(o)
        if f == (0, 0):
            continue
        gap, is_edge = out.get(f, (0, False))
        out[f] = (max(gap, Q), is_edge)
    return out


def torus_violations(kind: str, grid: np.ndarray) -> list[tuple[int, int, int, bool]]:
    """Violated pairs of a torus labeling as (u, w, required gap, is_edge),
    u < w, sorted by (u, w), each pair once."""

    grid = np.asarray(grid, dtype=np.int64)
    m, n = grid.shape
    colors = grid.reshape(-1)
    idx = np.arange(m * n)
    i, j = idx // n, idx % n
    worst: dict[tuple[int, int], tuple[int, bool]] = {}
    for (di, dj), (gap, is_edge) in _offsets(kind, m, n).items():
        w = ((i + di) % m) * n + (j + dj) % n
        bad = np.nonzero(np.abs(colors - colors[w]) < gap)[0]
        for u, v in zip(idx[bad].tolist(), w[bad].tolist()):
            key = (u, v) if u < v else (v, u)
            old_gap, old_edge = worst.get(key, (0, False))
            worst[key] = (max(old_gap, gap), old_edge or is_edge)
    return [(u, w, gap, edge) for (u, w), (gap, edge) in sorted(worst.items())]


def torus_labeling_error(kind: str, m: int, n: int, grid, k: int) -> str | None:
    """None when grid is a valid k-labeling of the m x n torus, else why not."""
    arr = np.asarray(grid, dtype=np.int64)
    if arr.shape != (m, n):
        return f"labeling has shape {arr.shape}, expected {(m, n)}"
    if arr.min() < 0 or arr.max() > k:
        return f"colors outside 0..{k}"
    bad = torus_violations(kind, arr)
    if bad:
        return f"{len(bad)} violated constraints, first {bad[0]}"
    return None


def pattern_error(word, span: int, conditions: tuple[int, ...]) -> str | None:
    """None when the cyclic word respects the condition vector at this span."""
    L = len(word)
    if min(word) < 0 or max(word) > span:
        return f"pattern colors outside 0..{span}"
    for t, need in enumerate(conditions, start=1):
        for s in range(L):
            if abs(word[s] - word[(s + t) % L]) < need:
                return f"pattern offset {t} fails at position {s}"
    return None


def lambda_result_error(kind: str, m: int, n: int, res) -> str | None:
    """Compare a dispatch answer above the floors with the table, and check
    its witness independently."""

    lo, hi, cert = expected_answer(kind, m, n)
    got = (res.lo, res.hi, res.certificate.value)
    if got != (lo, hi, cert):
        return f"{kind} {m}x{n}: got {got}, expected {(lo, hi, cert)}"
    if cert != CONSTRUCTED:
        return None if res.witness is None else "non-constructive answer carries a witness"
    if UNCHECKED_LIFT in res.note:
        return f"{kind} {m}x{n}: witness was not re-checked on the full torus"
    f = res.witness
    if f is None or f.shape is None or f.k_budget != lo:
        return "constructed answer lacks a torus witness at the claimed span"
    return torus_labeling_error(kind, m, n, f.color_grid(), lo)


def solved_error(kind: str, m: int, n: int, value: int, witness, expected: int) -> str | None:
    """Check an exact-solver answer against its pinned span and its witness."""
    if value != expected:
        return f"{kind} {m}x{n}: span {value}, expected {expected}"
    if witness is None or witness.k_budget != value:
        return "solver witness missing or declared at another budget"
    grid = np.asarray(witness.colors, dtype=np.int64).reshape(m, n)
    return torus_labeling_error(kind, m, n, grid, value)
