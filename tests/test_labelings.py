import json
import re
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpqcycles import (
    ConstraintParams,
    Digraph,
    Labeling,
    Pattern,
    ProductKind,
    ProductShape,
    Violation,
    ViolationKind,
    constraint_pairs,
    exists_cycle_pattern,
    grid,
    is_diagonal,
    labeling_document,
    labeling_from_document,
    lift_diagonal,
    oriented_cycle,
    oriented_path,
    read_labeling,
    torus,
    torus_violations,
    validate,
    write_labeling,
)
from lpqcycles.labelings import DEFAULT_PARAMS, _diagonal_exit, _signed_stencil, _stencil
from oracles import complement, l21_cycle_pattern, pair_gaps, reduce_rows, torus_stencil

CART = ProductKind.CARTESIAN
STRONG = ProductKind.STRONG


def lab(colors, k, shape=None):
    return Labeling(np.array(colors, dtype=np.int64), k, shape)


# --- constraint pair map -----------------------------------------------------

@pytest.mark.parametrize(
    "g",
    [
        oriented_cycle(3),
        oriented_cycle(5),
        oriented_path(4),
        torus(CART, 3, 4),
        torus(STRONG, 3, 3),
        grid(STRONG, 4, 4),
    ],
)
@pytest.mark.parametrize("params", [ConstraintParams(2, 1), ConstraintParams(1, 3)])
def test_constraint_pairs_match_oracle(g, params):
    ours = {pair: gap for pair, (gap, _k) in constraint_pairs(g, params).items()}
    assert ours == pair_gaps(g, params.p, params.q)


def test_dual_pair_reports_edge_kind_at_max_gap():
    # every pair of C_3 is both an edge and a two-step pair
    pairs = constraint_pairs(oriented_cycle(3), ConstraintParams(1, 3))
    assert pairs == {
        (0, 1): (3, ViolationKind.EDGE_GAP),
        (0, 2): (3, ViolationKind.EDGE_GAP),
        (1, 2): (3, ViolationKind.EDGE_GAP),
    }


# --- validate ----------------------------------------------------------------

def test_validate_accepts_known_labeling():
    assert validate(oriented_cycle(3), lab([0, 2, 4], 4)) == []


def test_validate_reports_each_bad_pair_once_in_order():
    g = oriented_cycle(4)
    f = lab([0, 0, 0, 0], 4)
    vio = validate(g, f)
    assert [(v.pair, v.kind, v.required) for v in vio] == [
        ((0, 1), ViolationKind.EDGE_GAP, 2),
        ((0, 2), ViolationKind.TWO_STEP_GAP, 1),
        ((0, 3), ViolationKind.EDGE_GAP, 2),
        ((1, 2), ViolationKind.EDGE_GAP, 2),
        ((1, 3), ViolationKind.TWO_STEP_GAP, 1),
        ((2, 3), ViolationKind.EDGE_GAP, 2),
    ]
    assert vio[0].labels == (0, 0)
    f2 = lab([0, 0, 2, 2], 4)
    assert [(v.pair, v.kind) for v in validate(g, f2)] == [
        ((0, 1), ViolationKind.EDGE_GAP),
        ((2, 3), ViolationKind.EDGE_GAP),
    ]


def test_validate_size_mismatch():
    with pytest.raises(ValueError):
        validate(oriented_cycle(4), lab([0, 2, 4], 4))


# tori through the stencil (offsets fold on the 3 x 5 and 3 x 7 strong
# tori) and two graphs through the pair map
_ORACLE_GRAPHS = [
    torus(CART, 3, 3), torus(CART, 4, 4), torus(STRONG, 3, 3), torus(STRONG, 4, 4),
    torus(STRONG, 3, 5), torus(STRONG, 3, 7), grid(STRONG, 4, 4), oriented_cycle(7),
]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_validate_agrees_with_oracle_on_random_labelings(data):
    """The full Violation list, order, kinds and labels included, against
    one read off the oracle's pair gaps and g's edges in either orientation."""
    g = data.draw(st.sampled_from(_ORACLE_GRAPHS))
    p, q = data.draw(st.sampled_from([(2, 1), (1, 3)]))
    colors = data.draw(st.lists(st.integers(0, 6), min_size=g.n_vertices,
                                max_size=g.n_vertices))
    edges = {(u, w) for u, w in g.edges()}
    want = [
        Violation(
            ViolationKind.EDGE_GAP if (a, b) in edges or (b, a) in edges
            else ViolationKind.TWO_STEP_GAP,
            (a, b), (colors[a], colors[b]), need,
        )
        for (a, b), need in sorted(pair_gaps(g, p, q).items())
        if abs(colors[a] - colors[b]) < need
    ]
    assert validate(g, lab(colors, 6, g.shape), ConstraintParams(p, q)) == want


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("m", range(3, 10))
def test_torus_stencil_matches_generic_path(kind, m):
    """The stencil validate uses on tori against the pair map of a
    shape-less copy of the same graph, on every torus with sides 3..9
    (offsets wrap onto each other at sides 3 and 4)."""
    rng = np.random.default_rng(m)
    for n in range(3, 10):
        g = torus(kind, m, n)
        plain = Digraph(g.n_vertices, g.out_edges)
        for p, q in [(2, 1), (1, 2), (0, 1), (3, 3)]:
            params = ConstraintParams(p, q)
            for trial in range(6):
                colors = rng.integers(0, 5, m * n)
                colors[2] = colors[0]  # offset (0, 2) needs gap >= 1 at every (p, q)
                f = lab(colors, 4, g.shape if trial % 2 else None)
                want = validate(plain, f, params)
                assert want
                assert validate(g, f, params) == want
                assert torus_violations(kind, colors.reshape(m, n), params) == want


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("params", [ConstraintParams(2, 1), ConstraintParams(1, 2),
                                    ConstraintParams(3, 3)])
def test_cached_stencil_matches_the_direct_fold(kind, params):
    """One cached stencil per side clamped to 5 serves every torus: on
    sides 3..12 its offsets mod (m, n) are the fold at (m, n) itself,
    including the strong 3 x n folds of (2, 1) and (2, 2) that depend on n."""
    for m in range(3, 13):
        for n in range(3, 13):
            assert _stencil(kind, m, n, params) == torus_stencil(kind, m, n, params)
    assert _signed_stencil(kind, 5, 5, params) is _signed_stencil(kind, 5, 5, params)
    assert _stencil(kind, 40, 41, params) == torus_stencil(kind, 40, 41, params)


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("params", [ConstraintParams(2, 1), ConstraintParams(1, 2),
                                    ConstraintParams(3, 3), ConstraintParams(0, 1),
                                    ConstraintParams(1, 0)])
def test_stencil_translates_to_the_constraint_pairs(kind, params):
    """Every offset of the stencil, translated to every cell, gives exactly
    the pair map of the torus graph, gap and kind included, on sides 3..12."""
    for m in range(3, 13):
        for n in range(3, 13):
            pairs = {}
            for (di, dj), gap_kind in _stencil(kind, m, n, params):
                for i in range(m):
                    for j in range(n):
                        u, w = i * n + j, (i + di) % m * n + (j + dj) % n
                        key = (min(u, w), max(u, w))
                        assert pairs.setdefault(key, gap_kind) == gap_kind
            assert pairs == constraint_pairs(torus(kind, m, n), params)


def lift_conditions(kind, params):
    """The word conditions under which a diagonal lift satisfies params:
    an edge joins cells one or (strong diagonal) two anti-diagonals apart,
    a two-step pair cells two to four apart."""
    p, q = params.p, params.q
    return (p, q) if kind is CART else (p, max(p, q), q, q)


def least_lift_word(kind, L, params):
    """The least word of length L at the least span whose lift satisfies
    params, or None when no span up to 40 has one."""
    conds = lift_conditions(kind, params)
    return next((w for span in range(41)
                 if (w := exists_cycle_pattern(L, span, conds)) is not None), None)


def assert_agrees_with_generic_path(kind, grid_, params, k):
    """torus_violations and validate on the torus, against validate on a
    shape-less copy of the same graph; returns the common result."""
    m, n = grid_.shape
    g = torus(kind, m, n)
    plain = Digraph(g.n_vertices, g.out_edges)
    f = lab(grid_.reshape(-1), k, g.shape)
    want = validate(plain, f, params)
    assert validate(g, f, params) == want
    assert torus_violations(kind, grid_, params) == want
    return want


@pytest.mark.parametrize("kind", [CART, STRONG])
def test_torus_stencil_matches_generic_path_on_valid_lifts(kind):
    """The early return for a clean grid against the generic path: lifts of
    least words on every torus with sides 3..12 and a common divisor L >= 3,
    each valid, then each with one cell recolored."""
    rng = np.random.default_rng(17)
    lifts = 0
    for p, q in [(2, 1), (1, 2), (0, 1), (3, 3)]:
        params = ConstraintParams(p, q)
        for m in range(3, 13):
            for n in range(3, 13):
                for L in range(3, gcd(m, n) + 1):
                    if m % L or n % L:
                        continue
                    word = least_lift_word(kind, L, params)
                    if word is None:
                        continue
                    f = lift_diagonal(word, kind, m, n)
                    colors = f.color_grid().copy()
                    assert assert_agrees_with_generic_path(kind, colors, params, word.span) == []
                    i, j = rng.integers(0, m), rng.integers(0, n)
                    colors[i, j] = (colors[i, j] + 1 + rng.integers(0, word.span + 1)) % (word.span + 2)
                    assert_agrees_with_generic_path(kind, colors, params, word.span + 1)
                    lifts += 1
    assert lifts > 50


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("values", [
    (0, 2**14 - 1),  # int16 differences, up to 2**14 - 1
    (0, 2**14 - 2, 2**15 - 2),  # shifted, int64: 2**15 - 2 is not below 2**14
    (0, 2**14),  # just past the int16 cutoff
    (0, 2**15, 2**16),  # differences above int16's range
])
@pytest.mark.parametrize("params", [
    ConstraintParams(2, 1), ConstraintParams(2**14 - 1, 1), ConstraintParams(2**14, 2**14 - 1),
    ConstraintParams(40000, 1),  # a gap no int16 difference reaches
])
def test_torus_violations_edge_colors_match_generic_path(kind, values, params):
    # unsigned grids take signed differences too, which never wrap around
    rng = np.random.default_rng(len(values))
    for m, n in [(5, 6), (7, 5)]:
        colors = rng.choice(np.array(values), size=(m, n))
        for dtype in (np.int64, np.uint32, np.uint64):
            assert_agrees_with_generic_path(kind, colors.astype(dtype), params, max(values))


@pytest.mark.parametrize("kind", [CART, STRONG])
def test_torus_violations_negative_colors_at_the_int16_cutoff(kind):
    """A raw grid may hold negative colors, which no Labeling does: colors
    at +-(2**14 - 1) take int16 differences, at +-2**14 int64 ones.  The
    generic path sees the grid shifted to start at 0, which moves no gap."""
    rng = np.random.default_rng(14)
    for top in (2**14 - 1, 2**14):
        for params in [ConstraintParams(2**15 - 2, 1), ConstraintParams(2**15, 1),
                       ConstraintParams(40000, 2**14)]:
            colors = rng.choice(np.array([-top, 0, top]), size=(6, 5))
            shifted = colors + top
            want = [
                Violation(v.kind, v.pair, (v.labels[0] - top, v.labels[1] - top), v.required)
                for v in assert_agrees_with_generic_path(kind, shifted, params, 2 * top)
            ]
            assert want
            assert torus_violations(kind, colors, params) == want


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("top", [4, 2**14])
def test_torus_violations_reads_a_non_contiguous_grid(kind, top):
    rng = np.random.default_rng(top)
    base = rng.integers(0, top + 1, size=(14, 6))
    for colors in (base.T, base[::2].T[:, ::-1]):  # 6 x 14 and 6 x 7 views
        assert not colors.flags.c_contiguous
        got = torus_violations(kind, colors, ConstraintParams(2, 1))
        assert got == assert_agrees_with_generic_path(
            kind, np.ascontiguousarray(colors), ConstraintParams(2, 1), top)


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("m,n", [(3, 7), (3, 11), (11, 3), (4, 9), (9, 4), (3, 3), (4, 4)])
def test_torus_violations_pads_past_two_on_small_sides(kind, m, n):
    """With 3 rows a strong (2, 1) folds to (1, n - 1), so the wrap pad is
    n - 1 columns wide; the other shapes keep offsets of at most 2."""
    params = ConstraintParams(2, 1)
    reach = max(max(offset) for offset, _gap_kind in _stencil(kind, m, n, params))
    if kind is STRONG and m == 3:
        assert reach == n - 1
    else:
        assert reach <= 2
    rng = np.random.default_rng(m * n)
    for trial in range(20):
        colors = rng.integers(0, 9 if trial % 2 else 30, size=(m, n))
        assert_agrees_with_generic_path(kind, colors, params, 30)


# --- the diagonal exit of torus_violations ----------------------------------

EXIT_PARAMS = [ConstraintParams(2, 1), ConstraintParams(1, 2), ConstraintParams(0, 1),
               ConstraintParams(1, 0), ConstraintParams(3, 3)]


def diagonal_grid(word, m, n):
    """The m x n grid word[(i + j) mod len(word)], built from index arrays."""
    return np.asarray(word)[(np.arange(m)[:, None] + np.arange(n)) % len(word)]


def broken_offsets(kind, word, params):
    """The word offsets t of lift_conditions that word breaks cyclically."""
    L = len(word)
    return {t for t, need in enumerate(lift_conditions(kind, params), start=1)
            if any(abs(word[s] - word[(s + t) % L]) < need for s in range(L))}


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("params", EXIT_PARAMS)
def test_diagonal_exit_agrees_when_one_projected_offset_breaks(kind, params):
    """A valid lift takes the exit; each one-cell recoloring of its word
    that breaks exactly one projected offset t, lifted again, does not,
    and both agree with the generic path."""
    broken = set()
    for L in (5, 9):  # from 9 on, t = 1..4 and their negatives differ mod L
        word = least_lift_word(kind, L, params).colors
        for m, n in [(L, 2 * L), (2 * L, L), (3 * L, 2 * L)]:
            grid_ = diagonal_grid(word, m, n)
            assert _diagonal_exit(kind, grid_, params)
            assert assert_agrees_with_generic_path(kind, grid_, params, max(word)) == []
        top = max(word) + 3
        for s in range(L):
            for c in range(top + 1):
                bad = word[:s] + (c,) + word[s + 1:]
                hit = broken_offsets(kind, bad, params)
                if len(hit) != 1:
                    continue
                broken |= hit
                for m, n in [(L, 2 * L), (2 * L, L)]:
                    grid_ = diagonal_grid(bad, m, n)
                    assert not _diagonal_exit(kind, grid_, params)
                    assert assert_agrees_with_generic_path(kind, grid_, params, top)
    # every offset with a positive gap is broken alone by some recoloring
    assert broken == {t for t, need in enumerate(lift_conditions(kind, params), start=1)
                      if need}


def test_diagonal_exit_checks_the_wrap():
    """0 2 4 1 3 5 is a valid Cartesian word of period 6: its lift to the
    6 x 6 torus takes the exit, while its first four rows, diagonal inside
    the grid, break only across the wrap from the last row to the first."""
    word = (0, 2, 4, 1, 3, 5)
    six = diagonal_grid(word, 6, 6)
    assert _diagonal_exit(CART, six, DEFAULT_PARAMS)
    assert assert_agrees_with_generic_path(CART, six, DEFAULT_PARAMS, 5) == []
    four = six[:4]
    assert (four[1:, :-1] == four[:-1, 1:]).all()
    assert not is_diagonal(lab(four.reshape(-1), 5, ProductShape(CART, 4, 6, cyclic=True)))
    assert not _diagonal_exit(CART, four, DEFAULT_PARAMS)
    want = assert_agrees_with_generic_path(CART, four, DEFAULT_PARAMS, 5)
    assert want
    # every violated pair joins a cell of rows 0..1 to one of rows 2..3
    # through the wrap
    assert all(v.pair[0] // 6 < 2 <= v.pair[1] // 6 for v in want)


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("params", EXIT_PARAMS)
def test_diagonal_exit_on_sides_3_and_4(kind, params):
    """On sides 3 and 4 folded offsets can project onto t = 0 mod n (the
    strong (2, 1) on 3 rows, (2, 2) on 4 columns); such grids take the
    stencil loop.  Diagonal grids of every word length dividing both
    sides, valid or not, agree with the generic path."""
    rng = np.random.default_rng(34)
    shapes = [(3, 3), (3, 6), (6, 3), (4, 4), (4, 8), (8, 4), (3, 12), (12, 4), (3, 9)]
    zeros = []
    for m, n in shapes:
        onto_zero = any((di + dj) % n == 0 for (di, dj), _gk in _stencil(kind, m, n, params))
        if onto_zero:
            zeros.append((m, n))
        for L in range(1, gcd(m, n) + 1):
            if gcd(m, n) % L:
                continue
            for _trial in range(4):
                grid_ = diagonal_grid(rng.integers(0, 12, L), m, n)
                if onto_zero:
                    assert not _diagonal_exit(kind, grid_, params)
                assert_agrees_with_generic_path(kind, grid_, params, 11)
    # a strong torus with 3 rows, or 3 or 4 columns, has one; Cartesian none
    assert zeros == ([mn for mn in shapes if mn != (4, 8)] if kind is STRONG else [])


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("params", EXIT_PARAMS)
def test_diagonal_exit_across_dtypes_and_views(kind, params):
    """Valid and one-cell-broken lifts as int16, uint8, uint32, uint64 and
    float64 grids and as non-contiguous views; float grids never take the
    exit, integer grids take it exactly when the lift is valid."""
    word = least_lift_word(kind, 7, params)
    for m, n in [(7, 14), (14, 7)]:
        valid = diagonal_grid(word.colors, m, n)
        broken = valid.copy()
        # a color taken over from the neighbour (0, 1) or (0, 2) away, at a gap >= 1
        broken[m - 1, 3] = broken[m - 1, 4 if params.p else 5]
        for grid_, ok in ((valid, True), (broken, False)):
            for dtype in (np.int16, np.uint8, np.uint32, np.uint64, np.float64):
                cast = grid_.astype(dtype)
                wide = np.zeros((n, 2 * m), dtype)
                wide[:, ::2] = cast.T
                for view in (cast, wide[:, ::2].T):
                    assert _diagonal_exit(kind, view, params) is (ok and dtype is not np.float64)
                    got = assert_agrees_with_generic_path(kind, view, params, word.span)
                    assert (got == []) is ok


def test_validate_checks_a_torus_shape_against_the_graph():
    """A cyclic shape on a graph that is not that torus routes to the pair
    map: the oriented path 0 -> ... -> 8 under a 3 x 3 Cartesian torus shape
    has the path's violations (none), not the torus's 9 vertical ones."""
    f = lab([0, 2, 4] * 3, 4)
    path = oriented_path(9)
    shaped = Digraph(9, path.out_edges, ProductShape(CART, 3, 3, cyclic=True))
    assert validate(path, f) == []
    assert validate(shaped, f) == []
    assert len(validate(torus(CART, 3, 3), f)) == 9


@pytest.mark.parametrize("kind", [CART, STRONG])
def test_validate_checks_a_torus_with_an_extra_edge(kind):
    """One more edge under the torus shape joins two equal colors of a
    valid lift; validate reports it as the shape-less copy does."""
    m = n = 10
    word = least_lift_word(kind, 5, DEFAULT_PARAMS)
    f = lift_diagonal(word, kind, m, n)
    g = torus(kind, m, n)
    near = {x for edge in g.edges() if 0 in edge for x in edge}
    target = next(v for v in range(1, m * n) if f.colors[v] == f.colors[0] and v not in near)
    out_edges = (g.out_edges[0] + (target,),) + g.out_edges[1:]
    shaped = Digraph(m * n, out_edges, g.shape)
    plain = Digraph(m * n, out_edges)
    assert validate(g, f) == []
    want = validate(plain, f)
    assert Violation(ViolationKind.EDGE_GAP, (0, target), (0, 0), 2) in want
    assert validate(shaped, f) == want


@pytest.mark.parametrize("kind", [CART, STRONG])
def test_validate_checks_neighbours_not_only_degrees(kind):
    """Graphs with a torus's degrees under its shape but other edges: the
    edge 0 -> (1, 0) redirected to (5, 0), which has 0's color, and the
    5 x 10 torus under a 10 x 5 shape."""
    word = least_lift_word(kind, 5, DEFAULT_PARAMS)
    f = lift_diagonal(word, kind, 10, 5)
    g = torus(kind, 10, 5)
    assert g.out_edges[0][0] == 5 and f.color_at(5, 0) == f.color_at(0, 0)
    redirected = ((25,) + g.out_edges[0][1:],) + g.out_edges[1:]
    wide = torus(kind, 5, 10)
    for out_edges in (redirected, wide.out_edges):
        plain = Digraph(50, out_edges)
        want = validate(plain, f)
        assert want
        assert validate(Digraph(50, out_edges, g.shape), f) == want


def test_torus_violations_guards():
    with pytest.raises(ValueError):
        torus_violations(CART, np.zeros((2, 5), dtype=np.int64))
    # colors below 2**62 in size take exact int64 differences; one at 2**62
    # might not, and is refused rather than wrapped
    for dtype in (np.int64, np.uint64):
        colors = lift_diagonal(Pattern((0, 2, 4), (2, 1)), CART, 6, 6).color_grid()
        colors = colors.astype(dtype) * 2**59
        assert torus_violations(CART, colors) == []
        colors[0, 0] = 2**62
        with pytest.raises(ValueError, match="colors"):
            torus_violations(CART, colors)
    # a diagonal grid whose word reaches +-2**62 takes the loop, which refuses it
    word = np.array([0, 1, 2], dtype=np.int64) * 2**61
    for colors in (diagonal_grid(word, 6, 6), diagonal_grid(-word, 6, 6),
                   diagonal_grid(word, 6, 6).astype(np.uint64)):
        with pytest.raises(ValueError, match="colors"):
            torus_violations(CART, colors)
        assert torus_violations(CART, colors // 2) == []


def test_labeling_guards():
    with pytest.raises(ValueError):
        lab([0, 5], 4)  # color above budget
    with pytest.raises(ValueError):
        lab([-1, 0], 4)
    with pytest.raises(ValueError):
        lab([], 4)
    with pytest.raises(ValueError):
        Labeling(np.array([0, 1]), -1)
    with pytest.raises(ValueError):
        lab([0, 1, 2], 4, ProductShape(CART, 2, 2, cyclic=True))


@pytest.mark.parametrize("k", [0, 4, 2**62, 2**63 - 2, 2**63 - 1, 2**63, 2**64])
def test_labeling_range_check_at_every_budget(k):
    """Colors -1, k and k + 1 against budgets up to 2**64; a color above
    the largest int64 cannot be held, so there the largest int64 is the
    color accepted and -2**63 another one refused."""
    message = re.escape(f"colors must lie in 0..{k}")
    top = min(k, 2**63 - 1)
    assert lab([0, top, top // 2], k).k_budget == k
    for bad in ([0, -1], [-1, top], [-(2**63), 0]):
        with pytest.raises(ValueError, match=message):
            lab(bad, k)
    if k < 2**63 - 1:
        with pytest.raises(ValueError, match=message):
            lab([k + 1, 0], k)


def test_labeling_is_immutable():
    f = lab([0, 2, 4], 4)
    with pytest.raises(ValueError):
        f.colors[0] = 3


# --- complement --------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=5, max_size=5))
def test_complement_involution_and_validity(colors):
    g = oriented_cycle(5)
    f = lab(colors, 4)
    c = complement(f, 4)
    assert complement(c, 4).as_tuple() == f.as_tuple()
    assert len(validate(g, f)) == len(validate(g, c))


def test_complement_range_guard():
    with pytest.raises(ValueError):
        complement(lab([0, 5], 5), 4)


# --- diagonality and row reduction ------------------------------------------

def test_is_diagonal_on_lift_and_perturbation():
    f = lift_diagonal(l21_cycle_pattern(5), CART, 10, 5)
    assert is_diagonal(f)
    colors = f.colors.copy()
    colors[7] = (colors[7] + 2) % 5
    assert not is_diagonal(lab(colors, 4, f.shape))


def test_is_diagonal_requires_torus():
    with pytest.raises(ValueError):
        is_diagonal(lab([0, 2, 4], 4))
    with pytest.raises(ValueError):
        is_diagonal(lab([0] * 16, 4, ProductShape(CART, 4, 4, cyclic=False)))


def test_reduce_rows_chain():
    f = lift_diagonal(l21_cycle_pattern(5), CART, 15, 5)
    r = reduce_rows(f)
    assert (r.shape.rows, r.shape.cols) == (10, 5)
    assert is_diagonal(r)
    assert validate(torus(CART, 10, 5), r) == []
    r2 = reduce_rows(r)
    assert (r2.shape.rows, r2.shape.cols) == (5, 5)
    assert r2.color_grid().tolist() == f.color_grid()[:5].tolist()


def test_reduce_rows_preconditions():
    small = lift_diagonal(l21_cycle_pattern(5), CART, 5, 5)
    with pytest.raises(ValueError):
        reduce_rows(small)  # 5 < 5 + 3
    g = torus(CART, 8, 5)
    bad = lab([0] * 40, 4, g.shape)
    with pytest.raises(ValueError):
        reduce_rows(bad)  # diagonal but invalid
    f = lift_diagonal(l21_cycle_pattern(5), CART, 10, 5)
    colors = f.colors.copy()
    colors[3] = (colors[3] + 1) % 5
    with pytest.raises(ValueError):
        reduce_rows(lab(colors, 4, f.shape))  # not diagonal


# --- JSON documents ----------------------------------------------------------

def test_document_key_order_is_fixed():
    f = lift_diagonal(l21_cycle_pattern(3), CART, 3, 3)
    doc = labeling_document(f)
    assert list(doc) == ["product", "m", "n", "p", "q", "k", "labels"]
    doc = labeling_document(f, pattern=(0, 2, 4))
    assert list(doc) == ["product", "m", "n", "p", "q", "k", "labels", "pattern"]


def test_document_round_trip_torus(tmp_path):
    f = lift_diagonal(l21_cycle_pattern(4), STRONG, 8, 4)
    p = tmp_path / "f.json"
    with open(p, "w") as fp:
        write_labeling(fp, f, ConstraintParams(2, 1), pattern=(0, 3, 1, 4))
    with open(p) as fp:
        g, back, params = read_labeling(fp)
    assert back.as_tuple() == f.as_tuple()
    assert back.shape == f.shape
    assert params == ConstraintParams(2, 1)
    assert g.n_vertices == 32


def test_document_round_trip_single_cycle():
    f = lab([0, 2, 4, 1, 3], 4)
    doc = labeling_document(f)
    assert doc["product"] == "none" and doc["m"] == 1 and doc["n"] == 5
    g, back, _params = labeling_from_document(doc)
    assert g.n_edges == 5
    assert back.as_tuple() == f.as_tuple()
    assert back.shape is None


def test_reader_accepts_any_key_order():
    doc = labeling_document(lift_diagonal(l21_cycle_pattern(3), CART, 3, 3))
    shuffled = {k: doc[k] for k in reversed(list(doc))}
    _g, back, _p = labeling_from_document(shuffled)
    assert back.color_grid().tolist() == doc["labels"]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("k"),
        lambda d: d.update(product="tensor"),
        lambda d: d.update(labels=[[0, 2, 4]]),
        lambda d: d.update(labels="nope"),
        lambda d: d.update(m=2),
    ],
)
def test_reader_rejects_malformed_documents(mangle):
    doc = labeling_document(lift_diagonal(l21_cycle_pattern(3), CART, 3, 3))
    mangle(doc)
    with pytest.raises(ValueError):
        labeling_from_document(doc)


def test_reader_rejects_non_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json {")
    with open(p) as fp:
        with pytest.raises(ValueError):
            read_labeling(fp)
    p.write_text(json.dumps([1, 2, 3]))
    with open(p) as fp:
        with pytest.raises(ValueError):
            read_labeling(fp)


def test_none_product_requires_single_row():
    doc = {
        "product": "none", "m": 2, "n": 3, "p": 2, "q": 1, "k": 4,
        "labels": [[0, 2, 4], [0, 2, 4]],
    }
    with pytest.raises(ValueError):
        labeling_from_document(doc)
