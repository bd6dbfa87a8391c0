import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpqcycles import (
    Pattern,
    ProductKind,
    ProductShape,
    conditions_for,
    exists_cycle_pattern,
    is_diagonal,
    lift_diagonal,
    semigroup_decompose,
    torus,
    validate,
    validate_pattern,
)
from oracles import (
    concatenated_strong_pattern,
    cyclic_word_feasible,
    l21_cycle_pattern,
    least_cyclic_word,
    semigroup_least_b,
    semigroup_members,
)

CART = ProductKind.CARTESIAN
STRONG = ProductKind.STRONG


def test_conditions_for():
    assert conditions_for(CART) == (2, 1)
    assert conditions_for(STRONG) == (2, 2, 1, 1)


# --- validate_pattern --------------------------------------------------------

@pytest.mark.parametrize(
    "colors,conds",
    [
        ((0, 2, 4), (2, 1)),
        ((0, 3, 1, 4), (2, 1)),
        ((0, 2, 4, 1, 3), (2, 1)),
        ((0, 2, 4, 6, 1, 3, 5), (2, 2, 1, 1)),
        ((0, 2, 4, 6, 1, 3, 5, 7), (2, 2, 1, 1)),
        ((2, 0, 5, 3, 1, 6, 4), (2, 2, 1, 1)),
    ],
)
def test_known_valid_patterns(colors, conds):
    assert validate_pattern(Pattern(colors, conds)) == []


def test_violations_ordered_by_offset_then_position():
    vio = validate_pattern(Pattern((0, 2, 3), (2, 2)))
    assert [(v.offset, v.positions) for v in vio] == [(1, (1, 2)), (2, (2, 1))]
    assert vio[0].labels == (2, 3) and vio[0].required == 2
    assert vio[1].labels == (3, 2) and vio[1].required == 2


def test_wrapped_offsets_are_enforced():
    # offset 2 on a 2-cycle compares each position with itself
    vio = validate_pattern(Pattern((0, 2), (2, 1)))
    assert [(v.offset, v.positions, v.required) for v in vio] == [
        (2, (0, 0), 1),
        (2, (1, 1), 1),
    ]
    # offset 3 wraps onto itself on a 3-cycle under the strong conditions
    # (offset 4 reduces to offset 1, whose gaps are already >= 2)
    vio = validate_pattern(Pattern((0, 2, 4), (2, 2, 1, 1)))
    assert {(v.offset, v.positions) for v in vio} == {
        (3, (0, 0)), (3, (1, 1)), (3, (2, 2)),
    }


def test_pattern_guards():
    with pytest.raises(ValueError):
        Pattern((), (2, 1))
    with pytest.raises(ValueError):
        Pattern((0, -1), (2, 1))
    with pytest.raises(ValueError):
        Pattern((0, 2), ())


# --- the paper's block words (reference copies in oracles) -------------------

@pytest.mark.parametrize("d", range(3, 61))
def test_l21_blocks_valid_for_every_length(d):
    pat = l21_cycle_pattern(d)
    assert pat.length == d
    assert pat.span <= 4
    assert validate_pattern(pat) == []


def test_l21_blocks_reject_short_lengths():
    for d in (1, 2):
        with pytest.raises(ValueError):
            l21_cycle_pattern(d)
        assert exists_cycle_pattern(d, 4, (2, 1)) is None


def test_concatenated_strong_patterns():
    members = semigroup_members(7, 8, 80)
    for length in range(3, 81):
        if length in members:
            pat = concatenated_strong_pattern(length)
            assert pat.length == length
            assert validate_pattern(pat) == []
            assert pat.span == (6 if length % 7 == 0 else 7)
        else:
            with pytest.raises(ValueError):
                concatenated_strong_pattern(length)


# --- semigroup ---------------------------------------------------------------

def test_semigroup_decompose_examples():
    dec = semigroup_decompose(45, 7, 8)
    assert (dec.a, dec.b) == (3, 3)
    assert semigroup_decompose(41, 7, 8) is None
    assert semigroup_decompose(39, 5, 11) is None
    assert semigroup_decompose(42, 7, 8).b == 0
    assert semigroup_decompose(0, 7, 8) is None
    # generators sharing a factor the target lacks: ruled out by the gcd
    assert semigroup_decompose(10**12 + 1, 2, 4) is None
    with pytest.raises(ValueError):
        semigroup_decompose(10, 0, 8)


@pytest.mark.parametrize("m,n", [(7, 8), (5, 11), (3, 5), (2, 4), (6, 9), (9, 6)])
def test_semigroup_decompose_matches_brute_membership(m, n):
    members = semigroup_members(m, n, 200)
    for t in range(1, 201):
        dec = semigroup_decompose(t, m, n)
        if t in members:
            assert dec.a * m + dec.b * n == t
            assert dec.a >= 0 and dec.b >= 0 and dec.a + dec.b > 0
            # minimal-b tie break
            for b in range(dec.b):
                assert (t - b * n) % m != 0 or t - b * n < 0
        else:
            assert dec is None


def test_semigroup_decompose_matches_brute_least_b():
    for m in range(1, 16):
        for n in range(1, 16):
            for t in range(-2, 300):
                dec = semigroup_decompose(t, m, n)
                got = None if dec is None else (dec.a, dec.b)
                assert got == semigroup_least_b(t, m, n), (t, m, n)


# --- lifts -------------------------------------------------------------------

def test_lift_values_and_shape():
    pat = l21_cycle_pattern(5)
    f = lift_diagonal(pat, CART, 10, 5)
    assert f.k_budget == 4
    assert (f.shape.rows, f.shape.cols, f.shape.cyclic) == (10, 5, True)
    for i in range(10):
        for j in range(5):
            assert f.color_at(i, j) == pat.colors[(i + j) % 5]
    assert is_diagonal(f)


@pytest.mark.parametrize("L", [3, 4, 5, 7, 13])
@pytest.mark.parametrize("kind", [CART, STRONG])
def test_lift_matches_its_definition(kind, L):
    """f(i, j) = w[(i + j) mod L] at every cell, on L x L and non-square
    multiples, with int64 read-only colors, a cyclic shape and budget
    the word's span."""
    rng = np.random.default_rng(L)
    word = Pattern(tuple(int(c) for c in rng.integers(0, 9, L)), conditions_for(kind))
    for m, n in [(L, L), (L, 2 * L), (3 * L, L), (2 * L, 3 * L)]:
        f = lift_diagonal(word, kind, m, n)
        for i in range(m):
            for j in range(n):
                assert f.color_at(i, j) == word.colors[(i + j) % L]
        assert f.colors.dtype == np.int64
        assert not f.colors.flags.writeable
        with pytest.raises(ValueError):
            f.colors[0] = 0
        assert f.shape == ProductShape(kind, m, n, cyclic=True)
        assert f.k_budget == word.span


def test_lift_requires_divisibility():
    pat = l21_cycle_pattern(5)
    with pytest.raises(ValueError):
        lift_diagonal(pat, CART, 10, 6)
    with pytest.raises(ValueError):
        lift_diagonal(pat, CART, 9, 5)


def equivalence_pool(kind, L):
    """Valid and invalid words of length L to probe the lift equivalence."""
    conds = conditions_for(kind)
    span = 4 if kind is CART else 7
    pool = []
    found = exists_cycle_pattern(L, span, conds)
    if found is not None:
        pool.append(found.colors)
        w = list(found.colors)
        w[L // 2] = (w[L // 2] + 1) % (span + 1)
        pool.append(tuple(w))
    pool.append(tuple(0 for _ in range(L)))
    return conds, pool


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("L", [5, 7, 8, 15])
def test_lift_pattern_equivalence_spot(kind, L):
    """A lift is a valid labeling exactly when its pattern is valid.

    Spot instances here; the full quadrant of divisible tori up to 56 runs
    in the acceptance suite.
    """

    conds, pool = equivalence_pool(kind, L)
    top = (56 // L) * L
    tori = {(L, L), (L, 2 * L), (2 * L, L), (top, top), (L, top)}
    for colors in pool:
        pat = Pattern(colors, conds)
        pat_ok = validate_pattern(pat) == []
        for m, n in tori:
            if m > 56 or n > 56:
                continue
            f = lift_diagonal(pat, kind, m, n)
            lift_ok = validate(torus(kind, m, n), f) == []
            assert lift_ok == pat_ok, (kind, colors, m, n)


def test_lift_equivalence_tiny_lengths():
    # wrapped-offset semantics keep the equivalence exact even at L = 3, 4
    for L, kind in [(3, CART), (4, CART), (3, STRONG)]:
        conds = conditions_for(kind)
        span = 4 if kind is CART else 6
        pat = exists_cycle_pattern(L, span, conds)
        if pat is None:
            # no pattern: no diagonal labeling of the L x L torus may validate
            for colors in [tuple((2 * i) % (span + 1) for i in range(L))]:
                f = lift_diagonal(Pattern(colors, conds), kind, L, L)
                assert validate(torus(kind, L, L), f) != []
        else:
            f = lift_diagonal(pat, kind, L, L)
            assert validate(torus(kind, L, L), f) == []


# --- pattern search ----------------------------------------------------------

def test_exists_cycle_pattern_least_witnesses():
    assert exists_cycle_pattern(3, 4, (2, 1)).colors == (0, 2, 4)
    assert exists_cycle_pattern(5, 4, (2, 1)).colors == (0, 2, 4, 1, 3)
    assert exists_cycle_pattern(7, 6, (2, 2, 1, 1)).colors == (0, 2, 4, 6, 1, 3, 5)
    assert exists_cycle_pattern(8, 6, (2, 2, 1, 1)) is None
    assert exists_cycle_pattern(1, 4, (2, 1)) is None
    assert exists_cycle_pattern(2, 4, (2, 1)) is None


def test_exists_cycle_pattern_is_minimal():
    # returned word is lexicographically least among all valid words: any
    # word strictly below it in lex order must be invalid
    pat = exists_cycle_pattern(5, 4, (2, 1))
    from itertools import product as iproduct

    for w in iproduct(range(5), repeat=5):
        if w < pat.colors:
            assert validate_pattern(Pattern(w, (2, 1))) != []
        elif w == pat.colors:
            break


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 21), st.integers(0, 6))
def test_exists_cycle_pattern_agrees_with_feasibility_oracle(length, span):
    got = exists_cycle_pattern(length, span, (2, 2, 1, 1))
    want = cyclic_word_feasible(length, span, (2, 2, 1, 1))
    assert (got is not None) == want
    if got is not None:
        assert validate_pattern(got) == []
        assert got.span <= span


def _same_word(length, span, conds):
    got = exists_cycle_pattern(length, span, conds)
    assert (None if got is None else got.colors) == least_cyclic_word(length, span, conds), (
        length, span, conds,
    )


@pytest.mark.parametrize(
    "conds",
    [(2, 1), (2, 2, 1, 1), (1,), (0, 1), (3, 0, 1), (1, 2), (2, 2), (1, 1, 1), (2, 0, 0, 1)],
)
def test_exists_cycle_pattern_matches_reference_backtracker(conds):
    for length in range(1, 14):
        for span in range(7):
            _same_word(length, span, conds)


@pytest.mark.parametrize(
    "conds,spans", [((2, 1), (3, 4, 5, 6, 7)), ((2, 2, 1, 1), (4, 5, 6, 7))]
)
def test_exists_cycle_pattern_matches_reference_backtracker_long(conds, spans):
    # the solver lets position 0 try color 0 only (words are rotation
    # invariant), the reference tries every color; larger (2, 2, 1, 1)
    # spans make the reference blow up on odd lengths
    for length in range(1, 81):
        for span in spans:
            _same_word(length, span, conds)


def test_exists_cycle_pattern_long_word_needs_no_recursion():
    assert exists_cycle_pattern(1200, 6, (2, 2, 1, 1)) is None


def test_exists_cycle_pattern_guards():
    with pytest.raises(ValueError):
        exists_cycle_pattern(0, 4, (2, 1))
    with pytest.raises(ValueError):
        exists_cycle_pattern(5, -1, (2, 1))
    # a bad condition vector is refused before any search, found word or not
    for conds in ((), (-1, 2)):
        with pytest.raises(ValueError, match="condition vector"):
            exists_cycle_pattern(3, 1, conds)
