from math import gcd

import numpy as np
import pytest

from lpqcycles import labelings, lambda_numbers, patterns, solver
from lpqcycles import (
    BudgetExhausted,
    CertificateKind,
    ConstraintParams,
    Labeling,
    ProductKind,
    SolveBudget,
    count_labelings,
    enumerate_labelings,
    grid,
    is_diagonal,
    lambda_cartesian,
    lambda_strong,
    lift_diagonal,
    torus,
    torus_violations,
    validate,
    validate_pattern,
    verify_l2211_periodicity,
    verify_lemma_cartesian_local,
    verify_lemma_strong_local,
)
from lpqcycles.cli import main
from oracles import (
    TerminalKind,
    brute_rows,
    concatenated_strong_pattern,
    cyclic_word_feasible,
    descent_terminal,
    dp_count_strong_grid4,
    forward_check,
    l21_cycle_pattern,
    pair_gaps,
)

CART = ProductKind.CARTESIAN
STRONG = ProductKind.STRONG


# --- local lemma reports -----------------------------------------------------

def _breaking(kind):
    """The window grid's constraints with the identity pair (u, v, 1) merged
    in, as the window check compiles them."""
    side, a, b = lambda_numbers._WINDOW[kind]
    g = grid(kind, side, side)
    u, v = g.shape.vertex_id(*a), g.shape.vertex_id(*b)
    plain = solver.compile_constraints(g, ConstraintParams())
    return solver._compile_pairs(g.n_vertices, g.shape, plain.pairs + ((u, v, 1),))


def test_cartesian_local_holds_and_count_matches_oracle():
    rep = verify_lemma_cartesian_local()
    assert rep.holds and rep.witness is None
    assert rep.count == 44 == len(brute_rows(grid(CART, 3, 3), 4))


def test_cartesian_local_fails_at_span_5():
    rep = verify_lemma_cartesian_local(span=5)
    assert not rep.holds
    assert rep.count == 1088
    w = rep.witness
    assert w is not None
    assert validate(grid(CART, 3, 3), w) == []
    assert w.color_at(1, 1) != w.color_at(0, 2)


def test_strong_local_holds_and_count_matches_dp_oracle():
    rep = verify_lemma_strong_local()
    assert rep.holds and rep.witness is None
    assert rep.count == 180 == dp_count_strong_grid4(6)


def test_strong_local_fails_at_span_7():
    rep = verify_lemma_strong_local(span=7)
    assert not rep.holds
    assert rep.count == 29444 == dp_count_strong_grid4(7)
    w = rep.witness
    assert w.color_at(1, 2) != w.color_at(2, 1)
    assert validate(grid(STRONG, 4, 4), w) == []


def test_counterexample_is_the_least_breaking_labeling():
    # where the identity fails, the counterexample is the least labeling
    # that breaks it
    for verify, kind, k in [
        (verify_lemma_cartesian_local, CART, 5),
        (verify_lemma_strong_local, STRONG, 7),
    ]:
        rep = verify(span=k)
        assert not rep.holds
        least, _count = solver._search(_breaking(kind), k, solver._Limits(SolveBudget().max_nodes),
                                       first=True)
        assert rep.witness.as_tuple() == least
    # and an independent search, in id order with no symmetry broken, meets
    # the same least breaker, or none exactly where the identity holds
    for verify, kind in [(verify_lemma_cartesian_local, CART), (verify_lemma_strong_local, STRONG)]:
        side, a, b = lambda_numbers._WINDOW[kind]
        g = grid(kind, side, side)
        pairs = [(u, w, gap) for (u, w), gap in pair_gaps(g).items()]
        pairs.append((g.shape.vertex_id(*a), g.shape.vertex_id(*b), 1))
        for k in range(3, 8):
            rep = verify(span=k)
            least, _count, _nodes = forward_check(
                g.n_vertices, pairs, list(range(g.n_vertices)), k, top=k, first=True
            )
            assert rep.holds == (least is None)
            assert (None if rep.witness is None else rep.witness.as_tuple()) == least


def test_public_window_check_shares_the_dispatch_cache_entry():
    lambda_numbers._verify_local.cache_clear()
    lambda_strong(48, 50)
    misses = lambda_numbers._verify_local.cache_info().misses
    assert verify_lemma_strong_local().count == 180
    assert lambda_numbers._verify_local.cache_info().misses == misses


def test_window_lemma_spends_one_budget():
    # the count (591) and the raced breaker search (259, none found) each
    # fit 700 nodes alone, not both together
    g = grid(STRONG, 4, 4)
    tight = SolveBudget(max_nodes=700)
    assert count_labelings(g, 6, budget=tight) == 180
    limits = solver._Limits(tight.max_nodes)
    assert solver._search(_breaking(STRONG), 6, limits, first=True, race=True) == (None, 0)
    assert limits.spent == 259
    with pytest.raises(BudgetExhausted) as exc:
        verify_lemma_strong_local(budget=tight)
    assert exc.value.nodes == 701
    # where the identity fails, the breaker search stops at its witness, so
    # a report needs barely more than its count (1,426 and 31,496 nodes)
    assert not verify_lemma_cartesian_local(span=5, budget=SolveBudget(max_nodes=1_500)).holds
    assert not verify_lemma_strong_local(span=7, budget=SolveBudget(max_nodes=33_000)).holds


def test_cold_dispatch_spends_pinned_nodes_per_step(monkeypatch):
    # a cold lambda_strong(1000, 2000) searches, in order: the span-5
    # window's count and breaker search (the floor), the span-6 word
    # (none), the span-7 word (the lift), and the span-6 window's count and
    # breaker search (none: the identity holds)
    spent = []

    def metered(cons, k, limits, *args, **kwargs):
        before = limits.spent
        found = solver._search(cons, k, limits, *args, **kwargs)
        spent.append(limits.spent - before)
        return found

    monkeypatch.setattr(lambda_numbers, "_search", metered)
    monkeypatch.setattr(patterns, "_search", metered)
    lambda_numbers._verify_local.cache_clear()
    lambda_numbers._least_word.cache_clear()
    res = lambda_strong(1000, 2000)
    assert (res.lo, res.hi) == (7, 7)
    assert spent == [39, 38, 1_435, 1_032, 591, 259]
    # where the identity fails, the breaker search stops at the least breaker
    for kind, k, nodes in [(CART, 5, [1_426, 18]), (STRONG, 7, [31_496, 82])]:
        spent.clear()
        assert not lambda_numbers._verify_local(kind, k, SolveBudget()).holds
        assert spent == nodes


def test_report_document_shape():
    doc = verify_lemma_cartesian_local().to_document()
    assert list(doc) == ["check", "holds", "count", "witness"]
    assert doc["holds"] is True and doc["witness"] is None
    doc5 = verify_lemma_cartesian_local(span=5).to_document()
    assert isinstance(doc5["witness"], list) and len(doc5["witness"]) == 3


# --- l2211 periodicity -------------------------------------------------------

def test_l2211_periodicity_28():
    feas = verify_l2211_periodicity(28)
    assert sorted(feas) == [7, 14, 21, 28]
    for d, pat in feas.items():
        assert pat.length == d and pat.span <= 6
        assert validate_pattern(pat) == []


def test_l2211_periodicity_small_and_guards():
    assert verify_l2211_periodicity(6) == {}
    with pytest.raises(ValueError):
        verify_l2211_periodicity(2)


def test_l2211_agrees_with_transfer_oracle():
    feas = verify_l2211_periodicity(18)
    for d in range(3, 19):
        assert (d in feas) == cyclic_word_feasible(d, 6, (2, 2, 1, 1))


# --- descent -----------------------------------------------------------------

def test_descent_examples():
    t = descent_terminal(41, 40)
    assert (t.kind, t.rows, t.cols) == (TerminalKind.K_PLUS_1, 41, 40)
    assert t.trace == ((41, 40),)
    t = descent_terminal(43, 40)
    assert (t.kind, t.rows, t.cols) == (TerminalKind.K_PLUS_1, 4, 3)
    assert t.trace[:2] == ((43, 40), (40, 3))
    t = descent_terminal(46, 40)
    assert (t.kind, t.rows, t.cols) == (TerminalKind.K_PLUS_2, 6, 4)
    assert t.trace[1] == (40, 6)


def test_descent_argument_order_is_irrelevant():
    assert descent_terminal(40, 43).trace == descent_terminal(43, 40).trace


def test_descent_exhaustive_classification():
    """Terminal is the gcd torus exactly when gcd >= 3; otherwise k+1 or
    k+2 over k >= 3, matching the coordinate difference."""
    for m in range(3, 201):
        for n in range(3, 201):
            t = descent_terminal(m, n)
            g = gcd(m, n)
            assert t.rows >= t.cols >= 3
            assert t.trace[0] == (max(m, n), min(m, n))
            assert t.trace[-1] == (t.rows, t.cols)
            for (a, b), (c, d) in zip(t.trace, t.trace[1:]):
                assert a - b >= 3 and (c, d) in ((a - b, b), (b, a - b))
            if g >= 3:
                assert t.kind is TerminalKind.GCD
                assert t.rows == t.cols == g
            else:
                assert t.kind in (TerminalKind.K_PLUS_1, TerminalKind.K_PLUS_2)
                assert t.rows - t.cols == (1 if t.kind is TerminalKind.K_PLUS_1 else 2)
                assert gcd(t.rows, t.cols) == g


def test_descent_guards():
    with pytest.raises(ValueError):
        descent_terminal(2, 40)


# --- cartesian dichotomy -----------------------------------------------------

@pytest.mark.parametrize("m,n", [(40, 45), (42, 42), (55, 40), (40, 44)])
def test_cartesian_gcd3_exact_4_with_validating_witness(m, n):
    res = lambda_cartesian(m, n)
    assert res.is_exact and res.value == 4
    assert res.certificate is CertificateKind.CONSTRUCTED
    assert res.witness is not None and res.witness.k_budget == 4
    assert is_diagonal(res.witness)
    assert validate(torus(CART, m, n), res.witness) == []


@pytest.mark.parametrize("m,n", [(41, 40), (40, 49), (43, 40)])
def test_cartesian_gcd_le2_exact_5_cited_verified(m, n):
    res = lambda_cartesian(m, n)
    assert res.is_exact and res.value == 5
    assert res.certificate is CertificateKind.CITED_UPPER_VERIFIED_LOWER
    assert res.witness is None
    assert "lower bound" in res.note


def test_cartesian_range_gate_and_solve():
    with pytest.raises(ValueError):
        lambda_cartesian(39, 45)
    with pytest.raises(ValueError):
        lambda_cartesian(3, 3)
    res = lambda_cartesian(3, 3, solve=True)
    assert res.value == 4
    assert validate(torus(CART, 3, 3), res.witness) == []
    # the dichotomy is never asserted below range: the solver settles
    # C_4 x C_3 at 6 even though gcd = 1 would suggest 5 in range
    assert lambda_cartesian(4, 3, solve=True).value == 6


def test_cartesian_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        lambda_cartesian(2, 40, solve=True)


# --- strong dichotomy --------------------------------------------------------

def test_strong_div7_exact_6():
    res = lambda_strong(49, 56)
    assert res.is_exact and res.value == 6
    assert res.certificate is CertificateKind.CONSTRUCTED
    assert validate(torus(STRONG, 49, 56), res.witness) == []
    assert is_diagonal(res.witness)


def test_strong_gcd42_exact_7():
    res = lambda_strong(90, 135)
    assert res.is_exact and res.value == 7
    assert res.certificate is CertificateKind.CONSTRUCTED
    assert gcd(90, 135) == 45
    assert validate(torus(STRONG, 90, 135), res.witness) == []


def test_strong_interval_7_8():
    res = lambda_strong(48, 50)
    assert (res.lo, res.hi) == (7, 8)
    assert not res.is_exact
    assert res.certificate is CertificateKind.INTERVAL_CITED
    assert res.witness is None
    with pytest.raises(ValueError):
        _ = res.value


def test_strong_gcd48_exact_7():
    res = lambda_strong(48, 48)
    assert res.is_exact and res.value == 7
    assert res.certificate is CertificateKind.CONSTRUCTED


def test_strong_lift_above_two_million_cells_is_validated_in_full():
    res = lambda_strong(1421, 1421)
    assert res.value == 6
    assert "lift validated on the full torus" in res.note
    big = res.witness.color_grid().copy()
    assert big.size > 2_000_000
    assert torus_violations(STRONG, big) == []

    # the lift repeats with period 7 both ways, and a 7 x 7 torus is wide
    # enough that no constraint wraps, so recoloring one cell breaks the
    # same constraints as recoloring its image on the 7 x 7 torus, which
    # the generic path checks
    i0, j0, color = 700, 1000, 3
    big[i0, j0] = color
    small = res.witness.color_grid()[:7, :7].copy()
    a0, b0 = i0 % 7, j0 % 7
    small[a0, b0] = color
    g = torus(STRONG, 7, 7)
    assert big[i0, j0] != res.witness.color_grid()[i0, j0]

    def lifted(v):
        a, b = divmod(v, 7)
        da, db = (a - a0 + 3) % 7 - 3, (b - b0 + 3) % 7 - 3
        return (i0 + da) * 1421 + (j0 + db)

    want = set()
    for v in validate(g, Labeling(small.reshape(-1), 6, g.shape)):
        assert a0 * 7 + b0 in v.pair
        pair = tuple(sorted(lifted(x) for x in v.pair))
        labels = tuple(int(big.flat[x]) for x in pair)
        want.add((v.kind, pair, labels, v.required))
    got = torus_violations(STRONG, big)
    assert {(v.kind, v.pair, v.labels, v.required) for v in got} == want
    assert len(got) == len(want) > 0
    assert [v.pair for v in got] == sorted(v.pair for v in got)


def test_warm_dispatch_builds_no_window_grid(monkeypatch):
    lambda_strong(96, 100)
    lambda_strong(49, 56)
    lambda_cartesian(41, 43)

    def no_grid(*args, **kwargs):
        raise AssertionError("window grid built on a warm lemma cache")

    monkeypatch.setattr(lambda_numbers, "grid", no_grid)
    assert (lambda_strong(96, 100).lo, lambda_strong(96, 100).hi) == (7, 8)
    assert lambda_cartesian(41, 43).value == 5
    assert lambda_strong(49, 56).note.endswith("lower bound 6 from the 4 x 4 grid")


@pytest.mark.parametrize("fn, m, n, lo, hi, certificate, note", [
    (lambda_cartesian, 40, 45, 4, 4, CertificateKind.CONSTRUCTED,
     "lift of the length-5 pattern; lift validated on the full torus; "
     "lower bound 4 from the 3 x 3 grid"),
    (lambda_cartesian, 41, 40, 5, 5, CertificateKind.CITED_UPPER_VERIFIED_LOWER,
     "upper bound 5 cited; lower bound 5 verified: every span-4 labeling is "
     "diagonal (44 grid labelings checked) and no length-1 pattern exists"),
    (lambda_strong, 49, 56, 6, 6, CertificateKind.CONSTRUCTED,
     "lift of the length-7 pattern; lift validated on the full torus; "
     "lower bound 6 from the 4 x 4 grid"),
    (lambda_strong, 90, 135, 7, 7, CertificateKind.CONSTRUCTED,
     "lift of the length-45 pattern; lift validated on the full torus; "
     "lower bound 7 verified: every span-6 labeling is diagonal "
     "(180 grid labelings checked) and no length-45 pattern exists"),
    (lambda_strong, 48, 50, 7, 8, CertificateKind.INTERVAL_CITED,
     "upper bound 8 cited; lower bound 7 verified: every span-6 labeling is "
     "diagonal (180 grid labelings checked) and no length-2 pattern exists"),
])
def test_dispatch_notes_are_pinned(fn, m, n, lo, hi, certificate, note):
    res = fn(m, n)
    assert (res.lo, res.hi, res.certificate) == (lo, hi, certificate)
    assert res.note == note


def test_window_floor_runs_no_exact_solver(monkeypatch):
    # the grid floor is the window check at span - 1, not a solver scan
    def no_solver(*args, **kwargs):
        raise AssertionError("exact_lambda called above the floors")

    lambda_numbers._verify_local.cache_clear()
    monkeypatch.setattr(lambda_numbers, "exact_lambda", no_solver)
    assert lambda_strong(49, 56).value == 6
    assert lambda_cartesian(40, 45).value == 4


def test_window_floor_refuses_a_window_span_it_cannot_floor(monkeypatch):
    # at a claimed window span of 7 the floor check runs at span 6, where
    # the strong 4 x 4 window has 180 labelings
    side, _span, cited, lift_floor = lambda_numbers._DICHOTOMY[STRONG]
    monkeypatch.setitem(lambda_numbers._DICHOTOMY, STRONG, (side, 7, cited, lift_floor))
    with pytest.raises(RuntimeError, match="grid floor below 7"):
        lambda_strong(49, 56)


def test_caches_stand_in_only_for_the_same_budget():
    verify_lemma_strong_local()
    lambda_strong(96, 100)
    tight = SolveBudget(max_nodes=10)
    with pytest.raises(BudgetExhausted):
        verify_lemma_strong_local(budget=tight)
    with pytest.raises(BudgetExhausted):
        lambda_strong(96, 100, budget=tight)


def test_strong_word_search_of_length_1000():
    # the span-6 word search behind the lower bound runs on a word as long
    # as gcd(m, n)
    res = lambda_strong(1000, 2000)
    assert (res.lo, res.hi, res.certificate) == (7, 7, CertificateKind.CONSTRUCTED)


def test_construction_lifts_the_paper_block_words():
    # the least window-span word is the paper's block word wherever the
    # paper lifts one, so Cartesian and 7 | both witnesses keep their labels
    for d in range(3, 241):
        assert lambda_numbers.construction(CART, d, d)[0] == l21_cycle_pattern(d)
    for d in range(7, 241, 7):
        word, _f = lambda_numbers.construction(STRONG, d, d)
        assert word.colors == (0, 2, 4, 6, 1, 3, 5) * (d // 7)
    # above the strong lift floor the least span-7 word takes over from the
    # 7/8 block concatenation; both lift to valid labelings
    for d in range(42, 241):
        if d % 7:
            for word in (lambda_numbers.construction(STRONG, d, d)[0],
                         concatenated_strong_pattern(d)):
                assert word.length == d and word.span == 7
                f = lift_diagonal(word, STRONG, d, d)
                assert torus_violations(STRONG, f.color_grid()) == []


def _lifted_sides(kind):
    """Every (m, n) with sides 40..100 on which construction lifts a word."""
    return [(m, n) for m in range(40, 101) for n in range(40, 101)
            if gcd(m, n) >= 3 if kind is CART or m % 7 == n % 7 == 0 or gcd(m, n) >= 42]


@pytest.mark.parametrize("kind", [CART, STRONG])
def test_every_construction_takes_the_diagonal_exit(kind, monkeypatch):
    """construction validates each lift it makes for sides 40..100 through
    the diagonal exit of torus_violations, never the stencil loop, so a
    silent fall-through cannot hide behind an equal answer."""
    check = labelings._diagonal_exit
    taken = []

    def recorded(*args):
        taken.append(check(*args))
        return taken[-1]

    monkeypatch.setattr(labelings, "_diagonal_exit", recorded)
    lifted = _lifted_sides(kind)
    for m in range(40, 101):
        for n in range(40, 101):
            before = len(taken)
            made = lambda_numbers.construction(kind, m, n)
            assert (made is not None) is ((m, n) in lifted), (m, n)
            assert taken[before:] == ([True] if made else []), (m, n)
    assert len(taken) == len(lifted) > 100


@pytest.mark.parametrize("kind", [CART, STRONG])
def test_dispatch_lifts_match_their_definition(kind):
    """Every lift the dispatch hands out with sides 40..100 is
    word[(i + j) mod L] at every cell, a C-contiguous, read-only int64 array."""
    for m, n in _lifted_sides(kind):
        word, f = lambda_numbers.construction(kind, m, n)
        i, j = np.indices((m, n))
        assert (f.color_grid() == np.array(word.colors)[(i + j) % word.length]).all(), (m, n)
        assert f.colors.dtype == np.int64 and f.colors.flags.c_contiguous
        assert not f.colors.flags.writeable


def test_broken_lift_raises_in_dispatch_and_construct(monkeypatch):
    # the dispatch and CLI construct share one lift and one validation, so
    # a lift that breaks one cell fails both instead of being handed out
    def broken_lift(*args):
        f = lift_diagonal(*args)
        colors = f.colors.copy()
        colors[1] = colors[0]
        return Labeling(colors, f.k_budget, f.shape)

    monkeypatch.setattr(lambda_numbers, "lift_diagonal", broken_lift)
    with pytest.raises(RuntimeError, match="constructed lift fails validation"):
        lambda_strong(49, 49)
    with pytest.raises(RuntimeError, match="constructed lift fails validation"):
        main(["construct", "--product", "strong", "--m", "49", "--n", "49"])


def _table(kind, m, n):
    """(lo, hi, certificate) from the README's divisibility table."""
    d = gcd(m, n)
    if kind is CART and d >= 3:
        return 4, 4, CertificateKind.CONSTRUCTED
    if kind is CART:
        return 5, 5, CertificateKind.CITED_UPPER_VERIFIED_LOWER
    if m % 7 == 0 and n % 7 == 0:
        return 6, 6, CertificateKind.CONSTRUCTED
    if d >= 42:
        return 7, 7, CertificateKind.CONSTRUCTED
    return 7, 8, CertificateKind.INTERVAL_CITED


@pytest.mark.parametrize(
    "kind,fn,side",
    [(CART, lambda_cartesian, 40), (STRONG, lambda_strong, 48)],
    ids=["cartesian", "strong"],
)
def test_answers_follow_the_table_up_to_side_100(kind, fn, side):
    for m in range(side, 101):
        for n in range(side, 101):
            res = fn(m, n)
            assert (res.lo, res.hi, res.certificate) == _table(kind, m, n), (m, n)
            if res.witness is not None:
                assert res.witness.k_budget == res.lo
                assert torus_violations(kind, res.witness.color_grid()) == []


def test_strong_range_gate_and_solve():
    with pytest.raises(ValueError):
        lambda_strong(47, 49)
    res = lambda_strong(7, 7, solve=True)
    assert res.value == 6
    assert validate(torus(STRONG, 7, 7), res.witness) == []


def test_broken_solver_witness_raises_in_dispatch(monkeypatch):
    # the solve path validates the solver's witness on the full torus, as
    # construction validates its lift, before handing it out
    def broken_solver(g, params=None, budget=None):
        res = solver.exact_lambda(g, budget=budget)
        colors = res.witness.colors.copy()
        colors[1] = colors[0]
        return solver.LambdaWitness(res.value, Labeling(colors, res.value, res.witness.shape))

    monkeypatch.setattr(lambda_numbers, "exact_lambda", broken_solver)
    with pytest.raises(RuntimeError, match="solver witness fails validation"):
        lambda_strong(7, 7, solve=True)


def test_failed_window_identity_raises_in_dispatch(monkeypatch):
    # with no lift (gcd 2), the lower bound span + 1 rests on the window
    # identity at the window span; a report that it fails stops the dispatch
    real = lambda_numbers._verify_local

    def broken_report(kind, span, budget):
        rep = real(kind, span, budget)
        if span < lambda_numbers._DICHOTOMY[kind][1]:
            return rep
        return lambda_numbers.CheckReport(rep.check, False, rep.count, None)

    monkeypatch.setattr(lambda_numbers, "_verify_local", broken_report)
    with pytest.raises(RuntimeError, match="local diagonality identity failed"):
        lambda_strong(48, 50)


def test_solve_path_respects_budget():
    from lpqcycles import BudgetExhausted

    with pytest.raises(BudgetExhausted):
        lambda_strong(7, 7, solve=True, budget=SolveBudget(max_nodes=5))


# --- invariants --------------------------------------------------------------

def test_diagonality_sweep_small_tori():
    """Every span-4 labeling of C_m x C_n for 3 <= m, n <= 5 is diagonal;
    the gcd <= 2 cases are empty enumerations."""
    counts = {}
    for m in range(3, 6):
        for n in range(3, 6):
            g = torus(CART, m, n)
            seen = []
            counts[m, n] = enumerate_labelings(g, 4, visitor=seen.append)
            for colors in seen:
                f = Labeling(np.array(colors), 4, g.shape)
                assert is_diagonal(f)
    assert counts[3, 3] == 6
    assert counts[4, 4] == 8
    assert counts[5, 5] == 10
    for m, n in [(3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)]:
        assert counts[m, n] == 0


def test_dispatch_agrees_with_solver_at_shared_point():
    # the value the dispatch assigns to 7 | m, 7 | n at scale equals what
    # exhaustive search finds on the smallest strong torus of that class
    assert lambda_strong(7, 7, solve=True).value == lambda_strong(49, 49).value == 6
