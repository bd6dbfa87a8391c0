import time

import pytest

from lpqcycles import (
    BudgetExhausted,
    ConstraintParams,
    ProductKind,
    SolveBudget,
    count_labelings,
    enumerate_labelings,
    exact_lambda,
    exists_labeling,
    grid,
    oriented_cycle,
    oriented_path,
    product,
    torus,
    validate,
)
from oracles import brute_rows, dp_count_strong_grid4

CART = ProductKind.CARTESIAN
STRONG = ProductKind.STRONG


def small_family():
    """Every constructible graph on at most 9 vertices used by the suite."""
    graphs = [oriented_cycle(n) for n in range(3, 10)]
    graphs += [oriented_path(n) for n in range(1, 10)]
    for kind in (CART, STRONG):
        graphs += [
            grid(kind, 2, 2), grid(kind, 2, 3), grid(kind, 2, 4),
            grid(kind, 3, 3), grid(kind, 1, 7),
            torus(kind, 3, 3),
            product(kind, oriented_cycle(3), oriented_path(2)),
            product(kind, oriented_path(3), oriented_cycle(3)),
        ]
    return graphs


def collect(g, k, **kw):
    seen = []
    n = enumerate_labelings(g, k, visitor=seen.append, **kw)
    assert n == len(seen)
    return seen


@pytest.mark.parametrize("k", range(5))
def test_enumeration_matches_brute_oracle(k):
    for g in small_family():
        got = collect(g, k)
        want = brute_rows(g, k)
        assert len(got) == len(want), f"{g.n_vertices} vertices at k={k}"
        assert [tuple(int(c) for c in row) for row in want] == got


def test_enumeration_is_lexicographic_and_first_equals_exists():
    for g, k in [
        (oriented_cycle(5), 4),
        (oriented_path(4), 3),
        (torus(CART, 3, 3), 4),
        (grid(STRONG, 3, 3), 5),
    ]:
        seen = collect(g, k)
        assert seen == sorted(seen)
        w = exists_labeling(g, k)
        if seen:
            assert w.as_tuple() == seen[0]
        else:
            assert w is None


def test_exists_witness_is_valid():
    for g, k in [(torus(CART, 4, 4), 4), (torus(STRONG, 7, 7), 6)]:
        w = exists_labeling(g, k)
        assert w is not None
        assert w.k_budget == k
        assert validate(g, w) == []


def test_exists_none_when_unsatisfiable():
    assert exists_labeling(torus(CART, 3, 4), 4) is None
    assert exists_labeling(oriented_cycle(3), 3) is None


@pytest.mark.parametrize(
    "g,value",
    [
        (oriented_cycle(3), 4),
        (oriented_cycle(4), 4),
        (oriented_cycle(5), 4),
        (oriented_path(4), 3),
        (torus(CART, 3, 3), 4),
        (torus(CART, 4, 3), 6),  # solver settles this case exactly
    ],
)
def test_exact_lambda_small_values(g, value):
    res = exact_lambda(g)
    assert res.value == value
    assert validate(g, res.witness) == []
    assert exists_labeling(g, value - 1) is None


def test_exact_lambda_p4_witness():
    assert exact_lambda(oriented_path(4)).witness.as_tuple() == (1, 3, 0, 2)


def test_exact_lambda_kmax_too_small():
    with pytest.raises(RuntimeError):
        exact_lambda(oriented_cycle(5), k_max=2)


def test_exact_lambda_trivial_params():
    # with p = q = 0 nothing is constrained
    assert exact_lambda(oriented_cycle(5), ConstraintParams(0, 0)).value == 0


def test_node_budget_raises_with_node_count():
    g = torus(STRONG, 7, 7)
    with pytest.raises(BudgetExhausted) as exc:
        exists_labeling(g, 6, budget=SolveBudget(max_nodes=50))
    assert exc.value.nodes == 51
    # same budget class for enumeration
    with pytest.raises(BudgetExhausted):
        enumerate_labelings(grid(CART, 3, 3), 4, budget=SolveBudget(max_nodes=10))


def test_time_cap():
    g = grid(STRONG, 4, 4)
    with pytest.raises(BudgetExhausted):
        # the clock is polled every 4096 nodes; k = 7 runs far beyond that
        enumerate_labelings(g, 7, budget=SolveBudget(time_cap=1e-9))


def test_time_cap_holds_with_workers():
    with pytest.raises(BudgetExhausted):
        count_labelings(grid(STRONG, 4, 4), 7, budget=SolveBudget(time_cap=1e-9), workers=2)


def test_budget_covers_every_span_of_exact_lambda():
    # the scan spends 552,013 nodes in all; no single span reaches 520,000
    g = torus(STRONG, 7, 8)
    with pytest.raises(BudgetExhausted):
        exact_lambda(g, budget=SolveBudget(max_nodes=520_000))
    assert exact_lambda(g, budget=SolveBudget(max_nodes=552_013)).value == 8


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("max_nodes,expected", [(5_000, None), (6_000, 180)])
def test_workers_share_one_node_budget(workers, max_nodes, expected):
    # the full count takes 5,987 nodes, 3,252 + 2,735 over two workers
    g, budget = grid(STRONG, 4, 4), SolveBudget(max_nodes=max_nodes)
    if expected is None:
        with pytest.raises(BudgetExhausted):
            count_labelings(g, 6, budget=budget, workers=workers)
    else:
        assert count_labelings(g, 6, budget=budget, workers=workers) == expected


def test_budget_exhaustion_crosses_the_pool():
    with pytest.raises(BudgetExhausted) as exc:
        count_labelings(grid(CART, 3, 3), 4, budget=SolveBudget(max_nodes=10), workers=2)
    assert exc.value.nodes > 10


def test_budget_validation():
    with pytest.raises(ValueError):
        SolveBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SolveBudget(time_cap=0.0)


def test_determinism_across_runs():
    g = torus(STRONG, 7, 7)
    a = collect(g, 6)
    b = collect(g, 6)
    assert a == b
    assert exists_labeling(g, 6).as_tuple() == exists_labeling(g, 6).as_tuple()


def test_count_labelings_extra_pairs_restrict():
    g = grid(CART, 3, 3)
    total = count_labelings(g, 4)
    rows = brute_rows(g, 4)
    assert total == len(rows)
    # counterexamples to f(4) = f(2): no constraint relates those vertices
    differ = count_labelings(g, 4, extra_pairs=[(4, 2, 1)])
    assert differ == int((rows[:, 4] != rows[:, 2]).sum())
    assert differ == 0
    differ5 = count_labelings(g, 5, extra_pairs=[(4, 2, 1)])
    rows5 = brute_rows(g, 5)
    assert differ5 == int((rows5[:, 4] != rows5[:, 2]).sum()) > 0


def test_count_labelings_extra_pair_guard():
    with pytest.raises(ValueError):
        count_labelings(oriented_cycle(3), 4, extra_pairs=[(0, 0, 1)])
    with pytest.raises(ValueError):
        count_labelings(oriented_cycle(3), 4, extra_pairs=[(0, 9, 1)])


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_parallel_count_invariance(workers):
    g = grid(CART, 3, 3)
    assert count_labelings(g, 4, workers=workers) == 44
    assert count_labelings(g, 4, extra_pairs=[(4, 2, 1)], workers=workers) == 0


def test_parallel_matches_sequential_on_strong_grid():
    g = grid(STRONG, 4, 4)
    assert count_labelings(g, 6, workers=3) == count_labelings(g, 6) == 180
    assert count_labelings(g, 6) == dp_count_strong_grid4(6)


def test_strong_grid_counts_against_dp_oracle():
    g = grid(STRONG, 4, 4)
    for k in (5, 6, 7):
        assert count_labelings(g, k) == dp_count_strong_grid4(k)


def test_enumeration_never_breaks_symmetry():
    # complement pairs must both be present
    seen = set(collect(oriented_cycle(4), 4))
    for s in seen:
        assert tuple(4 - c for c in s) in seen


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        exists_labeling(oriented_cycle(3), -1)
    with pytest.raises(ValueError):
        enumerate_labelings(oriented_cycle(3), -1)
    with pytest.raises(ValueError):
        count_labelings(oriented_cycle(3), -1)
    with pytest.raises(ValueError):
        count_labelings(oriented_cycle(3), 4, workers=0)


def test_budget_is_a_third_outcome():
    # the same query distinguishes none / witness / exhausted
    g = torus(CART, 3, 4)
    assert exists_labeling(g, 4) is None
    assert exists_labeling(g, 6) is not None
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted):
        exists_labeling(g, 4, budget=SolveBudget(max_nodes=3))
    assert time.perf_counter() - start < 1.0
