import functools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from lpqcycles import lambda_numbers, solver
from lpqcycles import (
    BudgetExhausted,
    ConstraintParams,
    Digraph,
    Labeling,
    ProductKind,
    ProductShape,
    SolveBudget,
    count_labelings,
    enumerate_labelings,
    exact_lambda,
    exists_cycle_pattern,
    exists_labeling,
    grid,
    oriented_cycle,
    oriented_path,
    product,
    torus,
    validate,
)
from oracles import NodeCap, brute_rows, dp_count_strong_grid4, forward_check, pair_gaps

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


class _Found(Exception):
    pass


def first_enumerated(g, k, params=ConstraintParams(), keep=lambda colors: True):
    """The least labeling that keep accepts, or None, as the enumeration path
    emits it; enumeration breaks no symmetry, so this is an independent
    check of the witness search's first-vertex and reflection rules."""

    def visitor(colors):
        if keep(colors):
            raise _Found(colors)

    try:
        enumerate_labelings(g, k, params, visitor=visitor)
    except _Found as found:
        return found.args[0]
    return None


@functools.cache
def least_enumerated(g, k):
    """first_enumerated(g, k), kept for every test that asks again."""
    return first_enumerated(g, k)


def witness_tuple(w):
    return None if w is None else w.as_tuple()


def with_pairs(g, extra):
    """g's constraints with extra (u, v, gap) pairs merged in, the way the
    window check adds its identity pair."""
    plain = solver.compile_constraints(g, ConstraintParams())
    return solver._compile_pairs(g.n_vertices, g.shape, plain.pairs + tuple(extra))


def search(cons, k, first=False):
    """solver._search's (witness, count) under the default budget."""
    return solver._search(cons, k, solver._Limits(SolveBudget().max_nodes), first=first)


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


def test_witnesses_are_labelings_and_words_are_tuples():
    # the search hands out color tuples; the public witnesses wrap them
    witnesses = [
        exists_labeling(torus(STRONG, 7, 7), 6),
        exact_lambda(torus(CART, 3, 4)).witness,
        lambda_numbers.verify_lemma_strong_local(span=7).witness,
    ]
    for w in witnesses:
        assert isinstance(w, Labeling) and w.shape is not None
        assert w.colors.dtype == np.int64 and not w.colors.flags.writeable
    word = exists_cycle_pattern(7, 6, (2, 2, 1, 1)).colors
    assert type(word) is tuple and all(type(c) is int for c in word)


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


# lambda of every torus with m = 3..6 rows and n = 3..6 columns; the
# enumeration path, which breaks no symmetry, confirms each value below
_TORUS_LAMBDA = {
    CART: ((4, 6, 5, 4), (6, 4, 6, 6), (5, 6, 4, 5), (4, 6, 5, 4)),
    STRONG: ((10, 11, 14, 9), (11, 9, 9, 10), (14, 9, 8, 9), (9, 10, 9, 7)),
}
# strong m x n whose span lambda - 1 takes the enumeration path from 33 s
# (4 x 6) to 9 minutes (3 x 5); the check passes there but is left out here
_SLOW_INFEASIBLE = {(3, 5), (5, 3), (4, 6)}


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("m", range(3, 7))
@pytest.mark.parametrize("n", range(3, 7))
def test_torus_witness_matches_enumeration(kind, m, n):
    # tori take the translation rule (vertex 0 tries color 0 only) and the
    # reflection rule (vertex 1 at most the color of the last in row 0);
    # enumeration uses no symmetry, so the least witness and None must agree
    g = torus(kind, m, n)
    value = _TORUS_LAMBDA[kind][m - 3][n - 3]
    w = exists_labeling(g, value)
    assert w is not None and w.as_tuple() == least_enumerated(g, value)
    if kind is STRONG and (m, n) in _SLOW_INFEASIBLE:
        return
    assert exists_labeling(g, value - 1) is None
    assert least_enumerated(g, value - 1) is None


def _lying_torus_shape():
    # an oriented path claiming to be a 2 x 2 torus
    path = oriented_path(4)
    return Digraph(4, path.out_edges, ProductShape(STRONG, 2, 2, cyclic=True))


def _exact_lambda_cases():
    for kind in (CART, STRONG):
        for m in range(3, 7):
            for n in range(3, 7):
                if not (kind is STRONG and (m, n) in _SLOW_INFEASIBLE):
                    yield pytest.param(functools.partial(torus, kind, m, n),
                                       id=f"{kind.value}-{m}x{n}")
    # tori whose count order is not id order, so that the scan races the two
    yield pytest.param(functools.partial(torus, STRONG, 3, 9), id="strong-3x9")
    yield pytest.param(functools.partial(torus, STRONG, 6, 7), id="strong-6x7")
    # graphs that translations do not preserve
    yield pytest.param(functools.partial(oriented_path, 4), id="oriented-path-4")
    yield pytest.param(_lying_torus_shape, id="lying-torus-shape")


@pytest.mark.parametrize("make", _exact_lambda_cases())
def test_exact_lambda_matches_enumeration(make):
    # enumeration races nothing and breaks no symmetry.  A labeling at one
    # span is one at every larger span, so the least span with an
    # enumerated labeling is the value when value - 1 has none
    g = make()
    res = exact_lambda(g)
    assert res.witness.as_tuple() == least_enumerated(g, res.value)
    assert least_enumerated(g, res.value - 1) is None


@pytest.mark.parametrize(
    "kind,params,value",
    [
        (CART, ConstraintParams(2, 1), 4),
        (CART, ConstraintParams(1, 0), 2),
        # the default strong span, 10, is beyond the brute oracle's reach
        (STRONG, ConstraintParams(2, 0), 4),
        (STRONG, ConstraintParams(1, 0), 2),
    ],
)
def test_torus_3x3_witness_matches_brute_oracle(kind, params, value):
    g = torus(kind, 3, 3)
    for k in (value - 1, value):
        rows = brute_rows(g, k, params.p, params.q)
        want = tuple(int(c) for c in rows[0]) if len(rows) else None
        assert witness_tuple(exists_labeling(g, k, params)) == want
    assert want is not None


def test_lying_torus_shape_keeps_the_least_witness():
    # translations do not preserve the pairs of this graph, so vertex 0
    # still tries colors up to floor(k/2)
    g = _lying_torus_shape()
    assert first_enumerated(g, 3) == (1, 3, 0, 2)
    assert exists_labeling(g, 3).as_tuple() == (1, 3, 0, 2)
    res = exact_lambda(g)
    assert (res.value, res.witness.as_tuple()) == (3, (1, 3, 0, 2))


@pytest.mark.parametrize("k,first_color", [(5, None), (6, 2), (7, 2), (8, 2)])
def test_asymmetric_extra_pair_keeps_the_least_witness(k, first_color):
    # (1, 3, k) forces the two neighbors (0, 1) and (1, 0) of vertex 0 onto
    # colors 0 and k, so no witness starts with color 0
    g = torus(CART, 3, 3)
    want = first_enumerated(g, k, keep=lambda c: abs(c[1] - c[3]) >= k)
    assert search(with_pairs(g, [(1, 3, k)]), k, first=True)[0] == want
    assert (None if want is None else want[0]) == first_color


def test_exact_lambda_p4_witness():
    assert exact_lambda(oriented_path(4)).witness.as_tuple() == (1, 3, 0, 2)


def test_exact_lambda_trivial_params():
    # with p = q = 0 nothing is constrained
    assert exact_lambda(oriented_cycle(5), ConstraintParams(0, 0)).value == 0


def test_node_budget_raises_with_node_count():
    # the span-6 witness takes 49 nodes
    g = torus(STRONG, 7, 7)
    with pytest.raises(BudgetExhausted) as exc:
        exists_labeling(g, 6, budget=SolveBudget(max_nodes=48))
    assert exc.value.nodes == 49
    assert exists_labeling(g, 6, budget=SolveBudget(max_nodes=49)) is not None
    # same budget class for enumeration
    with pytest.raises(BudgetExhausted):
        enumerate_labelings(grid(CART, 3, 3), 4, budget=SolveBudget(max_nodes=10))


def test_budget_covers_every_span_of_exact_lambda():
    # the scan spends 27,668 nodes in all; no single span reaches 20,000
    # (the largest, k = 7, takes 16,981 over both orders of the race)
    g = torus(STRONG, 7, 8)
    with pytest.raises(BudgetExhausted):
        exact_lambda(g, budget=SolveBudget(max_nodes=20_000))
    with pytest.raises(BudgetExhausted) as exc:
        exact_lambda(g, budget=SolveBudget(max_nodes=27_667))
    assert exc.value.nodes == 27_668
    assert exact_lambda(g, budget=SolveBudget(max_nodes=27_668)).value == 8


@pytest.mark.parametrize("m,n,max_nodes", [(3, 9, 15_000), (6, 7, 7_000)])
def test_count_order_settles_infeasible_spans(m, n, max_nodes):
    # id order alone spends 16,968 nodes on strong 3x9 and 9,763 on 6x7;
    # the race proves span 7 infeasible in 144 and 2,052 (both orders'
    # nodes), which brings the scans to 12,171 and 4,975
    res = exact_lambda(torus(STRONG, m, n), budget=SolveBudget(max_nodes=max_nodes))
    assert res.value == 8


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("max_nodes,expected", [(500, None), (700, 180)])
def test_workers_share_one_node_budget(workers, max_nodes, expected):
    # the full count takes 591 nodes whatever workers says: it is a no-op
    g, budget = grid(STRONG, 4, 4), SolveBudget(max_nodes=max_nodes)
    if expected is None:
        with pytest.raises(BudgetExhausted):
            count_labelings(g, 6, budget=budget, workers=workers)
    else:
        assert count_labelings(g, 6, budget=budget, workers=workers) == expected


def test_budget_exhaustion_crosses_the_pool():
    # workers is a no-op: the count runs in this process and raises here
    with pytest.raises(BudgetExhausted) as exc:
        count_labelings(grid(CART, 3, 3), 4, budget=SolveBudget(max_nodes=10), workers=2)
    assert exc.value.nodes > 10


# prints the nodes spent and this process's peak resident set in kB.  On
# Linux ru_maxrss keeps the peak of the process that started this one
# across exec (it read 861 MB under pytest), so VmHWM is read where it exists
_HUGE_SPAN_COUNT = """
import resource
from lpqcycles import BudgetExhausted, ProductKind, SolveBudget, count_labelings, grid
try:
    count_labelings(grid(ProductKind.CARTESIAN, 3, 3), 60_000, budget=SolveBudget(max_nodes=10))
except BudgetExhausted as exc:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fp:
            peak = next(int(line.split()[1]) for line in fp if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    print(exc.nodes, peak)
"""


def test_node_budget_bounds_memory_at_a_huge_span():
    # nothing is built per span ahead of the first node, so memory follows
    # the nodes spent: ten nodes at span 60,000 stay small
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", _HUGE_SPAN_COUNT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    nodes, max_rss_kb = map(int, out.stdout.split())
    assert nodes == 11
    assert max_rss_kb < 120 * 1024


@pytest.mark.parametrize("m,n,value", [(9, 9, 8), (4, 6, 10)])
def test_exact_lambda_reaches_strong_tori_within_a_million_nodes(m, n, value):
    # forced colors are assigned before branching and witness searches
    # take the reflection rule: strong 9x9 takes 318,981 nodes and 4x6
    # takes 338,452, where plain forward checking spent 8.22 M and 2.57 M
    g = torus(STRONG, m, n)
    res = exact_lambda(g, budget=SolveBudget(max_nodes=1_000_000))
    assert res.value == value
    assert validate(g, res.witness) == []


def test_budget_validation():
    with pytest.raises(ValueError):
        SolveBudget(max_nodes=0)


def test_determinism_across_runs():
    g = torus(STRONG, 7, 7)
    a = collect(g, 6)
    b = collect(g, 6)
    assert a == b
    assert exists_labeling(g, 6).as_tuple() == exists_labeling(g, 6).as_tuple()


def test_an_extra_pair_restricts_the_count():
    g = grid(CART, 3, 3)
    total = count_labelings(g, 4)
    rows = brute_rows(g, 4)
    assert total == len(rows)
    # counterexamples to f(4) = f(2): no constraint relates those vertices
    _w, differ = search(with_pairs(g, [(4, 2, 1)]), 4)
    assert differ == int((rows[:, 4] != rows[:, 2]).sum())
    assert differ == 0
    _w, differ5 = search(with_pairs(g, [(4, 2, 1)]), 5)
    rows5 = brute_rows(g, 5)
    assert differ5 == int((rows5[:, 4] != rows5[:, 2]).sum()) > 0


def test_compile_pairs_guard():
    for bad in ((0, 0, 1), (0, 9, 1), (-1, 2, 1)):
        with pytest.raises(ValueError):
            solver._compile_pairs(3, None, [bad])


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_parallel_count_invariance(workers):
    g = grid(CART, 3, 3)
    assert count_labelings(g, 4, workers=workers) == 44


def test_parallel_matches_sequential_on_strong_grid():
    g = grid(STRONG, 4, 4)
    assert count_labelings(g, 6, workers=3) == count_labelings(g, 6) == 180
    assert count_labelings(g, 6) == dp_count_strong_grid4(6)


# tori whose count at lambda takes over 300,000 nodes; they are checked at
# lambda - 1 only
_HEAVY_COUNTS = {
    (CART, 4, 5), (CART, 5, 4),
    (STRONG, 3, 4), (STRONG, 4, 3), (STRONG, 4, 4), (STRONG, 4, 5), (STRONG, 5, 4),
}


def _least_labeling_case(shape, kind, m, n, k, identity=False):
    name = f"{kind.value}-{shape}-{m}x{n}-span-{k}" + "-identity" * identity
    return pytest.param((shape, kind, m, n, k, identity), id=name)


def _least_labeling_cases():
    # both window grids at every span, with and without the pair of the
    # window identity
    for kind, side in ((CART, 3), (STRONG, 4)):
        for k in range(3, 8):
            for identity in (False, True):
                yield _least_labeling_case("grid", kind, side, side, k, identity)
    for kind in (CART, STRONG):
        for m in range(3, 6):
            for n in range(3, 6):
                if kind is STRONG and (m, n) in _SLOW_INFEASIBLE:
                    continue
                value = _TORUS_LAMBDA[kind][m - 3][n - 3]
                heavy = (kind, m, n) in _HEAVY_COUNTS
                for k in (value - 1,) if heavy else (value - 1, value):
                    yield _least_labeling_case("torus", kind, m, n, k)
    yield _least_labeling_case("torus", STRONG, 7, 7, 6)
    # the count meets (0, 2, 6, 4, 3, 1) first; the least is (0, 2, 2, 4, 4, 6)
    yield _least_labeling_case("grid", STRONG, 3, 2, 6)


@functools.cache
def _enumerated(case):
    """(graph, span, extra pairs) and what id-order enumeration reports for
    them: the count and the least labeling, or None."""

    shape, kind, m, n, k, identity = case
    g = (grid if shape == "grid" else torus)(kind, m, n)
    extra = ()
    if identity:
        _window, u, v = lambda_numbers._local_identity(kind)
        extra = ((u, v, 1),)
    found = [0, None]

    def visitor(colors):
        if all(colors[u] != colors[v] for u, v, _gap in extra):
            found[0] += 1
            found[1] = found[1] or colors

    enumerate_labelings(g, k, visitor=visitor)
    return g, k, extra, found[0], found[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", _least_labeling_cases())
def test_count_returns_the_least_labeling(case, workers):
    # counts assign vertices in _count_order's order, enumeration in id
    # order; both must find the same labelings.  A count returns no
    # witness: the least labeling is the id-order witness search's, and it
    # must be the first one enumeration meets.  workers reaches only
    # count_labelings, where it is a no-op; the cases with the identity
    # pair, which no public call poses, are compiled as the window check
    # compiles them
    g, k, extra, count, least = _enumerated(case)
    if not extra:
        assert count_labelings(g, k, workers=workers) == count
    cons = with_pairs(g, extra)
    limits = solver._Limits(SolveBudget().max_nodes)
    assert solver._search(cons, k, limits) == (None, count)
    witness, _count = solver._search(cons, k, limits, first=True)
    assert witness == least


def test_strong_grid_counts_against_dp_oracle():
    g = grid(STRONG, 4, 4)
    for k in (5, 6, 7):
        assert count_labelings(g, k) == dp_count_strong_grid4(k)


@pytest.mark.parametrize("kind,side,k,count,nodes", [
    (CART, 3, 4, 44, 124), (CART, 3, 5, 1088, 1426),
    (STRONG, 4, 6, 180, 591), (STRONG, 4, 7, 29444, 31496),
])
def test_window_counts_spend_pinned_nodes(kind, side, k, count, nodes):
    # the window grids' counts, one _Limits around each: one search runs
    # vertex 0 over the colors up to k/2, and the reversal counts the
    # labelings with vertex 0 below k/2 twice
    cons = solver.compile_constraints(grid(kind, side, side), ConstraintParams())
    limits = solver._Limits(SolveBudget().max_nodes)
    assert solver._search(cons, k, limits) == (None, count)
    assert limits.spent == nodes


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


# nodes each side of the differential test may spend; searches that reach
# it compare where and how they stop instead
_DIFF_CAP = 3_000


def _plain(make, *args):
    return solver.compile_constraints(make(*args), ConstraintParams())


def _word_pairs(length, conditions):
    # the cyclic word search's pairs: offset t at gap c_t from every position
    return [(s, (s + t) % length, c)
            for t, c in enumerate(conditions, 1) if c for s in range(length)]


def _word(length, conditions):
    return solver._compile_pairs(length, None, _word_pairs(length, conditions))


def _differential_cases():
    rng = random.Random(18)
    cases = []
    for kind in (CART, STRONG):
        for m, n in rng.sample([(m, n) for m in range(3, 7) for n in range(3, 7)], 4):
            cases.append(pytest.param(functools.partial(_plain, torus, kind, m, n),
                                      _TORUS_LAMBDA[kind][m - 3][n - 3],
                                      id=f"torus-{kind.value}-{m}x{n}"))
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        cases.append(pytest.param(functools.partial(_plain, grid, kind, m, n), None,
                                  id=f"grid-{kind.value}-{m}x{n}"))
    for length in rng.sample(range(3, 10), 3):
        cases.append(pytest.param(functools.partial(_plain, oriented_cycle, length), None,
                                  id=f"cycle-{length}"))
    for conditions in ((2, 1), (2, 2, 1, 1), (3, 0, 1)):
        length = rng.randint(5, 15)
        cases.append(pytest.param(functools.partial(_word, length, conditions), None,
                                  id=f"word-{length}-{''.join(map(str, conditions))}"))
    # vertex 1 and its reflection share no pair in these two, so only the
    # guard bit of the reflection rule marks the field it cuts as touched
    cases.append(pytest.param(functools.partial(_word, 9, (2, 0, 0, 1)), None, id="word-9-2001"))
    cases.append(pytest.param(
        functools.partial(solver.compile_constraints, torus(CART, 3, 5), ConstraintParams(2, 0)),
        None, id="torus-cartesian-3x5-p2q0"))
    return cases


def _oracle(cons, order, k, top, first, visit, propagate=True, below=None, halve=False):
    seen = []
    try:
        witness, count, nodes = forward_check(
            cons.n_vertices, cons.pairs, order, k, top, first,
            seen.append if visit else None, _DIFF_CAP, propagate, below, halve)
    except NodeCap as cap:
        return "exhausted", cap.nodes, seen
    return (witness, count), nodes, seen


def _outcome(limits, call):
    seen = []
    try:
        found = call(seen.append)
    except BudgetExhausted as exc:
        assert exc.nodes == limits.spent
        return "exhausted", limits.spent, seen
    return found, limits.spent, seen


def _least_span(cons):
    # the least span with a labeling, found by the oracle alone
    ident, k = list(range(cons.n_vertices)), 0
    while True:
        found, _nodes, _seen = _oracle(cons, ident, k, 0 if cons.transitive else k // 2,
                                       True, False)
        assert found != "exhausted"
        if found[0] is not None:
            return k
        k += 1


@pytest.mark.parametrize("make,value", _differential_cases())
def test_kernel_matches_a_plain_forward_checker(make, value):
    # the packed-domain kernel against set-based forward checking with the
    # same propagation of forced colors: same witness, count, visitor
    # sequence and node count (read from _Limits.spent) in id order and in
    # the count order, searching for a witness, counting and visiting, at
    # spans lambda - 1 and lambda.  A witness search on a transitive graph
    # takes the reflection rule color(1) <= color(cons.mirror) in either
    # order.  _run splits its labelings by the color of position 0, whose
    # sum is the oracle's count; _search's counts apply the reversal to
    # that split and match the oracle's halved count.  Propagation
    # changes only the nodes spent: plain forward checking, which assigns
    # every position in order, finds the same witness and count and visits
    # the same sequence, up to where either side stops at the cap
    cons = make()
    ident, counted = list(range(cons.n_vertices)), solver._count_order(cons)
    value = _least_span(cons) if value is None else value
    for k in (value - 1, value):
        if k < 0:
            continue
        for order in (ident, counted):
            fwd = solver._forward(cons, order)
            for first, visit in ((True, False), (False, False), (False, True)):
                counting = not first and not visit
                top = (0 if cons.transitive else k // 2) if first else k
                below = (1, cons.mirror) if first and cons.mirror is not None else None
                rule = below and (order.index(below[0]), order.index(below[1]))
                limits = solver._Limits(_DIFF_CAP)
                splits = []

                def call(visitor):
                    run = solver._run(cons.n_vertices, fwd, k, (1 << (top + 1)) - 1,
                                      first, visitor if visit else None, rule)
                    witness, split = solver._drive(run, limits)
                    splits.append(split)
                    return witness, sum(split)

                want = _oracle(cons, order, k, top, first, visit, below=below)
                assert _outcome(limits, call) == want, (k, order == ident, first, visit)
                if visit and want[0] != "exhausted":
                    # the split tallies the labelings by the color of position 0
                    assert splits == [[sum(s[0] == c for s in want[2]) for c in range(top + 1)]]
                plain = _oracle(cons, order, k, top, first, visit, False, below)
                if "exhausted" not in (want[0], plain[0]):
                    assert plain[0] == want[0] and plain[2] == want[2]
                else:
                    shorter, longer = sorted((plain[2], want[2]), key=len)
                    assert longer[:len(shorter)] == shorter
                if order is (counted if counting else ident):
                    # the order _search takes for this mode
                    limits = solver._Limits(_DIFF_CAP)
                    got = _outcome(limits, lambda visitor: solver._search(
                        cons, k, limits, first, visitor if visit else None))
                    assert got == _oracle(cons, order, k, top, first, visit,
                                          below=below, halve=counting)


def _merged(gaps, extra):
    # extra pairs merged into gaps by the larger gap, gap 0 dropped
    gaps = dict(gaps)
    for u, v, gap in extra:
        key = (min(u, v), max(u, v))
        gaps[key] = max(gap, gaps.get(key, 0))
    return {pair: gap for pair, gap in gaps.items() if gap > 0}


def _graph_case(g, params=ConstraintParams(), extra=()):
    # the graph's pairs, read off its adjacency matrix, with extra pairs
    # merged in the way the window check adds its identity pair
    cons = solver.compile_constraints(g, params)
    if extra:
        cons = solver._compile_pairs(g.n_vertices, g.shape, cons.pairs + extra)
    return cons, _merged(pair_gaps(g, params.p, params.q), extra)


def _pairs_case(n, shape, triples):
    return solver._compile_pairs(n, shape, triples), _merged({}, triples)


def _compile_cases():
    def case(make, *args, transitive, name):
        return pytest.param(functools.partial(make, *args), transitive, id=name)

    for kind in (CART, STRONG):
        for m, n in ((3, 3), (3, 4), (4, 6), (5, 5), (3, 9), (7, 8)):
            yield case(_graph_case, torus(kind, m, n), transitive=True,
                       name=f"torus-{kind.value}-{m}x{n}")
        yield case(_graph_case, torus(kind, 4, 5), ConstraintParams(1, 0), transitive=True,
                   name=f"torus-{kind.value}-4x5-p1q0")
        for m, n in ((3, 3), (2, 4), (4, 4)):
            yield case(_graph_case, grid(kind, m, n), transitive=False,
                       name=f"grid-{kind.value}-{m}x{n}")
    for n in (3, 5, 8):
        yield case(_graph_case, oriented_cycle(n), transitive=True, name=f"cycle-{n}")
    yield case(_graph_case, oriented_path(5), transitive=False, name="path-5")
    yield case(_graph_case, _lying_torus_shape(), transitive=False, name="lying-torus-shape")
    for length, conditions in ((7, (2, 2, 1, 1)), (12, (2, 1)), (9, (3, 0, 1))):
        yield case(_pairs_case, length, None, _word_pairs(length, conditions), transitive=True,
                   name=f"word-{length}-{''.join(map(str, conditions))}")
    yield case(_pairs_case, 8, None, _word_pairs(8, (2, 1)) + [(0, 4, 3)], transitive=False,
               name="word-8-21-one-more")
    # repeated and weaker extra pairs keep the larger gap
    yield case(_graph_case, torus(CART, 3, 3), ConstraintParams(),
               ((1, 3, 5), (3, 1, 2), (0, 1, 1), (4, 2, 0)), transitive=False,
               name="torus-cartesian-3x3-extra")
    # a 3 x 4 torus shape whose pairs only the column shift keeps
    yield case(_pairs_case, 12, ProductShape(CART, 3, 4, cyclic=True),
               ((0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2)), transitive=False,
               name="row-0-cycle-in-a-3x4-shape")


@pytest.mark.parametrize("make,transitive", _compile_cases())
def test_compile_constraints_matches_its_definition(make, transitive):
    # pairs: the definition's pair -> gap map, sorted.  transitive: the row
    # and the column shift of the shape's torus (one row of n when there is
    # none) map the pair -> gap map onto itself.  mirror: where the point
    # reflection v -> -v sends vertex 1, when transitive holds and that is
    # another vertex; the reflection then keeps the pair -> gap map too
    cons, gaps = make()
    assert cons.pairs == tuple(sorted((u, v, gap) for (u, v), gap in gaps.items()))
    n, shape = cons.n_vertices, cons.shape
    cols = n
    if shape is not None and shape.cyclic and shape.rows * shape.cols == n:
        cols = shape.cols
    shifts = (lambda v: (v + cols) % n, lambda v: v // cols * cols + (v + 1) % cols)
    images = [{(min(f(u), f(v)), max(f(u), f(v))): gap for (u, v), gap in gaps.items()}
              for f in shifts]
    assert cons.transitive == all(image == gaps for image in images) == transitive

    def negate(v):
        i, j = divmod(v, cols)
        return -i % (n // cols) * cols + -j % cols

    if transitive:
        assert {(min(negate(u), negate(v)), max(negate(u), negate(v))): gap
                for (u, v), gap in gaps.items()} == gaps
    assert cons.mirror == (negate(1) if transitive and negate(1) != 1 else None)
